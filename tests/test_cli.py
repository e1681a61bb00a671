import json

import pytest

from sdowling import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_trees_count_only(capsys):
    code, out, _ = run(capsys, "trees", "--nodes", "3", "--q", "2", "--r", "1",
                       "--count-only")
    assert code == 0
    assert json.loads(out) == {"count": 18, "nodes": 3, "q": 2, "r": 1}


def test_trees_enumeration_agrees(capsys):
    code, out, _ = run(capsys, "trees", "--nodes", "3", "--q", "0", "--r", "0")
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 3
    assert len(data["trees"]) == 3


def test_count_chains_example(capsys):
    code, out, _ = run(capsys, "count-chains", "--group", "Z2:2", "--n", "3")
    assert code == 0
    assert json.loads(out) == {"decreasing": 15, "formula": 15, "match": True}


def test_verify_el_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "verify-el", "--group", "Z2:2", "--n", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run(capsys, "verify-el", "--group", "Z2:2:swap", "--n", "2",
                       "--T", "")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["failureCount"] > 0


def test_build_dot_figure_shape(capsys):
    code, out, _ = run(capsys, "build", "--group", "Z2:2:swap", "--n", "2",
                       "--T", "", "--dot", "--ascii")
    assert code == 0
    assert out.startswith("digraph")
    # 7 elements, 6 cover edges
    assert out.count("label=") == 7
    assert out.count("->") == 6


def test_build_json_deterministic(capsys):
    args = ("build", "--group", "Z4:2:swap", "--n", "2", "--T", "")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["size"] == 9


def test_removed_jobs_flag_is_rejected(capsys):
    base = ("homology", "--group", "Z2:2:swap", "--n", "2", "--T", "")
    code, out, _ = run(capsys, *base)
    assert code == 0
    assert json.loads(out)["betti"] == [1, 0]
    code, out, _ = run(capsys, *base, "--jobs", "4")
    assert code == 2
    assert out == ""


def test_options_are_rejected_where_they_would_be_ignored(capsys):
    code, out, _ = run(capsys, "count-chains", "--group", "Z2:2:swap", "--n", "2",
                       "--T", "")
    assert code == 2
    assert out == ""
    code, out, _ = run(capsys, "trees", "--nodes", "3", "--q", "2", "--r", "1",
                       "--labeling", "mu")
    assert code == 2
    assert out == ""


def _registered_options(parser):
    subs = next(a for a in parser._actions if a.dest == "command").choices
    return {
        name: {opt for a in sub._actions if a.dest != "help" for opt in a.option_strings}
        for name, sub in subs.items()
    }


def test_each_subcommand_registers_only_the_options_it_reads():
    poset = {"--group", "--n", "--max-elements", "--pretty", "--out"}
    expected = {
        "build": poset | {"--T", "--ascii", "--hat", "--dot"},
        "verify-el": poset | {"--T", "--labeling"},
        "count-chains": poset | {"--labeling"},
        "charpoly": poset | {"--T"},
        "moebius": poset | {"--T"},
        "trees": {"--nodes", "--q", "--r", "--count-only", "--max-trees",
                  "--pretty", "--out"},
        "bijection": poset,
        "homology": poset | {"--T", "--max-faces"},
        "certify": poset | {"--T", "--max-faces", "--dim", "--count", "--paper-suite"},
        "reduce": poset | {"--T", "--ascii", "--orbit"},
    }
    assert _registered_options(cli.build_parser()) == expected


def test_charpoly_and_moebius(capsys):
    code, out, _ = run(capsys, "charpoly", "--group", "Z2:1", "--n", "2")
    assert code == 0
    assert json.loads(out)["coefficients"] == [3, -4, 1]
    code, out, _ = run(capsys, "moebius", "--group", "Z2:2", "--n", "2")
    assert code == 0
    assert json.loads(out)["value"] == -3


def test_certify_pass_fail(capsys):
    code, out, _ = run(capsys, "certify", "--group", "Z2:2", "--n", "2",
                       "--dim", "1", "--count", "3")
    assert code == 0
    assert json.loads(out)["verdict"] == "homology-consistent"
    code, out, _ = run(capsys, "certify", "--group", "Z4:2:swap", "--n", "2",
                       "--T", "", "--dim", "1", "--count", "2")
    assert code == 1
    assert json.loads(out)["verdict"] == "mismatch"


def test_certify_requires_arguments(capsys):
    code, _, err = run(capsys, "certify")
    assert code == 2
    assert "certify needs" in err


def test_reduce_subcommand(capsys):
    code, out, _ = run(capsys, "reduce", "--group", "Z2:2:swap", "--n", "2",
                       "--T", "", "--orbit", "0")
    assert code == 0
    data = json.loads(out)
    assert data["closureReport"]["passed"] is True
    assert data["reducedPoset"]["size"] == 3


def test_bijection_subcommand(capsys):
    code, out, _ = run(capsys, "bijection", "--group", "Z3:2", "--n", "2")
    assert code == 0
    assert json.loads(out)["bijective"] is True
    # one color: no decreasing chains, and a case the bijection does not cover
    code, out, err = run(capsys, "bijection", "--group", "Z2:1", "--n", "2")
    assert code == 1
    assert out == ""
    assert "the bijection covers" in err


def test_group_file_loading(capsys, tmp_path):
    spec = {
        "order": 2,
        "mult": [[0, 1], [1, 0]],
        "set_size": 2,
        "act": [[0, 1], [1, 0]],
    }
    path = tmp_path / "z2swap.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "build", "--group", str(path), "--n", "2", "--T", "")
    assert code == 0
    assert json.loads(out)["size"] == 7


def test_bad_inputs_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "build", "--group", "Nope:2", "--n", "2")
    assert code == 2
    code, _, _ = run(capsys, "build", "--group", "Z2:2", "--n", "2", "--T", "1,x")
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"order": 2}')
    code, _, _ = run(capsys, "build", "--group", str(bad), "--n", "2")
    assert code == 2
    code, _, _ = run(capsys, "build", "--group", str(tmp_path / "missing.json"),
                     "--n", "2")
    assert code == 2


def test_usage_error_exit_2(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


def test_size_cap_exits_1(capsys):
    code, _, err = run(capsys, "build", "--group", "Z2:3", "--n", "3",
                       "--max-elements", "10")
    assert code == 1
    assert "error" in err


def test_out_file_and_pretty(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "moebius", "--group", "Z2:2", "--n", "2",
                       "--pretty", "--out", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data == {"value": -3}
    assert "\n" in target.read_text().strip()
