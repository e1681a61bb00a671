import itertools
import json
import tracemalloc

import pytest

from sdowling import cli, trees


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


def test_trees_streams_its_output(capsys, tmp_path):
    """Trees are written as they are generated, so a 65,835-tree run
    (6.7 MB of JSON) allocates a small fraction of its output at peak."""
    target = tmp_path / "trees.json"
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "trees", "--nodes", "6", "--q", "2", "--r", "2",
                           "--out", str(target))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and out == ""
    assert peak < 2 * 2**20
    # the same bytes as one json.dumps of the whole document
    expected = {"count": 65835, "nodes": 6, "q": 2, "r": 2,
                "trees": list(trees.enumerate_blooming(6, 2, 2))}
    assert target.read_text() == json.dumps(expected, sort_keys=True) + "\n"


def test_trees_enumeration_short_of_the_count_exits_1(capsys, monkeypatch):
    enumerate_blooming = trees.enumerate_blooming
    monkeypatch.setattr(trees, "enumerate_blooming",
                        lambda *a: itertools.islice(enumerate_blooming(*a), 2))
    code, _, err = run(capsys, "trees", "--nodes", "3", "--q", "0", "--r", "0")
    assert code == 1
    assert "disagrees with the count formula" in err


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


@pytest.mark.parametrize("option", [
    ["--group", "Z2:2"], ["--n", "9"], ["--T", ""], ["--dim", "4"], ["--count", "7"],
    ["--max-elements", "10"], ["--max-faces", "10"],
    ["--group", "Z2:2", "--n", "9", "--dim", "4", "--count", "7", "--T", "0"],
])
def test_paper_suite_rejects_single_run_options(capsys, option):
    code, out, err = run(capsys, "certify", "--paper-suite", *option)
    assert code == 2
    assert out == ""
    assert option[0] in err


def test_paper_suite_keeps_out_and_pretty(capsys, tmp_path, monkeypatch):
    from sdowling import acceptance

    monkeypatch.setattr(acceptance, "run_suite", lambda progress: [])
    target = tmp_path / "suite.json"
    code, out, _ = run(capsys, "certify", "--paper-suite", "--out", str(target), "--pretty")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == []


@pytest.mark.parametrize("argv", [
    ["build", "--group", "Z2:2", "--n", "0"],
    ["count-chains", "--group", "Z2:2", "--n", "-1"],
    ["trees", "--nodes", "0", "--q", "1", "--r", "1"],
    ["trees", "--nodes", "2", "--q", "-1", "--r", "1"],
    ["trees", "--nodes", "2", "--q", "1", "--r", "-1"],
    ["build", "--group", "Z2:2", "--n", "2", "--max-elements", "0"],
    ["homology", "--group", "Z2:2", "--n", "2", "--max-faces", "-1"],
    ["certify", "--group", "Z2:2", "--n", "2", "--dim", "1", "--count", "3",
     "--max-faces", "0"],
    ["trees", "--nodes", "3", "--q", "1", "--r", "1", "--max-trees", "0"],
])
def test_out_of_range_sizes_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be at least" in err


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
    swap = tmp_path / "z2swap.json"
    swap.write_text(json.dumps({"order": 2, "mult": [[0, 1], [1, 0]],
                                "set_size": 2, "act": [[0, 1], [1, 0]]}))
    not_a_group = tmp_path / "not_a_group.json"
    not_a_group.write_text(json.dumps({"order": 2, "mult": [[0, 1], [1, 1]],
                                       "set_size": 0, "act": [[], []]}))
    flat_mult = tmp_path / "flat_mult.json"
    flat_mult.write_text(json.dumps({"order": 1, "mult": [0], "set_size": 0, "act": [[]]}))
    # JSON true is an int to Python: an order, a color count or a table
    # entry that is a boolean is malformed
    booleans = []
    for name, spec in (
        ("order", {"order": True, "mult": [[0]], "set_size": 1, "act": [[0]]}),
        ("set_size", {"order": 1, "mult": [[0]], "set_size": True, "act": [[0]]}),
        ("mult", {"order": 2, "mult": [[0, True], [True, 0]], "set_size": 0, "act": [[], []]}),
        ("act", {"order": 2, "mult": [[0, 1], [1, 0]], "set_size": 2,
                 "act": [[0, True], [True, 0]]}),
    ):
        booleans.append(tmp_path / f"bool_{name}.json")
        booleans[-1].write_text(json.dumps(spec))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"order": 1, "mult": [[0]], "set_size": 0, "act": [[]], "\xe9": 0}')
    # colors, color counts and orbits out of range, tables that are no group,
    # a T not closed under the action, and undecodable files: one error line,
    # no traceback
    for argv in (
        ["homology", "--group", "Z2:2", "--n", "2", "--T", "5"],
        ["reduce", "--group", "Z2:3:swap", "--n", "2", "--T", "5", "--orbit", "0"],
        ["build", "--group", str(swap), "--n", "2", "--T", "0,1,7"],
        ["build", "--group", "Z2:-1", "--n", "2"],
        ["count-chains", "--group", "Z2:-2", "--n", "2"],
        ["reduce", "--group", "Z2:2:swap", "--n", "2", "--T", "", "--orbit", "9"],
        ["build", "--group", str(not_a_group), "--n", "2"],
        ["homology", "--group", "Z2:2:swap", "--n", "2", "--T", "0"],
        ["build", "--group", str(latin1), "--n", "2"],
        ["build", "--group", str(flat_mult), "--n", "2"],
        *(["build", "--group", str(path), "--n", "2"] for path in booleans),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("spec,message", [
    ("Z2:2:swap:x", "bad builtin action spec 'Z2:2:swap:x'"),
    ("Z2:2:cycle", "no action 'cycle' for Z2 on 2 colors; have ['swap', 'trivial']"),
])
def test_bad_builtin_action_specs_exit_2(capsys, spec, message):
    assert run(capsys, "build", "--group", spec, "--n", "2") == (2, "", f"error: {message}\n")


def test_usage_error_exit_2(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


def test_size_cap_exits_1(capsys):
    code, _, err = run(capsys, "build", "--group", "Z2:3", "--n", "3",
                       "--max-elements", "10")
    assert code == 1
    assert "error" in err


def test_out_of_memory_exits_1(capsys, monkeypatch):
    """A MemoryError is reported in one line, with exit 1 as for a size
    cap, not as a traceback."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "build_dowling", exhausted)
    assert run(capsys, "count-chains", "--group", "Z4:3", "--n", "6") == (1, "", "error: out of memory\n")


def test_out_file_and_pretty(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "moebius", "--group", "Z2:2", "--n", "2",
                       "--pretty", "--out", str(target))
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data == {"value": -3}
    assert "\n" in target.read_text().strip()
