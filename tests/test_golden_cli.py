"""Golden outputs: the exact stdout and exit code of the README examples and
a few more CLI runs, recorded in tests/golden/cli.json.

A change that is meant to keep behaviour must pass this test unchanged.  To
record the outputs again after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sdowling import cli

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

RUNS = [
    # the README examples
    ["build", "--group", "Z2:2:swap", "--n", "2", "--T", "", "--dot"],
    ["verify-el", "--group", "Z2:2", "--n", "3", "--labeling", "lambda"],
    ["count-chains", "--group", "Z2:2", "--n", "3"],
    ["charpoly", "--group", "Z2:1", "--n", "2"],
    ["moebius", "--group", "Z2:2", "--n", "2"],
    ["trees", "--nodes", "3", "--q", "2", "--r", "1", "--count-only"],
    ["bijection", "--group", "Z3:2", "--n", "2"],
    ["homology", "--group", "Z4:2:swap", "--n", "2", "--T", ""],
    ["certify", "--group", "Z2:2", "--n", "2", "--dim", "1", "--count", "3"],
    ["certify", "--paper-suite"],
    ["reduce", "--group", "Z2:2:swap", "--n", "2", "--T", "", "--orbit", "0"],
    # failing verdicts, the other labeling, filtered posets and size caps
    ["verify-el", "--group", "Z3:3:cycle", "--n", "3", "--T", "0,1,2", "--labeling", "mu"],
    ["verify-el", "--group", "Z2:2:swap", "--n", "2", "--T", ""],
    ["count-chains", "--group", "Z2:2", "--n", "2", "--labeling", "mu"],
    ["count-chains", "--group", "Z2:1", "--n", "2"],
    ["bijection", "--group", "Z2:3:swap", "--n", "3"],
    ["reduce", "--group", "Z2:3:swap", "--n", "3", "--T", "", "--orbit", "0"],
    ["reduce", "--group", "Z2:2:swap", "--n", "2", "--T", "", "--orbit", "0", "--ascii"],
    ["build", "--group", "Z2:2", "--n", "2", "--hat"],
    ["build", "--group", "Z2:2:swap", "--n", "2", "--T", "", "--ascii", "--pretty"],
    ["build", "--group", "Z2:3", "--n", "3", "--max-elements", "10"],
    ["trees", "--nodes", "3", "--q", "0", "--r", "0"],
    ["charpoly", "--group", "Z3:3:cycle", "--n", "2", "--T", "0,1,2"],
    ["moebius", "--group", "Z2:3:swap", "--n", "2", "--T", "2"],
    ["homology", "--group", "Z2:2", "--n", "3", "--max-faces", "10"],
    ["certify", "--group", "Z4:2:swap", "--n", "2", "--T", "", "--dim", "1", "--count", "2"],
]


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_run(golden):
    assert [g["argv"] for g in golden] == RUNS


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    expected = next(g for g in golden if g["argv"] == argv)
    got = run(argv)
    assert got["exit"] == expected["exit"]
    assert got["stdout"].encode("utf-8") == expected["stdout"].encode("utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps([run(argv) for argv in RUNS], indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    sys.exit(0)
