"""Golden output of every CLI command: exit code, stdout and stderr, byte for byte.

Each case runs ``main`` in process with ``--no-persist`` on one of the fixed
documents below, in both output formats, from the directory that holds the
documents, so that a message naming a document names it by its file name.
The expected outputs live in ``cli_golden.json`` next to this file. After a
deliberate change of output, rewrite that file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chainrep.cli import main
from chainrep.counterexample import V0_CELLS

GOLDEN = Path(__file__).with_name("cli_golden.json")


def keyed(labels, value):
    """Set-function document with one value(mask) per subset of the labels."""
    return {"ground_set": labels, "values": {
        ",".join(x for i, x in enumerate(labels) if s >> i & 1): str(value(s))
        for s in range(1 << len(labels))}}


def capped_sum(m, cap):
    return keyed([str(i + 1) for i in range(m)],
                 lambda s: min(cap, sum(i + 1 for i in range(m) if s >> i & 1)))


def squared_size(s):
    # Monotone and supermodular: |A|^2 / 3 plus half of the label sum.
    size = bin(s).count("1")
    return Fraction(size * size, 3) + Fraction(sum(i + 1 for i in range(4) if s >> i & 1), 2)


DOCUMENTS = {
    "V0": {"ground_set": ["1", "2", "3", "4"],
           "values": {k: str(x) for k, x in V0_CELLS.items()}},
    "CAPPED5": capped_sum(5, 9),
    "RATIONAL4": keyed(["1", "2", "3", "4"], squared_size),
    # v({2}) < v({}) and v({1}) + v({2}) < v({1,2}): neither monotone nor submodular.
    "NONMONO2": {"ground_set": ["a", "b"],
                 "values": {"": "0", "a": "2", "b": "-1", "a,b": "3"}},
    "SPACE3": {"ground_set": ["x", "y", "z"],
               "nu": ["1", "2", "1"], "density": ["2", "1/2", "1"]},
    "CAPPED10": capped_sum(10, 30),
    # Written as it stands: a dict cannot hold the repeated key.
    "REPEATED": '{"ground_set": ["1", "2"], '
                '"values": {"": "0", "1": "1", "2": "1", "1,2": "3/2", "1,2": "5"}}',
}

SET_FUNCTION_RUNS = [
    ["check"], ["iterate"], ["represent"], ["dual"],
    ["choquet", "--f=3,1/2,2,0"], ["choquet", "--f=1,1,1,1", "--risk"],
]
RUNS = (
    [[run[0], doc, *run[1:]] for doc in ("V0", "RATIONAL4") for run in SET_FUNCTION_RUNS]
    + [[run[0], "CAPPED5", *run[1:]] for run in SET_FUNCTION_RUNS[:4]]
    + [["choquet", "CAPPED5", "--f=5,1/3,0,2,7/2", "--sup", "--risk", "--witness"],
       ["choquet", "CAPPED5", "--f=1,2,3,4,5", "--sup"],
       ["iterate", "V0", "--max-steps", "1"],
       ["choquet", "V0", "--f=1,0,0,0", "--sup"],
       ["check", "NONMONO2"], ["iterate", "NONMONO2"], ["represent", "NONMONO2"],
       ["dual", "NONMONO2"], ["choquet", "NONMONO2", "--f=2,1", "--risk"],
       ["choquet", "NONMONO2", "--f=2,1", "--sup", "--witness"],
       ["spectral", "SPACE3", "--f=0,2,1/3"], ["spectral", "SPACE3", "--f=5,1,5/2"],
       ["spectral", "SPACE3", "--f=1,-1,0"],
       ["check", "CAPPED10"], ["represent", "CAPPED10"],
       ["repro-table"], ["repro-table", "--self-test"],
       ["iterate", "V0", "--max-steps", "-1"],
       ["check", "REPEATED"], ["choquet", "V0", "--f=1,0,0,0", "--witness"]]
)
ARGVS = [run + ["--format", fmt] for run in RUNS for fmt in ("table", "json")]


def run(argv, paths):
    """(exit code, stdout, stderr) of one in-process run that writes no record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([paths.get(a, a) for a in argv] + ["--no-persist"])
        except SystemExit as exc:  # argparse refuses a usage error
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_documents(directory):
    """Write every document into directory; returns the file name of each."""
    paths = {}
    for name, doc in DOCUMENTS.items():
        paths[name] = f"{name.lower()}.json"
        text = doc if isinstance(doc, str) else json.dumps(doc)
        (directory / paths[name]).write_text(text)
    return paths


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    return directory, write_documents(directory)


@pytest.fixture
def paths(documents, monkeypatch):
    # argparse wraps its usage line at the terminal width; this one fits unwrapped.
    monkeypatch.setenv("COLUMNS", "200")
    monkeypatch.chdir(documents[0])
    return documents[1]


EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_file_covers_every_run():
    assert [case["argv"] for case in EXPECTED] == ARGVS


@pytest.mark.parametrize("case", EXPECTED, ids=[" ".join(c["argv"]) for c in EXPECTED])
def test_output_matches_golden(case, paths):
    assert run(case["argv"], paths) == case


if __name__ == "__main__":
    import os
    import tempfile

    os.environ["COLUMNS"] = "200"
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_documents(Path(tmp))
        os.chdir(tmp)
        cases = [run(argv, paths) for argv in ARGVS]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
