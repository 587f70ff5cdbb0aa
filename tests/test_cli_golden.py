"""Replay a recorded CLI corpus through `cli.main` and require byte-identical
stdout, stderr and exit codes.

`tests/data/cli_golden.json` holds one entry per command: its argv, exit
code, stdout and stderr.  Every command in it runs in well under a second.
After an intended change of CLI output, re-record the outputs of the listed
commands with

    PYTHONPATH=src python tests/test_cli_golden.py --record

and say in the change description which outputs moved and why.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from indexlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


CASES = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)]
)
def test_cli_output_matches_recording(case):
    assert run(case["argv"]) == case


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    GOLDEN.write_text(json.dumps([run(c["argv"]) for c in CASES], indent=1) + "\n")
