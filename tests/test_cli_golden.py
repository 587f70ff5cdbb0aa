"""Replay a recorded CLI corpus through `cli.main` and require byte-identical
stdout, stderr and exit codes.

`tests/data/cli_golden.json` holds one entry per command: its test id,
argv, exit code, stdout and stderr.  Every command in it runs in well under a
second.  An entry keeps its id, so deleting or inserting entries renames no
other case; a new entry listed without an id is named by `case_id` of its
argv.  After an intended change of CLI output, re-record the outputs of the
listed commands with

    PYTHONPATH=src python tests/test_cli_golden.py --record

and say in the change description which outputs moved and why.
"""

import contextlib
import hashlib
import io
import json
import re
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


def case_id(argv):
    """A readable slug of the argv plus a short hash of it."""
    slug = re.sub(r"[^0-9A-Za-z]+", "-", " ".join(argv)).strip("-")[:40]
    return f"{slug}-{hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:8]}"


CASES = json.loads(GOLDEN.read_text())
for c in CASES:
    c.setdefault("id", case_id(c["argv"]))
IDS = [c["id"] for c in CASES]
assert len(set(IDS)) == len(IDS), "golden case ids must be unique"


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_cli_output_matches_recording(case):
    assert {"id": case["id"], **run(case["argv"])} == case


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    recorded = [{"id": c["id"], **run(c["argv"])} for c in CASES]
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
