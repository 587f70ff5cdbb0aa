"""Warm-up shared by the set-up probe and the workload worker.

One call of each CLI command the benchmark drives, on inputs outside every
workload.  The cubic's discriminant has a cofactor beyond the small-prime
sieve, so the first report also pays the lazy sympy import.

Run as a script it is the set-up probe: a fresh interpreter that imports
indexlab from `src/` and finishes the warm-up; `run.py` times it from spawn
to exit.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

WARMUP_COMMANDS = (
    ("invariants", "x^3 - 1234567*x + 7654321", "--format", "json"),
    ("verify", "quadratic", "--range", "17"),
)


def warm_up(cli) -> None:
    for argv in WARMUP_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
        if rc != 0:
            raise RuntimeError(f"warm-up `indexlab {' '.join(argv)}` exited {rc}")


def import_indexlab():
    """Import indexlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import indexlab
    import indexlab.cli

    if Path(indexlab.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"indexlab imported from {indexlab.__file__}, not {SRC}")
    return indexlab.cli


if __name__ == "__main__":
    warm_up(import_indexlab())
