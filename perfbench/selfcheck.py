"""Self-checks for the benchmark harness (not for indexlab).

    python3 perfbench/selfcheck.py

1. The same seed generates identical inputs; a different seed different ones.
2. The answer checks reject a wrong answer, a non-zero exit and an exception.
3. Installing and removing the tracer leaves every indexlab binding as it was.
4. Two traced runs of each workload report identical `.calls` counts and
   return-value counts, and each trace's self times sum to no more than its
   traced wall time.

Prints one PASS/FAIL line per check and exits 1 if any fails.  Step 4 runs
two traced workers per workload, about a minute and a half in all.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import child_env  # noqa: E402
from spans import LAYER_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, rounds  # noqa: E402

FAILURES: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    if not ok:
        FAILURES.append(name)


def first_rounds(workload: str, seed: int, n: int = 3) -> list:
    return list(itertools.islice(rounds(workload, seed), n))


def check_inputs() -> None:
    for w in WORKLOADS:
        a, b, c = first_rounds(w, 1), first_rounds(w, 1), first_rounds(w, 2)
        report(f"inputs repeat for a seed: {w}", a == b)
        report(f"inputs differ across seeds: {w}", a != c)


def check_answer_checks() -> None:
    from worker import Runner

    for w in WORKLOADS:
        runner = Runner(w)
        item = first_rounds(w, 1, 1)[0][0]  # ladder: the quadratic, cheap
        good = runner.call(item)
        if w == "cubic_survey":
            bad = (good[0] + 1, good[1])
        elif w == "ladder":
            bad = (good[0], good[1].replace('"I_K"', '"I_k"'))
        else:
            bad = (1, good[1])
        report(f"correct answer accepted: {w}", runner.check(item, good))
        report(f"wrong answer rejected: {w}", not runner.check(item, bad))
        report(f"raised input rejected: {w}", not runner.check(item, None))


def check_tracer_restores() -> None:
    mods = {n: m for n, m in sys.modules.items() if n == "indexlab" or n.startswith("indexlab.")}
    before = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    wrapped = len(tracer._bindings)
    tracer.uninstall()
    after = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    same = before.keys() == after.keys() and all(before[k] is after[k] for k in before)
    report("tracer wraps and restores", wrapped >= len(LAYER_NAMES) and same, f"{wrapped} bindings")


def traced(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        env=child_env(), cwd=HERE.parent, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def check_traces() -> None:
    for w in WORKLOADS:
        a, b = traced(w), traced(w)
        counts = [
            ({k: v["calls"] for k, v in r["layers"].items()},
             r["round2_primes"], r["i_witness_level_max"])
            for r in (a, b)
        ]
        report(f".calls repeat between traced runs: {w}", counts[0] == counts[1])
        for r in (a, b):
            report(
                f"self times within traced wall: {w}",
                r["self_sum_s"] <= r["traced_total_s"],
                f"{r['self_sum_s']:.4f} s <= {r['traced_total_s']:.4f} s",
            )
        report(f"traced answers correct: {w}", a["failed"] == 0 and b["failed"] == 0)


def main() -> int:
    check_inputs()
    check_answer_checks()
    check_tracer_restores()
    check_traces()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
