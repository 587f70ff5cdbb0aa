"""One workload in a fresh interpreter: warm-up, timed pass, answer checks.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1

Prints one JSON object on its last stdout line.  Untraced, it runs at least
two whole rounds, and more while the next one is expected to end within T
seconds of timed work.  Traced, it runs a fixed number of rounds (from T
and the workload's nominal round time, so two traced runs do identical
work), each input untraced and traced back to back, which gives both the
per-layer numbers and the tracing overhead.  Answers are checked after timing stops;
an input that raises or gets a wrong answer is counted as failed, never
dropped or re-drawn.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402
from warmup import import_indexlab, warm_up  # noqa: E402
from workloads import (  # noqa: E402
    LADDER,
    NOMINAL_ROUND_S,
    WORKLOADS,
    coeff_list_text,
    load_expected_ladder,
    rounds,
)

OUT_DIR = Path(__file__).resolve().parent / "out"


class Runner:
    """Calls the program on one workload's inputs and checks its answers."""

    def __init__(self, workload: str):
        self.workload = workload
        self.cli = import_indexlab()
        import indexlab

        self.indexlab = indexlab
        self.expected = load_expected_ladder() if workload == "ladder" else None

    def _cli(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = self.cli.main(argv)
        return rc, out.getvalue()

    def call(self, item):
        """Run one input through the program; the result is checked later."""
        if self.workload == "ladder":
            return self._cli(["invariants", item[1], "--format", "json"])
        if self.workload == "sextic_sweep":
            return self._cli(["verify", "simplest_sextic", "--range", str(item)])
        a, b = item
        report = self.indexlab.full_report(self.indexlab.build_field(f"[{b},{-a},0,1]"))
        return report.i_K, report.I_K

    def check(self, item, result) -> bool:
        if result is None:
            return False
        if self.workload == "ladder":
            return self._check_ladder(item, *result)
        if self.workload == "sextic_sweep":
            rc, text = result
            rows = [r for r in text.splitlines()[1:] if not r.startswith("#")]
            return rc == 0 and len(rows) == 1 and rows[0].split("\t")[1] == str(item)
        (a, b), (i_k, big_i_k) = item, result
        pred = self.indexlab.cubic_predict(a, b)
        return pred.I_pred == big_i_k and i_k in pred.i_pred

    def _check_ladder(self, item, rc, text) -> bool:
        _, coeffs, closed, divides, coprime = LADDER[item[0]]
        if rc != 0 or text != self.expected[coeff_list_text(coeffs)]:
            return False
        inv = json.loads(text)["invariants"]
        i_k, big_i_k = int(inv["i_K"]), int(inv["I_K"])
        if closed is not None and (i_k, big_i_k) != closed:
            return False
        if divides is not None and i_k % divides:
            return False
        return coprime is None or i_k % coprime != 0


def _timed_call(runner: Runner, item):
    t = time.perf_counter()
    try:
        out = runner.call(item)
    except Exception:  # a raising input is a failed operation
        out = None
    return time.perf_counter() - t, out


def _timed_round(runner: Runner, items, latencies_ms, results):
    t_round = time.perf_counter()
    for item in items:
        dt, out = _timed_call(runner, item)
        latencies_ms.append(dt * 1e3)
        results.append((item, out))
    return time.perf_counter() - t_round


def _paired_rounds(runner: Runner, tracer: Tracer, round_iter, count: int):
    """Each input of `count` rounds twice, untraced and traced back to back
    (alternating which goes first), so slow drifts of the machine's speed
    cancel out of the overhead.  Returns (untraced s, traced s, results)."""
    plain = traced = 0.0
    results = []
    traced_first = False
    for items in itertools.islice(round_iter, count):
        for item in items:
            for with_trace in (traced_first, not traced_first):
                if with_trace:
                    tracer.install()
                    try:
                        dt, out = _timed_call(runner, item)
                    finally:
                        tracer.uninstall()
                    traced += dt
                else:
                    dt, out = _timed_call(runner, item)
                    plain += dt
                results.append((item, out))
            traced_first = not traced_first
    return plain, traced, results


def _run_rounds(runner, round_iter, seconds: float):
    """At least two whole rounds, and more while the next one is expected to
    end within `seconds` of timed work.  The floor of two keeps a ladder run
    (rounds of 9-13 s) from flipping between one and two rounds as the
    machine's speed drifts."""
    latencies_ms, results = [], []
    wall = 0.0
    done = 0
    for items in round_iter:
        wall += _timed_round(runner, items, latencies_ms, results)
        done += 1
        if done >= 2 and wall + wall / done > seconds:
            break
    return wall, latencies_ms, results, done


def _nearest_rank(sorted_xs, q: float) -> float:
    return sorted_xs[max(0, math.ceil(q * len(sorted_xs)) - 1)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(workload)
    warm_up(runner.cli)
    out = {"workload": workload, "seed": seed}
    if not trace:
        wall, lat, results, done = _run_rounds(runner, rounds(workload, seed), seconds)
        p99 = _nearest_rank(sorted(lat), 0.99)
        out.update(
            rounds=done,
            timed_s=wall,
            fields_per_s=len(lat) / wall,
            field_ms_p50=statistics.median(lat),
            field_ms_p99=p99,
            samples=len(lat),
            beyond_p99=sum(1 for x in lat if x > p99),
        )
    else:
        count = max(1, round(seconds / 2 / NOMINAL_ROUND_S[workload]))
        tracer = Tracer()
        t0 = time.perf_counter()
        tracer.install()
        try:
            warm_up(runner.cli)  # every layer appears in every workload's trace
        finally:
            tracer.uninstall()
        warm_s = time.perf_counter() - t0
        plain_s, traced_s, results = _paired_rounds(
            runner, tracer, rounds(workload, seed), count
        )
        layers = tracer.summary()
        self_sum = sum(v["self_s"] for v in layers.values())
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")
        out.update(
            rounds=count,
            untraced_s=plain_s,
            traced_s=traced_s,
            traced_total_s=warm_s + traced_s,
            self_sum_s=self_sum,
            self_sum_ok=self_sum <= warm_s + traced_s,
            layers=layers,
            round2_primes=tracer.round2_primes,
            i_witness_level_max=tracer.i_witness_level_max,
            overhead_frac=traced_s / plain_s - 1,
        )
    failed = sum(1 for item, res in results if not runner.check(item, res))
    out.update(
        attempted=len(results),
        failed=failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

