"""indexlab benchmark: one workload (or all), every metric with its unit.

    python3 perfbench/run.py --workload ladder|sextic_sweep|cubic_survey|all
                             [--seed N] [--seconds T] [--trace 0|1]

Run from anywhere; the program is imported from the `src/` next to this
directory.  Untraced (`--trace 0`) it reports the end-to-end metrics:

  setup_s       median wall time of SETUP_PROBES fresh interpreters that
                import indexlab and finish the warm-up (perfbench/warmup.py)
  fields_per_s  fields (sweep parameters) completed per second of timed work
  field_ms.p50  median latency per field
  field_ms.p99  99th-percentile latency per field (nearest rank); only
                cubic_survey has >= 10 samples beyond it, on the other
                workloads it is the slowest field
  peak_rss_mb   peak resident set of the worker interpreter

Traced (`--trace 1`) it reports, for each wrapped layer, `<layer>.calls`,
`.total_s` and `.self_s`, plus `numberfield.round2_primes`,
`refinement.i_witness_level.max` and `trace.overhead_frac`.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.  The process
exits 1 without that line if the worker cannot run, and 2 if there is no
indexlab source tree to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from spans import LAYER_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_PROBES = 5
DEADLINE_S = 170  # per workload, set-up probes included


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "INDEXLAB_CAP"}
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",  # set iteration order, hence call counts, repeat
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _setup_seconds(deadline: float) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "warmup.py")],
            env=child_env(), cwd=ROOT, check=True, timeout=deadline - time.monotonic(),
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _worker(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        env=child_env(), cwd=ROOT, check=True, timeout=deadline - time.monotonic(),
        stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    """(worker result, metrics) for one workload."""
    if trace:
        res = _worker(workload, seed, seconds, 1, deadline)
        metrics = {}
        for name in LAYER_NAMES:
            layer = res["layers"][name]
            metrics[f"{name}.calls"] = _metric(layer["calls"], "count")
            metrics[f"{name}.total_s"] = _metric(layer["total_s"], "s")
            metrics[f"{name}.self_s"] = _metric(layer["self_s"], "s")
        metrics["numberfield.round2_primes"] = _metric(res["round2_primes"], "count")
        metrics["refinement.i_witness_level.max"] = _metric(res["i_witness_level_max"], "level")
        metrics["trace.overhead_frac"] = _metric(res["overhead_frac"], "frac")
        return res, metrics
    setup = _setup_seconds(deadline)
    res = _worker(workload, seed, seconds, 0, deadline)
    metrics = {
        "setup_s": _metric(setup, "s"),
        "fields_per_s": _metric(res["fields_per_s"], "1/s"),
        "field_ms.p50": _metric(res["field_ms_p50"], "ms"),
        "field_ms.p99": _metric(res["field_ms_p99"], "ms"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
    }
    return res, metrics


def _print_block(workload: str, res: dict, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(
        f"{workload}\tfailed_frac\t{res['failed'] / res['attempted']:.6g}\t"
        f"of {res['attempted']} attempted"
    )
    if "samples" in res:
        print(
            f"{workload}\tsamples\t{res['samples']}\t"
            f"({res['beyond_p99']} beyond p99, {res['rounds']} rounds, "
            f"{res['timed_s']:.3f} s timed)"
        )
    else:
        wall = res["traced_total_s"]
        print(
            f"{workload}\ttrace\t{res['rounds']} rounds, untraced {res['untraced_s']:.3f} s, "
            f"traced {res['traced_s']:.3f} s, self-time sum {res['self_sum_s']:.3f} s "
            f"of {wall:.3f} s traced wall"
        )
        top = sorted(res["layers"].items(), key=lambda kv: -kv[1]["self_s"])[:5]
        for name, layer in top:
            print(f"{workload}\tself share\t{name}\t{layer['self_s'] / wall:.1%}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="indexlab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "indexlab" / "__init__.py").is_file():
        sys.stderr.write(f"no indexlab source tree at {SRC}\n")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    all_metrics = {}
    for w in workloads:
        deadline = time.monotonic() + DEADLINE_S
        try:
            res, metrics = measure(w, args.seed, args.seconds, args.trace, deadline)
        except (subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
            sys.stderr.write(f"{w}: worker failed: {exc}\n")
            return 1
        _print_block(w, res, metrics)
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["failed"] == 0 and res.get("self_sum_ok", True)
        if args.workload == "all":
            metrics = {f"{w}.{k}": v for k, v in metrics.items()}
        all_metrics.update(metrics)
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": all_metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
