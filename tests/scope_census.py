"""A seeded census of the engine's scope: how many fields it gives a report on.

Three strata of seeded draws (60 each by default):

* small: monic, degree 2 to 7, coefficients in [-30, 30];
* huge: monic, degree 2 to 7, each coefficient of a random sign with a
  digit count uniform in 1..D, D one of 10, 20 or 30;
* many-split: prod (x - r_i) +- p^k, distinct r_i in [-10, 10], n = 5..7,
  p in {2, 3}, k in [n, 2n].

Each draw runs in a forked child with its address space (RLIMIT_AS) and an
alarm set on that child only: `build_field`, then both searches at each
p <= n, then `full_report`.  Its outcome is one of: a report; an invalid
field (the CLI's exit 3, e.g. reducible); out of memory (exit 4); the alarm;
a traceback; or an oracle mismatch.  Every report is checked against the
oracles the tests hold: v_p(i(K)) against g_p of the local degrees
(`local_degrees.py`) at every p <= n, and v_p(I(K)) against
v_p(1! 2! ... (n-1)!) where p splits completely.

Prints the outcome counts per stratum, then the failures per (stratum,
outcome, stage, n, p, splitting type at p), and each mismatch or traceback;
exits 1 on any mismatch or traceback.  Alarms and memory failures are what
the census measures, so they do not fail it.  Not part of the Tier-1 suite:
at the defaults it takes 3.5 to 5 minutes on a 2-core x86-64 machine, most
of it alarms.

    PYTHONPATH=src python tests/scope_census.py [seed [draws [alarm_s [limit_mb]]]]
"""

import json
import os
import random
import resource
import signal
import sys
import time
from collections import Counter

from local_degrees import vp_i_from_splitting

from indexlab.arith import primes_upto, vp_factorial
from indexlab.errors import DegreeOutOfScope, InvalidInput, NotAField, ReduciblePolynomial
from indexlab.intpoly import IntPoly
from indexlab.invariants import full_report, vp_iK, vp_IK
from indexlab.numberfield import build_field, split_prime

OUTCOMES = ("report", "invalid field", "out of memory", "alarm", "traceback", "mismatch")


def small(rng):
    n = rng.randint(2, 7)
    return IntPoly([rng.randint(-30, 30) for _ in range(n)] + [1])


def huge(rng):
    n = rng.randint(2, 7)
    digits = rng.choice((10, 20, 30))
    coeffs = [rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, digits)) for _ in range(n)]
    return IntPoly(coeffs + [1])


def many_split(rng):
    n = rng.randint(5, 7)
    f = IntPoly([1])
    for r in rng.sample(range(-10, 11), n):
        f = f * IntPoly([-r, 1])
    p = rng.choice((2, 3))
    return f + IntPoly([rng.choice((1, -1)) * p ** rng.randint(n, 2 * n)])


STRATA = {"small": small, "huge": huge, "many-split": many_split}


def split_text(st):
    return "".join(f"({e},{f})" for e, f in st)


def measure(f, send):
    """The child's work on one draw; `send` records each stage it enters."""
    send(stage="build")
    K = build_field(f)
    n = K.degree
    for p in primes_upto(n):
        send(stage="split", p=p)
        st = split_text(split_prime(K, p))
        send(stage="i search", p=p, split=st)
        vp_iK(K, p)
        send(stage="index search", p=p, split=st)
        vp_IK(K, p)
    send(stage="report")
    r = full_report(K)
    return {
        "outcome": "report",
        "degree": n,
        "valuations": [[p, vi, vI] for p, (vi, vI) in r.valuations.items()],
        "splittings": [[p, [list(ef) for ef in st]] for p, st in r.splittings.items()],
    }


def run_child(f, alarm_s, limit_bytes):
    """Run `measure` on f in a forked child: (its records, how it ended)."""
    sys.stdout.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:  # the child never returns into the parent's loop
            os.close(rfd)
            out = os.fdopen(wfd, "w")

            def send(**record):
                out.write(json.dumps(record) + "\n")
                out.flush()

            resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
            signal.alarm(alarm_s)  # SIGALRM's default action ends the child
            try:
                result = measure(f, send)
            except (ReduciblePolynomial, NotAField, DegreeOutOfScope, InvalidInput) as exc:
                result = {"outcome": "invalid field", "error": repr(exc)}
            except MemoryError as exc:
                result = {"outcome": "out of memory", "error": str(exc)[:120]}
            except Exception as exc:  # the census reports it and goes on
                result = {"outcome": "traceback", "error": repr(exc)[:300]}
            send(**result)
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd) as pipe:
        records = [json.loads(line) for line in pipe]
    _, status = os.waitpid(pid, 0)
    return records, status


def judge(records, status):
    """(outcome, last stage record, detail) of one draw."""
    stages = [r for r in records if "stage" in r]
    where = stages[-1] if stages else {"stage": "start"}
    result = records[-1] if records and "outcome" in records[-1] else None
    if result is None:
        if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGALRM:
            return "alarm", where, ""
        return "traceback", where, f"child ended with status {status}"
    if result["outcome"] != "report":
        return result["outcome"], where, result.get("error", "")
    n = result["degree"]
    splittings = {p: [tuple(ef) for ef in st] for p, st in result["splittings"]}
    wrong = []
    for p, vi, vI in result["valuations"]:
        st = splittings[p]
        if vi != vp_i_from_splitting(st, p):
            wrong.append(f"v_{p}(i) = {vi}, g_p gives {vp_i_from_splitting(st, p)}")
        if st == [(1, 1)] * n:
            total = sum(vp_factorial(k, p) for k in range(1, n))
            if vI != total:
                wrong.append(f"v_{p}(I) = {vI}, totally split gives {total}")
    return ("mismatch" if wrong else "report"), where, "; ".join(wrong)


def main(argv) -> int:
    seed = int(argv[0]) if argv else 20261019
    draws = int(argv[1]) if len(argv) > 1 else 60
    alarm_s = int(argv[2]) if len(argv) > 2 else 5
    limit_mb = int(argv[3]) if len(argv) > 3 else 2500
    rng = random.Random(seed)
    start = time.perf_counter()
    counts = {name: Counter() for name in STRATA}
    failures = Counter()
    faults = []
    for name, make in STRATA.items():
        for _ in range(draws):
            f = make(rng)
            outcome, where, detail = judge(*run_child(f, alarm_s, limit_mb * 10**6))
            counts[name][outcome] += 1
            if outcome != "report":
                p, st = where.get("p", "-"), where.get("split", "-")
                failures[name, outcome, where["stage"], f.degree, p, st] += 1
            if outcome in ("traceback", "mismatch"):
                faults.append(f"{outcome} {name} f={f}: {detail}")
    print(
        f"scope census: seed {seed}, {draws} draws per stratum, "
        f"{alarm_s} s alarm, {limit_mb} MB address space, {time.perf_counter() - start:.0f} s"
    )
    print("\t".join(("stratum",) + OUTCOMES))
    for name, c in counts.items():
        print("\t".join([name] + [str(c[o]) for o in OUTCOMES]))
    print("failures\tstratum\toutcome\tstage\tn\tp\tsplitting type")
    for (name, outcome, stage, n, p, st), k in sorted(failures.items(), key=str):
        print(f"{k}\t{name}\t{outcome}\t{stage}\t{n}\t{p}\t{st}")
    for line in faults:
        print(line)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
