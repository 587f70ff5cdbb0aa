"""Workload inputs and answer checks.

A workload is a stream of rounds drawn from one `random.Random(seed)`; each
round is a list of inputs with a fixed composition, so throughput does not
depend on which inputs a seed happens to draw.  Every input is handed to the
program through a public entry point only (`indexlab.cli.main`,
`build_field`, `full_report`, `cubic_predict`), and every answer is checked
after the timed pass by a route independent of the refinement engine.

  ladder        one fixed field per degree 2..7 plus a second degree-7 field,
                in that order, through `indexlab invariants <poly> --format
                json`; the seed picks each polynomial's spelling (symbolic or
                coefficient list), which leaves the output unchanged.
  sextic_sweep  `indexlab verify simplest_sextic --range m`, one call per m,
                2 parameters from the deep class m = 0, 5 (mod 8) and 7 from
                the rest of 1..60 per round.
  cubic_survey  build_field + full_report on reduced irreducible cubics
                x^3 - a*x + b with |a|, |b| log-uniform in [10, 10^6],
                checked against cubic_predict.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def quadratic_closed_form(m: int) -> tuple[int, int]:
    """(i, I) of Q(sqrt(m)), m squarefree: i = 2 iff m = 1 mod 8; I = 1."""
    return (2 if m % 8 == 1 else 1), 1


def quartic_closed_form(m: int) -> tuple[int, int]:
    """(i, I) of the simplest quartic x^4 - m x^3 - 6 x^2 + m x + 1, m > 0
    with m^2 + 16 free of odd squares: I = 2 iff m odd; i = 1 iff
    1 <= v2(m) <= 3, else 4."""
    return (1 if 1 <= _v2(m) <= 3 else 4), (2 if m % 2 else 1)


def quintic_closed_form(m: int) -> tuple[int, int]:
    """(i, I) of Lehmer's quintic under its conductor condition: i = 5 iff
    m = 2 mod 5; I = 1."""
    return (5 if m % 5 == 2 else 1), 1


# name, coefficients (ascending), (i_K, I_K) from a closed form or None, a
# prime that must divide i_K or None, a prime that must not divide i_K or None
LADDER = (
    ("quadratic m=17", (-17, 0, 1), quadratic_closed_form(17), None, None),
    ("dedekind cubic", (-8, -2, -1, 1), (2, 2), None, None),
    ("simplest_quartic m=5", (1, 5, -6, -5, 1), quartic_closed_form(5), None, None),
    ("lehmer_quintic m=2", (1, 54, 135, -70, 4, 1), quintic_closed_form(2), None, None),
    ("search-t1 (6, 5)", (-5, 1, 12, 28, 18, 7, 1), None, 5, None),
    ("search-t1 (7, 7)", (-7, 713, 1757, 1624, 735, 175, 21, 1), None, 7, None),
    ("x^7 - 3x + 1", (1, -3, 0, 0, 0, 0, 0, 1), None, None, 7),
)


def coeff_list_text(coeffs) -> str:
    """"[c0,c1,...,cn]", the CLI's ascending coefficient-list spelling."""
    return "[" + ",".join(str(c) for c in coeffs) + "]"


def symbolic_text(coeffs) -> str:
    """"x^3 - x^2 - 2*x - 8", the CLI's symbolic spelling."""
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        power = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        mag = abs(c)
        term = str(mag) if k == 0 else (power if mag == 1 else f"{mag}*{power}")
        if not out:
            out = ("-" if c < 0 else "") + term
        else:
            out += (" - " if c < 0 else " + ") + term
    return out


# `indexlab invariants <poly> --format json` output for each LADDER entry,
# keyed by its coefficient list, captured at the commit that added this
# benchmark
EXPECTED_LADDER_JSON = HERE / "expected_ladder.json"


def load_expected_ladder() -> dict[str, str]:
    return json.loads(EXPECTED_LADDER_JSON.read_text())


# -- input generation ---------------------------------------------------------

SEXTIC_RANGE = range(1, 61)
# m = 0, 5 (mod 8) is the alpha branch of the sextic closed form, where the
# p = 2 refinement runs four levels deep; m = 5 is excluded because its
# polynomial is reducible, so verify skips it after the irreducibility test
SEXTIC_DEEP = tuple(m for m in SEXTIC_RANGE if m % 8 in (0, 5) and m != 5)
SEXTIC_REST = tuple(m for m in SEXTIC_RANGE if m not in SEXTIC_DEEP)
SEXTIC_DEEP_PER_ROUND = 2
SEXTIC_REST_PER_ROUND = 7

CUBIC_PER_ROUND = 200
CUBIC_LOG10_RANGE = (1.0, 6.0)


def _has_integer_root(a: int, b: int) -> bool:
    # a monic cubic's integer roots divide its constant term
    n = abs(b)
    for d in range(1, math.isqrt(n) + 1):
        if n % d:
            continue
        for r in (d, -d, n // d, -(n // d)):
            if r**3 - a * r + b == 0:
                return True
    return False


def _is_reduced(a: int, b: int) -> bool:
    # no prime p with p^3 | b and p^2 | a; p^3 <= |b| <= 10^6 bounds p by 100
    for p in range(2, 101):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            if b % p**3 == 0 and a % p**2 == 0:
                return False
    return True


def _log_uniform_int(rng: random.Random) -> int:
    lo, hi = CUBIC_LOG10_RANGE
    return int(round(10 ** rng.uniform(lo, hi)))


def _cubic_pair(rng: random.Random) -> tuple[int, int]:
    """A reduced irreducible (a, b) for x^3 - a*x + b, signs uniform."""
    while True:
        a = _log_uniform_int(rng) * rng.choice((1, -1))
        b = _log_uniform_int(rng) * rng.choice((1, -1))
        if not _has_integer_root(a, b) and _is_reduced(a, b):
            return a, b


def _ladder_round(rng: random.Random) -> list:
    spell = (coeff_list_text, symbolic_text)
    return [(i, rng.choice(spell)(entry[1])) for i, entry in enumerate(LADDER)]


def _sextic_round(rng: random.Random) -> list:
    ms = rng.sample(SEXTIC_DEEP, SEXTIC_DEEP_PER_ROUND) + rng.sample(
        SEXTIC_REST, SEXTIC_REST_PER_ROUND
    )
    rng.shuffle(ms)
    return ms


def _cubic_round(rng: random.Random) -> list:
    return [_cubic_pair(rng) for _ in range(CUBIC_PER_ROUND)]


ROUND_MAKERS = {
    "ladder": _ladder_round,
    "sextic_sweep": _sextic_round,
    "cubic_survey": _cubic_round,
}

# approximate untraced seconds per round on a 2-core x86-64 VM; used only to
# size a traced run so that it does the same number of rounds every time
NOMINAL_ROUND_S = {"ladder": 12.0, "sextic_sweep": 6.0, "cubic_survey": 0.5}

WORKLOADS = tuple(ROUND_MAKERS)


def rounds(workload: str, seed: int):
    """Endless stream of input rounds; the same seed gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    make = ROUND_MAKERS[workload]
    while True:
        yield make(rng)
