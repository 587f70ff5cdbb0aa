"""Constructive search for degree-n fields whose lcm invariant a given
prime divides.

The targeted construction picks at least p distinct monic irreducibles over
F_p with degrees summing to n, multiplies them, and lifts the product to a
monic integer polynomial.  Any irreducible lift works: the product is
squarefree mod p, so the equation order is p-maximal, p then has >= p
distinct prime factors, and p divides i(K).  The candidates are that product
plus p times small perturbations below the leading term; for every
2 <= n <= 7 and p <= n one of the first three is irreducible.  Every hit is
re-verified through the exact engine before being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .arith import check_prime
from .errors import ReduciblePolynomial, SearchBudgetExhausted
from .intpoly import IntPoly
from .invariants import InvariantReport, full_report
from .modpoly import monic_irreducibles
from .numberfield import build_field

DEFAULT_BUDGET = 20_000


@dataclass(frozen=True)
class SearchResult:
    poly: IntPoly
    report: InvariantReport
    candidates_tried: int


def _target_product(n: int, p: int) -> IntPoly:
    """Lift of a product of >= p distinct irreducibles mod p, total degree n."""
    if n == p:
        parts = list(monic_irreducibles(p, 1))
    else:
        parts = list(monic_irreducibles(p, 1))[: p - 1]
        parts.append(monic_irreducibles(p, n - p + 1)[0])
    out = IntPoly([1])
    for g in parts:
        out = out * IntPoly(g.coeffs)
    assert out.degree == n
    return out


def _targeted_candidates(n: int, p: int):
    base = _target_product(n, p)
    # perturb below the leading term by p * g, keeping the reduction mod p
    for radius in (1, 2, 3):
        for bump in itertools.product(range(-radius, radius + 1), repeat=min(n, 4)):
            g = [p * c for c in bump] + [0] * (n - len(bump))
            yield base + IntPoly(g)


def search_prime_divisor_field(n: int, p: int, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """First monic degree-n f in the targeted order whose field satisfies
    p | i(K), verified by the exact engine."""
    check_prime(p)
    if not 2 <= n <= 7 or p > n:
        raise ValueError("need a prime p <= n and 2 <= n <= 7")
    tried = 0
    for f in _targeted_candidates(n, p):
        if tried >= budget:
            break
        tried += 1
        try:
            field = build_field(f)
        except ReduciblePolynomial:
            continue
        report = full_report(field)
        if report.i_K % p == 0:
            return SearchResult(poly=f, report=report, candidates_tried=tried)
    raise SearchBudgetExhausted(
        f"no degree-{n} field with {p} | i(K) within {tried} candidates"
    )
