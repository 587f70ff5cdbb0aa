"""Constructive search for degree-n fields whose lcm invariant a given
prime divides.

The targeted construction multiplies at least p distinct monic irreducibles
over F_p with degrees summing to n, and takes the product over Z as a monic
integer polynomial.  The factors are x + c for c = 0..p-1 when n = p; when
n > p they are x + c for c = 0..p-2 and the least monic irreducible of
degree n - p + 1, by ascending coefficient tuple.  Any irreducible lift
works: the product is squarefree mod p, so the equation order is p-maximal,
p then has >= p distinct prime factors, and p divides i(K).  The candidates
are that product plus p times small perturbations below the leading term;
for every 2 <= n <= 7 and p <= n one of the first three is irreducible.
Every hit is re-verified through the exact engine before being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .arith import check_prime
from .errors import ReduciblePolynomial, SearchBudgetExhausted
from .intpoly import IntPoly
from .invariants import InvariantReport, full_report
from .modpoly import factor_mod_p
from .numberfield import build_field

DEFAULT_BUDGET = 20_000


@dataclass(frozen=True)
class SearchResult:
    poly: IntPoly
    report: InvariantReport
    candidates_tried: int


def _first_irreducible(p: int, d: int) -> IntPoly:
    """Least monic irreducible of degree d over F_p, by ascending coefficients."""
    for cs in itertools.product(range(p), repeat=d):
        g = IntPoly(cs + (1,))
        if [e for _, e in factor_mod_p(g, p)] == [1]:
            return g


def _target_product(n: int, p: int) -> IntPoly:
    """Lift of a product of >= p distinct irreducibles mod p, total degree n."""
    out = IntPoly([1])
    for c in range(p if n == p else p - 1):
        out = out * IntPoly([c, 1])
    if n > p:
        out = out * _first_irreducible(p, n - p + 1)
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
