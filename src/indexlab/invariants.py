"""The two index invariants of a number field and their witnesses.

For a primitive integer t with characteristic polynomial F, the element
invariants are

  index(t)   = [A : Z[t]],              combined over the field by gcd,
  value_gcd  = gcd over x in Z of F(x), combined over the field by lcm.

The gcd of F over all integers equals gcd(F(0), ..., F(n)): a monic
degree-n polynomial is an integer combination of binomial coefficients
binomial(x, k), k <= n, so its values on n+1 consecutive integers generate
all of its values.  Both invariants are supported on primes p <= n and are
computed exactly by the residue-refinement searches in `refinement`; the
support of the lcm invariant is also computable directly from splitting
data (a prime p <= n divides it iff p has at least p distinct prime ideal
factors), which full_report records separately so the two routes can be
cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import gcd_all, primes_upto
from .intpoly import IntPoly
from .numberfield import (
    NumberField,
    SplittingType,
    char_poly,
    is_primitive,
    split_prime,
)
from .refinement import max_i_valuation, min_index_valuation


def i_theta(field: NumberField, t) -> int:
    """gcd over all integers x of F_t(x), via the values at x = 0..n."""
    f = char_poly(field, t)
    return gcd_all(f(x) for x in range(field.degree + 1))


def _cached(search, field: NumberField, p: int):
    return field.memo((search.__name__, p), lambda: search(field, p))


def vp_iK(field: NumberField, p: int) -> int:
    """Exact max over primitive t of v_p(i(t)); 0 immediately for p > degree."""
    return _cached(max_i_valuation, field, p)[0]


def vp_IK(field: NumberField, p: int) -> int:
    """Exact min over primitive t of v_p(index of t); 0 for p > degree."""
    return _cached(min_index_valuation, field, p)


def maccluer_support(field: NumberField) -> frozenset[int]:
    """Primes p <= n with at least p distinct prime ideal factors."""
    return frozenset(
        p
        for p in primes_upto(field.degree)
        if split_prime(field, p).num_primes >= p
    )


def good_element(field: NumberField) -> tuple[int, ...]:
    """A primitive t whose value-gcd i(t) attains the field invariant i(K).

    Certified refinement classes attaining each v_p are combined by CRT
    (they are stable under lifting, so a simultaneous representative
    exists).  With c that representative, M the combined modulus and theta
    the generator, one of c + k*M*theta, k <= n(n-1)/2, is primitive.
    """
    n = field.degree
    witnesses = []
    i_k = 1
    for p in primes_upto(n):
        val, wit = _cached(max_i_valuation, field, p)
        if val > 0:
            witnesses.append((p, wit))
            i_k *= p**val
    if not witnesses:
        return field.generator()
    modulus = 1
    coords = [0] * n
    for p, (level, wcoords) in witnesses:
        q = p**level
        inv_m = pow(modulus, -1, q)
        coords = [c + modulus * ((w - c) * inv_m % q) for c, w in zip(coords, wcoords)]
        modulus *= q
    t = _primitive_lift(field, coords, modulus)
    assert i_theta(field, t) == i_k, "witness does not attain the invariant"
    return t


def _primitive_lift(field: NumberField, coords, modulus: int) -> tuple[int, ...]:
    """The first primitive c + k*M*theta, k = 0, 1, ..., n(n-1)/2.

    Each candidate is c mod M, as theta has integer coordinates.  Two of
    its conjugates agree for at most one k, since theta's are distinct, so
    one of these n(n-1)/2 + 1 candidates has n distinct conjugates.
    """
    n = field.degree
    theta = field.generator()
    for k in range(n * (n - 1) // 2 + 1):
        t = tuple(c + k * modulus * x for c, x in zip(coords, theta))
        if is_primitive(field, t):
            return t
    raise AssertionError("no primitive c + k*M*theta below the proven bound")


@dataclass
class InvariantReport:
    """Everything the engine knows about one field's index invariants."""

    poly: IntPoly
    degree: int
    field_disc: int
    splittings: dict[int, SplittingType]
    i_K: int
    I_K: int
    valuations: dict[int, tuple[int, int]]  # p -> (v_p(i(K)), v_p(I(K)))
    witness: tuple[int, ...]
    witness_char_poly: IntPoly
    maccluer: frozenset[int]

    def support_i(self) -> frozenset[int]:
        return frozenset(p for p, (vi, _) in self.valuations.items() if vi > 0)


def full_report(field: NumberField) -> InvariantReport:
    """Assemble splittings, i(K), I(K), valuations, and a good element.

    i(K) and I(K) are products over all primes p <= n of the refinement
    valuations; the report also carries the splitting-based support so the
    two characterizations can be compared independently.  The report is
    memoised per field.
    """
    return field.memo("report", lambda: _build_report(field))


def _build_report(field: NumberField) -> InvariantReport:
    n = field.degree
    primes = primes_upto(n)
    splittings = {p: split_prime(field, p) for p in primes}
    valuations = {p: (vp_iK(field, p), vp_IK(field, p)) for p in primes}
    witness = good_element(field)
    return InvariantReport(
        poly=field.poly,
        degree=n,
        field_disc=field.disc,
        splittings=splittings,
        i_K=math.prod(p**vi for p, (vi, _) in valuations.items()),
        I_K=math.prod(p**vI for p, (_, vI) in valuations.items()),
        valuations=valuations,
        witness=witness,
        witness_char_poly=char_poly(field, witness),
        maccluer=maccluer_support(field),
    )
