"""Complete factorization over prime fields F_p.

A polynomial over F_p is an `IntPoly` whose coefficients lie in [0, p);
the prime is passed alongside it, never stored in it.  Every polynomial
operation over F_p in the library is sympy's `galoistools`.  Factorization
is `gf_factor` (squarefree decomposition, then Cantor-Zassenhaus).  Factor
lists are deterministic: sorted by degree, then by ascending coefficient
tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import check_prime
from .errors import ZeroModP
from .intpoly import IntPoly, as_poly


@dataclass(frozen=True)
class FactorizationModP:
    """unit * prod(poly^exp) over F_p; factors monic irreducible, sorted."""

    unit: int
    factors: tuple[tuple[IntPoly, int], ...]


def factor_mod_p(f, p: int) -> FactorizationModP:
    """Complete factorization of f over F_p into monic irreducibles.

    Each factor is an `IntPoly` with coefficients in [0, p).  Raises
    ZeroModP when f vanishes identically mod p.  Output order is
    deterministic: factors sorted by degree then coefficients.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    check_prime(p)
    fp = IntPoly(c % p for c in as_poly(f).coeffs)
    if fp.is_zero:
        raise ZeroModP(f"polynomial is 0 mod {p}")
    unit, parts = gf_factor(ZZ.map(fp.coeffs[::-1]), p, ZZ)
    factors = sorted(
        ((IntPoly(g[::-1]), e) for g, e in parts),
        key=lambda ge: (ge[0].degree, ge[0].coeffs),
    )
    return FactorizationModP(unit=int(unit), factors=tuple(factors))
