"""Complete factorization over prime fields F_p.

A polynomial over F_p is an `IntPoly` whose coefficients lie in [0, p);
the prime is passed alongside it, never stored in it.  Every polynomial
operation over F_p in the library is sympy's `galoistools`.  Factorization
is `gf_factor` (squarefree decomposition, then Cantor-Zassenhaus); its
result is a plain tuple of (monic irreducible factor, exponent) pairs,
sorted by degree, then by ascending coefficient tuple.
"""

from __future__ import annotations

from .arith import check_prime
from .errors import ZeroModP
from .intpoly import IntPoly, as_poly


def factor_mod_p(f, p: int) -> tuple[tuple[IntPoly, int], ...]:
    """The (g, e) pairs with f = lc(f) * prod g^e mod p, g monic irreducible.

    Each g is an `IntPoly` with coefficients in [0, p).  Raises ZeroModP
    when f vanishes identically mod p.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    check_prime(p)
    fp = IntPoly(c % p for c in as_poly(f).coeffs)
    if fp.is_zero:
        raise ZeroModP(f"polynomial is 0 mod {p}")
    _, parts = gf_factor(ZZ.map(fp.coeffs[::-1]), p, ZZ)
    factors = ((IntPoly(g[::-1]), e) for g, e in parts)
    return tuple(sorted(factors, key=lambda ge: (ge[0].degree, ge[0].coeffs)))
