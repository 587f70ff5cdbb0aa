"""Complete factorization over prime fields F_p.

`ModPoly` is the value type of the factors: coefficients ascending, reduced
into [0, p), with no trailing zeros.  It carries no arithmetic; every
polynomial operation over F_p in the library is sympy's `galoistools`.
Factorization is `gf_factor` (squarefree decomposition, then
Cantor-Zassenhaus).  Factor lists are deterministic: sorted by degree, then
by ascending coefficient tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import check_prime
from .errors import InvalidInput, ZeroModP
from .intpoly import IntPoly, as_poly


class ModPoly:
    """Immutable polynomial over F_p, ascending residue coefficients."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        cs = [int(c) % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("ModPoly is immutable")

    @classmethod
    def from_intpoly(cls, f: IntPoly, p: int) -> "ModPoly":
        return cls(p, f.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, ModPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __str__(self):
        return f"({IntPoly(self.coeffs)}) mod {self.p}"

    def __repr__(self):
        return f"ModPoly({self.p}, {list(self.coeffs)!r})"


@dataclass(frozen=True)
class FactorizationModP:
    """unit * prod(poly^exp) over F_p; factors monic irreducible, sorted."""

    p: int
    unit: int
    factors: tuple[tuple[ModPoly, int], ...]


def factor_mod_p(f, p: int) -> FactorizationModP:
    """Complete factorization of f over F_p into monic irreducibles.

    Raises ZeroModP when f vanishes identically mod p, and InvalidInput
    when f is a ModPoly over another prime.  Output order is
    deterministic: factors sorted by degree then coefficients.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    check_prime(p)
    if isinstance(f, ModPoly) and f.p != p:
        raise InvalidInput(f"polynomial is over F_{f.p}, not F_{p}")
    fp = f if isinstance(f, ModPoly) else ModPoly.from_intpoly(as_poly(f), p)
    if fp.is_zero:
        raise ZeroModP(f"polynomial is 0 mod {p}")
    unit, parts = gf_factor(ZZ.map(fp.coeffs[::-1]), p, ZZ)
    factors = sorted(
        ((ModPoly(p, g[::-1]), e) for g, e in parts),
        key=lambda ge: ge[0].sort_key(),
    )
    return FactorizationModP(p=p, unit=int(unit), factors=tuple(factors))
