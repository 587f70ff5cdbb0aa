"""Polynomial arithmetic and complete factorization over prime fields F_p.

Coefficients are stored ascending, reduced into [0, p), with no trailing
zeros.  Factorization at every prime is sympy's `gf_factor` (squarefree
decomposition, then Cantor-Zassenhaus); the enumerated monic irreducibles
kept here serve the search corpus and the tests as an independent oracle.
Factor lists are deterministic: sorted by degree, then by ascending
coefficient tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .arith import check_prime
from .errors import InvalidDegree, ZeroModP
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
    def lc(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

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

    def __mul__(self, other):
        if isinstance(other, int):
            return ModPoly(self.p, [c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ModPoly(self.p)
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return ModPoly(self.p, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        p = self.p
        inv = pow(other.lc, -1, p)
        rem = list(self.coeffs)
        d = other.degree
        quot = [0] * max(0, len(rem) - d)
        for k in range(len(rem) - 1, d - 1, -1):
            q = (rem[k] * inv) % p
            if q:
                quot[k - d] = q
                for j, c in enumerate(other.coeffs):
                    rem[k - d + j] = (rem[k - d + j] - q * c) % p
        return ModPoly(p, quot), ModPoly(p, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "ModPoly":
        if self.is_zero or self.lc == 1:
            return self
        return self * pow(self.lc, -1, self.p)

    def __str__(self):
        return f"({IntPoly(self.coeffs)}) mod {self.p}"

    def __repr__(self):
        return f"ModPoly({self.p}, {list(self.coeffs)!r})"


def gcd_mod(a: ModPoly, b: ModPoly) -> ModPoly:
    """Monic gcd over F_p."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


@dataclass(frozen=True)
class FactorizationModP:
    """unit * prod(poly^exp) over F_p; factors monic irreducible, sorted."""

    p: int
    unit: int
    factors: tuple[tuple[ModPoly, int], ...]


@lru_cache(maxsize=None)
def monic_irreducibles(p: int, degree: int) -> tuple[ModPoly, ...]:
    """All monic irreducibles of the given degree over F_p, sorted."""
    check_prime(p)
    if degree < 1:
        raise InvalidDegree("irreducible polynomials have degree >= 1")
    if p**degree > 1_000_000:
        raise InvalidDegree(f"refusing to enumerate {p}^{degree} polynomials")
    if degree == 1:
        return tuple(ModPoly(p, [c, 1]) for c in range(p))
    smaller = [g for d in range(1, degree // 2 + 1) for g in monic_irreducibles(p, d)]
    out = []
    for code in range(p**degree):
        cs = []
        c = code
        for _ in range(degree):
            cs.append(c % p)
            c //= p
        cs.append(1)
        f = ModPoly(p, cs)
        if all(not (f % g).is_zero for g in smaller):
            out.append(f)
    return tuple(sorted(out, key=ModPoly.sort_key))


def factor_mod_p(f, p: int) -> FactorizationModP:
    """Complete factorization of f over F_p into monic irreducibles.

    Raises ZeroModP when f vanishes identically mod p.  Output order is
    deterministic: factors sorted by degree then coefficients.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor

    check_prime(p)
    fp = f if isinstance(f, ModPoly) else ModPoly.from_intpoly(as_poly(f), p)
    if fp.is_zero:
        raise ZeroModP(f"polynomial is 0 mod {p}")
    unit, parts = gf_factor(ZZ.map(fp.coeffs[::-1]), p, ZZ)
    factors = sorted(
        ((ModPoly(p, g[::-1]), e) for g, e in parts),
        key=lambda ge: ge[0].sort_key(),
    )
    return FactorizationModP(p=p, unit=int(unit), factors=tuple(factors))
