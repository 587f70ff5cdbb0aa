"""Polynomial arithmetic and complete factorization over prime fields F_p.

Coefficients are stored ascending, reduced into [0, p), with no trailing
zeros.  The moduli of interest here are tiny (p <= 7 in practice), so
factorization runs squarefree decomposition followed by trial division
against the enumerated monic irreducibles of each degree; every step is
exhaustively checkable.  Factor lists are deterministic: sorted by degree,
then by ascending coefficient tuple.
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

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

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

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ModPoly(self.p, out)

    def __neg__(self):
        return ModPoly(self.p, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

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

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = (v * x + c) % self.p
        return v

    def monic(self) -> "ModPoly":
        if self.is_zero or self.lc == 1:
            return self
        return self * pow(self.lc, -1, self.p)

    def derivative(self) -> "ModPoly":
        return ModPoly(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    def pow_mod(self, e: int, modulus: "ModPoly") -> "ModPoly":
        out = ModPoly(self.p, [1])
        base = self % modulus
        while e:
            if e & 1:
                out = (out * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return out

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

    def product(self) -> ModPoly:
        out = ModPoly(self.p, [self.unit])
        for g, e in self.factors:
            for _ in range(e):
                out = out * g
        return out


_EXHAUSTIVE_P = 7


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


def _squarefree_decomposition(f: ModPoly) -> list[tuple[ModPoly, int]]:
    """Yun-style decomposition with the char-p x^p collapse handled."""
    p = f.p
    out: list[tuple[ModPoly, int]] = []
    if f.degree < 1:
        return out
    d = f.derivative()
    if d.is_zero:
        # f = g(x^p) = (root-extracted g)^p
        root = ModPoly(p, [f[i * p] for i in range(f.degree // p + 1)])
        for g, e in _squarefree_decomposition(root):
            out.append((g, e * p))
        return out
    w = gcd_mod(f, d)
    sqfree = (f // w).monic()
    mult = 1
    while sqfree.degree >= 1:
        nxt = gcd_mod(sqfree, w)
        part = (sqfree // nxt).monic()
        if part.degree >= 1:
            out.append((part, mult))
        sqfree = nxt
        w = (w // nxt).monic()
        mult += 1
    # leftover: factors whose multiplicity is divisible by p, kept at full
    # exponent, so recurse without an extra multiplier
    if w.degree >= 1:
        out.extend(_squarefree_decomposition(w))
    return out


def _factor_squarefree_exhaustive(part: ModPoly) -> list[ModPoly]:
    """Trial division by enumerated irreducibles (tiny moduli)."""
    p = part.p
    out = []
    remaining = part
    d = 1
    while remaining.degree >= 1:
        if d > remaining.degree // 2:
            out.append(remaining)
            break
        for g in monic_irreducibles(p, d):
            if (remaining % g).is_zero:
                out.append(g)
                remaining = (remaining // g).monic()
        d += 1
    return out


def _distinct_degree(part: ModPoly) -> list[tuple[ModPoly, int]]:
    """(product of the degree-d irreducible factors, d) blocks of a squarefree input."""
    p = part.p
    x = ModPoly(p, [0, 1])
    out = []
    v = part
    h = x
    d = 0
    while v.degree > 0:
        d += 1
        if 2 * d > v.degree:
            out.append((v, v.degree))
            break
        h = h.pow_mod(p, v)
        g = gcd_mod(h - x, v)
        if g.degree > 0:
            out.append((g, d))
            v = (v // g).monic()
            h = h % v
    return out


def _split_equal_degree(block: ModPoly, d: int) -> list[ModPoly]:
    """Split a product of distinct degree-d irreducibles (odd p > 7)."""
    p = block.p
    if block.degree == d:
        return [block]
    e = (p**d - 1) // 2
    one = ModPoly(p, [1])
    for c in range(p):
        shift = ModPoly(p, [c, 1])
        u = gcd_mod(shift.pow_mod(e, block) - one, block)
        if 0 < u.degree < block.degree:
            rest = (block // u).monic()
            return _split_equal_degree(u, d) + _split_equal_degree(rest, d)
    raise AssertionError("equal-degree splitting exhausted all shifts")


def _factor_squarefree(part: ModPoly) -> list[ModPoly]:
    if part.p <= _EXHAUSTIVE_P:
        return _factor_squarefree_exhaustive(part)
    out = []
    for block, d in _distinct_degree(part):
        out.extend(_split_equal_degree(block, d))
    return out


def factor_mod_p(f, p: int) -> FactorizationModP:
    """Complete factorization of f over F_p into monic irreducibles.

    Raises ZeroModP when f vanishes identically mod p.  Output order is
    deterministic: factors sorted by degree then coefficients.  For the tiny
    moduli this package cares about (p <= 7) the irreducibles are found by
    exhaustive trial division; larger p use distinct-degree splitting so
    that maximality tests stay usable at any prime.
    """
    check_prime(p)
    fp = f if isinstance(f, ModPoly) else ModPoly.from_intpoly(as_poly(f), p)
    if fp.is_zero:
        raise ZeroModP(f"polynomial is 0 mod {p}")
    unit = fp.lc
    fp = fp.monic()
    counts: dict[ModPoly, int] = {}
    for part, mult in _squarefree_decomposition(fp):
        # each part is squarefree, so every irreducible divides at most once
        for g in _factor_squarefree(part):
            counts[g] = counts.get(g, 0) + mult
    factors = tuple(sorted(counts.items(), key=lambda ge: ge[0].sort_key()))
    return FactorizationModP(p=p, unit=unit, factors=factors)


def _moebius(n: int) -> int:
    from .arith import factorint

    fac = factorint(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def count_monic_irreducibles(p: int, degree: int) -> int:
    """(1/f) * sum_{d | f} mu(d) p^(f/d): monic irreducibles of degree f over F_p."""
    check_prime(p)
    if degree < 1:
        raise InvalidDegree("degree must be >= 1")
    total = 0
    for d in range(1, degree + 1):
        if degree % d == 0:
            total += _moebius(d) * p ** (degree // d)
    assert total % degree == 0
    return total // degree
