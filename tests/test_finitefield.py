"""Factorization over F_p, checked against exhaustive enumeration."""

import random

import pytest

from indexlab.arith import primes_upto
from indexlab.errors import ZeroModP
from indexlab.intpoly import IntPoly, parse_poly
from indexlab.modpoly import factor_mod_p
from indexlab.search import _first_irreducible

from poly_oracles import monic_irreducible_count, rem_mod_p


def all_monic(p, degree):
    """Every monic polynomial of the given degree over F_p."""
    out = []
    for code in range(p**degree):
        cs = []
        c = code
        for _ in range(degree):
            cs.append(c % p)
            c //= p
        out.append(IntPoly(cs + [1]))
    return out


def reduce_mod_p(f, p):
    """f with each coefficient reduced into [0, p)."""
    return IntPoly(c % p for c in f.coeffs)


def product(fac, lc, p):
    """lc * prod(g^e) of a factorization over F_p, multiplied back out."""
    out = IntPoly([lc])
    for g, e in fac:
        out = out * g**e
    return reduce_mod_p(out, p)


def is_irreducible_bruteforce(f, p):
    """Oracle: no monic divisor of degree 1 .. deg/2 over F_p."""
    for d in range(1, f.degree // 2 + 1):
        for g in all_monic(p, d):
            if not any(rem_mod_p(f.coeffs, g.coeffs, p)):
                return False
    return True


def test_factor_examples():
    fac = factor_mod_p(parse_poly("x^3 - x^2 - 2*x - 8"), 2)
    assert [(list(g.coeffs), e) for g, e in fac] == [([0, 1], 2), ([1, 1], 1)]
    fac = factor_mod_p(parse_poly("x^2 + 1"), 2)
    assert [(list(g.coeffs), e) for g, e in fac] == [([1, 1], 2)]
    fac = factor_mod_p(parse_poly("x^3 - x + 3"), 3)
    assert [(list(g.coeffs), e) for g, e in fac] == [
        ([0, 1], 1),
        ([1, 1], 1),
        ([2, 1], 1),
    ]


def test_factor_rejects_zero_mod_p():
    with pytest.raises(ZeroModP):
        factor_mod_p(parse_poly("3*x^2 + 6"), 3)


def test_factor_roundtrip_and_irreducibility_exhaustive():
    rng = random.Random(13)
    for p in (2, 3, 5, 7):
        for _ in range(60):
            deg = rng.randint(1, 7)
            coeffs = [rng.randint(0, p - 1) for _ in range(deg)] + [rng.randint(1, p - 1)]
            f = IntPoly(coeffs)
            fac = factor_mod_p(f, p)
            assert product(fac, f.lc, p) == f
            assert sum(g.degree * e for g, e in fac) == f.degree
            for g, _ in fac:
                assert g.coeffs[-1] == 1
                assert all(0 <= c < p for c in g.coeffs)
                assert is_irreducible_bruteforce(g, p)
            # factors pairwise distinct
            assert len({g.coeffs for g, _ in fac}) == len(fac)


def test_factor_high_multiplicity_char_p_cases():
    # (x+1)^4 mod 2 and x^9 + 2 = (x^3 + 2)^3 ... mod 3 exercise the p-power branch
    g = reduce_mod_p(IntPoly([1, 1]) ** 4, 2)
    fac = factor_mod_p(g, 2)
    assert [(list(h.coeffs), e) for h, e in fac] == [([1, 1], 4)]
    # x^3 + 2 = (x+2)^3 mod 3
    cube = reduce_mod_p(IntPoly([2, 0, 0, 1]) ** 3, 3)
    fac = factor_mod_p(cube, 3)
    assert product(fac, cube.lc, 3) == cube
    # (x + 1)^7 mod 7 = x^7 + 1
    fac = factor_mod_p(IntPoly([1, 0, 0, 0, 0, 0, 0, 1]), 7)
    assert [(list(h.coeffs), e) for h, e in fac] == [([1, 1], 7)]
    # x^7 + x^5 + x = x * (x^3 + x^2 + 1)^2 mod 2: a square beside a simple factor
    s = IntPoly([0, 1, 0, 0, 0, 1, 0, 1])
    fac = factor_mod_p(s, 2)
    assert [(list(h.coeffs), e) for h, e in fac] == [
        ([0, 1], 1),
        ([1, 0, 1, 1], 2),
    ]


def test_factor_large_prime_path():
    for p in (11, 17, 101):
        f = parse_poly("x^4 + 1")
        fac = factor_mod_p(f, p)
        assert product(fac, f.lc, p) == reduce_mod_p(f, p)
        assert sum(g.degree * e for g, e in fac) == 4
        for g, _ in fac:
            assert g.degree in (1, 2)  # x^4+1 never stays irreducible mod p
    # (x^2 + 1)^3 (x + 5) mod 11: x^2 + 1 is irreducible since 11 = 3 mod 4
    f = reduce_mod_p(IntPoly([1, 0, 1]) ** 3 * IntPoly([5, 1]), 11)
    fac = factor_mod_p(f, 11)
    assert [(list(h.coeffs), e) for h, e in fac] == [([5, 1], 1), ([1, 0, 1], 3)]


def test_count_matches_enumeration():
    for p in (2, 3, 5):
        for d in range(1, 5):
            enumerated = [f for f in all_monic(p, d) if is_irreducible_bruteforce(f, p)]
            assert monic_irreducible_count(d, p) == len(enumerated)
    # the search's least irreducible of degree n - p + 1, for every n > p
    for n in range(2, 8):
        for p in primes_upto(n - 1):
            d = n - p + 1
            first = min(
                (f for f in all_monic(p, d) if is_irreducible_bruteforce(f, p)),
                key=lambda f: f.coeffs,
            )
            assert _first_irreducible(p, d).coeffs == first.coeffs


def test_factor_output_deterministic():
    f = parse_poly("x^6 - x")
    a = factor_mod_p(f, 5)
    b = factor_mod_p(f, 5)
    assert a == b
    degrees = [g.degree for g, _ in a]
    assert degrees == sorted(degrees)
