"""Exact integer arithmetic: polynomials, resultants, valuations, factorisation."""

import itertools
import math
import random
import sys

import pytest

from indexlab.arith import INFINITY, factorint, gcd_all, is_prime, valuation, vp_factorial
from indexlab.errors import InvalidDegree, InvalidInput, InvalidPrime, ParseError
from indexlab.intpoly import IntPoly, parse_poly, poly_discriminant, poly_resultant

from poly_oracles import compose


def sylvester_resultant(f, g):
    """Oracle: res(f, g) as a Sylvester determinant, evaluated by sympy's
    division-free Berkowitz method (production uses Bareiss in det_rows)."""
    from sympy import Matrix

    m, n = f.degree, g.degree
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for k, c in enumerate(reversed(f.coeffs)):
            row[i + k] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for k, c in enumerate(reversed(g.coeffs)):
            row[i + k] = c
        rows.append(row)
    return int(Matrix(rows).det(method="berkowitz"))


def cubic_disc(a2, a1, a0):
    """Oracle: discriminant of x^3 + a2 x^2 + a1 x + a0 (symmetric formula)."""
    return (
        18 * a2 * a1 * a0
        - 4 * a2**3 * a0
        + a2**2 * a1**2
        - 4 * a1**3
        - 27 * a0**2
    )


def rand_poly(rng, max_deg, bound, nonzero=False):
    while True:
        f = IntPoly([rng.randint(-bound, bound) for _ in range(max_deg + 1)])
        if not nonzero or not f.is_zero:
            return f


# -- discriminant ----------------------------------------------------------


def test_discriminant_depressed_cubic():
    # 4a^3 - 27b^2 with a = 1, b = 2
    assert poly_discriminant(parse_poly("x^3 - x + 2")) == -104


def test_discriminant_quadratic():
    assert poly_discriminant(parse_poly("x^2 - 5")) == 20


def test_discriminant_general_cubic_vs_symmetric_formula():
    # x^3 - x^2 - 2x - 8: oracle 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2 = -2012
    assert cubic_disc(-1, -2, -8) == -2012
    assert poly_discriminant(parse_poly("x^3 - x^2 - 2*x - 8")) == -2012


def test_discriminant_degree_errors():
    with pytest.raises(InvalidDegree):
        poly_discriminant(IntPoly([5]))
    with pytest.raises(InvalidDegree):
        poly_discriminant(IntPoly([]))


def test_discriminant_matches_cubic_oracle_randomly():
    rng = random.Random(7)
    for _ in range(200):
        a2, a1, a0 = (rng.randint(-20, 20) for _ in range(3))
        f = IntPoly([a0, a1, a2, 1])
        assert poly_discriminant(f) == cubic_disc(a2, a1, a0)


def test_discriminant_zero_iff_repeated_factor():
    from sympy import Poly, gcd, symbols

    x = symbols("x")
    rng = random.Random(11)
    seen_zero = False
    for _ in range(300):
        f = rand_poly(rng, rng.randint(2, 6), 50)
        if f.degree < 1:
            continue
        if rng.random() < 0.25:
            g = rand_poly(rng, 2, 4)
            if g.degree >= 1:
                f = g * g * rand_poly(rng, 2, 4, nonzero=True)
        if f.degree < 1:
            continue
        sf = Poly(list(reversed(f.coeffs)), x)
        has_square = gcd(sf, sf.diff(x)).degree() >= 1
        is_zero = poly_discriminant(f) == 0
        assert is_zero == has_square
        seen_zero = seen_zero or is_zero
    assert seen_zero


# -- resultant ---------------------------------------------------------------


def test_resultant_examples():
    assert poly_resultant(parse_poly("x"), parse_poly("x - 7")) == -7
    f = parse_poly("x^3 - x + 1")
    assert poly_resultant(f, f) == 0
    assert poly_resultant(parse_poly("x^2 + 1"), parse_poly("x - 1")) == 2
    # deg f < deg g, both odd: res(g, f) = -res(f, g).  sympy 1.14's
    # resultant returns 6 for the first pair, so it cannot stand in here
    g = parse_poly("x^3 - 2*x^2 - 2*x - 2")
    assert poly_resultant(parse_poly("x - 2"), g) == -6
    assert poly_resultant(g, parse_poly("x - 2")) == 6


def test_resultant_zero_poly_rejected():
    with pytest.raises(InvalidInput):
        poly_resultant(IntPoly([]), IntPoly([1, 1]))
    with pytest.raises(InvalidInput):
        poly_resultant(IntPoly([1, 1]), IntPoly([]))


def test_resultant_against_sylvester_oracle():
    rng = random.Random(23)
    for _ in range(400):
        f = rand_poly(rng, rng.randint(1, 5), 9, nonzero=True)
        g = rand_poly(rng, rng.randint(1, 5), 9, nonzero=True)
        if f.degree < 1 and g.degree < 1:
            continue
        assert poly_resultant(f, g) == sylvester_resultant(f, g)


def test_resultant_multiplicative_in_second_argument():
    rng = random.Random(31)
    for _ in range(150):
        f = rand_poly(rng, 3, 6, nonzero=True)
        g = rand_poly(rng, 2, 6, nonzero=True)
        h = rand_poly(rng, 2, 6, nonzero=True)
        assert poly_resultant(f, g * h) == poly_resultant(f, g) * poly_resultant(f, h)


# -- valuation and gcd ---------------------------------------------------------


def test_valuation_examples():
    assert valuation(720, 2) == 4
    assert valuation(0, 3) == INFINITY
    assert valuation(-2012, 2) == 2


def test_valuation_requires_prime():
    with pytest.raises(InvalidPrime):
        valuation(10, 4)
    with pytest.raises(InvalidPrime):
        valuation(10, 1)


def test_valuation_additive():
    rng = random.Random(5)
    for _ in range(300):
        a = rng.randint(1, 10**6) * rng.choice([1, -1])
        b = rng.randint(1, 10**6) * rng.choice([1, -1])
        p = rng.choice([2, 3, 5, 7, 11])
        assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


def test_is_prime_matches_sympy_below_and_above_the_sieve():
    from sympy import isprime

    # the sieve answers below 2^10, sympy's test from there on
    values = list(range(-5, 5001))
    values += [2**64 - 59, 2**64 + 13, 2**64 + 1, 2**89 - 1, (2**61 - 1) * (2**31 - 1)]
    assert [is_prime(n) for n in values] == [bool(isprime(n)) for n in values]
    assert sum(map(is_prime, values)) == 669 + 3


def test_vp_factorial():
    assert vp_factorial(6, 2) == 4
    assert vp_factorial(6, 3) == 2
    assert vp_factorial(7, 7) == 1
    for n in range(1, 11):
        for p in (2, 3, 5, 7):
            assert vp_factorial(n, p) == valuation(math.factorial(n), p)


def test_gcd_all():
    assert gcd_all([-8, -10, -8, 4]) == 2
    assert gcd_all([]) == 0
    assert gcd_all([0, 0, 9]) == 9


# -- factorisation ---------------------------------------------------------------


def test_factorint_exact_with_ascending_int_keys():
    rng = random.Random(61)
    values = [1, -1, 2, -12, 2**64, 99901 * 99991, 2**10 * 3**5 * 10007**2]
    values += [rng.choice((1, -1)) * rng.randrange(2, 10**12) for _ in range(50)]
    for n in values:
        fac = factorint(n)
        assert list(fac) == sorted(fac)
        assert all(type(p) is int and type(e) is int and e >= 1 for p, e in fac.items())
        assert all(is_prime(p) for p in fac)
        assert math.prod(p**e for p, e in fac.items()) == abs(n)
    with pytest.raises(ValueError):
        factorint(0)


def sympy_factorint(n):
    """Oracle: sympy's factorisation of |n| with int keys, ascending."""
    from sympy import factorint as sym_factorint

    return {int(p): int(e) for p, e in sorted(sym_factorint(abs(n)).items())}


def random_prime(rng, lo, hi):
    from sympy import prevprime

    return prevprime(rng.randrange(lo, hi) + 1)


def assert_matches_sympy(values):
    for n in values:
        fac = factorint(n)
        # the whole dict and its key order
        assert list(fac.items()) == list(sympy_factorint(n).items()), n


def test_factorint_matches_sympy_log_uniform_both_signs():
    rng = random.Random(67)
    assert_matches_sympy(
        rng.choice((1, -1)) * max(1, round(10 ** rng.uniform(0, 20))) for _ in range(400)
    )


def test_factorint_matches_sympy_on_semiprimes():
    rng = random.Random(71)
    values = [random_prime(rng, 2**20, 2**32) * random_prime(rng, 2**20, 2**32) for _ in range(10)]
    # the slowest seed-1 cubic_survey discriminant for sympy.factorint alone
    values.append(515_690_437 * 4_643_952_623)
    assert_matches_sympy(values)


def test_factorint_matches_sympy_on_square_factors_above_the_trial_bound():
    # the case square_divisor_primes exists for: p^2 | n with p > 2^10
    rng = random.Random(73)
    values = []
    for _ in range(10):
        p = random_prime(rng, 2**10, 2**24)
        q = random_prime(rng, 2**10, 2**32)
        values += [p * p * q] + [p**k for k in range(2, 6)]
    values += [1031**7, 99991**3 * 3, 1031 * 1033 * 1039, 3**40, 2**64]
    assert_matches_sympy(values)


def test_factorint_merges_trial_division_rho_and_sympy_stage(monkeypatch):
    import sympy

    from indexlab import arith

    # rho splits off 1031 within the lowered bound but not p * q^2, so sympy
    # receives exactly that cofactor
    p, q = 2_147_483_647, 2_147_483_629
    monkeypatch.setattr(arith, "_RHO_STEPS", 1 << 12)
    to_sympy = []
    sym_factorint = sympy.factorint

    def recording_factorint(m, *args, **kwargs):
        to_sympy.append(m)
        return sym_factorint(m, *args, **kwargs)

    monkeypatch.setattr(sympy, "factorint", recording_factorint)
    n = -(2**3) * 3**2 * 1021 * 1031**2 * p * q**2
    fac = factorint(n)
    assert to_sympy == [p * q**2]
    monkeypatch.undo()
    assert list(fac.items()) == [(2, 3), (3, 2), (1021, 1), (1031, 2), (q, 2), (p, 1)]
    assert fac == sympy_factorint(n)


def test_square_divisor_primes_calls_factorint_once(monkeypatch):
    from indexlab import arith

    calls = []
    inner = arith.factorint

    def counting_factorint(n):
        calls.append(n)
        return inner(n)

    monkeypatch.setattr(arith, "factorint", counting_factorint)
    n = 515_690_437 * 4_643_952_623 * 7**2
    assert arith.square_divisor_primes(n) == [7]
    assert calls == [n]


# -- parsing and formatting -------------------------------------------------------


def test_parse_coefficient_list():
    assert parse_poly("[4, -13, 0, 1]") == IntPoly([4, -13, 0, 1])
    assert parse_poly("[]").is_zero


def test_parse_symbolic():
    assert parse_poly("x^3 - 13*x + 4") == IntPoly([4, -13, 0, 1])
    assert parse_poly("x**3-13x+4") == IntPoly([4, -13, 0, 1])
    assert parse_poly("-x^2 + x") == IntPoly([0, 1, -1])
    assert parse_poly("x") == IntPoly([0, 1])
    assert parse_poly("17") == IntPoly([17])
    assert parse_poly("2*x^2 + x^2") == IntPoly([0, 0, 3])
    # the degree is the top exponent with a nonzero coefficient
    assert parse_poly("x^99999999999 - x^99999999999 + x^2 - 2") == IntPoly([-2, 0, 1])
    assert parse_poly("x^9 - x^9").is_zero


def test_parse_errors():
    for bad in ("", "x^", "x +", "[1, 2", "y^2", "x^-2", "3..5"):
        with pytest.raises(ParseError):
            parse_poly(bad)


@pytest.fixture
def default_int_str_limit():
    """Python's default limit on int <-> str digits, restored afterwards
    (`cli.main` lifts it for the whole process)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python does not limit int <-> str conversion")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(old)


def test_parse_integer_past_the_str_limit_is_a_parse_error(default_int_str_limit):
    huge = "1" + "0" * 5000
    for text in (f"2*x^2 + {huge}", f"{huge}*x + 1", f"x^{huge}", f"[{huge},0,2]"):
        with pytest.raises(ParseError):
            parse_poly(text)


def test_str_roundtrip():
    rng = random.Random(59)
    for _ in range(120):
        f = rand_poly(rng, rng.randint(0, 6), 40)
        assert parse_poly(str(f)) == f


def test_poly_arithmetic_basics():
    f = parse_poly("x^2 + 1")
    g = parse_poly("x - 1")
    assert (f * g)(3) == f(3) * g(3)
    assert (f + g)(5) == f(5) + g(5)
    assert f.derivative() == IntPoly([0, 2])
    assert compose(f, parse_poly("x - 1")) == parse_poly("x^2 - 2*x + 2")


def test_intpoly_power_rejects_negative_exponent():
    f = IntPoly([1, 1])
    assert f**0 == IntPoly([1]) and f**3 == f * f * f
    with pytest.raises(InvalidInput):
        f**-1


def test_intpoly_iterates_over_its_coefficients():
    # bounded, so a coefficient iteration that never ends fails instead of hanging
    assert list(itertools.islice(IntPoly([1, 2]), 3)) == [1, 2]
    assert IntPoly(IntPoly([1, 2])) == IntPoly([1, 2])
