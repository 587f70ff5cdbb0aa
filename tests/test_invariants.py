"""Index invariants: element values, refinement searches, witnesses."""

import functools
import math
import random
from collections import Counter

import pytest
from sympy.polys import galoistools

from indexlab import cli, invariants, numberfield
from indexlab.arith import gcd_all, primes_upto, valuation, vp_factorial
from indexlab.errors import InvalidInput
from indexlab.families import family_polynomial
from indexlab.intpoly import IntPoly, parse_poly
from indexlab.invariants import (
    full_report,
    good_element,
    i_theta,
    maccluer_support,
    vp_IK,
    vp_iK,
)
from indexlab.numberfield import (
    build_field,
    char_poly,
    index_of,
    is_irreducible,
    is_primitive,
    split_prime,
)

from local_degrees import g_p, vp_i_from_splitting
from poly_oracles import compose, monic_irreducible_count

DEDEKIND = "x^3 - x^2 - 2*x - 8"


def i_theta_oracle(field, t):
    """gcd of raw char-poly values over a window of integers."""
    f = char_poly(field, t)
    return gcd_all(f(x) for x in range(-100, 101))


def test_i_theta_examples():
    K = build_field(DEDEKIND)
    assert i_theta(K, K.generator()) == 2  # gcd(-8, -10, -8, 4)
    K17 = build_field("x^2 - x - 4")  # Q(sqrt 17) via its good generator
    assert i_theta(K17, K17.generator()) == 2
    K3 = build_field("x^3 - x + 3")
    assert i_theta(K3, K3.generator()) == 3  # gcd(3, 3, 9, 27)


def test_i_theta_matches_windowed_oracle():
    rng = random.Random(101)
    for poly in (DEDEKIND, "x^2 - 17", "x^3 - x + 3", "x^4 - x^3 - 6*x^2 + x + 1"):
        K = build_field(poly)
        for _ in range(50):
            t = [rng.randint(-6, 6) for _ in range(K.degree)]
            assert i_theta(K, t) == i_theta_oracle(K, t)


def test_element_coordinates_must_match_the_degree():
    K = build_field("x^3 - 2")
    element_ops = (char_poly, index_of, is_primitive, i_theta)
    for coords in ([1, 2], [1, 2, 3, 4]):
        for op in element_ops:
            with pytest.raises(InvalidInput):
                op(K, coords)
    # a tuple and a list with the same coordinates are the same element
    for coords in ([1, 1, 0], [0, 0, 1], [5, 0, 0], list(K.generator())):
        for op in element_ops:
            assert op(K, coords) == op(K, tuple(coords))


def test_vp_iK_examples():
    # i((1+sqrt17)/2) = gcd(-4,-4,-2) = 2 certifies v_2 >= 1 and the
    # factorial bound v_2(2!) = 1 caps it
    K17 = build_field("x^2 - 17")
    assert vp_iK(K17, 2) == 1
    K3 = build_field("x^3 - x + 3")
    assert vp_iK(K3, 3) == 1
    assert vp_iK(K3, 5) == 0  # p > n
    assert vp_iK(K3, 7) == 0


def test_vp_IK_examples():
    K = build_field(DEDEKIND)
    assert vp_IK(K, 2) == 1
    K3 = build_field("x^3 - x + 3")
    assert vp_IK(K3, 3) == 0
    K17 = build_field("x^2 - 17")
    assert vp_IK(K17, 2) == 0
    assert vp_IK(K17, 3) == 0  # p > n


def test_maccluer_support_examples():
    assert maccluer_support(build_field(DEDEKIND)) == {2}
    assert maccluer_support(build_field("x^2 - 2")) == frozenset()
    assert maccluer_support(build_field("x^3 - x + 3")) == {3}


def test_full_report_examples():
    r = full_report(build_field(DEDEKIND))
    assert (r.i_K, r.I_K) == (2, 2)
    r = full_report(build_field("x^3 - 13*x + 4"))
    assert (r.i_K, r.I_K) == (2, 2)
    r = full_report(build_field("x^3 - x + 3"))
    assert (r.i_K, r.I_K) == (3, 1)
    assert r.support_i() == r.maccluer == {3}


def test_element_invariants_divide_field_invariants():
    rng = random.Random(211)
    for poly in (DEDEKIND, "x^2 - 17", "x^3 - 13*x + 4",
                 "x^4 - x^3 - 6*x^2 + x + 1", "x^3 - x + 3"):
        K = build_field(poly)
        r = full_report(K)
        sampled = 0
        while sampled < 150:
            t = [rng.randint(-8, 8) for _ in range(K.degree)]
            if not is_primitive(K, t):
                continue
            sampled += 1
            assert r.i_K % i_theta(K, t) == 0  # i(t) | i(K)
            assert index_of(K, t) % r.I_K == 0  # I(K) | I(t)


def test_lcm_bound_factorial():
    for poly in (DEDEKIND, "x^4 - x^3 - 6*x^2 + x + 1",
                 "x^6 - 16*x^5 - 55*x^4 - 20*x^3 + 40*x^2 + 22*x + 1"):
        K = build_field(poly)
        r = full_report(K)
        for p, (vi, _) in r.valuations.items():
            assert vi <= vp_factorial(K.degree, p)


def test_divisor_direction_and_failed_converse():
    # v_p(I) > 0 forces v_p(i) > 0; the converse fails at Q(sqrt 17)
    for poly in (DEDEKIND, "x^2 - 17", "x^3 - 13*x + 4", "x^3 - x + 3"):
        r = full_report(build_field(poly))
        support_I = {p for p, (_, vI) in r.valuations.items() if vI > 0}
        assert support_I <= r.support_i()
    r17 = full_report(build_field("x^2 - 17"))
    assert r17.valuations[2] == (1, 0)


def test_cyclic_prime_degree_equivalence():
    # cyclic of prime degree l: for p != l, p | I(K) iff p | i(K)
    cases = [
        (parse_poly("x^3 - 39*x^2 - 42*x - 1"), 3),  # simplest cubic m = 39
        (parse_poly("x^3 - 2*x^2 - 5*x - 1"), 3),  # simplest cubic m = 2
        (IntPoly([1, 54, 135, -70, 4, 1]), 5),  # quintic family at m = 2
    ]
    for poly, ell in cases:
        K = build_field(poly)
        r = full_report(K)
        for p, (vi, vI) in r.valuations.items():
            if p != ell:
                assert (vi > 0) == (vI > 0)


def test_good_element_examples_and_properties():
    K17 = build_field("x^2 - 17")
    w = good_element(K17)
    assert char_poly(K17, w) == parse_poly("x^2 - x - 4")
    K3 = build_field("x^3 - x + 3")
    w3 = good_element(K3)
    assert is_primitive(K3, w3) and i_theta(K3, w3) == 3
    for poly in (DEDEKIND, "x^3 - 13*x + 4", "x^4 - x^3 - 6*x^2 + x + 1"):
        K = build_field(poly)
        r = full_report(K)
        w = r.witness
        assert is_primitive(K, w)
        assert i_theta(K, w) == r.i_K


@pytest.mark.parametrize("start", ["zero", "subfield"])
def test_primitive_lift_from_a_non_primitive_class(start):
    K = build_field(family_polynomial("simplest_sextic", 1))
    n, modulus = K.degree, 12
    if start == "zero":
        c = [0] * n
    else:
        # theta + sigma^3(theta), with sigma(x) = (x - 1)/(x + 2) the
        # generator of the cyclic Galois group, lies in the cubic subfield
        c = [-62, -64, 18, 88, 48, -32]
        assert char_poly(K, c) == parse_poly("x^3 - 2*x^2 - 16*x - 8") ** 2
    assert not is_primitive(K, c)
    t = invariants._primitive_lift(K, c, modulus)
    assert is_primitive(K, t)
    step = [a - b for a, b in zip(t, c)]
    assert all(x % modulus == 0 for x in step)
    # t = c + k*M*theta with k <= n(n-1)/2
    theta = K.generator()
    k = step[1] // (modulus * theta[1])
    assert step == [k * modulus * x for x in theta]
    assert 1 <= k <= n * (n - 1) // 2


def sextics_and_cubics():
    """simplest_sextic m = 1..24, then seeded cubics up to 100 fields."""
    rng = random.Random(20261019)
    sextics = (family_polynomial("simplest_sextic", m) for m in range(1, 25))
    polys = [f for f in sextics if is_irreducible(f)]
    while len(polys) < 100:
        f = IntPoly([rng.randint(-300, 300), rng.randint(-300, 300), 0, 1])
        if is_irreducible(f):
            polys.append(f)
    return polys


def test_f_mod_p_is_factored_at_most_once_per_field(monkeypatch):
    # the split at a p-maximal prime runs sympy's distinct-degree step once
    # on each squarefree part of f mod p, and `factor_mod_p` would run it
    # too: a repeated (part, p) means f mod p was factored again
    real = galoistools.gf_ddf_zassenhaus
    calls = []

    def recording(f, p, K):
        calls.append((tuple(f), p))
        return real(f, p, K)

    monkeypatch.setattr(galoistools, "gf_ddf_zassenhaus", recording)
    repeated, total = [], 0
    for f in sextics_and_cubics():
        K = build_field(f)  # sympy's irreducibility test runs the step mod its own primes
        calls.clear()
        full_report(K)
        total += len(calls)
        repeated += [(f, p) for (_, p), k in Counter(calls).items() if k > 1]
    assert total > 100
    assert repeated == []


def test_frobenius_record_is_built_once_per_order_and_shared_with_the_split(monkeypatch):
    # every record starts by reducing its order's times table mod p; the
    # tables are held so that their ids stay distinct
    builds, tables, reused = Counter(), [], []
    real_mod, real_split = numberfield._mod_table, numberfield._split_via_algebra

    def counting_mod(table, p):
        tables.append(table)
        builds[id(table), p] += 1
        return real_mod(table, p)

    def split(field, p):
        # splits run once per (field, p), so a record already on the
        # field is the one Round-2's last step at p built
        reused.append(builds[id(field.times_table), p] == 1)
        return real_split(field, p)

    monkeypatch.setattr(numberfield, "_mod_table", counting_mod)
    monkeypatch.setattr(numberfield, "_split_via_algebra", split)
    for f in sextics_and_cubics():
        full_report(build_field(f))
    assert len(builds) > 50 and max(builds.values()) == 1
    # Dedekind's step, the discriminant stop or an enlargement at a later
    # prime can leave the field without a record, so some splits build
    # their own on it
    assert any(reused) and not all(reused)


def test_witness_char_poly_is_computed_once_per_report(monkeypatch):
    # good_element checks its witness against i(K) through the char poly
    # that the report then carries: one char_poly call per report
    calls = []
    real = invariants.char_poly

    def counted(field, t):
        calls.append(t)
        return real(field, t)

    monkeypatch.setattr(invariants, "char_poly", counted)
    polys = [DEDEKIND, "x^2 - 17", family_polynomial("simplest_quartic", 5)]
    polys += [family_polynomial("lehmer_quintic", 2), family_polynomial("simplest_sextic", 8)]
    for f in polys:
        K = build_field(f)
        calls.clear()
        report = full_report(K)
        assert report.witness != K.generator() and report.i_K > 1
        assert calls == [report.witness]
        assert report.witness_char_poly == real(K, report.witness)


def test_good_element_trivial_invariant_returns_generator():
    K = build_field("x^2 - 5")
    assert good_element(K) == K.generator()


def test_coefficients_beyond_int64_and_translation():
    # 2^40 in the defining polynomial puts times-table entries above 2^63
    f = IntPoly([3, 0, 0, 2**40, 0, 0, 1])
    a, b = [full_report(build_field(g)) for g in (f, compose(f, parse_poly("x + 1")))]
    assert a.field_disc == b.field_disc
    assert (a.i_K, a.I_K) == (b.i_K, b.I_K) == (4, 4)
    assert a.valuations == b.valuations


def test_report_is_cached():
    K = build_field(DEDEKIND)
    assert full_report(K) is full_report(K)


def test_searches_run_once_and_share_the_memo(monkeypatch, capsys):
    calls = []
    search = invariants.max_i_valuation

    @functools.wraps(search)
    def counted(field, p):
        calls.append(p)
        return search(field, p)

    monkeypatch.setattr(invariants, "max_i_valuation", counted)
    assert cli.main(["invariants", "[1,5,-6,-5,1]"]) == 0
    capsys.readouterr()
    assert sorted(calls) == primes_upto(4)


def hensel_divides_I(splitting, p):
    """Hensel's criterion (1894): p | I(K) exactly when, for some f, more
    primes above p have residue degree f than there are monic irreducibles
    of degree f over F_p."""
    counts = Counter(f for _, f in splitting)
    return any(k > monic_irreducible_count(f, p) for f, k in counts.items())


def test_hensel_criterion_decides_common_index_divisors():
    # the I(K) twin of the splitting-based support check for i(K): the
    # splitting type alone decides whether p divides I(K)
    assert [monic_irreducible_count(f, 2) for f in range(1, 6)] == [2, 1, 2, 3, 6]
    rng = random.Random(8)
    polys = []
    for _ in range(100):
        n = rng.randint(2, 5)
        polys.append(IntPoly([rng.randint(-30, 30) for _ in range(n)] + [1]))
    for k in range(3, 6):  # x(x - 1)...(x - k + 1) + c p^j
        falling = math.prod((IntPoly([-r, 1]) for r in range(k)), start=IntPoly([1]))
        for p in (2, 3, 5):
            for j in range(1, 5):
                for c in (1, 3):
                    polys.append(falling + IntPoly([c * p**j]))
    divides = []
    for f in filter(is_irreducible, polys):
        K = build_field(f)
        for p in primes_upto(K.degree):
            I_divisible = vp_IK(K, p) > 0
            assert hensel_divides_I(split_prime(K, p), p) == I_divisible, (f, p)
            divides.append(I_divisible)
    assert len(divides) > 300 and sum(divides) >= 20


def test_local_degree_oracle_known_cases():
    # fewer than p primes: 0; all local degrees 1: v_p(n!)
    assert g_p(3, [1, 1]) == 0 and g_p(2, [4]) == 0
    for n in range(1, 8):
        for p in primes_upto(n):
            assert g_p(p, [1] * n) == vp_factorial(n, p)
    assert g_p(2, [3, 3]) == 3
    assert vp_i_from_splitting(((1, 1), (1, 2)), 2) == 1


def test_vp_iK_matches_the_local_degree_oracle():
    """v_p(i(K)) = g_p of the local degrees, on 100 seeded fields: half
    random, half prod(x - r) + c*q^k, which split into many primes at q."""
    rng = random.Random(20261019)
    pairs = 0
    types = set()
    positive = set()
    fields = 0
    while fields < 100:
        n = rng.randint(2, 7)
        if fields % 2:
            f = IntPoly([rng.randint(-12, 12) for _ in range(n)] + [1])
        else:
            q = primes_upto(n)[fields // 2 % len(primes_upto(n))]
            f = IntPoly([1])
            for r in rng.sample(range(-6, 7), n):
                f = f * IntPoly([-r, 1])
            f = f + IntPoly([rng.choice((1, -1)) * q ** rng.randint(1, 4)])
        if f[0] == 0 or not is_irreducible(f):
            continue
        K = build_field(f)
        fields += 1
        for p in primes_upto(n):
            st = split_prime(K, p)
            v = vp_i_from_splitting(st, p)
            assert vp_iK(K, p) == v, (f, p, st)
            pairs += 1
            types.add((n, p, st))
            if v:
                positive.add((n, p, st))
    print(f"{pairs} (field, p) pairs, {len(types)} distinct (n, p, type), "
          f"{len(positive)} of them with v_p(i) > 0")
    assert len(types) >= 80 and len(positive) >= 30
