"""Field construction, maximal orders, splitting, and element invariants.

The frozen field discriminants are derived independently inside the tests:
an explicit half-integral element with integer monic characteristic
polynomial forces the index of the equation order up, and the square-index
relation disc(f) = index^2 * D_K pins it down exactly.
"""

import random
import threading
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from indexlab.arith import INFINITY, primes_upto, valuation
from indexlab.errors import (
    DegreeOutOfScope,
    InvalidDegree,
    InvalidInput,
    ReduciblePolynomial,
)
from indexlab.intmatrix import solve_lower_triangular
from indexlab.intpoly import IntPoly, as_poly, parse_poly, poly_discriminant
from indexlab.modpoly import factor_mod_p
from indexlab.numberfield import (
    SplittingType,
    _enlarge_at_p,
    _equation_order,
    _frobenius,
    _lattice_mod_p,
    _p_maximalize,
    _split_via_algebra,
    build_field,
    char_poly,
    dedekind_test,
    index_of,
    is_irreducible,
    is_primitive,
    split_prime,
)

DEDEKIND = "x^3 - x^2 - 2*x - 8"


def round2_gain(f, p):
    """v_p of the index of Z[theta] in its p-maximal overorder, from the
    Round-2 loop alone (no Dedekind pre-filter)."""
    return _p_maximalize(_equation_order(as_poly(f)), p)[1]


def charpoly_over_q(mult_rows):
    """Char poly of a small Fraction matrix via Leverrier (test oracle)."""
    n = len(mult_rows)
    coeffs = [Fraction(1)]
    a = [row[:] for row in mult_rows]
    for k in range(1, n + 1):
        tr = sum(a[i][i] for i in range(n))
        c = -tr / k
        coeffs.append(c)
        if k < n:
            for i in range(n):
                a[i][i] += c
            a = [
                [sum(mult_rows[i][t] * a[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]
    return coeffs


def test_half_element_certificate_dedekind_field():
    # eta = (theta + theta^2)/2 in Q[x]/(x^3 - x^2 - 2x - 8) has an integer
    # monic char poly, so the equation order has even index; disc(f) = -2012
    # = 2^2 * 503 then forces index exactly 2 and D_K = -503.
    half = Fraction(1, 2)
    # powers of theta over (1, theta, theta^2): theta^3 = theta^2 + 2 theta + 8,
    # hence theta^4 = 3 theta^2 + 10 theta + 8
    pows = [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(8), Fraction(2), Fraction(1)],
        [Fraction(8), Fraction(10), Fraction(3)],
    ]
    rows = []
    for basis_power in range(3):
        # eta * theta^basis_power = (theta^(bp+1) + theta^(bp+2)) / 2
        vec = [Fraction(0)] * 3
        for shift in (1, 2):
            term = pows[basis_power + shift]
            vec = [v + half * t for v, t in zip(vec, term)]
        rows.append(vec)
    cp = charpoly_over_q(rows)
    assert all(c.denominator == 1 for c in cp), "eta must be an algebraic integer"
    K = build_field(DEDEKIND)
    assert poly_discriminant(K.poly) == -2012
    assert K.index == 2
    assert K.disc == -503
    assert K.den == 2 and K.basis_rows == ((2, 0, 0), (0, 2, 0), (0, 1, 1))


def test_quadratic_fields():
    # (1 + sqrt(17))/2 satisfies x^2 - x - 4, so disc 68 = 2^2 * 17 gives index 2
    K = build_field("x^2 - 17")
    assert K.disc == 17
    assert K.den == 2 and K.basis_rows == ((2, 0), (1, 1))
    # disc(x^2 - 2) = 8; index 2 would give D_K = 2 = 2 mod 4, impossible
    K2 = build_field("x^2 - 2")
    assert K2.disc == 8
    assert K2.den == 1


def test_build_rejects_bad_polynomials():
    with pytest.raises(ReduciblePolynomial):
        build_field("x^2 - 4")
    with pytest.raises(ReduciblePolynomial):
        build_field("x^4 + 4")  # = (x^2-2x+2)(x^2+2x+2), no rational roots
    with pytest.raises(DegreeOutOfScope):
        build_field("x^8 - 2")
    with pytest.raises(InvalidDegree):
        build_field("[5]")


def test_is_irreducible_hard_cases():
    assert is_irreducible("x^4 + 1")  # reducible mod every prime
    assert is_irreducible("x^6 + x^3 + 1")
    assert not is_irreducible("x^6 - 1")
    # squares without a rational root: reducible mod every prime too
    for base, e in (("x^2 + 1", 2), ("x^2 + x + 1", 2), ("x^2 - 2", 2), ("x^2 + 1", 3)):
        assert not is_irreducible(parse_poly(base) ** e)
    # products of distinct irreducibles with no rational root
    for factors in (
        ("x^2 + 1", "x^3 - 2"),
        ("x^2 + x + 1", "x^4 + 1"),
        ("x^3 - 2", "x^4 + 1"),
        ("x^2 + 1", "x^2 + 2", "x^2 + 3"),
        ("x^2 - x + 1", "x^5 - x - 1"),
    ):
        product = IntPoly([1])
        for g in factors:
            assert is_irreducible(g)
            product = product * parse_poly(g)
        assert 5 <= product.degree <= 7
        assert not is_irreducible(product)
    # Eisenstein at 2 with 40-digit coefficients, and products of two of them
    rng = random.Random(40)

    def eisenstein(n):
        # each lower coefficient is 2 times an odd number: Eisenstein at 2
        return IntPoly([2 * rng.randrange(5 * 10**38 + 1, 5 * 10**39, 2) for _ in range(n)] + [1])

    for n in range(4, 8):
        f = eisenstein(n)
        assert all(len(str(c)) == 40 for c in f.coeffs[:-1])
        assert is_irreducible(f)
    for a, b in ((2, 2), (2, 4), (3, 4)):
        assert not is_irreducible(eisenstein(a) * eisenstein(b))


def test_dedekind_criterion_examples():
    assert dedekind_test(DEDEKIND, 2) is False
    assert dedekind_test("x^3 - x + 3", 3) is True
    assert dedekind_test("x^2 - 17", 2) is False


def test_dedekind_criterion_refuses_non_monic():
    # the criterion assumes a monic f: 2x^2 + 2 and 2x^2 + 1 have no answer
    for coeffs in ([2, 0, 2], [1, 0, 2]):
        with pytest.raises(InvalidInput):
            dedekind_test(coeffs, 2)


def test_p_maximal_order_examples():
    assert round2_gain("x^2 - 17", 2) == 1
    assert round2_gain("x^3 - x + 3", 3) == 0
    assert round2_gain(DEDEKIND, 2) == 1


def test_dedekind_agrees_with_round2():
    rng = random.Random(3)
    for _ in range(40):
        f = IntPoly([rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-5, 5), 1])
        if not is_irreducible(f):
            continue
        for p in (2, 3, 5):
            assert dedekind_test(f, p) == (round2_gain(f, p) == 0)
    # degrees 4-7: random draws, and f = g^p * h + p*r, whose reduction mod p
    # has a factor of multiplicity >= p, so its squarefree decomposition
    # takes the p-th root step
    pth_powers = 0
    checked = 0
    while checked < 40:
        n = rng.randint(4, 7)
        p = rng.choice([q for q in (2, 3, 5, 7) if q <= n])
        if checked % 2:
            f = IntPoly([rng.randint(-9, 9) for _ in range(n)] + [1])
        else:
            d = rng.randint(1, n // p)
            g = IntPoly([rng.randint(-3, 3) for _ in range(d)] + [1])
            h = IntPoly([rng.randint(-3, 3) for _ in range(n - p * d)] + [1])
            f = g**p * h + IntPoly([p * rng.randint(-3, 3) for _ in range(n)])
        if not is_irreducible(f):
            continue
        pth_powers += any(e >= p for _, e in factor_mod_p(f, p).factors)
        for q in (2, 3, 5, 7):
            assert dedekind_test(f, q) == (round2_gain(f, q) == 0), (f, q)
        checked += 1
    assert pth_powers >= 20


# -- order bases -------------------------------------------------------------


def assert_lower_hnf(rows):
    """Lower-triangular, positive diagonal, each entry below a diagonal
    entry d in [0, d): the Hermite normal form that every order basis and
    every lattice between p*Z^n and Z^n is stored in."""
    n = len(rows)
    for i, row in enumerate(rows):
        assert len(row) == n and row[i] > 0 and not any(row[i + 1 :]), rows
        for j in range(i):
            assert 0 <= row[j] < rows[j][j], rows


def rank_mod_p(rows, p, n):
    """Oracle: rank over GF(p) by sympy's DomainMatrix."""
    from sympy.polys.domains import GF
    from sympy.polys.matrices import DomainMatrix

    k = GF(p)
    return DomainMatrix([[k(x) for x in r] for r in rows], (len(rows), n), k).rank()


def test_lattice_mod_p_is_the_hnf_of_p_zn_plus_the_span():
    rng = random.Random(97)
    full_rank = 0
    for case in range(240):
        p = (2, 3, 5, 7)[case % 4]
        n = rng.randint(1, 7)
        count = 0 if case < 8 else rng.randint(1, n + 2)
        vectors = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(count)]
        if vectors and case % 3 == 0:
            # a combination of the others, so rank < count
            c = rng.randint(1, p - 1)
            vectors.append([c * x + p * rng.randint(-2, 2) for x in vectors[0]])
        rows = _lattice_mod_p(vectors, p, n)
        assert_lower_hnf(rows)
        rank = rank_mod_p(vectors, p, n)
        full_rank += rank == n
        assert all(rows[i][i] in (1, p) for i in range(n))
        assert sum(rows[i][i] == 1 for i in range(n)) == rank
        # the lattice lies in the rows' span ...
        for v in vectors + [[p if j == i else 0 for j in range(n)] for i in range(n)]:
            assert solve_lower_triangular(rows, v) is not None, (vectors, p, v)
        # ... and the rows lie in the lattice
        for row in rows:
            assert rank_mod_p(vectors + [row], p, n) == rank, (vectors, p, row)
    assert full_rank >= 20


def test_round2_orders_are_in_hermite_normal_form():
    rng = random.Random(101)
    gains = 0
    for case in range(60):
        n = rng.randint(2, 7)
        if case % 2:
            f = IntPoly([rng.randint(-30, 30) for _ in range(n)] + [1])
        else:
            q = rng.choice([r for r in (2, 3, 5, 7) if r <= n])
            f = IntPoly([1])
            for r in rng.sample(range(-4, 5), n):
                f = f * IntPoly([-r, 1])
            f = f + IntPoly([rng.choice((1, -1)) * q ** rng.randint(1, 5)])
        if not is_irreducible(f):
            continue
        disc = poly_discriminant(f)
        for p in primes_upto(7):
            if disc % (p * p):
                continue
            order, gain = _p_maximalize(_equation_order(f), p)
            gains += gain > 0
            assert_lower_hnf(order.w)
            assert order.w[0][0] == order.den
    assert gains >= 20


# basis_rows and den of fields with a Round-2 gain, degrees 3 to 7, as the
# general integer HNF gave them before order bases were reduced in place
PINNED_BASES = [
    ("x^3 - x^2 - 2*x - 8", 2, [[2, 0, 0], [0, 2, 0], [0, 1, 1]]),
    ("[1,5,-6,-5,1]", 2, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [1, 0, 0, 1]]),
    (
        "x^5 - 10*x^3 + 5*x^2 + 10*x + 1",
        7,
        [[7, 0, 0, 0, 0], [0, 7, 0, 0, 0], [0, 0, 7, 0, 0], [0, 0, 0, 7, 0], [2, 2, 6, 3, 1]],
    ),
    (
        "[32,24,-50,35,-10,1]",
        8,
        [[8, 0, 0, 0, 0], [0, 8, 0, 0, 0], [0, 4, 4, 0, 0], [0, 4, 0, 4, 0], [0, 2, 3, 2, 1]],
    ),
    (
        "[1,22,40,-20,-55,-16,1]",
        18,
        [
            [18, 0, 0, 0, 0, 0],
            [0, 18, 0, 0, 0, 0],
            [0, 0, 18, 0, 0, 0],
            [9, 0, 9, 9, 0, 0],
            [12, 9, 0, 3, 3, 0],
            [5, 13, 0, 8, 0, 1],
        ],
    ),
    (
        "[144,720,-1764,1624,-735,175,-21,1]",
        72,
        [
            [72, 0, 0, 0, 0, 0, 0],
            [0, 72, 0, 0, 0, 0, 0],
            [0, 36, 36, 0, 0, 0, 0],
            [0, 36, 0, 36, 0, 0, 0],
            [0, 36, 30, 0, 6, 0, 0],
            [0, 36, 0, 30, 0, 6, 0],
            [0, 0, 18, 23, 5, 1, 1],
        ],
    ),
]


@pytest.mark.parametrize("poly, den, rows", PINNED_BASES, ids=[c[0] for c in PINNED_BASES])
def test_pinned_integral_bases(poly, den, rows):
    K = build_field(poly)
    assert K.index_valuations
    assert K.den == den
    assert K.basis_rows == tuple(tuple(r) for r in rows)


# -- splitting ---------------------------------------------------------------


def idempotent_count(field, p):
    """Oracle: count solutions of x*x = x in A/pA by brute force."""
    n = field.degree
    table = [[list(field.times_table[i][j]) for j in range(n)] for i in range(n)]

    def mul(u, v):
        out = [0] * n
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        for k in range(n):
                            out[k] += ui * vj * table[i][j][k]
        return tuple(x % p for x in out)

    count = 0
    for code in range(p**n):
        v = []
        c = code
        for _ in range(n):
            v.append(c % p)
            c //= p
        if mul(v, v) == tuple(v):
            count += 1
    return count


def frobenius_fixed_counts(field, p):
    """Oracle: N_k = #{x in A/pA : x^(p^k) = x}, which equals
    prod_i p^gcd(k, f_i) over the residue degrees."""
    n = field.degree
    table = [[list(field.times_table[i][j]) for j in range(n)] for i in range(n)]

    def mul(u, v):
        out = [0] * n
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        for k in range(n):
                            out[k] += ui * vj * table[i][j][k]
        return [x % p for x in out]

    def powq(v, e):
        acc = [1] + [0] * (n - 1)
        base = v
        while e:
            if e & 1:
                acc = mul(acc, base)
            base = mul(base, base)
            e >>= 1
        return acc

    counts = {}
    elements = []
    for code in range(p**n):
        v = []
        c = code
        for _ in range(n):
            v.append(c % p)
            c //= p
        elements.append(v)
    for k in range(1, n + 1):
        counts[k] = sum(1 for v in elements if powq(v, p**k) == v)
    return counts


def test_split_examples():
    K = build_field(DEDEKIND)
    assert split_prime(K, 2) == SplittingType([(1, 1), (1, 1), (1, 1)])
    K17 = build_field("x^2 - 17")
    assert split_prime(K17, 2) == SplittingType([(1, 1), (1, 1)])
    K2 = build_field("x^2 - 2")
    assert split_prime(K2, 2) == SplittingType([(2, 1)])


def test_split_oracles_small_fields():
    cases = [
        (DEDEKIND, 2),
        (DEDEKIND, 3),
        ("x^2 - 17", 2),
        ("x^2 - 2", 2),
        ("x^3 - x + 3", 3),
        ("x^3 - 2", 3),
        ("x^3 - 2", 2),
        ("x^4 - x^3 - 6*x^2 + x + 1", 2),
        ("x^4 - 2", 2),
    ]
    for poly, p in cases:
        K = build_field(poly)
        st = _split_via_algebra(K, p)
        assert st.residue_sum == K.degree
        assert idempotent_count(K, p) == 2**st.num_primes
        fixed = frobenius_fixed_counts(K, p)
        for k, observed in fixed.items():
            expected = 1
            for _, f in st.pairs:
                expected *= p ** gcd(k, f)
            assert observed == expected


def test_split_fast_and_general_paths_agree():
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        deg = rng.randint(2, 7)
        f = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        if not is_irreducible(f):
            continue
        K = build_field(f)
        for p in (2, 3, 5, 7):
            if K.index_valuations.get(p, 0) == 0:
                assert split_prime(K, p) == _split_via_algebra(K, p)
        checked += 1
    # many splits: prod (x - r_i) + c*p^k at p = 5, 7, so the Frobenius-fixed
    # vectors take several values in F_p and most c in F_p select a part
    many = Counter()
    while sum(many.values()) < 24:
        p = rng.choice((5, 7))
        f = IntPoly([1])
        for _ in range(rng.randint(3, 7)):
            f = f * IntPoly([-rng.randrange(p), 1])
        f = f + IntPoly([rng.choice((-2, -1, 1, 2)) * p ** rng.randint(1, 3)])
        if not is_irreducible(f):
            continue
        K = build_field(f)
        if K.index_valuations.get(p, 0) == 0:
            st = split_prime(K, p)
            assert st == _split_via_algebra(K, p), (f, p)
            many[st.num_primes] += 1
    assert sum(n for primes, n in many.items() if primes >= 3) >= 12


def frobenius_oracle(order, p):
    """Rows e_i^p and e_i^(p^k), p^k >= n, by multiplying e_i into itself
    one factor at a time under the order's times table, mod p."""
    n = order.n
    q = p
    while q < n:
        q *= p

    def times(u, v):
        out = [0] * n
        for i in range(n):
            for j in range(n):
                for k, c in enumerate(order.table[i][j]):
                    out[k] += u[i] * v[j] * c
        return [x % p for x in out]

    phi, phi_k = [], []
    for i in range(n):
        e = [int(j == i) for j in range(n)]
        x = e
        for t in range(2, q + 1):
            x = times(x, e)
            if t == p:
                phi.append(x)
        phi_k.append(x)
    return times, phi, phi_k


def test_frobenius_matches_repeated_multiplication():
    rng = random.Random(41)
    intermediate = final = 0
    while final < 60:
        p = rng.choice((2, 3, 5, 7))
        deg = rng.randint(2, 7)
        if rng.random() < 0.5:
            f = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        else:  # prod (x - r_i) + c*p^k is rarely p-maximal
            f = IntPoly([1])
            for _ in range(deg):
                f = f * IntPoly([-rng.randrange(p), 1])
            f = f + IntPoly([rng.choice((-1, 1)) * p ** rng.randint(1, 3)])
        if not is_irreducible(f):
            continue
        orders = [_equation_order(f)]
        while True:  # every order Round-2 passes through at p
            order, gain = _enlarge_at_p(orders[-1], p)
            if not gain:
                break
            orders.append(order)
        intermediate += len(orders) - 1
        orders.append(build_field(f)._order)
        final += 1
        for order in orders:
            n = order.n
            table, phi, phi_k = _frobenius(order, p)
            times, phi_oracle, phi_k_oracle = frobenius_oracle(order, p)
            assert table == [[[c % p for c in tij] for tij in row] for row in order.table]
            assert (phi, phi_k) == (phi_oracle, phi_k_oracle), (f, p)
            # Phi is F_p-linear: v * Phi is the p-th power of v
            for _ in range(3):
                v = [rng.randrange(p) for _ in range(n)]
                power = v
                for _ in range(p - 1):
                    power = times(power, v)
                assert [sum(v[i] * phi[i][j] for i in range(n)) % p for j in range(n)] == power
    assert intermediate >= 30


@pytest.mark.parametrize("q", [11, 13, 101])
def test_general_split_at_large_index_primes(q):
    # K' = Q(q*theta + r) is K again, but its defining polynomial has q | index,
    # so split_prime(K', q) takes the algebra path while split_prime(K, q)
    # reads f mod q: two independent routes to the same splitting type
    rng = random.Random(q)
    checked = 0
    while checked < 6:
        deg = rng.randint(2, 7)
        g = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        if not is_irreducible(g):
            continue
        K = build_field(g)
        if K.index_valuations.get(q, 0):
            continue
        r = rng.randint(-5, 5)
        theta = K.generator()
        t = [q * theta[0] + r] + [q * c for c in theta[1:]]
        K2 = build_field(char_poly(K, t))
        assert K2.index_valuations[q] > 0 and K2.disc == K.disc
        assert split_prime(K2, q) == split_prime(K, q)
        checked += 1


def test_ramified_iff_dividing_disc():
    rng = random.Random(29)
    fields = []
    while len(fields) < 60:
        deg = rng.randint(2, 5)
        f = IntPoly([rng.randint(-20, 20) for _ in range(deg)] + [1])
        if is_irreducible(f):
            fields.append(build_field(f))
    for K in fields:
        assert K.disc % 4 in (0, 1)
        for p in primes_upto(50):
            ramified = any(e > 1 for e, _ in split_prime(K, p))
            assert ramified == (K.disc % p == 0)


def test_splitting_cache_is_write_once_and_threadsafe():
    K = build_field(DEDEKIND)
    results = []

    def worker():
        results.append(split_prime(K, 2))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)


# -- elements -------------------------------------------------------------------


def test_char_poly_examples():
    K = build_field(DEDEKIND)
    assert char_poly(K, [5, 0, 0]) == parse_poly("x^3 - 15*x^2 + 75*x - 125")
    assert char_poly(K, K.generator()) == K.poly
    K2 = build_field("x^2 - 2")
    assert char_poly(K2, [1, 1]) == parse_poly("x^2 - 2*x - 1")


def test_index_examples():
    K = build_field(DEDEKIND)
    assert index_of(K, K.generator()) == 2
    K3 = build_field("x^3 - x + 3")
    assert index_of(K3, K3.generator()) == 1
    assert index_of(K, [5, 0, 0]) == INFINITY


def test_primitivity():
    K3 = build_field("x^3 - x + 3")
    g = K3.generator()
    assert is_primitive(K3, g)
    assert is_primitive(K3, K3.powers_matrix(g)[2])
    assert not is_primitive(K3, [7, 0, 0])


def test_index_square_relation_random_elements():
    # disc(F_t) = index(t)^2 * D_K exactly, for every primitive t
    rng = random.Random(37)
    for poly in (DEDEKIND, "x^2 - 17", "x^3 - x + 3", "x^4 - x^3 - 6*x^2 + x + 1",
                 "x^5 - 10*x^3 + 5*x^2 + 10*x + 1"):
        K = build_field(poly)
        done = 0
        while done < 40:
            t = [rng.randint(-9, 9) for _ in range(K.degree)]
            idx = index_of(K, t)
            f_t = char_poly(K, t)
            if idx == INFINITY:
                assert poly_discriminant(f_t) == 0 if f_t.degree >= 1 else True
                continue
            assert poly_discriminant(f_t) == idx * idx * K.disc
            done += 1


def test_char_poly_of_basis_elements_integral():
    # the integral basis consists of algebraic integers: monic integer char polys
    for poly in (DEDEKIND, "x^2 - 17", "x^6 - 2*x^5 - 25*x^4 - 20*x^3 + 10*x^2 + 10*x + 1"):
        K = build_field(poly)
        for i in range(K.degree):
            t = [1 if j == i else 0 for j in range(K.degree)]
            cp = char_poly(K, t)
            assert cp.is_monic and cp.degree == K.degree
