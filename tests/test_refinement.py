"""Refinement searches: the symmetry t -> ut + c, the reduced class sets,
the kernel's int16/int32 width, reduction, contractions, Berkowitz step and
batching, and the stop at the factorial bound."""

import math
import random

import numpy as np
import pytest

from indexlab import refinement
from indexlab.arith import INFINITY, valuation, vp_factorial
from indexlab.families import family_polynomial
from indexlab.intmatrix import det_rows
from indexlab.intpoly import IntPoly, as_poly
from indexlab.invariants import full_report, i_theta
from indexlab.numberfield import (
    _charpoly_rows,
    _equation_order,
    _p_maximalize,
    build_field,
    char_poly,
    index_of,
    is_irreducible,
    is_primitive,
    split_prime,
)

DEDEKIND = "x^3 - x^2 - 2*x - 8"


def roots_plus(k, c):
    """x(x - 1)...(x - k + 1) + c: every prime p <= k splits completely
    whenever p | c and the field is p-maximal."""
    f = IntPoly([1])
    for r in range(k):
        f = f * IntPoly([-r, 1])
    return f + IntPoly([c])


def full_grid(p, n):
    """Every class mod p, coordinate 0 included: the search space before
    any symmetry was used."""
    return np.indices((p,) * n, dtype=np.int64).reshape(n, -1).T.copy()


def full_children(survivors, p, m):
    """Every lift mod p^(m+1) of each survivor, in survivor-major order."""
    n = survivors.shape[1]
    kids = survivors[:, None, :] + full_grid(p, n)[None, :, :] * (p**m)
    return kids.reshape(-1, n)


def canonical(x, p, m):
    """The representative of x's orbit under t -> ut, u a unit mod p^m, whose
    first coordinate that is a unit mod p equals 1."""
    k = next(j for j, c in enumerate(x) if c % p)
    u = pow(int(x[k]), -1, p**m)
    return tuple(int(c) * u % p**m for c in x)


def i_profile(K, p, m, classes):
    return refinement._profile(K, p**m, m, [(p, classes, False)])[0]


def index_profile(K, p, m, classes):
    return refinement._profile(K, p**m, m, [(p, classes, True)])[0]


# (polynomial, primes): degrees 2 to 6, with nonzero i and I valuations
CORPUS = [
    ("x^2 - 17", (2,)),
    (DEDEKIND, (2, 3)),
    ("x^3 - x + 3", (2, 3)),
    (family_polynomial("simplest_quartic", 5), (2, 3)),
    (roots_plus(4, 16), (2, 3)),
    (family_polynomial("lehmer_quintic", 2), (2, 3, 5)),
    (roots_plus(5, 243), (3,)),
    (IntPoly([-3, -2, -2, 2, 3, 1]), (2, 3, 5)),
    (family_polynomial("simplest_sextic", 8), (2, 3, 5)),
    (IntPoly([-5, 1, 12, 28, 18, 7, 1]), (2, 3, 5)),
]


TRANSLATE_CASES = {
    "dedekind-2-1": (DEDEKIND, 2, 1),
    "dedekind-2-3": (DEDEKIND, 2, 3),
    "cubic-3-2": ("x^3 - x + 3", 3, 2),
    "quartic5-2-3": (family_polynomial("simplest_quartic", 5), 2, 3),
    "split-quartic-2-2": (roots_plus(4, 16), 2, 2),
    "split-quintic-3-2": (roots_plus(5, 243), 3, 2),
    "sextic8-2-3": (family_polynomial("simplest_sextic", 8), 2, 3),
    "sextic8-3-1": (family_polynomial("simplest_sextic", 8), 3, 1),
    "lehmer2-5-1": (family_polynomial("lehmer_quintic", 2), 5, 1),
}


@pytest.mark.parametrize(
    "poly, p, m", list(TRANSLATE_CASES.values()), ids=list(TRANSLATE_CASES)
)
def test_profiles_are_translation_invariant(poly, p, m):
    K = build_field(poly)
    n = K.degree
    mod = p**m
    rng = np.random.default_rng(17)
    classes = full_grid(p, n) if m == 1 else rng.integers(0, mod, size=(60, n))
    base_i = i_profile(K, p, m, classes)
    base_idx = index_profile(K, p, m, classes)
    for k in range(1, mod):
        moved = classes.copy()
        moved[:, 0] += k  # basis vector 0 is 1, so this is theta -> theta + k
        moved %= mod  # the evaluator takes residues below p^m
        assert np.array_equal(i_profile(K, p, m, moved), base_i)
        assert np.array_equal(index_profile(K, p, m, moved), base_idx)
    for u in range(2, mod):
        if u % p == 0:
            continue
        scaled = (u * classes) % mod  # theta -> u * theta
        assert np.array_equal(i_profile(K, p, m, scaled), base_i)
        assert np.array_equal(index_profile(K, p, m, scaled), base_idx)


@pytest.mark.parametrize("p, n, levels", [(2, 4, 3), (3, 3, 2), (5, 3, 2), (7, 4, 1)])
def test_class_sets_hold_one_class_per_orbit(p, n, levels):
    classes = refinement._all_classes(p, n)
    for m in range(1, levels + 1):
        if m > 1:
            classes = refinement._children(classes, p, m - 1)
        mod = p**m
        # the evaluator casts the classes to the kernel's width unreduced
        assert classes.min() >= 0 and classes.max() < mod
        assert len(classes) == (p ** (n - 1) - 1) // (p - 1) * p ** ((n - 2) * (m - 1))
        # every class mod p^m with coordinate 0 at 0 and not 0 mod p is a
        # unit multiple of exactly one of them
        grid = np.indices((mod,) * (n - 1)).reshape(n - 1, -1).T
        orbits = {canonical((0, *x), p, m) for x in grid if any(c % p for c in x)}
        reps = {tuple(int(c) for c in x) for x in classes}
        assert len(reps) == len(classes) and reps == orbits


def test_reduced_searches_match_full_grid(monkeypatch):
    fields = [(build_field(poly), primes) for poly, primes in CORPUS]
    reduced = [
        (refinement.max_i_valuation(K, p), refinement.min_index_valuation(K, p))
        for K, primes in fields
        for p in primes
    ]
    # restore the full p^n grid at every level: no translate or unit is
    # factored out, and the zero class mod p is searched too
    monkeypatch.setattr(refinement, "_all_classes", full_grid)
    monkeypatch.setattr(refinement, "_children", full_children)
    # fresh fields: each memo holds level 1 over the classes it was built on
    fields = [(build_field(poly), primes) for poly, primes in CORPUS]
    full = [
        (refinement.max_i_valuation(K, p), refinement.min_index_valuation(K, p))
        for K, primes in fields
        for p in primes
    ]
    assert reduced == full
    assert any(i_val > 1 for (i_val, _), _ in reduced)
    assert any(I_val > 1 for _, I_val in reduced)


def test_degree5_with_two_split_completely():
    # five split primes over 2: 3 evens and 2 odds give 4 pairs equal mod 2,
    # and 1 more pair among the evens is equal mod 4, so v_2(I) = 5
    K = build_field(roots_plus(5, 4096))
    assert split_prime(K, 2) == ((1, 1),) * 5
    r = full_report(K)
    assert r.valuations[2] == (3, 5)
    assert (r.i_K, r.I_K) == (8, 32)


def test_index_valuations_multiply_to_the_basis_index():
    # x(x-1)...(x-5) + 4096 builds quickly; only its index search is out of reach
    for poly in [poly for poly, _ in CORPUS] + [roots_plus(6, 4096)]:
        K = build_field(poly)
        assert math.prod(p**v for p, v in K.index_valuations.items()) == K.index
        for p, v in K.index_valuations.items():
            assert v == _p_maximalize(_equation_order(as_poly(poly)), p).index_valuations.get(p, 0)


# one field per degree 2..7
KERNEL_FIELDS = [
    "x^2 - 17",
    DEDEKIND,
    family_polynomial("simplest_quartic", 5),
    family_polynomial("lehmer_quintic", 2),
    IntPoly([-5, 1, 12, 28, 18, 7, 1]),
    IntPoly([-7, 713, 1757, 1624, 735, 175, 21, 1]),
]
# p^m from p = 2 up to 2^13, the top of the window the module docstring
# argues for, and the int32 assertion's own limit; 64 is the largest int16
# modulus in degree 7 and 81 the next p^m, int32 from degree 5 on
KERNEL_MODULI = [
    2, 3, 4, 5, 7, 9, 25, 49, 64, 81, 2401, 3125, 6561, 1 << 13,
    refinement._INT32_SAFE_MOD,
]
# the largest modulus each width serves in degree 7
WIDEST_MOD = {np.int16: 64, np.int32: refinement._INT32_SAFE_MOD}


def test_kernel_width_follows_the_modulus():
    K = build_field(KERNEL_FIELDS[5])
    int16 = [2, 7, 49, 64]
    int32 = [65, 81, 1 << 13, refinement._INT32_SAFE_MOD]
    for mod in int16 + int32:
        dtype = np.int16 if mod in int16 else np.int32
        assert refinement._np_table(K, mod).dtype == dtype
        assert refinement._powers(7, mod).dtype == dtype
    # a smaller degree sums fewer products, so int16 reaches further
    assert refinement._width(4, 81) is np.int16
    assert refinement._width(5, 81) is np.int32


def test_reduce_matches_python_remainder():
    # in degree 7 the kernel reduces nothing larger in magnitude than
    # 8 products of two residues below the width's largest modulus (see
    # the module docstring)
    for dtype, top in [(np.int16, 31752), (np.int32, 2**31 - 2**18 + 8)]:
        assert top == 8 * (WIDEST_MOD[dtype] - 1) ** 2
        rng = np.random.default_rng(14)
        edges = np.arange(-40, 41)
        xs = np.concatenate(
            (-top + 40 + edges, edges, top - 40 + edges, rng.integers(-top, top + 1, 4000))
        ).astype(dtype)
        assert xs.min() == -top and xs.max() == top
        for mod in KERNEL_MODULI:
            if mod <= WIDEST_MOD[dtype]:
                got = refinement._reduce(xs.copy(), mod)
                assert got.dtype == dtype
                assert got.tolist() == [x % mod for x in xs.tolist()]


@pytest.mark.parametrize("n", range(2, 8), ids=[f"degree-{n}" for n in range(2, 8)])
def test_kernel_is_exact_up_to_the_widest_int16_modulus(n):
    # int16 wraps mod 2^16, which every power of 2 up to 2^16 divides, so an
    # overflow shows only at a modulus that is not one: check the widest
    # int16 modulus and the three below it
    widest = max(m for m in range(2, 1 << 8) if refinement._width(n, m) is np.int16)
    assert widest == 64 if n == 7 else widest > 64
    dtype = np.int16
    for mod in range(widest - 3, widest + 1):
        # every entry mod - 1 makes the contraction with the times table and
        # the first Berkowitz row product as large as the width allows; the
        # companion matrix of x^n - x^(n-1) - ... - 1 makes every char poly
        # coefficient but the leading one mod - 1; random residues ride along
        rng = random.Random(mod)
        companion = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
        mats = [[[mod - 1] * n for _ in range(n)], companion + [[1] * n]] + [
            [[rng.randrange(mod) for _ in range(n)] for _ in range(n)] for _ in range(5)
        ]
        table = np.full((n, n, n), mod - 1, dtype=dtype)
        chunk = np.array([mat[0] for mat in mats], dtype=dtype)
        got = refinement._mult_matrices(table, chunk, mod)
        assert got.dtype == dtype
        assert got.T.tolist() == [
            [[(mod - 1) * sum(c) % mod] * n] * n for c in chunk.tolist()
        ]
        batch = kernel_layout(mats, mod)
        assert batch.dtype == dtype
        exact = [_charpoly_rows(mat) for mat in mats]
        cp = refinement._charpoly_batch(batch, mod)
        assert cp.T.tolist() == [[c % mod for c in e] for e in exact]
        assert refinement._char_values(cp, mod).T.tolist() == [
            [sum(c * x ** (n - k) for k, c in enumerate(e)) % mod for x in range(n + 1)]
            for e in exact
        ]
        dets = refinement._charpoly_batch(refinement._power_rows(batch, mod), mod)[n]
        for mat, det in zip(mats, dets.tolist()):
            rows = [[int(j == 0) for j in range(n)], mat[0]]  # 1, t, t^2, ...
            while len(rows) < n:
                rows.append([sum(a * b[j] for a, b in zip(rows[-1], mat)) for j in range(n)])
            assert det in {det_rows(rows) % mod, -det_rows(rows) % mod}


def test_cached_constants_are_read_only():
    # shared by every search: a write through one caller must fail
    for shared in (
        refinement._all_classes(3, 4),
        refinement._child_offsets(3, 4),
        refinement._powers(4, 9),
    ):
        with pytest.raises(ValueError):
            shared[(0,) * shared.ndim] = 1
        with pytest.raises(ValueError):
            shared += 1


def kernel_layout(mats, mod):
    """Integer matrices, reduced mod `mod`, in the kernel's (n, n, B) layout
    and its width."""
    rows = [[[c % mod for c in row] for row in mat] for mat in mats]
    dtype = refinement._width(len(rows[0]), mod)
    return np.moveaxis(np.array(rows, dtype=dtype), 0, -1)


@pytest.mark.parametrize(
    "poly", KERNEL_FIELDS, ids=[f"degree-{n}" for n in range(2, 8)]
)
def test_charpoly_kernel_matches_exact_char_poly(poly):
    K = build_field(poly)
    n = K.degree
    rng = random.Random(n)
    elements = [
        [rng.randint(-(10**6), 10**6) for _ in range(n)] for _ in range(12)
    ]
    mult = [K.mult_matrix(t) for t in elements]
    # exact integer char polys (Faddeev-LeVerrier), descending coefficients
    mult_cp = [list(reversed(char_poly(K, t).coeffs)) for t in elements]
    powers = [K.powers_matrix(t) for t in elements]
    powers_cp = [_charpoly_rows(rows) for rows in powers]
    for mod in KERNEL_MODULI:
        for mats, exact in ((mult, mult_cp), (powers, powers_cp)):
            batch = kernel_layout(mats, mod)
            got = refinement._charpoly_batch(batch, mod)
            assert got.shape == (n + 1, len(mats)) and got.dtype == batch.dtype
            assert got.T.tolist() == [[c % mod for c in cp] for cp in exact]


# (p, m) with p^m from int16's range up to the int32 bound: 2^14 is the
# bound itself
PROFILE_MODULI = [(2, 1), (2, 5), (2, 14), (3, 2), (3, 8), (5, 6), (7, 4), (11, 4)]


@pytest.mark.parametrize(
    "poly", KERNEL_FIELDS, ids=[f"degree-{n}" for n in range(2, 8)]
)
def test_kernel_contractions_match_exact_routines(poly):
    # a wrong contracted axis can still give the right profiles on one
    # field at a few primes, so check each contraction's result directly
    K = build_field(poly)
    n = K.degree
    rng = random.Random(100 + n)
    randoms = [
        [rng.randint(-(10**6), 10**6) for _ in range(n)] for _ in range(12)
    ]
    # the generator, every i witness and an element of 2A give nonzero values
    witnesses = [refinement.max_i_valuation(K, p)[1] for p in (2, 3, 5, 7)]
    elements = [K.generator(), [2 * c for c in randoms[0]]]
    elements += randoms + [w[1] for w in witnesses if w is not None]
    coords = np.array(elements, dtype=object)
    for mod in KERNEL_MODULI:
        table = refinement._np_table(K, mod)
        chunk = (coords % mod).astype(table.dtype)
        expected = kernel_layout([K.mult_matrix(t) for t in elements], mod)
        got = refinement._mult_matrices(table, chunk, mod)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    i_seen, idx_seen = set(), set()
    for p, m in PROFILE_MODULI:
        classes = (coords % p**m).astype(np.int64)
        i_exact = [min(m, valuation(i_theta(K, t), p)) for t in elements]
        idx_exact = [
            m if d == INFINITY else min(m, valuation(d, p))
            for d in (index_of(K, t) for t in elements)
        ]
        assert i_profile(K, p, m, classes).tolist() == i_exact
        assert index_profile(K, p, m, classes).tolist() == idx_exact
        i_seen.update(i_exact)
        idx_seen.update(idx_exact)
    assert max(i_seen) > 0 and max(idx_seen) > 0


def test_i_search_never_evaluates_an_empty_batch(monkeypatch):
    sizes = []
    profile = refinement._profile

    def recording(field, mod, m, segments):
        sizes.extend(len(classes) for _, classes, _ in segments)
        return profile(field, mod, m, segments)

    monkeypatch.setattr(refinement, "_profile", recording)
    for poly, primes in CORPUS:
        K = build_field(poly)
        for p in primes:
            refinement.max_i_valuation(K, p)
    assert sizes and min(sizes) > 0


def i_search_whole_bound_level(K, p):
    """max_i_valuation with the factorial bound's level evaluated in full,
    and (level, classes, undecided classes) at the last level reached."""
    n = K.degree
    bound = vp_factorial(n, p)
    best, witness = 0, None
    classes = refinement._all_classes(p, n)
    for m in range(1, bound + 1):
        profile = i_profile(K, p, m, classes)
        certified = profile < m
        if certified.any():
            w = int(profile[certified].max())
            if w > best:
                best = w
                idx = int(np.flatnonzero(certified & (profile == w))[0])
                witness = (m, tuple(int(x) for x in classes[idx]))
        survivors = classes[~certified]
        if m == bound or not len(survivors):
            break
        classes = refinement._children(survivors, p, m)
    if m == bound and len(survivors):
        # undecided at the factorial bound means exactly the bound
        best, witness = bound, (m, tuple(int(x) for x in survivors[0]))
    return (best, witness), (m, len(classes), len(survivors))


# polynomial, p, and the bound level: (level, classes, some undecided)
BOUND_CASES = {
    "search-t1-7-7": (KERNEL_FIELDS[5], 7, (1, 19608, True)),
    "search-t1-6-5": (KERNEL_FIELDS[4], 5, (1, 781, True)),
    "lehmer2-5": (family_polynomial("lehmer_quintic", 2), 5, (1, 156, True)),
    "split-quartic-2": (roots_plus(4, 16), 2, (3, 48, True)),
    "split-quintic-2": (roots_plus(5, 4096), 2, (3, 640, True)),
    "x7-3x+1-7": (IntPoly([1, -3, 0, 0, 0, 0, 0, 1]), 7, (1, 19608, False)),
    "sextic8-2": (family_polynomial("simplest_sextic", 8), 2, (4, 4096, False)),
    "quartic-2": (IntPoly([1, 5, -6, -5, 1]), 2, (3, 16, False)),
}


def test_level_one_counts_classes_up_to_unit_multiple_and_translation():
    # the 7 classes mod 2 with coordinate 0 at 0 and first nonzero
    # coordinate 1, one per orbit of t -> ut + c; one stays undecided
    K = build_field(BOUND_CASES["quartic-2"][0])
    classes = refinement._all_classes(2, 4)
    assert len(classes) == 7
    assert np.count_nonzero(i_profile(K, 2, 1, classes) >= 1) == 1


@pytest.mark.parametrize("head", [None, 1], ids=["default-prefix", "prefix-1"])
@pytest.mark.parametrize(
    "poly, p, level", list(BOUND_CASES.values()), ids=list(BOUND_CASES)
)
def test_bound_level_stop_keeps_value_and_witness(poly, p, level, head, monkeypatch):
    K = build_field(poly)
    expected, (m, size, undecided) = i_search_whole_bound_level(K, p)
    assert (m, size, undecided > 0) == level
    if head is not None:
        # a one-class prefix: the rest of the level is one more batch
        monkeypatch.setattr(refinement, "_HEAD", head)
    assert refinement.max_i_valuation(K, p) == expected


@pytest.mark.parametrize("chunk", [7, 1000])
def test_chunked_levels_match_one_batch(chunk, monkeypatch):
    # 19 608 classes: 2 801 full chunks of 7, or 19 of 1 000 and a short
    # last chunk of 608
    x7 = build_field(IntPoly([1, -3, 0, 0, 0, 0, 0, 1]))
    t1 = build_field(KERNEL_FIELDS[5])
    classes = refinement._all_classes(7, 7)
    monkeypatch.setattr(refinement, "_CHUNK", len(classes))
    i_whole = i_profile(x7, 7, 1, classes)
    index_whole = index_profile(x7, 7, 1, classes)
    # 64 undecided classes, spread from class 280 to class 19 441
    assert np.count_nonzero(index_whole) == 64
    search = refinement.max_i_valuation(t1, 7)
    assert search[0] == 1  # 7 | i(K), with a witness class
    monkeypatch.setattr(refinement, "_CHUNK", chunk)
    assert np.array_equal(i_profile(x7, 7, 1, classes), i_whole)
    assert np.array_equal(index_profile(x7, 7, 1, classes), index_whole)
    assert refinement.max_i_valuation(t1, 7) == search


LEVEL_ONE_POLYS = KERNEL_FIELDS + [poly for poly, _ in CORPUS]


def level_one_record(K):
    """The field's shared level-1 record, built by one search call."""
    refinement.max_i_valuation(K, 2)
    return K.memo("level_one", dict)


def test_shared_primes_keep_the_kernel_in_int16():
    # ascending primes p <= n while their product keeps int16: 2 * 3 * 5 * 7
    # = 210 needs int32 in degree 7, so p = 7 keeps its own modulus
    expected = {2: (2,), 3: (2, 3), 4: (2, 3), 5: (2, 3, 5), 6: (2, 3, 5), 7: (2, 3, 5)}
    for n, primes in expected.items():
        assert refinement._shared(n) == (primes, math.prod(primes))
        assert refinement._width(n, math.prod(primes)) is np.int16
    assert refinement._width(7, 210) is np.int32


@pytest.mark.parametrize("chunk", [None, 7], ids=["default-chunk", "chunk-7"])
def test_level_one_record_matches_one_segment_profiles(chunk, monkeypatch):
    if chunk is not None:
        # chunks of 7 split segments, and most chunks mix two primes
        monkeypatch.setattr(refinement, "_CHUNK", chunk)
    for poly in LEVEL_ONE_POLYS:
        K = build_field(poly)  # a fresh memo, so the record is built here
        n = K.degree
        primes = refinement._shared(n)[0]
        record = level_one_record(K)
        # the index segment only where the index search runs
        assert set(record) == {(p, False) for p in primes} | {
            (p, True) for p in primes if K.index_valuations.get(p, 0) > 0
        }
        for (p, index), profile in record.items():
            classes = refinement._all_classes(p, n)
            own = (index_profile if index else i_profile)(K, p, 1, classes)
            assert profile.dtype == own.dtype and np.array_equal(profile, own)
            assert not profile.flags.writeable


def test_level_one_matches_exact_element_invariants():
    # each class's entry is min(1, v_p) of its exact i(t) and index, with a
    # non-primitive class (index infinite) undecided
    checked = set()
    for poly in LEVEL_ONE_POLYS:
        K = build_field(poly)
        if not 3 <= K.degree <= 5:
            continue
        for (p, index), profile in level_one_record(K).items():
            ts = [tuple(int(c) for c in x) for x in refinement._all_classes(p, K.degree)]
            if index:  # a class with no primitive element stays undecided
                exact = [
                    min(1, valuation(index_of(K, t), p)) if is_primitive(K, t) else 1
                    for t in ts
                ]
            else:
                exact = [min(1, valuation(i_theta(K, t), p)) for t in ts]
            assert profile.tolist() == exact
            checked.add((p, index, max(exact)))
    # both searches at 2, 3 and 5, with undecided classes in each
    assert {(p, index) for p, index, top in checked if top == 1} == {
        (p, index) for p in (2, 3, 5) for index in (False, True)
    }


def test_full_report_makes_one_level_one_pass_per_field(monkeypatch):
    # in degree 6 the primes 2, 3 and 5 share the modulus 30, so level 1 of
    # both searches at all three is one pass
    levels = []
    profile = refinement._profile

    def recording(field, modulus, m, *rest):
        levels.append(m)
        return profile(field, modulus, m, *rest)

    monkeypatch.setattr(refinement, "_profile", recording)
    passes = []
    for m in range(1, 21):
        f = family_polynomial("simplest_sextic", m)
        if is_irreducible(f):
            K = build_field(f)
            levels.clear()
            full_report(K)
            passes.append(levels.count(1))
    assert len(passes) >= 15 and set(passes) == {1}
