"""Residue-class refinement searches for the field invariants.

Both searches walk residue classes of the maximal order modulo p^m, level by
level.  The key fact: the characteristic polynomial's coefficients and the
power-basis index determinant are integer polynomials in an element's
coordinates, so their values mod p^m agree across every lift of a class mod
p^m.  A class whose tracked valuation w satisfies w < m therefore has that
exact value on all of its lifts ("certified"); classes with w >= m are
subdivided one level deeper.

Both searches evaluate one class per orbit of t -> ut + c, where c is in Z
and u is a unit mod p^m.  Level 1 holds the (p^(n-1) - 1)/(p - 1) classes mod
p whose coordinate 0 is 0 and whose first nonzero coordinate k equals 1.
The children of a survivor keep its coordinates 0 and k fixed, so it has
p^(n-2) of them, and level m evaluates at most
(p^(n-1) - 1)/(p - 1) * p^((n-2)(m-1)) classes rather than p^(nm).  This is
exact, for four reasons.

* Translation.  Basis vector 0 is 1 (the HNF basis, see `numberfield`), so
  adding c * e0 is t -> t + c.  F_{t+c}(x) = F_t(x - c), so the gcd of the
  char poly's values over all of Z, whose valuation is the min over
  x = 0..n, does not move; and Z[t + c] = Z[t], since the power-basis
  matrix of t + c is a unimodular triangular transform of that of t.
* Unit scaling.  F_{ut}(x) = u^n F_t(x/u), and x -> x/u permutes Z_p, so
  the min over x of v_p(F(x)) does not move (over Z it equals the min over
  Z_p, as F(x) mod p^N depends only on x mod p^N).  [Z[t] : Z[ut]] =
  u^(n(n-1)/2) is prime to p, and the power-basis determinant scales by the
  same factor.  Scaling keeps coordinate 0 at 0, and a class with a unit
  coordinate has exactly one unit multiple whose first unit coordinate is 1.
* The zero class mod p is not needed.  If t = c (mod p), then
  F_t = (x - c)^n (mod p), so F_t(c + 1) is prime to p: the class certifies
  at w = 0 and is never the i witness, which is set only when w > best >= 0.
  And t = c + pt' gives index(t) = p^(n(n-1)/2) index(t'), so
  v_p(index(t)) >= n(n-1)/2 + v_p(I(K)) > v_p(I(K)): no lift attains the
  minimum.  So every searched class has a unit coordinate.
* The witness does not change.  The full grid's order is lexicographic on
  the base-p digit vectors, least significant digit first (survivor-major),
  with coordinate 0 most significant within a digit.  Translation moves only
  coordinate 0, so the first class of an orbit has coordinate 0 equal to 0.
  Among its unit multiples, the one with coordinate k equal to 1 is first:
  digit 0 forces u = 1 (mod p); and for u = 1 (mod p^j), digit j of the
  coordinates before k (which are 0 mod p) is unchanged, while coordinate k
  has digit j equal to 0, the smallest.  Certified or not is constant on an
  orbit, so each reduced level is the subsequence of the full level made of
  orbit representatives, and the first class that attains the maximum (or
  first survivor at the factorial bound) is the same in both.

max_i_valuation tracks w = v_p(gcd of the char poly's values at 0..n), whose
max over classes is v_p of the lcm invariant.  Because that gcd always
divides n!, any class still undecided at level v_p(n!) sits exactly at the
bound, so the search never subdivides past that level.  It stops at the
first such class.  Every certified class at that level is worth less than
the level, which is the bound, and every earlier value is smaller still.
So one undecided class makes the maximum the bound, and the first class
that attains it is the first undecided class in list order: the witness
that evaluating the whole level would give.  The level is evaluated in list
order, a prefix of _HEAD classes first and the rest, if there is any, in
one more batch, so a level of more than _HEAD classes with no undecided
class costs one extra batch call; a shared level 1 (below) comes whole.

min_index_valuation tracks w = v_p(det of the power-basis matrix).  The
generator's class certifies at level v_p([A : Z[theta]]) + 1 at the latest,
and once a certified minimum c exists every undecided class at level m >= c
is discarded (its lifts all have valuation >= m), so the search terminates
by level c + 1.  Certified classes have nonzero determinant, hence consist
of primitive elements; undecided classes never contribute a value, so the
result is the exact minimum over primitive elements.

Neither search needs a level bound to stop; a level too large for memory
raises MemoryError, which the CLI reports with exit 4.

Both searches evaluate levels with one routine, _profile, on segments of
classes that share a modulus M: level m of one search at p has M = p^m, and
level 1 of both searches at the primes of _shared(n) (the primes p <= n in
ascending order while their product keeps the kernel in int16: M = 2, 6 or
30 for n <= 7, as 210 needs int32) is one pass mod their product, kept in
the field's memo; each class takes its valuation at its own prime from its
residues mod M.  So p = 7 keeps its own pass, and its prefix at the bound.
_profile works in batches of at most _CHUNK classes, small enough to stay in
cache, laid out batch last: an einsum over the times table gives the
(n, n, B) multiplication matrices, _power_rows the index classes'
power-basis matrices, one Berkowitz kernel takes both on whole (B,) rows
(a power-basis char poly's constant term is +- the determinant), and an
einsum evaluates the char polys at x = 0..n.  Every class is a residue
below M (level 1 holds digits below p, and _children adds multiples of p^m
to residues below p^m), so each chunk is cast straight to the kernel's
width, which the times table and the powers of x are stored in.

_reduce computes x mod M as x - (x // M) * M: numpy divides an integer
array by a scalar with a multiply and a shift (Granlund and Montgomery,
PLDI 1994), while its `%` by a scalar is not vectorized.  Floor division
puts (x // M) * M in (x - M, x], so the result lies in [0, M) for x of
either sign.  Every operand is a residue below M, and every value the
kernel reduces is a sum of at most n + 1 <= 8 products of two residues, or
the negation of one: the contraction with the times table, the row
products (negated), the column products and the polynomial product in
Berkowitz, a power step of the power-basis matrix, and a char poly's value
at x = 0..n against the powers of x reduced mod M.  Berkowitz reduces each
step's q[1] = -a_ii and q[2 + j] = -row . S^j C together, once; S^j C
itself is reduced at every j, because it feeds the next product.  So every
value before its reduction has |x| <= (n + 1)(M - 1)^2, and (x // M) * M
is less than M further from 0.  Hence _width picks int16 when
(n + 1)(M - 1)^2 + M < 2^15, for n <= 7 when M <= 64 (|x| <= 8 * 63^2 =
31752), and int32 up to M = 2^14 (|x| <= 2^31 - 2^18 + 8).  The i search
stops by level v_p(n!) <= 4, so it runs at p^m <= 16, in int16.
The index search stops by level v_p(I(K)) + 1, and v_p(I(K)) <= 12 for
n <= 7 (Engstrom, Trans. AMS 32, 1930): the worst case is 2 splitting
completely in degree 7, where at least 9 pairs of the seven 2-adic
components of any integer agree mod 2 and 3 more pairs agree mod 4.  So
p^m <= 2^13.
"""

from __future__ import annotations

import functools

import numpy as np

from .arith import check_prime, primes_upto, vp_factorial
from .numberfield import _mod_table

_INT32_SAFE_MOD = 1 << 14
_CHUNK = 1 << 12  # classes per batch: its matrices stay in cache
_HEAD = 1 << 10  # classes tried first at the factorial bound


def _width(n: int, mod: int):
    """The kernel's integer type mod `mod` in degree n (see the module docstring)."""
    return np.int16 if (n + 1) * (mod - 1) ** 2 + mod < 1 << 15 else np.int32


def _np_table(field, mod: int):
    # reduce the exact table before the cast: its entries can pass 2^63
    return field.memo(
        ("np_table", mod),
        lambda: np.array(_mod_table(field.times_table, mod), _width(field.degree, mod)),
    )


def _reduce(x, mod: int):
    """x mod `mod` in [0, mod), in place: x - (x // mod) * mod.

    Only for a fresh array: never a view of the caller's classes.
    """
    quot = x // mod
    quot *= mod
    x -= quot
    return x


def _frozen(a):
    a.flags.writeable = False
    return a


def _grid(p: int, n: int):
    """The p^(n-1) classes mod p with coordinate 0 held at 0, in lex order."""
    grid = np.indices((1,) + (p,) * (n - 1), dtype=np.int64)
    return grid.reshape(n, -1).T


@functools.cache  # read-only, so every caller can share it
def _all_classes(p: int, n: int):
    """The (p^(n-1) - 1)/(p - 1) classes mod p with coordinate 0 held at 0
    and first nonzero coordinate equal to 1, in lex order: one per orbit of
    t -> ut + c."""
    blocks = []
    for k in range(n - 1, 0, -1):  # first nonzero coordinate k
        block = np.zeros((p ** (n - 1 - k), n), dtype=np.int64)
        block[:, k:] = _grid(p, n - k)
        block[:, k] = 1
        blocks.append(block)
    return _frozen(np.concatenate(blocks))


@functools.cache
def _child_offsets(p: int, n: int):
    """Row k - 1: the p^(n-2) digit vectors mod p with coordinates 0 and k
    held at 0, in lex order (read-only)."""
    grid = _grid(p, n - 1)
    return _frozen(np.stack([np.insert(grid, k, 0, axis=1) for k in range(1, n)]))


def _children(survivors, p: int, m: int):
    """The lifts mod p^(m+1) of each survivor that keep its coordinates 0
    and k fixed, k being its first coordinate that is a unit mod p."""
    n = survivors.shape[1]
    units = survivors % p != 0
    assert units.any(axis=1).all()  # the zero class mod p is never searched
    lead = units.argmax(axis=1)
    kids = _child_offsets(p, n)[lead - 1] * (p**m)
    kids += survivors[:, None, :]
    return kids.reshape(-1, n)


@functools.cache
def _powers(n: int, mod: int):
    """Row x holds x^n, ..., x, 1 mod `mod` for x = 0..n (read-only)."""
    return _frozen((np.vander(np.arange(n + 1), n + 1) % mod).astype(_width(n, mod)))


def _charpoly_batch(mats, mod: int):
    """Berkowitz char polys of an (n, n, B) batch mod `mod`, batch last.

    Row k of the (n + 1, B) result holds coefficient k, descending, of every
    matrix.  The entries must be residues in [0, mod); every step is a
    product of whole (B,) rows, and no sum holds more than n products of
    two residues before it is reduced.
    """
    n = mats.shape[0]
    poly = np.stack((np.ones_like(mats[0, 0]), _reduce(-mats[0, 0], mod)))
    for i in range(1, n):
        row = mats[i, :i]
        q = np.empty((i + 2,) + row.shape[1:], dtype=mats.dtype)
        q[0] = 1
        q[1] = mats[i, i]
        v = mats[:i, i]  # S^j C, S the leading i x i block and C column i
        for j in range(i):
            np.einsum("kb,kb->b", row, v, out=q[2 + j])
            if j < i - 1:
                v = _reduce(np.einsum("ikb,kb->ib", mats[:i, :i], v), mod)
        np.negative(q[1:], out=q[1:])
        _reduce(q[1:], mod)  # one reduction per step: see the module docstring
        out = np.zeros_like(q)
        for c in range(i + 1):
            out[c:] += poly[c] * q[: i + 2 - c]
        poly = _reduce(out, mod)
    return poly


def _min_vp(values, p: int, m: int):
    """Per-column min p-valuation of residues mod p^m or a multiple; m stands for 'all zero'."""
    v = np.full(values.shape[1:], m, dtype=np.int64)
    for k in range(m):
        quot = values // p  # p | x iff x == (x // p) * p; `%` is slower
        fresh = (values != quot * p).any(axis=0) & (v == m)
        v[fresh] = k
        values = quot
    return v


def _mult_matrices(table, chunk, mod: int):
    """The (n, n, B) matrices of multiplication by each class, batch last.

    Row i of matrix b is e_i times class b.  The classes are transposed to
    contiguous (n, B) first, so the result has unit stride along the batch.
    """
    return _reduce(np.einsum("kij,kb->ijb", table, np.ascontiguousarray(chunk.T)), mod)


def _char_values(cp, mod: int):
    """F(x) mod `mod` at x = 0..n from the (n + 1, B) char polys: (n + 1, B)."""
    return _reduce(np.einsum("xk,kb->xb", _powers(len(cp) - 1, mod), cp), mod)


def _power_rows(mult, mod: int):
    """The (n, n, B) power-basis matrices: row k holds the coordinates of t^k."""
    n = mult.shape[0]
    pw = np.zeros_like(mult)
    pw[0, 0] = 1
    pw[1] = mult[0]  # e_0 t = t: basis vector 0 is 1; the searches have n >= 2
    for k in range(2, n):
        _reduce(np.einsum("ib,ijb->jb", pw[k - 1], mult, out=pw[k]), mod)
    return pw


def _profile(field, mod: int, m: int, segments):
    """Per segment (p, classes, index), the min p-valuation per class (m =
    undecided) of the char poly's values at x = 0..n, or with `index` set of
    the power-basis determinant.  The segments share the modulus `mod`, a
    multiple of p^m; their classes are residues in [0, mod), index ones last."""
    assert mod <= _INT32_SAFE_MOD
    table = _np_table(field, mod)
    if len(segments) == 1:  # cast a chunk at a time: a deep level's whole copy is large
        stream = segments[0][1]
    else:
        stream = np.concatenate([c for _, c, _ in segments], dtype=table.dtype, casting="unsafe")
    ends = np.cumsum([len(c) for _, c, _ in segments]).tolist()
    chars = sum(len(c) for _, c, index in segments if not index)
    out = np.empty(len(stream), dtype=np.int64)
    for lo in range(0, len(stream), _CHUNK):
        chunk = stream[lo : lo + _CHUNK].astype(table.dtype)
        k = min(max(chars - lo, 0), len(chunk))  # the char-poly classes lead
        mats = _mult_matrices(table, chunk, mod)
        if k < len(chunk):
            mats = np.concatenate((mats[..., :k], _power_rows(mats[..., k:], mod)), axis=2)
        cp = _charpoly_batch(mats, mod)
        values = (_char_values(cp[:, :k], mod), cp[-1:])  # column j: class lo + j
        for (p, c, index), end in zip(segments, ends):
            a, b = max(end - len(c), lo), min(end, lo + len(chunk))
            if a < b:
                out[a:b] = _min_vp(values[index][:, a - lo : b - lo], p, m)
    return [out[end - len(c) : end] for (_, c, _), end in zip(segments, ends)]


@functools.cache
def _shared(n: int):
    """The ascending primes p <= n whose product keeps int16, and that product."""
    primes = primes_upto(n)
    while _width(n, int(np.prod(primes))) is not np.int16:
        primes.pop()
    return tuple(primes), int(np.prod(primes))


def _level_one(field, p: int, index: bool):
    """Level 1 of one search at p from the field's shared pass; None if p has none."""
    primes, mod = _shared(field.degree)
    if p not in primes:
        return None

    def compute():
        segments = [(q, _all_classes(q, field.degree), False) for q in primes]
        segments += [(q, c, True) for q, c, _ in segments if field.index_valuations.get(q)]
        profiles = _profile(field, mod, 1, segments)
        return {(q, idx): _frozen(pr) for (q, _, idx), pr in zip(segments, profiles)}

    return field.memo("level_one", compute)[p, index]


# -- public searches -----------------------------------------------------------


def max_i_valuation(field, p: int):
    """(max over primitive t of v_p(gcd of char-poly values), witness class).

    The witness is (level m, coordinate tuple mod p^m): every lift of that
    class attains the maximum.  Returns (0, None) for p > degree.  The
    search stops by itself by level v_p(n!) (see the module docstring).
    """
    check_prime(p)
    n = field.degree
    if p > n:
        return 0, None
    bound = vp_factorial(n, p)
    best = 0
    witness = None
    classes = _all_classes(p, n)
    m = 1
    while True:
        if m > 1 or (profile := _level_one(field, p, False)) is None:
            # at the bound the first undecided class is the witness: try a prefix
            head = len(classes) if m < bound else _HEAD
            profile = _profile(field, p**m, m, [(p, classes[:head], False)])[0]
            if (profile < m).all() and len(classes) > head:
                rest = _profile(field, p**m, m, [(p, classes[head:], False)])[0]
                profile = np.concatenate((profile, rest))
        if m == bound and len(undecided := np.flatnonzero(profile >= m)):
            return bound, (m, tuple(int(x) for x in classes[undecided[0]]))
        certified = profile < m
        if certified.any():
            w = int(profile[certified].max())
            if w > best:
                best = w
                idx = int(np.nonzero(certified & (profile == w))[0][0])
                witness = (m, tuple(int(x) for x in classes[idx]))
        survivors = classes[~certified]
        if not len(survivors):
            return best, witness
        classes = _children(survivors, p, m)
        m += 1


def min_index_valuation(field, p: int) -> int:
    """Min over primitive t of v_p([A : Z[t]]); 0 for p > degree.

    The search stops by itself by level v_p([A : Z[theta]]) (see the module
    docstring).
    """
    check_prime(p)
    n = field.degree
    if p > n:
        return 0
    best = field.index_valuations.get(p, 0)  # attained by the generator
    if best == 0:
        return 0
    classes = _all_classes(p, n)
    m = 1
    while len(classes):
        if m > 1 or (profile := _level_one(field, p, True)) is None:
            profile = _profile(field, p**m, m, [(p, classes, True)])[0]
        certified = profile < m
        if certified.any():
            best = min(best, int(profile[certified].min()))
        if best == 0:
            break
        survivors = classes[profile >= m]
        if not len(survivors) or m >= best:
            # survivors carry valuation >= m and cannot beat the minimum
            break
        classes = _children(survivors, p, m)
        m += 1
    return best
