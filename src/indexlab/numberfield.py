"""Number fields of degree <= 7 from defining polynomials.

A field is built by maximalizing the equation order Z[theta] at every prime
whose square divides disc(f): the radical of pO is the kernel of
x -> x^(p^k) (p^k >= n), its ring of multipliers enlarges the order, and the
loop repeats until stable.  The integral basis is stored as a
lower-triangular HNF matrix over the power basis with one common
denominator, so basis vector i only
involves 1, theta, ..., theta^i and the first basis vector is always 1.
No general HNF is needed: the equation order's basis is the identity, and
each enlargement multiplies the basis by another triangular one.

An element is the tuple of its integer coordinates over the integral basis;
the field is passed beside it, never stored in it, and every function that
takes an element checks that it has one coordinate per basis vector.  The
index of a primitive element t is |det| of the matrix expressing 1, t, ...,
t^(n-1) over the integral basis; its square times the field discriminant
equals the discriminant of the characteristic polynomial of t.

Prime splitting: when the equation order is p-maximal the splitting type is
read off the factorization of f mod p; otherwise it is read off the
Frobenius x -> x^p on the finite algebra A/pA: its fixed space is spanned by
the idempotents of the local components, and a high enough power of it maps
each component onto its residue field.  Round-2 and the split read one
Frobenius record per (order, p) from the order's memo (see `_frobenius`).
"""

from __future__ import annotations

import math

from .arith import INFINITY, check_prime, divisors, square_divisor_primes
from .errors import (
    DegreeOutOfScope,
    InvalidDegree,
    InvalidInput,
    ReduciblePolynomial,
)
from .intmatrix import det_rows, mat_mul, solve_lower_triangular
from .intpoly import MAX_DEGREE, IntPoly, as_poly, poly_discriminant
from .modpoly import factor_mod_p


# -- linear algebra over F_p (tiny dimensions) ------------------------------


def _rref_mod_p(rows, p):
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    m = [[x % p for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _rank_mod_p(rows, p):
    return len(_rref_mod_p(rows, p)[0])


def _left_nullspace_mod_p(rows, p):
    """Basis of {v : v * M = 0 mod p} for the row-list M."""
    nrows = len(rows)
    transposed = [[rows[i][j] % p for i in range(nrows)] for j in range(len(rows[0]))]
    rref, pivots = _rref_mod_p(transposed, p)
    free = [c for c in range(nrows) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * nrows
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rref[r][fc]) % p
        basis.append(v)
    return basis


def _unit(n, i):
    v = [0] * n
    v[i] = 1
    return v


# -- characteristic polynomial (exact, Faddeev-LeVerrier) -------------------


def _charpoly_rows(m):
    """Monic char poly of an integer matrix, descending coefficients."""
    n = len(m)
    coeffs = [1]
    a = [row[:] for row in m]
    for k in range(1, n + 1):
        tr = sum(a[i][i] for i in range(n))
        assert tr % k == 0, "trace recurrence must divide exactly"
        c = -(tr // k)
        coeffs.append(c)
        if k < n:
            for i in range(n):
                a[i][i] += c
            a = mat_mul(m, a)
    return coeffs


# -- irreducibility over Q ---------------------------------------------------


def is_irreducible(f) -> bool:
    """Exact irreducibility over Q for monic integer polynomials.

    Up to degree 3 a factor is linear, so the rational-root test decides;
    from degree 4 sympy's exact factorization decides on its own.
    """
    f = as_poly(f)
    n = f.degree
    if n < 1:
        return False
    if not f.is_monic:
        raise InvalidInput("irreducibility test expects a monic polynomial")
    if n == 1:
        return True
    if n >= 4:
        from sympy import Poly, symbols

        return bool(Poly(list(reversed(f.coeffs)), symbols("x")).is_irreducible)
    c0 = f(0)
    if c0 == 0:
        return False
    for d in divisors(c0):
        if f(d) == 0 or f(-d) == 0:
            return False
    return True


def _check_defining_poly(f) -> IntPoly:
    f = as_poly(f)
    if f.degree < 1:
        raise InvalidDegree("defining polynomial must have degree >= 1")
    if f.degree > MAX_DEGREE:
        raise DegreeOutOfScope(f"degree {f.degree} > {MAX_DEGREE}")
    if not f.is_monic:
        raise InvalidInput("defining polynomial must be monic")
    if not is_irreducible(f):
        raise ReduciblePolynomial(f"{f} is reducible over Q")
    return f


# -- orders ------------------------------------------------------------------


class _Order:
    """Order in Q[x]/(f): lower-triangular HNF basis over the power basis.

    `w_rows` is lower-triangular with a positive diagonal.  Past the
    content, row i's entry in column j is reduced into [0, w[j][j]) for
    j = i-1 down to 0; row j is 0 past column j, so no step undoes an
    earlier one.  The lattice and the diagonal stay, so this is the
    lattice's Hermite normal form, which is unique.
    """

    __slots__ = ("poly", "n", "den", "w", "table", "_memo")

    def __init__(self, poly, w_rows, den):
        self.poly = poly
        self.n = poly.degree
        g = den
        for row in w_rows:
            for x in row:
                if x:
                    g = math.gcd(g, x)
        w = [[x // g for x in row] for row in w_rows]
        for i in range(self.n):
            for j in range(i - 1, -1, -1):
                q = w[i][j] // w[j][j]
                if q:
                    w[i] = [a - q * b for a, b in zip(w[i], w[j])]
        self.den = den // g
        self.w = w
        assert self.w[0][0] == self.den, "order must contain 1"
        self.table = self._times_table()
        self._memo = {}

    def memo(self, key, compute):
        """The value under `key`, from `compute()` on its first use.

        Frobenius records, splitting types, reduced times tables, search
        results and the report are kept here.  The first value stored wins
        (`dict.setdefault`), so racing callers all get the same object.
        """
        if key in self._memo:
            return self._memo[key]
        return self._memo.setdefault(key, compute())

    def _power_table(self):
        """Coordinates of x^k mod f over the power basis, k = 0 .. 2n-2."""
        n = self.n
        f = self.poly
        powers = [_unit(n, k) for k in range(n)]
        if n >= 2:
            vn = [-f[i] for i in range(n)]
            cur = vn
            powers.append(cur)
            for _ in range(n + 1, 2 * n - 1):
                top = cur[n - 1]
                cur = [0] + cur[:-1]
                if top:
                    cur = [a + top * b for a, b in zip(cur, vn)]
                powers.append(cur)
        return powers

    def _times_table(self):
        n = self.n
        powers = self._power_table()
        den = self.den
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                conv = [0] * (2 * n - 1)
                for a, ca in enumerate(self.w[i]):
                    if ca:
                        for b, cb in enumerate(self.w[j]):
                            if cb:
                                conv[a + b] += ca * cb
                u = [0] * n
                for k, c in enumerate(conv):
                    if c:
                        pk = powers[k]
                        for t in range(n):
                            u[t] += c * pk[t]
                assert all(x % den == 0 for x in u), "product left the order lattice"
                u = [x // den for x in u]
                coords = solve_lower_triangular(self.w, u)
                assert coords is not None, "order is not multiplicatively closed"
                table[i][j] = tuple(coords)
                table[j][i] = tuple(coords)
        return tuple(tuple(row) for row in table)

    def basis_index(self):
        """Index of the power-basis lattice Z[theta] in this order."""
        det = 1
        for i in range(self.n):
            det *= self.w[i][i]
        num = self.den**self.n
        assert num % det == 0
        return num // det


def _equation_order(f) -> _Order:
    n = f.degree
    return _Order(f, [_unit(n, i) for i in range(n)], 1)


def _mod_table(table, p):
    return [[[c % p for c in tij] for tij in row] for row in table]


def _mul(u, v, table):
    """Product of two coordinate vectors under the given times table."""
    n = len(u)
    out = [0] * n
    for i, ui in enumerate(u):
        if ui:
            ti = table[i]
            for j, vj in enumerate(v):
                if vj:
                    c = ui * vj
                    tij = ti[j]
                    for k in range(n):
                        out[k] += c * tij[k]
    return out


def _alg_mul_mod_p(u, v, table, p):
    return [x % p for x in _mul(u, v, table)]


def _alg_pow(u, e, table, p):
    """u^e (e >= 1) for u reduced mod p, left to right: a squaring per bit
    after the leading one and a product per set bit (3 products for x^8)."""
    acc = u
    for bit in bin(e)[3:]:
        acc = _alg_mul_mod_p(acc, acc, table, p)
        if bit == "1":
            acc = _alg_mul_mod_p(acc, u, table, p)
    return acc


def _frobenius(order, p):
    """(T, Phi, Phi^k) of the algebra O/pO, computed once per (order, p).

    T is the times table mod p, Phi the matrix (rows e_i^p) of the F_p-linear
    x -> x^p, and Phi^k (k - 1 products, k >= 1 least with p^k >= n) that
    of x -> x^(p^k): its kernel is the nilradical, its image the product of
    the coefficient fields (see `_split_via_algebra`).  A field shares its
    order's memo, so the split at the last prime Round-2 enlarged at reuses
    Round-2's last record; at an earlier prime a later enlargement changed
    the basis, and the split builds the record once on the final order.
    """

    def compute():
        n = order.n
        table = _mod_table(order.table, p)
        phi = [_alg_pow(_unit(n, i), p, table, p) for i in range(n)]
        phi_k, q = phi, p
        while q < n:
            phi_k = [[x % p for x in row] for row in mat_mul(phi_k, phi)]
            q *= p
        return table, phi, phi_k

    return order.memo(("frobenius", p), compute)


def _lattice_mod_p(vectors, p, n):
    """Lower-triangular HNF basis of the lattice p*Z^n + span(vectors).

    Reversed back, each row of the reduced echelon form mod p of the
    reversed vectors ends in a 1 at its pivot i and is 0 at the other
    pivots; it is row i, and p*e_i is row i where no row ends at i.  These
    rows lie in the lattice and have its index p^(n - rank), so they span
    it; with diagonal 1 or p and each entry below a diagonal d in [0, d),
    they are its Hermite normal form, which is unique.
    """
    rows = [[p if i == j else 0 for j in range(n)] for i in range(n)]
    rref, pivots = _rref_mod_p([v[::-1] for v in vectors], p)
    for row, c in zip(rref, pivots):
        rows[n - 1 - c] = row[::-1]
    return rows


def _radical_rows(order, p):
    """HNF basis of the radical of p*O inside O: the pullback of ker Phi^k."""
    phi_k = _frobenius(order, p)[2]
    return _lattice_mod_p(_left_nullspace_mod_p(phi_k, p), p, order.n)


def _enlarge_at_p(order, p):
    """One multiplier-ring step; returns (possibly new order, v_p index gained)."""
    n = order.n
    rad = _radical_rows(order, p)
    big = []
    for i in range(n):
        flat = []
        e = _unit(n, i)
        for j in range(n):
            u = _mul(e, rad[j], order.table)
            z = solve_lower_triangular(rad, u)
            assert z is not None, "radical is not an ideal"
            flat.extend(z)
        big.append([x % p for x in flat])
    kernel = _left_nullspace_mod_p(big, p)
    if not kernel:
        return order, 0
    # the kernel rows are independent mod p, so the new order, (p*Z^n +
    # span(kernel)) / p over the old basis, has index p^len(kernel) over
    # the old one: a nonempty kernel always gains
    rel = _lattice_mod_p(kernel, p, n)
    return _Order(order.poly, mat_mul(rel, order.w), order.den * p), len(kernel)


def _p_maximalize(order, p):
    total = 0
    while True:
        order, gain = _enlarge_at_p(order, p)
        if gain == 0:
            return order, total
        total += gain


# -- public operations on defining polynomials ------------------------------


def dedekind_test(f, p: int) -> bool:
    """True iff the equation order Z[x]/(f) is p-maximal (Dedekind criterion).

    With monic lifts g of rad(f mod p) and h of (f mod p)/g, and
    T = (g*h - f)/p, it is p-maximal iff T, g, h are coprime mod p (Cohen,
    GTM 138, ch. 6).  The squarefree decomposition f = prod s_e^e mod p
    gives g = prod s_e and h = prod s_e^(e-1) without factoring further;
    lifts g + p*a, h + p*b change T mod p by a*h + b*g, so any lifts do.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_from_int_poly, gf_gcd, gf_sqf_list

    def bar(h):
        return gf_from_int_poly(h.coeffs[::-1], p)

    f = as_poly(f)
    if not f.is_monic:
        raise InvalidInput("Dedekind criterion expects a monic polynomial")
    check_prime(p)
    _, parts = gf_sqf_list(bar(f), p, ZZ)
    g_star = IntPoly([1])
    h_star = IntPoly([1])
    for g, e in parts:
        lift = IntPoly(g[::-1])
        g_star = g_star * lift
        h_star = h_star * lift ** (e - 1)
    diff = g_star * h_star - f
    assert all(c % p == 0 for c in diff.coeffs)
    t_bar = gf_from_int_poly([c // p for c in diff.coeffs[::-1]], p)
    z_bar = gf_gcd(gf_gcd(t_bar, bar(g_star), p, ZZ), bar(h_star), p, ZZ)
    return len(z_bar) == 1


# -- splitting types ---------------------------------------------------------


class SplittingType:
    """Multiset of (ramification index e, residue degree f) pairs for a prime."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        ps = tuple(sorted((int(e), int(f)) for e, f in pairs))
        if any(e < 1 or f < 1 for e, f in ps):
            raise InvalidInput("splitting pairs must be >= 1")
        object.__setattr__(self, "pairs", ps)

    def __setattr__(self, *a):
        raise AttributeError("SplittingType is immutable")

    @property
    def residue_sum(self) -> int:
        return sum(e * f for e, f in self.pairs)

    @property
    def num_primes(self) -> int:
        return len(self.pairs)

    def __eq__(self, other):
        return isinstance(other, SplittingType) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __str__(self):
        return "".join(f"({e},{f})" for e, f in self.pairs)

    def __repr__(self):
        return f"SplittingType({list(self.pairs)!r})"


# -- number fields and elements ----------------------------------------------


class NumberField:
    """Number field with exact integral basis, discriminant, and a memo."""

    def __init__(self, order: _Order, index_valuations: dict[int, int], poly_disc: int):
        self._order = order
        self.poly = order.poly
        self.degree = order.n
        self.den = order.den
        self.basis_rows = tuple(tuple(r) for r in order.w)
        self.poly_disc = poly_disc
        self.index = order.basis_index()
        self.index_valuations = dict(index_valuations)
        assert self.poly_disc % (self.index * self.index) == 0
        self.disc = self.poly_disc // (self.index * self.index)
        assert self.disc % 4 in (0, 1), "field discriminant must be 0 or 1 mod 4"
        # one memo per field: its order's (see `_Order.memo`)
        self.memo = order.memo

    @property
    def times_table(self):
        return self._order.table

    def _coords(self, t) -> tuple[int, ...]:
        """The integer coordinates of t, whose length must be the degree."""
        cs = tuple(int(c) for c in t)
        if len(cs) != self.degree:
            raise InvalidInput("coordinate length must match field degree")
        return cs

    def generator(self) -> tuple[int, ...]:
        """theta itself, written over the integral basis."""
        if self.degree == 1:
            return (-self.poly[0],)
        target = [0] * self.degree
        target[1] = self.den
        coords = solve_lower_triangular(self.basis_rows, target)
        assert coords is not None
        return tuple(coords)

    def mult_matrix(self, t):
        """Matrix (rows) of multiplication by t over the integral basis."""
        n = self.degree
        t = self._coords(t)
        # row j is e_j * t (the table is symmetric); with e_j as the first
        # factor the product loop skips all but one outer entry
        return [_mul(_unit(n, j), t, self._order.table) for j in range(n)]

    def powers_matrix(self, t):
        """Rows: coordinates of 1, t, ..., t^(n-1) over the integral basis."""
        n = self.degree
        t = self._coords(t)
        rows = [_unit(n, 0)]
        if n > 1:
            cur = list(t)
            rows.append(cur)
            for _ in range(n - 2):
                cur = _mul(cur, t, self._order.table)
                rows.append(cur)
        return rows

    def __repr__(self):
        return f"NumberField({self.poly}, disc={self.disc})"


def build_field(f) -> NumberField:
    """Construct the number field defined by the monic irreducible f (deg <= 7).

    The resulting order is p-maximal at every prime with p^2 | disc(f), so it
    is the full ring of integers; .disc is the exact field discriminant.
    """
    f = _check_defining_poly(f)
    disc_f = poly_discriminant(f)
    order = _equation_order(f)
    index_valuations: dict[int, int] = {}
    for p in square_divisor_primes(disc_f):
        if dedekind_test(f, p):
            continue
        # Dedekind's criterion is an iff, so this gain is at least 1
        order, index_valuations[p] = _p_maximalize(order, p)
    return NumberField(order, index_valuations, disc_f)


# -- characteristic polynomial, index, primitivity ----------------------------


def char_poly(field: NumberField, t) -> IntPoly:
    """Monic degree-n characteristic polynomial of multiplication by t."""
    coeffs = _charpoly_rows(field.mult_matrix(t))
    return IntPoly(list(reversed(coeffs)))


def index_of(field: NumberField, t):
    """Index [A : Z[t]] for primitive t; INFINITY when t is not primitive."""
    d = det_rows(field.powers_matrix(t))
    if d == 0:
        return INFINITY
    return abs(d)


def is_primitive(field: NumberField, t) -> bool:
    """True iff t generates the field (its power-basis matrix is nonsingular)."""
    return index_of(field, t) != INFINITY


# -- prime splitting -----------------------------------------------------------


def _split_via_poly(field: NumberField, p: int) -> SplittingType:
    fac = factor_mod_p(field.poly, p)
    return SplittingType((e, g.degree) for g, e in fac.factors)


def _split_via_algebra(field: NumberField, p: int) -> SplittingType:
    """Read the splitting type of p off Frobenius on A = O/pO.

    A is the product of the local algebras A_i = O/P_i^(e_i), and A_i has
    dimension e_i*f_i and residue field F_(p^f_i).  In characteristic p the
    Frobenius x -> x^p is F_p-linear; let Phi be its matrix and Phi^k, with
    p^k >= n, the matrix of x -> x^(p^k).

    * The fixed space ker(Phi - I) is spanned by the primitive idempotents
      E_i.  If x^p = x, then x = x^(p^k) lies in the coefficient field
      T_i = F_(p^f_i) of each A_i (below), and there x^p = x forces the
      component into F_p.
    * Im Phi^k is the product of the T_i.  Write x = t + j with t in T_i and
      j nilpotent: x^(p^k) = t^(p^k), since the radical's n-th power is 0
      and p^k >= n, and Frobenius is bijective on T_i.  So E_i * Im Phi^k
      has rank f_i, and E_i * A has rank e_i*f_i.
    * A vector v of the fixed space is a constant of F_p on each component.
      For c in F_p, v - c is 0 on the components where v equals c and a
      unit on the others, so by Fermat 1 - (v - c)^(p-1) is the sum of the
      E_i on which v equals c.  Refining by every vector of a basis of the
      fixed space separates all the components.

    T, Phi and Phi^k are the `_frobenius` record of the field's order.
    """
    n = field.degree
    table, phi, image = _frobenius(field._order, p)

    def mul(u, v):
        return _alg_mul_mod_p(u, v, table, p)

    one = _unit(n, 0)
    fix = [[(phi[a][b] - (1 if a == b else 0)) % p for b in range(n)] for a in range(n)]
    idempotents = [one]
    for v in _left_nullspace_mod_p(fix, p):
        powers = (_alg_pow([(v[0] - c) % p] + v[1:], p - 1, table, p) for c in range(p))
        parts = [[o - x for o, x in zip(one, y)] for y in powers]
        products = (mul(e, part) for e in idempotents for part in parts)
        idempotents = [e for e in products if any(e)]

    pairs = []
    for e in idempotents:
        f_deg = _rank_mod_p([mul(e, row) for row in image], p)
        dim = _rank_mod_p([mul(e, _unit(n, a)) for a in range(n)], p)
        assert dim % f_deg == 0
        pairs.append((dim // f_deg, f_deg))
    st = SplittingType(pairs)
    assert st.residue_sum == n
    return st


def split_prime(field: NumberField, p: int) -> SplittingType:
    """Exact splitting type {(e_i, f_i)} of p in the field.

    Fast path reads the factorization of the defining polynomial mod p when
    the equation order is p-maximal; otherwise the quotient algebra A/pA is
    decomposed into local components.  Results are memoised per field, and
    the first one stored wins.
    """
    check_prime(p)

    def compute():
        if field.index_valuations.get(p, 0) == 0:
            st = _split_via_poly(field, p)
        else:
            st = _split_via_algebra(field, p)
        assert st.residue_sum == field.degree
        return st

    return field.memo(("split", p), compute)
