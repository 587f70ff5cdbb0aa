"""Number fields of degree <= 7 from defining polynomials.

A field is built by maximalizing the equation order Z[theta] at every prime
whose square divides disc(f).  Where Dedekind's criterion fails, its
Z[theta] + (U(theta)/p)*Z[theta] is the first step; the multiplier ring of
the radical of pO, the kernel of x -> x^(p^k) (p^k >= n), enlarges it while
p^2 divides its discriminant.  Every order on the way is a `NumberField`, and
the field is the last one, the maximal order.  The integral basis is stored
as a lower-triangular HNF matrix over the power basis with one common
denominator, so basis vector i only involves 1, theta, ..., theta^i and the
first basis vector is always 1.
No general HNF is needed: the equation order's basis is the identity, and
each enlargement multiplies the basis by another triangular one.

An element is the tuple of its integer coordinates over the integral basis;
the field is passed beside it, never stored in it, and every function that
takes an element checks that it has one coordinate per basis vector.  The
index of a primitive element t is |det| of the matrix expressing 1, t, ...,
t^(n-1) over the integral basis; its square times the field discriminant
equals the discriminant of the characteristic polynomial of t.

Prime splitting: the splitting type of p is the sorted tuple of its (e, f)
pairs.  When the equation order is p-maximal it is read off the squarefree
and distinct-degree factorizations of f mod p; otherwise it is read off the
Frobenius x -> x^p on the finite algebra A/pA: its fixed space is spanned
by the idempotents of the local components, and a high enough power of it
maps each component onto its residue field.  Round-2 and the split read one
Frobenius record per (order, p) from the order's memo (see `_frobenius`).
"""

from __future__ import annotations

import functools
import math
import operator

from .arith import INFINITY, check_prime, divisors, square_divisor_primes
from .errors import (
    DegreeOutOfScope,
    InvalidDegree,
    InvalidInput,
    ReduciblePolynomial,
)
from .intmatrix import det_rows, mat_mul, solve_lower_triangular
from .intpoly import MAX_DEGREE, IntPoly, as_poly, poly_discriminant


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


class NumberField:
    """An order of Q[x]/(f), with its discriminant, index and a memo.

    `build_field` returns the maximal order, the ring of integers, and every
    order Round-2 passes through on the way is one of these too.
    `basis_rows` over the common denominator `den` is lower-triangular with
    a positive diagonal over the power basis.  Past the content, row i's
    entry in column j is reduced into [0, d_j), d_j row j's diagonal entry,
    for j = i-1 down to 0; row j is 0 past column j, so no step undoes an
    earlier one.  The lattice and the diagonal stay, so this is the
    lattice's Hermite normal form, which is unique.  `index` is
    [O : Z[theta]], and `index_valuations` maps each prime at which Round-2
    enlarged the order to v_p(index).
    """

    def __init__(self, poly, basis_rows, den, poly_disc, index_valuations):
        self.poly = poly
        self.degree = n = poly.degree
        g = den
        for row in basis_rows:
            for x in row:
                if x:
                    g = math.gcd(g, x)
        w = [[x // g for x in row] for row in basis_rows]
        for i in range(n):
            for j in range(i - 1, -1, -1):
                q = w[i][j] // w[j][j]
                if q:
                    w[i] = [a - q * b for a, b in zip(w[i], w[j])]
        self.den = den // g
        self.basis_rows = tuple(tuple(r) for r in w)
        assert w[0][0] == self.den, "order must contain 1"
        self.poly_disc = poly_disc
        diag = math.prod(w[i][i] for i in range(n))
        assert self.den**n % diag == 0
        self.index = self.den**n // diag
        self.index_valuations = index_valuations
        assert self.poly_disc % (self.index * self.index) == 0
        self.disc = self.poly_disc // (self.index * self.index)
        assert self.disc % 4 in (0, 1), "discriminant must be 0 or 1 mod 4"
        self._memo = {}

    def memo(self, key, compute):
        """The value under `key`, from `compute()` on its first use.

        Frobenius records, splits, reduced times tables, search levels and
        results, the witness's char poly and the report live here.  The first
        stored wins (`dict.setdefault`): racing callers get the same object.
        """
        if key in self._memo:
            return self._memo[key]
        return self._memo.setdefault(key, compute())

    def _power_table(self):
        """Coordinates of x^k mod f over the power basis, k = 0 .. 2n-2."""
        n = self.degree
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

    @functools.cached_property
    def times_table(self):
        """Coordinates of e_i * e_j over the basis, built on first use: many
        orders Round-2 passes through are replaced before a step reads it."""
        n = self.degree
        w = self.basis_rows
        powers = self._power_table()
        den = self.den
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                conv = [0] * (2 * n - 1)
                for a, ca in enumerate(w[i]):
                    if ca:
                        for b, cb in enumerate(w[j]):
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
                coords = solve_lower_triangular(w, u)
                assert coords is not None, "order is not multiplicatively closed"
                table[i][j] = tuple(coords)
                table[j][i] = tuple(coords)
        return tuple(tuple(row) for row in table)

    def _coords(self, t) -> tuple[int, ...]:
        """The integer coordinates of t, whose length must be the degree."""
        try:
            cs = tuple(map(operator.index, t))
        except TypeError:
            raise InvalidInput("coordinates must be integers") from None
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
        return [_mul(_unit(n, j), t, self.times_table) for j in range(n)]

    def powers_matrix(self, t):
        """Rows: coordinates of 1, t, ..., t^(n-1) over the integral basis."""
        n = self.degree
        t = self._coords(t)
        rows = [_unit(n, 0)]
        if n > 1:
            cur = list(t)
            rows.append(cur)
            for _ in range(n - 2):
                cur = _mul(cur, t, self.times_table)
                rows.append(cur)
        return rows

    def __repr__(self):
        return f"NumberField({self.poly}, disc={self.disc})"


def _equation_order(f) -> NumberField:
    n = f.degree
    return NumberField(f, [_unit(n, i) for i in range(n)], 1, poly_discriminant(f), {})


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
    the coefficient fields (see `_split_via_algebra`).  The split reuses a
    Round-2 record only where Round-2's last step at p ran on the field: a
    step that gained nothing, at the last prime enlarged.  Where Dedekind's
    step or the discriminant stop ended the loop, or a later prime changed
    the basis, the split builds the record once on the field.
    """

    def compute():
        n = order.degree
        table = _mod_table(order.times_table, p)
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
    return _lattice_mod_p(_left_nullspace_mod_p(phi_k, p), p, order.degree)


def _extend(order, vectors, p):
    """The order (p*O + span(vectors)) / p, for vectors over O's basis that
    are independent mod p, so that it has index p^len(vectors) over O."""
    valuations = dict(order.index_valuations)
    valuations[p] = valuations.get(p, 0) + len(vectors)
    rows = mat_mul(_lattice_mod_p(vectors, p, order.degree), order.basis_rows)
    return NumberField(order.poly, rows, order.den * p, order.poly_disc, valuations)


def _enlarge_at_p(order, p):
    """One multiplier-ring step: the larger order, or `order` if p-maximal."""
    n = order.degree
    rad = _radical_rows(order, p)
    big = []
    for i in range(n):
        flat = []
        e = _unit(n, i)
        for j in range(n):
            u = _mul(e, rad[j], order.times_table)
            z = solve_lower_triangular(rad, u)
            assert z is not None, "radical is not an ideal"
            flat.extend(z)
        big.append([x % p for x in flat])
    kernel = _left_nullspace_mod_p(big, p)
    # the kernel rows are independent mod p, so a nonempty kernel always gains
    return _extend(order, kernel, p) if kernel else order


def _p_maximalize(order, p):
    # disc(O) = disc(K) * [O_K : O]^2: once p^2 no longer divides disc(O), p
    # cannot divide [O_K : O]; before that, a step that gains nothing ends it
    while order.disc % (p * p) == 0:
        larger = _enlarge_at_p(order, p)
        if larger is order:
            break
        order = larger
    return order


# -- public operations on defining polynomials ------------------------------


def _dedekind(f, p):
    """(Z, U) mod p of Dedekind's criterion for the monic f, descending.

    With monic lifts g of rad(f mod p) and h of (f mod p)/g, and
    T = (g*h - f)/p, Z = gcd(T, g, h) mod p and U = (f mod p)/Z (Cohen,
    GTM 138, ch. 6).  The squarefree decomposition f = prod s_e^e mod p
    gives g = prod s_e and h = prod s_e^(e-1) without factoring further;
    lifts g + p*a, h + p*b change T mod p by a*h + b*g, so any lifts do.
    """
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_from_int_poly, gf_gcd, gf_quo, gf_sqf_list

    def bar(h):
        return gf_from_int_poly(h.coeffs[::-1], p)

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
    return z_bar, gf_quo(bar(f), z_bar, p, ZZ)


def dedekind_test(f, p: int) -> bool:
    """True iff the equation order Z[x]/(f) is p-maximal (Dedekind
    criterion): iff Z of `_dedekind`, which `build_field` reads, is 1."""
    f = as_poly(f)
    if not f.is_monic:
        raise InvalidInput("Dedekind criterion expects a monic polynomial")
    check_prime(p)
    return len(_dedekind(f, p)[0]) == 1


def build_field(f) -> NumberField:
    """The maximal order of the field of the monic irreducible f (deg <= 7).

    The order is p-maximal at every prime with p^2 | disc(f), so it is the
    full ring of integers; .disc is the exact field discriminant.
    """
    f = _check_defining_poly(f)
    order = _equation_order(f)
    for p in square_divisor_primes(order.poly_disc):
        z_bar, u_bar = _dedekind(f, p)
        if m := len(z_bar) - 1:
            # Round-2's first step is Z[theta] + (U(theta)/p)*Z[theta] (Cohen,
            # GTM 138, Thm 6.1.4): U(theta)*theta^j, j < m, independent mod p,
            # over the current basis, which an earlier prime may have enlarged
            u = [int(c) for c in reversed(u_bar)]
            targets = ([order.den * c for c in [0] * j + u + [0] * (m - 1 - j)] for j in range(m))
            vectors = [solve_lower_triangular(order.basis_rows, t) for t in targets]
            order = _p_maximalize(_extend(order, vectors, p), p)
    return order


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


def _split_via_poly(field: NumberField, p: int) -> tuple[tuple[int, int], ...]:
    """The (e, f) pairs of f mod p from its squarefree and distinct-degree parts."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_from_int_poly, gf_sqf_list

    _, parts = gf_sqf_list(gf_from_int_poly(field.poly.coeffs[::-1], p), p, ZZ)
    pairs = ((e, d, len(h) - 1) for g, e in parts for h, d in gf_ddf_zassenhaus(g, p, ZZ))
    return tuple(sorted((e, d) for e, d, deg in pairs for _ in range(deg // d)))


def _split_via_algebra(field: NumberField, p: int) -> tuple[tuple[int, int], ...]:
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

    T, Phi and Phi^k are the field's `_frobenius` record.
    """
    n = field.degree
    table, phi, image = _frobenius(field, p)

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
    return tuple(sorted(pairs))


def split_prime(field: NumberField, p: int) -> tuple[tuple[int, int], ...]:
    """Exact splitting type of p in the field: the sorted (e_i, f_i) pairs.

    Fast path reads the degrees of the factors of the defining polynomial
    mod p when the equation order is p-maximal; otherwise the algebra A/pA is
    decomposed into local components.  Results are memoised per field, and
    the first one stored wins.
    """
    check_prime(p)

    def compute():
        if field.index_valuations.get(p, 0) == 0:
            st = _split_via_poly(field, p)
        else:
            st = _split_via_algebra(field, p)
        assert sum(e * f for e, f in st) == field.degree
        return st

    return field.memo(("split", p), compute)
