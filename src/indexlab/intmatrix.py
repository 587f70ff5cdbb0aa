"""Exact integer matrices as row-lists: Hermite normal form, fraction-free
determinants and lower-triangular solves.

hnf_basis() puts the lattice spanned by some integer rows into row-style
echelon form.  Order lattices elsewhere in the package are stored through
hnf_lower(), the lower-triangular variant over ascending power-basis
columns, which runs hnf_basis() on the column-reversed rows.
"""

from __future__ import annotations

from .errors import InvalidInput, RankDeficient


def mat_mul(a, b):
    """Product of two row-lists of integers."""
    n, k = len(a), len(a[0])
    if len(b) != k:
        raise InvalidInput("matrix shape mismatch")
    m = len(b[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


def det_rows(rows) -> int:
    """Determinant of a square row-list via fraction-free (Bareiss) elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise InvalidInput("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row = m[i]
            mk = m[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - mik * mk[j]) // prev
            row[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def hnf_basis(rows) -> list[list[int]]:
    """HNF basis (nonzero rows only) of the lattice generated by `rows`.

    Row-style echelon form: pivots positive, their columns strictly
    increasing, and the entries above each pivot reduced into [0, pivot).
    """
    h = [list(r) for r in rows]
    nr = len(h)
    nc = len(h[0])
    row = 0
    for col in range(nc):
        # gather a single nonzero entry at (row, col) by Euclidean steps
        pivot = None
        while True:
            live = [i for i in range(row, nr) if h[i][col]]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(h[i][col]))
            if i0 != row:
                h[row], h[i0] = h[i0], h[row]
            done = True
            for i in range(row + 1, nr):
                if h[i][col]:
                    q = h[i][col] // h[row][col]
                    if q:
                        h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                    if h[i][col]:
                        done = False
            if done:
                pivot = h[row][col]
                break
        if pivot is None:
            continue
        if pivot < 0:
            h[row] = [-a for a in h[row]]
            pivot = -pivot
        for i in range(row):
            q = h[i][col] // pivot
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[row])]
        row += 1
        if row == nr:
            break
    return h[:row]


def hnf_lower(rows) -> list[list[int]]:
    """Lower-triangular HNF (ascending-column pivots) of a full-rank square lattice.

    Used for order bases over the power basis: row i then involves only
    powers x^0..x^i, pivots positive, entries below each pivot reduced.
    """
    flipped = [list(reversed(r)) for r in rows]
    h = hnf_basis(flipped)
    if len(h) != len(rows[0]):
        raise RankDeficient("lattice basis is not full rank")
    return [list(reversed(r)) for r in reversed(h)]


def solve_lower_triangular(rows, y):
    """Solve x*W = y exactly for lower-triangular W; None if no integer solution."""
    n = len(rows)
    x = [0] * n
    for j in range(n - 1, -1, -1):
        acc = y[j]
        for i in range(j + 1, n):
            acc -= x[i] * rows[i][j]
        piv = rows[j][j]
        if acc % piv:
            return None
        x[j] = acc // piv
    return x
