"""Exact integer matrices as row-lists: products, fraction-free
determinants and lower-triangular solves."""

from __future__ import annotations

from .errors import InvalidInput


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
