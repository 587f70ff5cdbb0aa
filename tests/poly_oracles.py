"""Small polynomial oracles shared by the tests; the library has no use
for them."""

from indexlab.intpoly import IntPoly


def compose(f, inner):
    """f(inner(x)) by Horner."""
    out = IntPoly()
    for c in reversed(f.coeffs):
        out = out * inner + IntPoly([c])
    return out


def rem_mod_p(f, g, p):
    """Remainder of f by a monic g over F_p, as ascending coefficient lists
    of length deg g."""
    rem = [c % p for c in f]
    d = len(g) - 1
    for k in range(len(rem) - 1, d - 1, -1):
        q = rem[k]
        if q:
            for j, c in enumerate(g):
                rem[k - d + j] = (rem[k - d + j] - q * c) % p
    return rem[:d]


def mobius(d):
    out, q = 1, 2
    while d > 1:
        if d % q == 0:
            d //= q
            if d % q == 0:
                return 0
            out = -out
        q += 1
    return out


def monic_irreducible_count(f, p):
    """Monic irreducible polynomials of degree f over F_p (Gauss)."""
    return sum(mobius(d) * p ** (f // d) for d in range(1, f + 1) if f % d == 0) // f
