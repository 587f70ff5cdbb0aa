"""Small polynomial oracles shared by the tests; the library has no use
for them."""

from indexlab.intpoly import IntPoly


def compose(f, inner):
    """f(inner(x)) by Horner."""
    out = IntPoly()
    for c in reversed(f.coeffs):
        out = out * inner + IntPoly([c])
    return out


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
