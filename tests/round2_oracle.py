"""`build_field` against a reference Round-2 on seeded fields.

The reference starts from the equation order and, at each prime p with
p^2 | disc(f), repeats the multiplier-ring step `_enlarge_at_p` until the
order stops changing: no Dedekind step and no discriminant stop.  Each
field's `basis_rows`, `den`, `disc` and `index_valuations` must equal
`build_field`'s.

Strata (seed 1 by default): the irreducible simplest sextics m = 1..300;
random monic fields of degree 2 to 7 with coefficients in [-30, 30];
many-split fields prod (x - r_i) + c*p^k, which are rarely p-maximal; and
the same with c*p^k*q^l, which Round-2 often enlarges at two primes, so
that Dedekind's step at the second prime is written over a basis the first
one changed.  Prints each mismatch and one summary line; exits 1 on any
mismatch.  Not part of the Tier-1 suite: it takes about 10 s on a 2-core
x86-64 machine.

    PYTHONPATH=src python tests/round2_oracle.py [seed]
"""

import random
import sys

from indexlab.arith import square_divisor_primes
from indexlab.families import family_polynomial
from indexlab.intpoly import IntPoly
from indexlab.numberfield import _enlarge_at_p, _equation_order, build_field, is_irreducible


def random_field(rng):
    n = rng.randint(2, 7)
    return IntPoly([rng.randint(-30, 30) for _ in range(n)] + [1])


def many_split(rng, nprimes):
    """prod (x - r_i) + c, with c = +-p^k (one prime) or +-p^k*q^l (two)."""
    n = rng.randint(2, 7)
    f = IntPoly([1])
    for r in rng.sample(range(-5, 6), n):
        f = f * IntPoly([-r, 1])
    c = rng.choice((1, -1))
    for q in rng.sample((2, 3, 5, 7), nprimes):
        c *= q ** rng.randint(1, 4)
    return f + IntPoly([c])


def strata(rng, count):
    """(name, irreducible polynomials) for the three seeded strata, `count`
    draws each."""
    makers = {
        "random": random_field,
        "many-split": lambda rng: many_split(rng, 1),
        "two-prime": lambda rng: many_split(rng, 2),
    }
    for name, make in makers.items():
        draws = (make(rng) for _ in range(count))
        yield name, [f for f in draws if is_irreducible(f)]


def reference_order(f):
    """The maximal order by multiplier-ring steps alone."""
    order = _equation_order(f)
    for p in square_divisor_primes(order.poly_disc):
        while (larger := _enlarge_at_p(order, p)) is not order:
            order = larger
    return order


def main(argv) -> int:
    rng = random.Random(int(argv[0]) if argv else 1)
    sextics = (family_polynomial("simplest_sextic", m) for m in range(1, 301))
    corpus = [("sextic", [f for f in sextics if is_irreducible(f)])]
    corpus += strata(rng, 400)
    counts = []
    mismatches = two_prime_fields = 0
    for name, fields in corpus:
        for f in fields:
            want = reference_order(f)
            two_prime_fields += len(want.index_valuations) >= 2
            try:
                got = build_field(f)
            except AssertionError as exc:
                mismatches += 1
                print(f"mismatch {name} f={f}: build_field failed {exc!r}")
                continue
            keys = [
                (K.basis_rows, K.den, K.disc, sorted(K.index_valuations.items()))
                for K in (got, want)
            ]
            if keys[0] != keys[1]:
                mismatches += 1
                print(f"mismatch {name} f={f}: build_field {keys[0]}, reference {keys[1]}")
        counts.append(f"{len(fields)} {name}")
    print(
        f"round2 oracle: {', '.join(counts)} fields checked, {two_prime_fields} "
        f"enlarged at two or more primes, {mismatches} mismatches"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
