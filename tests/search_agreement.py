"""Both refinement searches against a reference loop on seeded fields.

The reference evaluates every level of each search at each prime p <= n on
its own, one `_profile` segment on the modulus p^m, and each level whole:
no level-1 pass shared between primes and searches, and no prefix at the
factorial bound.  Each field's `max_i_valuation` (value and witness class)
and `min_index_valuation` must equal the reference's at every p <= n.

Strata (seed 1 by default): random monic fields of degree 2 to 7 with
coefficients in [-30, 30], and family members (simplest sextics, quartics
and cubics, Lehmer quintics, pure cubics and quadratics).  Prints each
mismatch and one summary line; exits 1 on any mismatch.  Not part of the
Tier-1 suite: it takes about 12 s on a 2-core x86-64 machine.

    PYTHONPATH=src python tests/search_agreement.py [seed]
"""

import random
import sys

import numpy as np

from indexlab import refinement
from indexlab.arith import primes_upto, vp_factorial
from indexlab.families import family_polynomial
from indexlab.intpoly import IntPoly
from indexlab.numberfield import build_field, is_irreducible


def level(K, p, m, classes, index):
    return refinement._profile(K, p**m, m, [(p, classes, index)])[0]


def first(classes, mask):
    return tuple(int(x) for x in classes[np.flatnonzero(mask)[0]])


def reference_i(K, p):
    """(v_p(i(K)), witness) with every level evaluated whole."""
    n = K.degree
    bound = vp_factorial(n, p)
    best, witness = 0, None
    classes = refinement._all_classes(p, n)
    for m in range(1, bound + 1):
        profile = level(K, p, m, classes, False)
        certified = profile < m
        if m == bound and not certified.all():
            # undecided at the factorial bound means exactly the bound
            return bound, (m, first(classes, ~certified))
        if certified.any() and (w := int(profile[certified].max())) > best:
            best, witness = w, (m, first(classes, certified & (profile == w)))
        if certified.all():
            break
        classes = refinement._children(classes[~certified], p, m)
    return best, witness


def reference_index(K, p):
    """v_p(I(K)), from the generator's valuation down."""
    best = K.index_valuations.get(p, 0)
    classes = refinement._all_classes(p, K.degree)
    m = 1
    while best > 0 and len(classes):
        profile = level(K, p, m, classes, True)
        certified = profile < m
        if certified.any():
            best = min(best, int(profile[certified].min()))
        if m >= best:
            break  # survivors carry valuation >= m
        classes = refinement._children(classes[~certified], p, m)
        m += 1
    return best


def strata(rng, count):
    """(name, irreducible polynomials): `count` random draws, then family
    members."""
    degrees = (rng.randint(2, 7) for _ in range(count))
    draws = (IntPoly([rng.randint(-30, 30) for _ in range(n)] + [1]) for n in degrees)
    yield "random", [f for f in draws if is_irreducible(f)]
    members = [("simplest_sextic", range(1, 121)), ("simplest_quartic", range(1, 61))]
    members += [("lehmer_quintic", range(-30, 31)), ("simplest_cubic", range(-60, 61))]
    members += [("pure_cubic", range(2, 62)), ("quadratic", range(-40, 41))]
    polys = (family_polynomial(name, m) for name, params in members for m in params)
    yield "family", [f for f in polys if is_irreducible(f)]


def main(argv) -> int:
    rng = random.Random(int(argv[0]) if argv else 1)
    counts = []
    mismatches = searched = 0
    for name, fields in strata(rng, 1100):
        for f in fields:
            K = build_field(f)
            for p in primes_upto(K.degree):
                got = (refinement.max_i_valuation(K, p), refinement.min_index_valuation(K, p))
                want = (reference_i(K, p), reference_index(K, p))
                searched += 1
                if got != want:
                    mismatches += 1
                    print(f"mismatch {name} f={f} p={p}: searches {got}, reference {want}")
        counts.append(f"{len(fields)} {name}")
    print(
        f"search agreement: {', '.join(counts)} fields, {searched} (field, p) pairs "
        f"checked, {mismatches} mismatches"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
