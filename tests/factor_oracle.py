"""`arith.factorint` against `sympy.factorint` on seeded draws up to 10^30.

Strata: n log-uniform in [1, 10^30] with a random sign; semiprimes p*q with
p of 6 to 15 digits and n near 10^30, so that rho splits the smaller ones
and the larger ones reach sympy's stage; p^2*q and p^k with p above the
trial-division bound.  Each result must equal sympy's, key order included.
Prints each mismatch and one summary line (draws checked, mismatches, and
how many cofactors reached the sympy stage); exits 1 on any mismatch.  Not
part of the Tier-1 suite: it takes about 20 s on a 2-core x86-64 machine.

    PYTHONPATH=src python tests/factor_oracle.py [seed]
"""

import random
import sys

import sympy

from indexlab.arith import factorint


def draws(rng):
    for _ in range(600):
        yield rng.choice((1, -1)) * max(1, round(10 ** rng.uniform(0, 30)))
    for digits in range(6, 16):
        for _ in range(3):
            p = sympy.prevprime(rng.randrange(10 ** (digits - 1), 10**digits) + 1)
            yield p * sympy.nextprime(rng.randrange(10**30 // p))
    for _ in range(20):
        p = sympy.nextprime(rng.randrange(2**10, 10**7))
        yield p * p * sympy.nextprime(rng.randrange(10**15))
        yield p ** rng.randint(2, 4)


def main(argv) -> int:
    rng = random.Random(int(argv[0]) if argv else 1)
    oracle = sympy.factorint
    staged = []

    def sympy_stage(m, *args, **kwargs):
        staged.append(m)
        return oracle(m, *args, **kwargs)

    checked = mismatches = 0
    for n in draws(rng):
        sympy.factorint = sympy_stage
        try:
            got = factorint(n)
        finally:
            sympy.factorint = oracle
        want = {int(p): int(e) for p, e in sorted(oracle(abs(n)).items())}
        checked += 1
        if list(got.items()) != list(want.items()):
            mismatches += 1
            print(f"mismatch n={n}: factorint {got}, sympy {want}")
    print(
        f"factor oracle, n up to 10^30: {checked} draws checked, {mismatches} mismatches, "
        f"{len(staged)} cofactors reached the sympy stage"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
