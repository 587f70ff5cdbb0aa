"""Arbitrary-precision integer utilities: valuations, gcds, factorization.

All functions are exact.  Python's built-in int is the arbitrary-precision
integer type used throughout the package; nothing here ever rounds.
Primality is a sieve below 2^10, and above sympy's `isprime`, imported on use.
`factorint` trial-divides by the primes below 2^10 (done, without sympy,
once p^2 exceeds the rest), splits a composite rest by Brent's rho for at
most _RHO_STEPS steps, and leaves to `sympy.factorint` what rho cannot split.
Rho only proposes divisors: every prime reported comes from the sieve or
passes `is_prime`, and their product is |n|.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from .errors import InvalidPrime

INFINITY = math.inf
_RHO_STEPS = 1 << 17  # rho iterations per cofactor before sympy's stage


def primes_upto(bound: int) -> list[int]:
    """Primes p <= bound, ascending, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * (bound + 1)
    for p in range(2, math.isqrt(max(bound, 0)) + 1):
        flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    return [p for p in range(2, bound + 1) if flags[p]]


_SMALL_PRIMES = primes_upto((1 << 10) - 1)


def is_prime(n: int) -> bool:
    """Exact primality test: the sieve below 2^10, sympy's above."""
    if n < 1 << 10:
        return n in _SMALL_PRIMES
    from sympy import isprime

    return bool(isprime(n))


def check_prime(p: int) -> int:
    """Return p, raising InvalidPrime unless p is prime."""
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    return p


def valuation(n: int, p: int) -> int | float:
    """Largest k with p**k | n; INFINITY for n = 0.

    Raises InvalidPrime when p is not prime.
    """
    check_prime(p)
    if n == 0:
        return INFINITY
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


def gcd_all(xs) -> int:
    """Nonnegative gcd of an iterable of integers; empty gives 0."""
    g = 0
    for x in xs:
        g = math.gcd(g, x)
        if g == 1:
            return 1
    return g


def _brent_rho(n: int) -> int | None:
    """A divisor 1 < d < n of the odd composite n, by Brent's variant of
    Pollard's rho; None if _RHO_STEPS iterations of x -> x^2 + c find none."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEPS:
                return None
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):  # one gcd per block of 128 products
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                if (g := math.gcd(q, n)) != 1:
                    break
            r *= 2
        if g == n:  # the block overshot: retrace it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}, primes ascending;
    |n| must be >= 1."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    found = Counter()
    for p in _SMALL_PRIMES:
        if p * p > n:
            if n > 1:
                found[n] = 1
            return dict(found)
        while n % p == 0:
            n //= p
            found[p] += 1
    stack = [n] if n > 1 else []
    while stack:
        if is_prime(m := stack.pop()):
            found[m] += 1
        elif (root := math.isqrt(m)) ** 2 == m:
            stack += (root, root)
        elif d := _brent_rho(m):
            stack += (d, m // d)
        else:
            from sympy import factorint as sym_factorint
            found.update({int(p): int(e) for p, e in sym_factorint(m).items()})
    return dict(sorted(found.items()))


def square_divisor_primes(n: int) -> list[int]:
    """Primes p with p**2 | n, ascending (n != 0)."""
    return sorted(p for p, e in factorint(n).items() if e >= 2)


def divisors(n: int) -> list[int]:
    """Positive divisors of |n| >= 1, ascending."""
    ds = [1]
    for p, e in factorint(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def is_squarefree(n: int) -> bool:
    """True iff n is squarefree (n != 0)."""
    if n == 0:
        return False
    return all(e == 1 for e in factorint(n).values())
