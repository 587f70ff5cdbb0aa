"""Arbitrary-precision integer utilities: valuations, gcds, factorization.

All functions are exact.  Python's built-in int is the arbitrary-precision
integer type used throughout the package; nothing here ever rounds.
Integer factorization and primality tests are delegated to sympy, which is
imported on first use rather than with the package.
"""

from __future__ import annotations

import math

from .errors import InvalidPrime

INFINITY = math.inf


def primes_upto(bound: int) -> list[int]:
    """Primes p <= bound, ascending."""
    return [p for p in range(2, bound + 1) if is_prime(p)]


def is_prime(n: int) -> bool:
    """Exact primality test (sympy's)."""
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


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}, primes ascending;
    |n| must be >= 1."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    from sympy import factorint as sym_factorint

    return {int(p): int(e) for p, e in sorted(sym_factorint(n).items())}


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

