"""Arbitrary-precision integer utilities: valuations, gcds, factorization.

All functions are exact.  Python's built-in int is the arbitrary-precision
integer type used throughout the package; nothing here ever rounds.
Integer factorization, and primality beyond a small sieve, are delegated to
sympy (imported lazily so that the small-prime paths stay cheap).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

from .errors import InvalidPrime

INFINITY = math.inf

_SMALL_PRIME_BOUND = 10_000


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    sieve = bytearray([1]) * _SMALL_PRIME_BOUND
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(_SMALL_PRIME_BOUND) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return tuple(i for i, b in enumerate(sieve) if b)


@lru_cache(maxsize=1)
def _small_prime_set() -> frozenset[int]:
    return frozenset(_small_primes())


def primes_upto(bound: int) -> list[int]:
    """Primes p <= bound, ascending."""
    if bound < _SMALL_PRIME_BOUND:
        ps = _small_primes()
        return list(ps[: bisect_right(ps, bound)])
    from sympy import primerange

    return list(primerange(2, bound + 1))


def is_prime(n: int) -> bool:
    """Exact primality test (sympy for inputs beyond the small sieve)."""
    if n < _SMALL_PRIME_BOUND:
        return n in _small_prime_set()
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

