"""The targeted search for fields with p | i(K)."""

import pytest

from indexlab.arith import primes_upto
from indexlab.search import search_prime_divisor_field

IN_SCOPE = [(n, p) for n in range(2, 8) for p in primes_upto(n)]


@pytest.mark.parametrize("n,p", IN_SCOPE)
def test_targeted_candidates_hit_within_three(n, p):
    # one of the first three lifts of a product of >= p distinct irreducibles
    # mod p is irreducible over Q, so no further candidates are ever needed
    result = search_prime_divisor_field(n, p)
    assert result.candidates_tried <= 3
    assert result.poly.degree == n and result.report.i_K % p == 0
