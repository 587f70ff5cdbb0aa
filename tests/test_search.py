"""The targeted search for fields with p | i(K)."""

import pytest

from indexlab.arith import primes_upto
from indexlab.search import search_prime_divisor_field

# the polynomial the search returns, coefficients ascending; the golden CLI
# corpus pins only (3, 2), (4, 3) and (5, 5)
EXPECTED = {
    (2, 2): [-2, 3, 1],
    (3, 2): [-2, -1, 1, 1],
    (3, 3): [-3, -1, 0, 1],
    (4, 2): [-2, -1, -2, -1, 1],
    (4, 3): [-3, -2, -2, 1, 1],
    (5, 2): [-2, -1, -2, -2, 1, 1],
    (5, 3): [-3, -2, -2, 2, 3, 1],
    (5, 5): [-5, 19, 45, 35, 10, 1],
    (6, 2): [-2, -1, -2, -2, 1, 0, 1],
    (6, 3): [-3, -2, -2, 1, 2, 2, 1],
    (6, 5): [-5, 1, 12, 28, 18, 7, 1],
    (7, 2): [-2, -1, -2, -2, 0, 0, 1, 1],
    (7, 3): [-3, -2, -2, 0, 0, 2, 3, 1],
    (7, 5): [-5, 1, 6, 12, 18, 17, 7, 1],
    (7, 7): [-7, 713, 1757, 1624, 735, 175, 21, 1],
}
IN_SCOPE = [(n, p) for n in range(2, 8) for p in primes_upto(n)]


@pytest.mark.parametrize(
    "n,p,expected",
    [pytest.param(n, p, EXPECTED[n, p], id=f"{n}-{p}") for n, p in IN_SCOPE],
)
def test_targeted_candidates_hit_within_three(n, p, expected):
    # one of the first three lifts of a product of >= p distinct irreducibles
    # mod p is irreducible over Q, so no further candidates are ever needed
    result = search_prime_divisor_field(n, p)
    assert result.candidates_tried <= 3
    assert result.poly.degree == n and result.report.i_K % p == 0
    assert list(result.poly.coeffs) == expected
