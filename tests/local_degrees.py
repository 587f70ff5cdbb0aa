"""v_p(i(K)) from the local degrees of the primes above p: a test oracle.

Let n_P = e_P * f_P be the local degree of each prime P above p.  Then
v_p(i(K)) = g_p({n_P}), where, for a multiset W of positive weights,
g_p(W) = 0 when W has fewer than p members, and otherwise g_p(W) is the
max, over the partitions of W into p nonempty blocks B_1 .. B_p, of
min_s (sum(B_s) + g_p(B_s)).

The argument:

* For x in Z, F_theta(x) = N(x - theta), so v_p(F_theta(x)) is the sum over
  P of f_P * v_P(x - theta), with v_P(p) = e_P.
* Let a in Z_p be nearest theta_P, at P-adic distance d.  For every x in
  Z_p, v_P(x - theta_P) = min(e_P * v_p(x - a), d) <= e_P * v_p(x - a), so
  moving theta_P towards a never lowers a value.  The gcd divides n!, and
  O_K is dense in the product of the O_P, so a close enough primitive theta
  does as well as theta_P = a_P exactly.
* So v_p(i(K)) is the max over a in Z_p^r of the min over x in Z_p of
  sum_P n_P * v_p(x - a_P).  Sort the a_P by their residue mod p.  A
  residue class holding no a_P gives the value 0.  An x in class s gains
  sum(B_s), plus the same problem one p-adic digit down.

Two known cases fall out: g_p > 0 iff there are at least p primes (the
criterion `maccluer_support` implements), and all n_P = 1 gives v_p(n!).
"""

from functools import lru_cache


def set_partitions(items, k):
    """Every partition of the list `items` into k nonempty blocks."""
    if k == 0:
        if not items:
            yield []
        return
    if len(items) < k:
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest, k - 1):
        yield [[first]] + blocks
    for blocks in set_partitions(rest, k):
        for i in range(k):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1 :]


@lru_cache(maxsize=None)
def _g(p, weights):
    if len(weights) < p:
        return 0
    return max(
        min(sum(b) + _g(p, tuple(sorted(b))) for b in blocks)
        for blocks in set_partitions(list(weights), p)
    )


def g_p(p, weights):
    """g_p of the multiset `weights` of local degrees."""
    return _g(p, tuple(sorted(weights)))


def vp_i_from_splitting(st, p):
    """v_p(i(K)) predicted from the splitting type of p."""
    return g_p(p, [e * f for e, f in st])
