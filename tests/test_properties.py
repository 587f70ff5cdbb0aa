"""Metamorphic property tests: polynomials that define the same field must
give the same report."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from indexlab.intpoly import IntPoly
from indexlab.invariants import full_report
from indexlab.numberfield import build_field, is_irreducible

from poly_oracles import compose


def report_of(poly):
    return full_report(build_field(poly))


def summary(r):
    splittings = {p: str(s) for p, s in r.splittings.items()}
    return r.field_disc, r.i_K, r.I_K, r.valuations, splittings


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    lower=st.integers(2, 5).flatmap(
        lambda n: st.lists(st.integers(-40, 40), min_size=n, max_size=n)
    ),
    c=st.integers(-6, 6),
)
# random draws rarely have I(K) > 1: Dedekind's cubic and x(x-1)(x-2)(x-3) + 16
@example(lower=[-8, -2, -1], c=3)
@example(lower=[16, -6, 11, -6], c=-5)
def test_translate_and_negation_define_the_same_field(lower, c):
    f = IntPoly(lower + [1])
    assume(is_irreducible(f))
    n = f.degree
    # the char polys of theta + c and -theta
    shifted = compose(f, IntPoly([-c, 1]))
    negated = compose(f, IntPoly([0, -1])) * (-1) ** n
    report = report_of(f)
    base = summary(report)
    assert summary(report_of(shifted)) == base
    assert summary(report_of(negated)) == base
    # the witness is primitive, so its char poly defines the same field too
    assert summary(report_of(report.witness_char_poly)) == base
