"""Family predictors and the differential verifier."""

import random

import pytest

from indexlab.arith import valuation
from indexlab.errors import NotAField, NotApplicable, NotReduced, UnknownFamily
from indexlab.families import (
    cubic_predict,
    family_polynomial,
    is_discrepancy,
    lehmer_quintic_predict,
    pure_cubic_predict,
    quadratic_predict,
    simplest_cubic_predict,
    simplest_quartic_predict,
    simplest_sextic_predict,
    verify_family,
    verify_one,
)
from indexlab.intpoly import IntPoly, parse_poly
from indexlab.invariants import full_report
from indexlab.numberfield import build_field


def test_cubic_predict_examples():
    p = cubic_predict(13, 4)
    assert p.I_pred == 2 and p.i_pred == {2}
    p = cubic_predict(1, 3)
    assert p.I_pred == 1 and p.i_pred == {3}
    p = cubic_predict(1, 1)
    assert p.I_pred == 1 and p.i_pred == {1}


def test_cubic_predict_requires_reduced():
    with pytest.raises(NotReduced):
        cubic_predict(36, 216)
    with pytest.raises(NotAField):
        cubic_predict(0, 8)


def test_cubic_beta_first_branch_witnesses():
    # rare branch: a = 3 mod 9, b^2 = a+1 mod 27, s3 > 6 even, delta3 = 1 mod 3
    p = cubic_predict(-393, -178)
    assert p.i_pred == {6}
    r = full_report(build_field(IntPoly([-178, 393, 0, 1])))
    assert r.i_K == 6 and r.I_K == 1
    p = cubic_predict(-384, 142)
    assert p.i_pred == {3}
    r = full_report(build_field(IntPoly([142, 384, 0, 1])))
    assert r.i_K == 3 and r.I_K == 1
    # a = 3 mod 9 and b^2 = a+1 mod 27, but s3 = 7 is odd, then s3 = 8 with
    # delta3 = 2 mod 3: beta = 0 in both
    p = cubic_predict(93, 16)
    assert p.i_pred == {2} and p.I_pred == 1
    r = full_report(build_field(IntPoly([16, -93, 0, 1])))
    assert r.i_K == 2 and r.I_K == 1
    p = cubic_predict(-96, 43)
    assert p.i_pred == {2} and p.I_pred == 1
    r = full_report(build_field(IntPoly([43, 96, 0, 1])))
    assert r.i_K == 2 and r.I_K == 1


def test_cubic_predict_consistency_common_divisor():
    # whenever I_pred = 2, the parity branch must also give 2 | i_pred
    rng = random.Random(83)
    for _ in range(400):
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        try:
            p = cubic_predict(a, b)
        except (NotAField, NotReduced):
            continue
        if p.I_pred == 2:
            assert all(v % 2 == 0 for v in p.i_pred)


def test_pure_cubic_examples():
    assert pure_cubic_predict(7).i_pred == {2}
    assert pure_cubic_predict(2).i_pred == {1}
    assert pure_cubic_predict(10).i_pred == {1}
    assert pure_cubic_predict(7).I_pred is None
    with pytest.raises(NotAField):
        pure_cubic_predict(8)
    with pytest.raises(NotAField):
        pure_cubic_predict(1)
    with pytest.raises(NotApplicable):
        pure_cubic_predict(24)


def test_simplest_cubic_examples():
    assert simplest_cubic_predict(39).i_pred == {3}
    assert simplest_cubic_predict(0).i_pred == {1}
    assert simplest_cubic_predict(363).i_pred == {3}
    assert simplest_cubic_predict(39).I_pred == 1


def test_simplest_quartic_examples():
    p = simplest_quartic_predict(1)
    assert (p.I_pred, p.i_pred) == (2, frozenset({4}))
    p = simplest_quartic_predict(2)
    assert (p.I_pred, p.i_pred) == (1, frozenset({1}))
    p = simplest_quartic_predict(16)
    assert (p.I_pred, p.i_pred) == (1, frozenset({4}))
    # negative parameters describe the same field
    assert simplest_quartic_predict(-2).i_pred == simplest_quartic_predict(2).i_pred
    with pytest.raises(NotApplicable):
        simplest_quartic_predict(3)
    with pytest.raises(NotApplicable):
        simplest_quartic_predict(22)  # 22^2 + 16 = 500 is divisible by 5^2


def test_lehmer_quintic_examples():
    assert lehmer_quintic_predict(2).i_pred == {5}
    assert lehmer_quintic_predict(0).i_pred == {1}
    assert lehmer_quintic_predict(7).i_pred == {5}
    for m in (-16, 14):  # conductor value divisible by an odd square
        with pytest.raises(NotApplicable):
            lehmer_quintic_predict(m)


def test_simplest_sextic_examples():
    assert simplest_sextic_predict(1).i_pred == {1}
    assert simplest_sextic_predict(5).i_pred == {8, 16}
    assert simplest_sextic_predict(120).i_pred == {72, 144}
    assert simplest_sextic_predict(444).i_pred == {9}
    for m in (-8, -5, -3, 0):
        with pytest.raises(NotApplicable):
            simplest_sextic_predict(m)


def test_quadratic_examples():
    assert quadratic_predict(17).i_pred == {2}
    assert quadratic_predict(5).i_pred == {1}
    assert quadratic_predict(-7).i_pred == {2}
    assert quadratic_predict(17).I_pred == 1
    with pytest.raises(NotApplicable):
        quadratic_predict(12)
    with pytest.raises(NotAField):
        quadratic_predict(1)


def test_family_polynomial_examples():
    assert family_polynomial("simplest_cubic", 39) == parse_poly(
        "x^3 - 39*x^2 - 42*x - 1"
    )
    assert family_polynomial("lehmer_quintic", 0) == parse_poly(
        "x^5 - 10*x^3 + 5*x^2 + 10*x + 1"
    )
    assert family_polynomial("simplest_quartic", 2) == parse_poly(
        "x^4 - 2*x^3 - 6*x^2 + 2*x + 1"
    )
    assert family_polynomial("quadratic", -7) == parse_poly("x^2 + 7")
    assert family_polynomial("pure_cubic", 5) == parse_poly("x^3 - 5")
    with pytest.raises(UnknownFamily, match="'octic'; known: quadratic, pure_cubic, "):
        family_polynomial("octic", 1)


def _discrepancies(rows):
    return [r for r in rows if is_discrepancy(r)]


def _checked(rows):
    return sum(1 for r in rows if r["applicable"])


def test_verify_family_smoke():
    rows = list(verify_family("simplest_cubic", range(0, 11)))
    assert _checked(rows) == 11 and not _discrepancies(rows)
    rows = list(verify_family("quadratic", range(-50, 51)))
    assert not _discrepancies(rows) and _checked(rows) > 50
    rows = list(verify_family("simplest_quartic", [1, 2, 16]))
    assert _checked(rows) == 3 and not _discrepancies(rows)


def test_verify_family_yields_rows_in_the_given_order():
    rows = verify_family("simplest_quartic", [16, 1, 2, 1])
    assert [r["m"] for r in rows] == [16, 1, 2, 1]
    with pytest.raises(UnknownFamily):
        verify_family("octic", [1])


def test_verify_marks_reducible_parameters_inapplicable():
    row = verify_one("simplest_sextic", 5)
    assert row["applicable"] is False
    assert "reducible" in row["reason"]


def test_family_support_stays_in_allowed_primes():
    allowed = {
        "simplest_cubic": {3},
        "simplest_quartic": {2},
        "lehmer_quintic": {5},
        "simplest_sextic": {2, 3},
    }
    params = {
        "simplest_cubic": range(0, 45),
        "simplest_quartic": range(1, 25),
        "lehmer_quintic": range(-6, 7),
        "simplest_sextic": (1, 8, 13, 39),
    }
    for family, ms in params.items():
        rows = list(verify_family(family, ms))
        assert not _discrepancies(rows)
        for row in rows:
            if row["applicable"]:
                assert set(row["maccluer"]) <= allowed[family]


def test_sextic_alpha_table_recorded():
    rows = list(verify_family("simplest_sextic", [1, 8, 120]))
    table = {r["m"]: r["alpha_measured"] for r in rows if r["applicable"]}
    assert table == {1: 0, 8: 3, 120: 3}
    assert [r for r in rows if r["m"] == 120][0]["beta_measured"] == 2
