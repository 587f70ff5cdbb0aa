"""Closed-form predictors for the parametric field families, plus a
differential verifier that sweeps parameters and compares each prediction
against the exact engine.

Every predictor is a pure function of the parameter: it returns the
predicted pair (I, i), or raises NotApplicable or NotAField when the
formula does not apply; the verifier builds the actual field, runs the
exact invariant computation, and yields one row per parameter, in the
order the parameters are given.  A sweep with a discrepancy
(`is_discrepancy`) failed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .arith import factorint, is_squarefree, valuation
from .errors import (
    NotAField,
    NotApplicable,
    NotReduced,
    ReduciblePolynomial,
    UnknownFamily,
)
from .intpoly import IntPoly
from .invariants import full_report
from .numberfield import build_field, is_irreducible


@dataclass(frozen=True)
class FamilyPrediction:
    """Predicted invariants for one family member.

    I_pred is None when the formula does not constrain I; i_pred is a set
    (a singleton everywhere except the sextic family's two-valued branch).
    """

    I_pred: int | None
    i_pred: frozenset[int]


def cubic_predict(a: int, b: int) -> FamilyPrediction:
    """Invariants of the cubic field of x^3 - a*x + b from congruences.

    i = 2^alpha * 3^beta with
      alpha = 1  iff  1 = v2(a) < v2(b)  or  a != b mod 2,
      beta  = 1  iff  (a = 3 mod 9, b^2 = a+1 mod 27, s3 > 6 even,
                       delta3 = 1 mod 3)  or  (a = 1 mod 3 and 3 | b);
    I = 2 iff a odd, b even, s2 even and delta2 = 1 mod 8, else 1.
    """
    if not is_irreducible(IntPoly([b, -a, 0, 1])):
        raise NotAField(f"x^3 - {a}x + {b} is reducible")
    # reduced: b != 0 and no prime p has p^3 | b and p^2 | a
    if b == 0 or any(e >= 3 and a % p**2 == 0 for p, e in factorint(b).items()):
        raise NotReduced(f"(a, b) = ({a}, {b}) is not reduced")
    delta = 4 * a**3 - 27 * b**2
    s2 = valuation(delta, 2)
    s3 = valuation(delta, 3)
    v2a = valuation(a, 2) if a else None
    alpha = 1 if (v2a == 1 and valuation(b, 2) > 1) or (a - b) % 2 == 1 else 0
    beta = (
        1
        if (
            a % 9 == 3
            and (b * b - a - 1) % 27 == 0
            and s3 > 6
            and s3 % 2 == 0
            and (delta // 3**s3) % 3 == 1
        )
        or (a % 3 == 1 and b % 3 == 0)
        else 0
    )
    big_i = (
        2
        if a % 2 == 1 and b % 2 == 0 and s2 % 2 == 0 and (delta // 2**s2) % 8 == 1
        else 1
    )
    return FamilyPrediction(I_pred=big_i, i_pred=frozenset({2**alpha * 3**beta}))


def pure_cubic_predict(d: int) -> FamilyPrediction:
    """i of the pure cubic field of x^3 - d: 2 for odd d, 1 for even d."""
    if d in (-1, 0, 1):
        raise NotAField(f"x^3 - {d} does not define a cubic field")
    fac = factorint(d)
    if all(e % 3 == 0 for e in fac.values()):
        raise NotAField(f"{d} is a perfect cube")
    if any(e >= 3 for e in fac.values()):
        raise NotApplicable(f"{d} is not cube-free")
    return FamilyPrediction(I_pred=None, i_pred=frozenset({2 if d % 2 else 1}))


def simplest_cubic_predict(m: int) -> FamilyPrediction:
    """Cyclic cubic of x^3 - m*x^2 - (m+3)*x - 1: I = 1, i = 3 on three
    residue classes mod 243."""
    i = 3 if m % 243 in (39, 120, 201) else 1
    return FamilyPrediction(I_pred=1, i_pred=frozenset({i}))


def simplest_quartic_predict(m: int) -> FamilyPrediction:
    """Cyclic quartic of x^4 - m*x^3 - 6*x^2 + m*x + 1 (m and -m give the
    same field, so negative m are folded to |m|)."""
    m0 = abs(m)
    if m0 == 0 or m0 == 3:
        raise NotApplicable(f"m = {m} does not define a quartic field")
    for p, e in factorint(m0 * m0 + 16).items():
        if p != 2 and e >= 2:
            raise NotApplicable(f"m^2 + 16 divisible by the odd square {p}^2")
    v2 = valuation(m0, 2)
    return FamilyPrediction(
        I_pred=2 if m0 % 2 else 1, i_pred=frozenset({1 if 1 <= v2 <= 3 else 4})
    )


def _lehmer_condition_value(m: int) -> int:
    return m**4 + 5 * m**3 + 15 * m**2 + 25 * m + 25


def lehmer_quintic_predict(m: int) -> FamilyPrediction:
    """Quintic family: I = 1 and i = 5 exactly when m = 2 mod 5, provided no
    prime other than 5 divides the conductor value to a square."""
    c = _lehmer_condition_value(m)
    for p, e in factorint(c).items():
        if p != 5 and e >= 2:
            raise NotApplicable(f"conductor value divisible by {p}^2")
    return FamilyPrediction(I_pred=1, i_pred=frozenset({5 if m % 5 == 2 else 1}))


def simplest_sextic_predict(m: int) -> FamilyPrediction:
    """Cyclic sextic family: i = 2^alpha * 3^beta, alpha in {3,4} on the
    stated residue classes (the formula does not separate 3 from 4, so the
    prediction is a set), beta = 2 on three classes mod 243; I = 1."""
    if m in (-8, -5, -3, 0):
        raise NotApplicable(f"m = {m} is excluded")
    if ((m % 8 in (0, 5)) and m % 3 != 0) or (m % 24 in (0, 21)):
        alphas = (3, 4)
    else:
        alphas = (0,)
    beta = 2 if m % 243 in (39, 120, 201) else 0
    return FamilyPrediction(I_pred=1, i_pred=frozenset(2**a * 3**beta for a in alphas))


def quadratic_predict(m: int) -> FamilyPrediction:
    """i of Q(sqrt(m)) for squarefree m: 2 iff m = 1 mod 8; I is always 1
    (a common index divisor in degree n needs p < n)."""
    if m in (0, 1):
        raise NotAField(f"x^2 - {m} does not define a quadratic field")
    if not is_squarefree(m):
        raise NotApplicable(f"{m} is not squarefree")
    return FamilyPrediction(I_pred=1, i_pred=frozenset({2 if m % 8 == 1 else 1}))


def _lehmer_quintic_poly(m: int) -> IntPoly:
    return IntPoly(
        [
            1,
            m**3 + 4 * m**2 + 10 * m + 10,
            m**4 + 5 * m**3 + 11 * m**2 + 15 * m + 5,
            -(2 * m**3 + 6 * m**2 + 10 * m + 10),
            m**2,
            1,
        ]
    )


# family name -> (predictor, defining polynomial at parameter m)
_FAMILIES = {
    "quadratic": (quadratic_predict, lambda m: IntPoly([-m, 0, 1])),
    "pure_cubic": (pure_cubic_predict, lambda m: IntPoly([-m, 0, 0, 1])),
    "simplest_cubic": (simplest_cubic_predict, lambda m: IntPoly([-1, -(m + 3), -m, 1])),
    "simplest_quartic": (simplest_quartic_predict, lambda m: IntPoly([1, m, -6, -m, 1])),
    "lehmer_quintic": (lehmer_quintic_predict, _lehmer_quintic_poly),
    "simplest_sextic": (
        simplest_sextic_predict,
        lambda m: IntPoly([1, 2 * m + 6, 5 * m, -20, -(5 * m + 15), -2 * m, 1]),
    ),
}

FAMILY_NAMES = tuple(_FAMILIES)


def _family(name: str):
    try:
        return _FAMILIES[name]
    except KeyError:
        known = ", ".join(FAMILY_NAMES)
        raise UnknownFamily(f"unknown family {name!r}; known: {known}") from None


def family_polynomial(family: str, m: int) -> IntPoly:
    """Defining polynomial of the family member at parameter m."""
    return _family(family)[1](m)


def predict(family: str, m: int) -> FamilyPrediction:
    """Dispatch to the family's predictor."""
    return _family(family)[0](m)


# -- differential verification --------------------------------------------------


def verify_one(family: str, m: int) -> dict:
    """Predict, build, measure, and compare for a single parameter."""
    row = {
        "family": family,
        "m": m,
        "applicable": True,
        "reason": "",
        "I_pred": None,
        "I_exact": None,
        "i_pred": [],
        "i_exact": None,
        "pass": None,
        "support_i": [],
        "maccluer": [],
    }
    try:
        pred = predict(family, m)
    except (NotApplicable, NotAField) as exc:
        row["applicable"] = False
        row["reason"] = str(exc)
        return row
    row["I_pred"] = pred.I_pred
    row["i_pred"] = sorted(pred.i_pred)
    try:
        field = build_field(family_polynomial(family, m))
    except ReduciblePolynomial:
        row["applicable"] = False
        row["reason"] = "reducible defining polynomial"
        return row
    report = full_report(field)
    row["I_exact"] = report.I_K
    row["i_exact"] = report.i_K
    row["pass"] = (pred.I_pred is None or pred.I_pred == report.I_K) and (
        report.i_K in pred.i_pred
    )
    row["support_i"] = sorted(report.support_i())
    row["maccluer"] = sorted(report.maccluer)
    if family == "simplest_sextic":
        row["alpha_measured"] = valuation(report.i_K, 2)
        row["beta_measured"] = valuation(report.i_K, 3)
    return row


def is_discrepancy(row: dict) -> bool:
    """True for an applicable row whose prediction the engine refutes."""
    return row["applicable"] and not row["pass"]


def verify_family(family: str, params) -> Iterator[dict]:
    """Sweep the parameters, comparing predictions against the exact engine.

    An unknown family name fails at once; the rows are then computed one
    at a time, in the order the parameters are given.
    """
    _family(family)
    return (verify_one(family, m) for m in params)
