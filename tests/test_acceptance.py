"""Acceptance suite: one test per criterion, every comparison exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Fields measured by criteria 1-8 accumulate into a corpus
that criteria 9, 11, and 13 re-examine; the sextic criterion also prints
the measured-alpha resolution table for the formula's two-valued branch.
"""

import random

from indexlab.arith import (
    INFINITY,
    factorint,
    is_squarefree,
    primes_upto,
    valuation,
    vp_factorial,
)
from indexlab.families import (
    cubic_predict,
    family_polynomial,
    is_discrepancy,
    verify_family,
)
from indexlab.intpoly import IntPoly, poly_discriminant
from indexlab.invariants import full_report
from indexlab.numberfield import (
    SplittingType,
    build_field,
    char_poly,
    index_of,
    split_prime,
)
from indexlab.search import search_prime_divisor_field

from local_degrees import vp_i_from_splitting

# every field measured by criteria 1-8 lands here:
# dicts with degree, i_K, I_K, support_i, maccluer
CORPUS = []

FAMILY_DEGREE = {
    "quadratic": 2,
    "pure_cubic": 3,
    "simplest_cubic": 3,
    "simplest_quartic": 4,
    "lehmer_quintic": 5,
    "simplest_sextic": 6,
}


def _note(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _collect_rows(family, rows):
    degree = FAMILY_DEGREE[family]
    for row in rows:
        if row["applicable"]:
            CORPUS.append(
                {
                    "label": f"{family} m={row['m']}",
                    "degree": degree,
                    "i_K": row["i_exact"],
                    "I_K": row["I_exact"],
                    "support_i": set(row["support_i"]),
                    "maccluer": set(row["maccluer"]),
                }
            )


def _discrepancies(rows):
    return [row for row in rows if is_discrepancy(row)]


def _checked(rows):
    return sum(1 for row in rows if row["applicable"])


def _collect_report(label, degree, report):
    CORPUS.append(
        {
            "label": label,
            "degree": degree,
            "i_K": report.i_K,
            "I_K": report.I_K,
            "support_i": set(report.support_i()),
            "maccluer": set(report.maccluer),
        }
    )


def test_c01_quadratic_formula():
    ms = [m for m in range(-200, 201) if m not in (0, 1)]
    rows = list(verify_family("quadratic", ms))
    expected_checked = sum(1 for m in ms if is_squarefree(m))
    _collect_rows("quadratic", rows)
    bad = _discrepancies(rows)
    ok = not bad and _checked(rows) == expected_checked
    _note(1, ok, f"{_checked(rows)} squarefree m, {len(bad)} discrepancies")
    assert _checked(rows) == expected_checked
    assert not bad, bad[:5]


def _cubic_has_root(a, b):
    return any(r**3 - a * r + b == 0 for r in range(-40, 41))


def _cubic_reduced(a, b):
    for p in (2, 3):
        if b != 0 and b % p**3 == 0 and (a == 0 or a % p**2 == 0):
            return False
    return True


def test_c02_cubic_value_formula_and_llorente_nart():
    discrepancies = []
    checked = 0
    for a in range(-30, 31):
        for b in range(-30, 31):
            if b == 0 or _cubic_has_root(a, b) or not _cubic_reduced(a, b):
                continue
            pred = cubic_predict(a, b)
            r = full_report(build_field(IntPoly([b, -a, 0, 1])))
            checked += 1
            CORPUS.append(
                {
                    "label": f"cubic a={a} b={b}",
                    "degree": 3,
                    "i_K": r.i_K,
                    "I_K": r.I_K,
                    "support_i": set(r.support_i()),
                    "maccluer": set(r.maccluer),
                }
            )
            if r.i_K not in pred.i_pred or r.I_K != pred.I_pred:
                discrepancies.append(
                    (a, b, r.i_K, sorted(pred.i_pred), r.I_K, pred.I_pred)
                )
    _note(2, not discrepancies, f"{checked} reduced irreducible pairs")
    assert not discrepancies, discrepancies[:10]


def test_c03_pure_cubic():
    ds = list(range(2, 101)) + list(range(-100, -1))
    rows = list(verify_family("pure_cubic", ds))
    _collect_rows("pure_cubic", rows)
    for row in rows:
        if row["applicable"]:
            assert row["i_exact"] == (2 if row["m"] % 2 else 1), row
    bad = _discrepancies(rows)
    _note(3, not bad, f"{_checked(rows)} cube-free d")
    assert not bad, bad[:5]


def test_c04_simplest_cubic():
    rows = list(verify_family("simplest_cubic", range(0, 487)))
    _collect_rows("simplest_cubic", rows)
    residues = {row["m"] % 243 for row in rows if row["applicable"]}
    bad = _discrepancies(rows)
    ok = not bad and _checked(rows) == 487 and len(residues) == 243
    _note(4, ok, f"{_checked(rows)} m, every residue class mod 243 covered")
    assert _checked(rows) == 487
    assert len(residues) == 243
    assert not bad, bad[:5]


def test_c05_simplest_quartic():
    ms = [m for m in range(1, 65)]
    rows = list(verify_family("simplest_quartic", ms))
    _collect_rows("simplest_quartic", rows)
    # independent applicability: m != 3 and m^2 + 16 free of odd squares
    expected_skips = set()
    for m in ms:
        if m == 3 or any(
            p != 2 and e >= 2 for p, e in factorint(m * m + 16).items()
        ):
            expected_skips.add(m)
    actual_skips = {row["m"] for row in rows if not row["applicable"]}
    for row in rows:
        if row["applicable"]:
            assert row["I_exact"] == (2 if row["m"] % 2 else 1), row
    bad = _discrepancies(rows)
    ok = not bad and actual_skips == expected_skips
    _note(5, ok, f"{_checked(rows)} applicable m, {len(actual_skips)} skipped")
    assert actual_skips == expected_skips
    assert not bad, bad[:5]


def test_c06_lehmer_quintic():
    rows = list(verify_family("lehmer_quintic", range(-20, 21)))
    _collect_rows("lehmer_quintic", rows)
    for row in rows:
        if row["applicable"]:
            assert row["I_exact"] == 1, row
            assert row["i_exact"] == (5 if row["m"] % 5 == 2 else 1), row
    bad = _discrepancies(rows)
    _note(6, not bad, f"{_checked(rows)} applicable m")
    assert not bad, bad[:5]


def test_c07_simplest_sextic():
    ms = list(range(1, 61)) + [120, 363, 444]
    rows = list(verify_family("simplest_sextic", ms))
    _collect_rows("simplest_sextic", rows)
    for row in rows:
        if not row["applicable"]:
            continue
        m = row["m"]
        if ((m % 8 in (0, 5)) and m % 3 != 0) or (m % 24 in (0, 21)):
            alpha_set = {3, 4}
            # the formula leaves alpha two-valued here; the local degrees at 2
            # fix it.  2 is inert in the cubic subfield (the simplest cubic
            # with the same m), so every local degree at 2 is 3 or 6 and
            # alpha is in {0, 3}
            K = build_field(family_polynomial("simplest_sextic", m))
            assert row["alpha_measured"] == vp_i_from_splitting(split_prime(K, 2), 2), row
        else:
            alpha_set = {0}
        beta = 2 if m % 243 in (39, 120, 201) else 0
        assert row["I_exact"] == 1, row
        assert valuation(row["i_exact"], 3) == beta, row
        assert valuation(row["i_exact"], 2) in alpha_set, row
    table = [(row["m"], row["alpha_measured"]) for row in rows if row["applicable"]]
    print("measured alpha (v2 of i) per m:", table)
    bad = _discrepancies(rows)
    _note(7, not bad, f"{_checked(rows)} applicable m, alpha recorded for each")
    assert not bad, bad[:5]


def test_c08_theorem1_witnesses():
    found = []
    for n in range(2, 7):
        for p in primes_upto(n):
            result = search_prime_divisor_field(n, p)
            assert result.report.i_K % p == 0
            _collect_report(f"search n={n} p={p}", n, result.report)
            found.append((n, p, str(result.poly)))
    _note(8, True, f"{len(found)} (degree, prime) pairs witnessed")
    assert len(found) == 11


def test_c09_maccluer_consistency():
    assert CORPUS, "criteria 1-8 must run first"
    bad = [row for row in CORPUS if row["support_i"] != row["maccluer"]]
    _note(9, not bad, f"{len(CORPUS)} fields, support(i) vs splitting criterion")
    assert not bad, bad[:5]


CRIT10_FIELDS = [
    "x^3 - x^2 - 2*x - 8",
    "x^3 - x + 3",
    "x^3 - 13*x + 4",
    "x^3 - x + 1",
    "x^2 - 17",
    "x^2 - 5",
    "x^2 + 7",
    "x^2 - 2",
    "x^3 - 2",
    "x^3 - 7",
    "x^3 - 10",
    "x^3 - 3*x - 1",  # simplest cubic m = 0 shape
    "x^3 - 39*x^2 - 42*x - 1",
    "x^4 - x^3 - 6*x^2 + x + 1",
    "x^4 - 2*x^3 - 6*x^2 + 2*x + 1",
    "x^4 - 16*x^3 - 6*x^2 + 16*x + 1",
    "x^5 - 10*x^3 + 5*x^2 + 10*x + 1",
    "x^5 + 4*x^4 - 70*x^3 + 135*x^2 + 54*x + 1",
    "x^6 - 4*x^5 - 25*x^4 - 20*x^3 + 10*x^2 + 10*x + 1",
    "x^7 - x - 1",
]


def test_c10_disc_index_identity():
    rng = random.Random(1234)
    assert len(CRIT10_FIELDS) == 20
    for poly in CRIT10_FIELDS:
        K = build_field(poly)
        done = 0
        while done < 200:
            t = [rng.randint(-9, 9) for _ in range(K.degree)]
            idx = index_of(K, t)
            if idx == INFINITY:
                continue
            ft = char_poly(K, t)
            d = poly_discriminant(ft)
            assert d == idx * idx * K.disc
            for p in primes_upto(7):
                assert valuation(d, p) == 2 * valuation(idx, p) + valuation(K.disc, p)
            done += 1
    _note(10, True, "20 fields x 200 primitive elements, exact identity")


def test_c11_factorial_bound():
    assert CORPUS
    for row in CORPUS:
        for p, v in factorint(row["i_K"]).items():
            assert v <= vp_factorial(row["degree"], p), row
    _note(11, True, f"v_p(i) <= v_p(n!) over {len(CORPUS)} fields")


def test_c12_dedekind_example():
    K = build_field("x^3 - x^2 - 2*x - 8")
    r = full_report(K)
    ok = (
        r.I_K % 2 == 0
        and r.i_K % 2 == 0
        and split_prime(K, 2) == SplittingType([(1, 1), (1, 1), (1, 1)])
    )
    _note(12, ok, f"I={r.I_K} i={r.i_K} splitting {split_prime(K, 2)}")
    assert ok


def test_c13_divisor_direction_and_converse():
    assert CORPUS
    converse_fails = 0
    for row in CORPUS:
        support_I = set(factorint(row["I_K"]))
        support_i = set(factorint(row["i_K"]))
        assert support_I <= support_i, row
        if support_i - support_I:
            converse_fails += 1
    _note(
        13,
        converse_fails > 0,
        f"direction holds on {len(CORPUS)} fields; converse fails on {converse_fails}",
    )
    assert converse_fails > 0
