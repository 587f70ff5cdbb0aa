"""The cubic (a, b) grid of criterion 2 on a wide box.

Every reduced irreducible x^3 - a*x + b with |a|, |b| <= bound (default
100) is predicted by `cubic_predict` and measured by `build_field` and
`full_report`.  Pairs the predictor rejects (reducible, or not reduced) are
skipped when `expected_rejection`, which does not call the predictor,
expects the same exception; any other rejection, and an accepted pair it
expects rejected, is a mismatch.  Prints each mismatch and one summary
line; exits 1 on any mismatch.  Not part of the Tier-1 suite: the default
box takes about a minute.

    PYTHONPATH=src python tests/cubic_grid.py [bound]
"""

import sys

from indexlab import IntPoly, build_field, cubic_predict, full_report
from indexlab.errors import NotAField, NotReduced


def expected_rejection(a: int, b: int):
    """The exception `cubic_predict(a, b)` should raise, or None.

    A monic cubic is reducible iff it has an integer root, and every root r
    has |r| <= 1 + max(|a|, |b|).  A pair is reduced iff b != 0 and no
    d >= 2 has d^3 | b and d^2 | a (a prime factor of such a d is one too).
    """
    bound = 1 + max(abs(a), abs(b))
    if any(r**3 - a * r + b == 0 for r in range(-bound, bound + 1)):
        return NotAField
    if b == 0 or any(b % d**3 == 0 and a % d**2 == 0 for d in range(2, bound)):
        return NotReduced
    return None


def main(argv) -> int:
    bound = int(argv[0]) if argv else 100
    checked = skipped = mismatches = 0
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            expected = expected_rejection(a, b)
            try:
                pred = cubic_predict(a, b)
            except (NotAField, NotReduced) as exc:
                if type(exc) is expected:
                    skipped += 1
                else:
                    mismatches += 1
                    print(f"mismatch a={a} b={b}: rejected with {exc!r}")
                continue
            if expected is not None:
                mismatches += 1
                print(f"mismatch a={a} b={b}: accepted, expected {expected.__name__}")
                continue
            report = full_report(build_field(IntPoly([b, -a, 0, 1])))
            checked += 1
            if report.i_K not in pred.i_pred or report.I_K != pred.I_pred:
                mismatches += 1
                print(
                    f"mismatch a={a} b={b}: i_K={report.i_K} predicted "
                    f"{sorted(pred.i_pred)}, I_K={report.I_K} predicted {pred.I_pred}"
                )
    print(
        f"cubic grid |a|, |b| <= {bound}: {checked} pairs checked, "
        f"{skipped} skipped, {mismatches} mismatches"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
