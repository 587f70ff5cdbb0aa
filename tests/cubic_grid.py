"""The cubic (a, b) grid of criterion 2 on a wide box.

Every reduced irreducible x^3 - a*x + b with |a|, |b| <= bound (default
100) is predicted by `cubic_predict` and measured by `build_field` and
`full_report`.  Pairs the predictor rejects (reducible, or not reduced) are
skipped.  Prints each mismatch and one summary line; exits 1 on any
mismatch.  Not part of the Tier-1 suite: the default box takes about a
minute.

    PYTHONPATH=src python tests/cubic_grid.py [bound]
"""

import sys

from indexlab import IntPoly, build_field, cubic_predict, full_report
from indexlab.errors import NotAField, NotReduced


def main(argv) -> int:
    bound = int(argv[0]) if argv else 100
    checked = skipped = mismatches = 0
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            try:
                pred = cubic_predict(a, b)
            except (NotAField, NotReduced):
                skipped += 1
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
