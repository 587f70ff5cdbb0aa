"""Command-line front end.

    indexlab invariants <poly> [--format json|tsv] [--primes 2,3,5]
    indexlab verify <family> --range A..B [--format tsv|json]
    indexlab search-t1 --degree n --prime p [--budget N]
    indexlab compare <poly1> <poly2> --prime p

Polynomials are accepted as "[c0,c1,...,cn]" (ascending coefficients) or
symbolically like "x^3 - 13*x + 4", with coefficients of any length.
Output is byte-deterministic for a fixed input and format: JSON keys are
sorted and big integers are printed as decimal strings.  `verify` sweeps
--range lazily: in TSV it writes each row as it finishes, in JSON one
document at the end.  Exit codes: 0 success/verified, 1 a `verify`
discrepancy or any other library error, 2 usage or parse error, 3 invalid
field, 4 search budget exhausted or a search out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .arith import is_prime, primes_upto
from .errors import (
    DegreeOutOfScope,
    IndexLabError,
    InvalidInput,
    NotAField,
    ParseError,
    ReduciblePolynomial,
    SearchBudgetExhausted,
    UnknownFamily,
)
from .families import is_discrepancy, verify_family
from .intpoly import parse_poly
from .invariants import InvariantReport, full_report, vp_iK, vp_IK
from .numberfield import build_field, split_prime
from .search import DEFAULT_BUDGET, search_prime_divisor_field

USAGE_ERROR = 2
FIELD_ERROR = 3
BUDGET_ERROR = 4


class UsageError(Exception):
    """A command-line argument outside its documented domain (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one `usage error:` line, like
    every other usage error; --help still prints and exits 0."""

    def error(self, message):
        raise UsageError(message)


def _parse_int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise UsageError(f"{what}: {tok.strip()!r} is not an integer") from None


def _parse_ints(text: str, what: str) -> list[int]:
    return [_parse_int(tok, what) for tok in text.split(",") if tok.strip()]


def _parse_range(text: str) -> range | list[int]:
    """Parse "A..B" (inclusive) into a range, or a comma list "16,1,2" into
    its distinct values in increasing order."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = _parse_int(lo_text, "--range"), _parse_int(hi_text, "--range")
        if hi < lo:
            raise UsageError(f"--range: empty range {text!r}")
        return range(lo, hi + 1)
    params = sorted(set(_parse_ints(text, "--range")))
    if not params:
        raise UsageError(f"--range: {text!r} names no parameter")
    return params


def _check_prime_arg(p: int, what: str) -> int:
    if not is_prime(p):
        raise UsageError(f"{what}: {p} is not prime")
    return p


def _parse_primes(text: str) -> list[int]:
    primes = sorted({_check_prime_arg(p, "--primes") for p in _parse_ints(text, "--primes")})
    if not primes:
        raise UsageError(f"--primes: {text.strip()!r} names no prime")
    return primes


def _report_to_json(report: InvariantReport, primes: list[int]) -> dict:
    return {
        "field": {
            "poly": list(report.poly.coeffs),
            "disc": str(report.field_disc),
            "degree": report.degree,
        },
        "splitting": {
            str(p): [[e, f] for e, f in report.splittings[p]]
            for p in primes
            if p in report.splittings
        },
        "invariants": {
            "i_K": str(report.i_K),
            "I_K": str(report.I_K),
            "valuations": {
                str(p): list(report.valuations[p])
                for p in primes
                if p in report.valuations
            },
        },
        "witness": {
            "coords": list(report.witness),
            "char_poly": list(report.witness_char_poly.coeffs),
        },
    }


def _splitting_text(pairs) -> str:
    return "".join(f"({e},{f})" for e, f in pairs)


def _report_to_tsv(report: InvariantReport, primes: list[int]) -> str:
    rows = [
        ("degree", str(report.degree)),
        ("disc", str(report.field_disc)),
        ("i_K", str(report.i_K)),
        ("I_K", str(report.I_K)),
        ("poly", str(report.poly)),
    ]
    for p in primes:
        if p in report.splittings:
            rows.append((f"splitting.{p}", _splitting_text(report.splittings[p])))
    for p in primes:
        if p in report.valuations:
            vi, vI = report.valuations[p]
            rows.append((f"valuations.{p}", f"{vi},{vI}"))
    rows.append(("witness.char_poly", str(report.witness_char_poly)))
    rows.append(("witness.coords", ",".join(str(c) for c in report.witness)))
    return "\n".join(f"{k}\t{v}" for k, v in rows) + "\n"


_VERIFY_HEADER = "family\tm\tapplicable\tI_pred\tI_exact\ti_pred_set\ti_exact\tpass\n"


def _cell(value) -> str:
    return "-" if value is None else str(value)


def _verify_row_to_tsv(row: dict) -> str:
    pred_set = "{" + ",".join(map(str, row["i_pred"])) + "}" if row["i_pred"] else None
    verdict = None if row["pass"] is None else int(row["pass"])
    cells = (
        row["family"], row["m"], int(row["applicable"]), row["I_pred"], row["I_exact"],
        pred_set, row["i_exact"], verdict,
    )
    return "\t".join(map(_cell, cells)) + "\n"


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_invariants(args) -> int:
    # a bad --primes list is refused before any field work
    chosen = _parse_primes(args.primes) if args.primes else None
    field = build_field(parse_poly(args.poly))
    report = full_report(field)
    primes = chosen or primes_upto(field.degree)
    if args.format == "json":
        sys.stdout.write(_dump_json(_report_to_json(report, primes)))
    else:
        sys.stdout.write(_report_to_tsv(report, primes))
    return 0


def cmd_verify(args) -> int:
    # a bad --range or family name is refused before anything is written
    rows = verify_family(args.family, _parse_range(args.range))
    tsv = args.format == "tsv"
    if tsv:
        sys.stdout.write(_VERIFY_HEADER)
    kept, alpha = [], []
    checked = skipped = discrepancies = 0
    for row in rows:
        if tsv:
            sys.stdout.write(_verify_row_to_tsv(row))
        else:
            kept.append(row)  # JSON is one document, written at the end
        checked += row["applicable"]
        skipped += not row["applicable"]
        discrepancies += is_discrepancy(row)
        if "alpha_measured" in row:
            alpha.append([row["m"], row["alpha_measured"]])
    if not tsv:
        out = {
            "family": args.family,
            "checked": checked,
            "skipped": skipped,
            "discrepancies": discrepancies,
            "rows": kept,
        }
        if alpha:
            out["alpha_table"] = alpha
        sys.stdout.write(_dump_json(out))
    elif alpha:
        sys.stdout.write("# measured v2(i) per parameter:\n")
        for m, a in alpha:
            sys.stdout.write(f"# m={m}\talpha={a}\n")
    sys.stderr.write(
        f"{args.family}: {checked} checked, {skipped} skipped, "
        f"{discrepancies} discrepancies\n"
    )
    return 1 if discrepancies else 0


def cmd_search_t1(args) -> int:
    if not 2 <= args.degree <= 7:
        raise UsageError(f"--degree: {args.degree} is outside 2..7")
    _check_prime_arg(args.prime, "--prime")
    if args.prime > args.degree:
        raise UsageError(f"--prime: {args.prime} exceeds the degree {args.degree}")
    if args.budget < 0:
        raise UsageError(f"--budget: the candidate budget must be at least 0, got {args.budget}")
    result = search_prime_divisor_field(args.degree, args.prime, budget=args.budget)
    if args.format == "json":
        payload = {
            "degree": args.degree,
            "prime": args.prime,
            "poly": list(result.poly.coeffs),
            "poly_text": str(result.poly),
            "i_K": str(result.report.i_K),
            "I_K": str(result.report.I_K),
            "candidates_tried": result.candidates_tried,
        }
        sys.stdout.write(_dump_json(payload))
    else:
        sys.stdout.write(f"{result.poly}\n")
        sys.stdout.write(
            f"# i_K={result.report.i_K} I_K={result.report.I_K} "
            f"candidates={result.candidates_tried}\n"
        )
    return 0


def cmd_compare(args) -> int:
    f1 = parse_poly(args.poly1)
    f2 = parse_poly(args.poly2)
    if f1.degree != f2.degree:
        raise UsageError("polynomials must have the same degree")
    p = _check_prime_arg(args.prime, "--prime")
    k1 = build_field(f1)
    k2 = build_field(f2)
    s1 = split_prime(k1, p)
    s2 = split_prime(k2, p)
    v1 = (vp_iK(k1, p), vp_IK(k1, p))
    v2 = (vp_iK(k2, p), vp_IK(k2, p))
    same = s1 == s2
    # a pair with equal splitting types but different v_p(I) shows the
    # splitting type alone cannot determine the index valuation
    witness = same and v1[1] != v2[1]
    payload = {
        "prime": p,
        "fields": [
            {"poly": list(f1.coeffs), "disc": str(k1.disc), "splitting": [[e, f] for e, f in s1]},
            {"poly": list(f2.coeffs), "disc": str(k2.disc), "splitting": [[e, f] for e, f in s2]},
        ],
        "same_splitting": same,
        "valuations": {"field1": list(v1), "field2": list(v2)},
        "splitting_blind_spot": witness,
    }
    if args.format == "json":
        sys.stdout.write(_dump_json(payload))
    else:
        sys.stdout.write(f"splitting.1\t{_splitting_text(s1)}\n")
        sys.stdout.write(f"splitting.2\t{_splitting_text(s2)}\n")
        sys.stdout.write(f"same_splitting\t{int(same)}\n")
        sys.stdout.write(f"valuations.1\t{v1[0]},{v1[1]}\n")
        sys.stdout.write(f"valuations.2\t{v2[0]},{v2[1]}\n")
        sys.stdout.write(f"splitting_blind_spot\t{int(witness)}\n")
    return 0


@functools.cache  # built on first use, then shared: parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="indexlab",
        description="Exact index invariants i(K) and I(K) of number fields of degree <= 7.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_inv = sub.add_parser("invariants", help="full invariant report for one field")
    p_inv.add_argument("poly")
    p_inv.add_argument("--format", choices=("json", "tsv"), default="json")
    p_inv.add_argument("--primes", default="", help="comma list, e.g. 2,3,5")
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser("verify", help="sweep a family formula against the engine")
    p_ver.add_argument("family")
    p_ver.add_argument(
        "--range",
        required=True,
        help="A..B inclusive or comma list; use --range=-10..10 for negatives",
    )
    p_ver.add_argument("--format", choices=("json", "tsv"), default="tsv")
    p_ver.set_defaults(func=cmd_verify)

    p_t1 = sub.add_parser("search-t1", help="find a degree-n field with p | i(K)")
    p_t1.add_argument("--degree", type=int, required=True)
    p_t1.add_argument("--prime", type=int, required=True)
    p_t1.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_t1.add_argument("--format", choices=("json", "tsv"), default="json")
    p_t1.set_defaults(func=cmd_search_t1)

    p_cmp = sub.add_parser("compare", help="splitting-type comparator for two fields")
    p_cmp.add_argument("poly1")
    p_cmp.add_argument("poly2")
    p_cmp.add_argument("--prime", type=int, required=True)
    p_cmp.add_argument("--format", choices=("json", "tsv"), default="json")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # coefficients of any size are in scope: parse and print them all
        sys.set_int_max_str_digits(0)
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return USAGE_ERROR
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return USAGE_ERROR
    except UnknownFamily as exc:
        sys.stderr.write(f"{exc}\n")
        return USAGE_ERROR
    except (ReduciblePolynomial, NotAField, DegreeOutOfScope, InvalidInput) as exc:
        sys.stderr.write(f"invalid field: {exc}\n")
        return FIELD_ERROR
    except SearchBudgetExhausted as exc:
        sys.stderr.write(f"search failed: {exc}\n")
        return BUDGET_ERROR
    except MemoryError as exc:
        # numpy's _ArrayMemoryError names the array it could not allocate
        detail = f" ({exc})" if str(exc) else ""
        sys.stderr.write(f"search failed: out of memory{detail}\n")
        return BUDGET_ERROR
    except IndexLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
