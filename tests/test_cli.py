"""CLI behavior: output formats, determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from indexlab import cli, families, invariants
from indexlab.cli import _parse_range, main
from indexlab.errors import IndexLabError


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_json(capsys):
    code, out, _ = run_cli(capsys, ["invariants", "x^3 - x^2 - 2*x - 8"])
    assert code == 0
    payload = json.loads(out)
    assert payload["field"]["disc"] == "-503"
    assert payload["field"]["degree"] == 3
    assert payload["invariants"]["i_K"] == "2"
    assert payload["invariants"]["I_K"] == "2"
    assert payload["splitting"]["2"] == [[1, 1], [1, 1], [1, 1]]
    assert payload["invariants"]["valuations"]["2"] == [1, 1]
    assert set(payload["witness"]) == {"coords", "char_poly"}


def test_invariants_tsv_and_primes_filter(capsys):
    code, out, _ = run_cli(
        capsys, ["invariants", "x^2 - 17", "--format", "tsv", "--primes", "2"]
    )
    assert code == 0
    entries = dict(line.split("\t") for line in out.strip().split("\n"))
    assert entries["i_K"] == "2"
    assert entries["I_K"] == "1"
    assert entries["splitting.2"] == "(1,1)(1,1)"
    assert entries["witness.char_poly"] == "x^2 - x - 4"


def test_invariants_accepts_coefficient_lists(capsys):
    code, out, _ = run_cli(capsys, ["invariants", "[3, -1, 0, 1]"])
    assert code == 0
    assert json.loads(out)["invariants"]["i_K"] == "3"


def test_invariants_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["invariants", "x^3 - 13*x + 4"])
    _, second, _ = run_cli(capsys, ["invariants", "x^3 - 13*x + 4"])
    assert first == second


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, ["invariants", "x^2 +"])
    assert code == 2 and "parse error" in err
    code, _, err = run_cli(capsys, ["invariants", "x^2 - 4"])
    assert code == 3
    code, _, err = run_cli(capsys, ["invariants", "x^8 - 2"])
    assert code == 3
    # a coefficient list skips the parser's degree check: the field refuses it
    code, _, err = run_cli(capsys, ["invariants", "[2,0,0,0,0,0,0,0,1]"])
    assert code == 3 and err == "invalid field: degree 8 > 7\n"
    # degree 1: the generator is the rational integer itself
    code, out, _ = run_cli(capsys, ["invariants", "x - 3", "--format", "tsv"])
    assert code == 0
    assert {"i_K\t1", "I_K\t1", "witness.coords\t3"} <= set(out.splitlines())
    # refused from the exponent alone, before a coefficient list is built
    code, _, err = run_cli(capsys, ["invariants", "x^99999999999 + 1"])
    assert code == 3 and err == "invalid field: degree 99999999999 > 7\n"
    code, _, err = run_cli(capsys, ["verify", "octic", "--range", "0..3"])
    assert code == 2
    code, _, err = run_cli(capsys, ["compare", "x^2 - 2", "x^3 - 2", "--prime", "2"])
    assert code == 2
    code, _, err = run_cli(
        capsys, ["search-t1", "--degree", "3", "--prime", "3", "--budget", "0"]
    )
    assert code == 4


def test_verify_tsv_output(capsys):
    code, out, err = run_cli(capsys, ["verify", "simplest_cubic", "--range", "0..10"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("family\tm\t")
    assert len(lines) == 12
    assert "0 discrepancies" in err


def test_verify_json_output(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "quadratic", "--range=-20..20", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "quadratic"
    assert payload["discrepancies"] == 0


def test_verify_comma_list_range(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "simplest_quartic", "--range", "1,2,16"]
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 4


def test_verify_report_serialization(capsys):
    argv = ["verify", "simplest_quartic", "--range", "1,2,3,16"]
    code, tsv, _ = run_cli(capsys, argv)
    assert code == 0
    lines = tsv.strip().split("\n")
    assert lines[0] == "family\tm\tapplicable\tI_pred\tI_exact\ti_pred_set\ti_exact\tpass"
    assert len(lines) == 5
    skip_line = [l for l in lines if l.split("\t")[1] == "3"][0]
    assert skip_line.split("\t")[2] == "0"
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    payload = json.loads(out)
    assert payload["family"] == "simplest_quartic"
    assert payload["checked"] == 3 and payload["skipped"] == 1
    # serialization is deterministic
    assert run_cli(capsys, argv)[1] == tsv


def test_parse_range_keeps_a_range_lazy():
    params = _parse_range("1..10000000000")
    assert isinstance(params, range) and len(params) == 10**10
    assert _parse_range("16,3,1,2,3") == [1, 2, 3, 16]


def test_verify_writes_each_row_as_it_finishes(capsys, monkeypatch):
    verify_one = families.verify_one

    def stop_at_the_second(family, m):
        if m == 3:
            raise IndexLabError("stopped at m=3")
        return verify_one(family, m)

    monkeypatch.setattr(families, "verify_one", stop_at_the_second)
    code, out, err = run_cli(capsys, ["verify", "quadratic", "--range", "2..4"])
    assert (code, err) == (1, "error: stopped at m=3\n")
    assert out == (
        "family\tm\tapplicable\tI_pred\tI_exact\ti_pred_set\ti_exact\tpass\n"
        "quadratic\t2\t1\t1\t1\t{1}\t1\t1\n"
    )


def test_search_t1(capsys):
    code, out, _ = run_cli(capsys, ["search-t1", "--degree", "3", "--prime", "2"])
    assert code == 0
    payload = json.loads(out)
    assert int(payload["i_K"]) % 2 == 0
    assert payload["poly"][-1] == 1 and len(payload["poly"]) == 4


def test_search_t1_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["search-t1", "--degree", "4", "--prime", "2"])
    _, second, _ = run_cli(capsys, ["search-t1", "--degree", "4", "--prime", "2"])
    assert first == second


def test_compare_same_splitting(capsys):
    code, out, _ = run_cli(capsys, ["compare", "x^2 - 17", "x^2 - 41", "--prime", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["same_splitting"] is True
    assert payload["valuations"]["field1"] == [1, 0]
    assert payload["valuations"]["field2"] == [1, 0]
    assert payload["splitting_blind_spot"] is False


def test_compare_different_splitting(capsys):
    code, out, _ = run_cli(
        capsys, ["compare", "x^3 - x + 3", "x^3 - x^2 - 2*x - 8", "--prime", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["same_splitting"] is False


def test_compare_ramified_pair(capsys):
    code, out, _ = run_cli(capsys, ["compare", "x^2 - 2", "x^2 - 3", "--prime", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["same_splitting"] is True
    assert payload["fields"][0]["splitting"] == [[2, 1]]
    assert payload["valuations"]["field1"] == payload["valuations"]["field2"] == [0, 0]


USAGE_ERRORS = {
    "empty-range": ["verify", "quadratic", "--range", "5..2"],
    "non-integer-range": ["verify", "quadratic", "--range", "1,x"],
    "range-none": ["verify", "quadratic", "--range", ","],
    "range-blank": ["verify", "quadratic", "--range", ""],
    "degree-out-of-scope": ["search-t1", "--degree", "9", "--prime", "2"],
    "prime-above-degree": ["search-t1", "--degree", "3", "--prime", "5"],
    "search-non-prime": ["search-t1", "--degree", "5", "--prime", "4"],
    "compare-non-prime": ["compare", "x^2 - 2", "x^2 - 3", "--prime", "4"],
    "compare-degree-mismatch": ["compare", "x^2 - 2", "x^3 - 2", "--prime", "2"],
    "primes-non-prime": ["invariants", "x^3 - 2", "--primes", "4,9"],
    "primes-non-integer": ["invariants", "x^3 - 2", "--primes", "2,a"],
    "primes-none": ["invariants", "x^3 - 2", "--primes", ","],
    # refused before the field is built: x^4 + 4 is reducible (exit 3)
    "primes-before-field": ["invariants", "x^4 + 4", "--primes", "4"],
    "budget-negative": ["search-t1", "--degree", "3", "--prime", "2", "--budget", "-4"],
    # refused by the argument parser itself
    "cap-non-integer": ["invariants", "x^2-2", "--cap", "x"],
    "format-unknown": ["invariants", "x^2-2", "--format", "xml"],
    "poly-missing": ["invariants"],
    "command-missing": [],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_errors_exit_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("spelling", ["symbolic", "list"])
def test_coefficient_past_the_int_str_limit_reaches_the_field_check(capsys, spelling):
    # both polynomials are non-monic, so a parsed one is an invalid field
    huge = "1" + "0" * 5000
    poly = {"symbolic": f"2*x^2 + {huge}", "list": f"[{huge},0,2]"}[spelling]
    code, out, err = run_cli(capsys, ["invariants", poly])
    assert code == 3 and out == ""
    assert err.startswith("invalid field: ") and err.count("\n") == 1


def test_invariants_parses_primes_before_building_the_field(capsys, monkeypatch):
    def build_field(f):
        raise AssertionError("the field was built before --primes was parsed")

    monkeypatch.setattr(cli, "build_field", build_field)
    code, out, err = run_cli(capsys, ["invariants", "x^3 - 2", "--primes", ","])
    assert (code, out, err) == (2, "", "usage error: --primes: ',' names no prime\n")


@pytest.mark.parametrize(
    "option",
    [["--jobs", "2"], ["--out", "report.tsv"], ["--cap", "2"]],
    ids=["jobs", "out", "cap"],
)
def test_verify_has_no_jobs_or_out_option(capsys, tmp_path, monkeypatch, option):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, ["verify", "quadratic", "--range", "1..3", *option])
    assert (code, out) == (2, "")
    assert err == f"usage error: unrecognized arguments: {' '.join(option)}\n"
    assert not (tmp_path / "report.tsv").exists()


def test_importing_the_cli_loads_no_process_pool():
    # sympy is imported on first use only (see `arith`), so it stays out too
    code = (
        "import sys, indexlab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing', 'sympy')))"
    )
    # the fresh interpreter imports this same checkout of the package
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out == "[]\n"


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError(), "search failed: out of memory\n"),
        (
            MemoryError("Unable to allocate 1.5 GiB for an array"),
            "search failed: out of memory (Unable to allocate 1.5 GiB for an array)\n",
        ),
    ],
    ids=["bare", "numpy-message"],
)
def test_search_out_of_memory_exits_4_with_one_line(capsys, monkeypatch, exc, message):
    def min_index_valuation(field, p):
        raise exc

    monkeypatch.setattr(invariants, "min_index_valuation", min_index_valuation)
    code, out, err = run_cli(capsys, ["invariants", "x^3 - x^2 - 2*x - 8"])
    assert (code, out, err) == (4, "", message)
