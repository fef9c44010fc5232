import json
import os
import re
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

import fiblat.cli as cli
from fiblat.asymptotics import constant_C_closed
from fiblat.cli import main
from fiblat import verify
from fiblat.asymptotics import residual_fit
from fiblat.dedekind import CLOSED_FAMILIES, ClosedFamily
from fiblat.golden import fib
from fiblat.kernels import parse_kernel
from fiblat.verify import SuiteResult, run_suite
from fiblat.wythoff import wythoff_row_entries

PRIMAL_TABLE = (
    "i,eta,W1,W2,W3,W4,W5,W6\n"
    "1,1,1,2,3,5,8,13\n"
    "2,5,4,7,11,18,29,47\n"
    "3,4,6,10,16,26,42,68\n"
    "4,9,9,15,24,39,63,102\n"
    "5,16,12,20,32,52,84,136\n"
    "6,11,14,23,37,60,97,157\n"
    "7,19,17,28,45,73,118,191\n"
    "8,11,19,31,50,81,131,212\n"
)

DUAL_TABLE = (
    "i,mu,Wd1,Wd2,Wd3,Wd4,Wd5,Wd6\n"
    "1,2,1,2,3,5,8,13\n"
    "2,5,7,11,18,29,47,76\n"
    "3,5,4,6,10,16,26,42\n"
    "4,6,9,15,24,39,63,102\n"
    "5,7,20,32,52,84,136,220\n"
    "6,7,12,19,31,50,81,131\n"
    "7,8,27,44,71,115,186,301\n"
)


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def test_row_array_table_is_byte_exact():
    r = run("wythoff")
    assert r.exit_code == 0
    assert r.output == PRIMAL_TABLE


def test_dual_array_table_is_byte_exact():
    r = run("wythoff", "--dual", "--rows", "7")
    assert r.exit_code == 0
    assert r.output == DUAL_TABLE


def test_row_array_json():
    r = run("wythoff", "--rows", "3", "--format", "json")
    doc = json.loads(r.output)
    assert doc["schema_version"] == 1
    assert doc["table"] == "primal"
    assert doc["rows"][0] == {"i": 1, "eta": 1, "entries": [1, 2, 3, 5, 8, 13]}


def test_wythoff_past_the_digit_budget_is_usage_error():
    # 1 x 21000 would print 46 MB; the budget is 10**7 digits, and the
    # refusal comes before any row is built, also for a count past float
    for args in (("--rows", "1", "--cols", "21000"), ("--rows", "12", "--cols", "3000"),
                 ("--dual", "--rows", str(10 ** 6)), ("--cols", str(10 ** 400))):
        r = run("wythoff", *args)
        assert r.exit_code == 2, args
        errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "is past the budget of 1e+07 digits" in errors[0], r.output


@pytest.mark.parametrize("dual", [False, True])
def test_wythoff_digit_estimate_bounds_the_table(dual):
    for rows, cols in ((1, 1), (8, 6), (12, 8), (40, 60), (300, 3)):
        args = ["--dual"] * dual + ["--rows", str(rows), "--cols", str(cols)]
        r = run("wythoff", *args)
        assert r.exit_code == 0, r.output
        body = r.output.splitlines()[1:]  # the header has no table digits
        digits = sum(len(field) for line in body for field in line.split(",")[2:])
        assert digits <= cli._table_digits(rows, cols), (dual, rows, cols)


def test_closed_past_the_digit_budget_is_usage_error():
    # levels 3..10**6 would print about 10**11 digits, 3..8000 about
    # 1.3e7; refused before any level is formed, also for levels past float
    for args in (("--n-max", str(10 ** 6)), ("--n-max", str(10 ** 400)),
                 ("--n-min", str(10 ** 400), "--n-max", str(10 ** 400)),
                 ("--n-max", "8000")):
        r = run("closed", "--family", "sigma2", *args)
        assert r.exit_code == 2, args
        errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "is past the budget of 1e+07 digits" in errors[0], r.output


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_digit_estimate_bounds_the_output(fmt):
    for family in CLOSED_FAMILIES:
        for lo, hi in ((2, 2), (3, 25), (3, 300), (290, 300)):
            r = run("closed", "--family", family, "--n-min", str(lo), "--n-max", str(hi),
                    "--format", fmt)
            assert r.exit_code == 0, r.output
            digits = sum(ch.isdigit() for ch in r.output)
            assert digits <= cli._closed_digits(family, lo, hi), (family, lo, hi)


def test_sum_json_with_cross_check():
    r = run("sum", "-n", "12", "--sigma", "2")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["modulus"] == 144
    assert doc["terms"] == 143
    assert doc["kernel"] == "one"
    assert doc["value"] == pytest.approx(1.3555437671467765, rel=1e-12)
    assert doc["cross_check_diff"] <= 1e-12
    assert 0 < doc["roundoff_scale"] < 1e-13


def test_sum_grouped_matches_flat():
    a = json.loads(run("sum", "-n", "11", "--sigma", "2.5").output)
    b = json.loads(
        run("sum", "-n", "11", "--sigma", "2.5", "--method", "grouped").output)
    assert b["value"] == pytest.approx(a["value"], rel=1e-11)


def test_sum_raw_scaling():
    a = json.loads(run("sum", "-n", "10", "--sigma", "2").output)
    b = json.loads(run("sum", "-n", "10", "--sigma", "2", "--raw").output)
    assert b["value"] == pytest.approx(a["value"] * fib(10) ** 2, rel=1e-13)
    assert b["normalized"] is False


def test_sum_bad_level_or_exponent_is_usage_error():
    assert run("sum", "-n", "48", "--sigma", "2").exit_code == 2
    assert run("sum", "-n", "10", "--sigma", "0", "--method", "grouped").exit_code == 2


def test_energy_fib_level():
    r = run("energy", "--fib-level", "7", "--sigma", "2")
    doc = json.loads(r.output)
    assert (doc["N"], doc["h"], doc["method"]) == (13, 8, "dft")
    assert doc["value"] > 0


def test_energy_on_the_one_point_level_takes_any_exponent():
    # F_2 = 1: no pair to scale, so a sigma past the pair routes' range runs
    r = run("energy", "--fib-level", "2", "--sigma", "1e60")
    assert r.exit_code == 0, r.output
    assert json.loads(r.output)["value"] == 1.0


def test_energy_explicit_lattice_routes_agree():
    vals = []
    for method in ("direct", "dft", "wce"):
        r = run("energy", "-N", "10", "--gen", "3", "--sigma", "2.5",
                "--p", "6", "--method", method)
        assert r.exit_code == 0
        vals.append(json.loads(r.output)["value"])
    assert vals[1] == pytest.approx(vals[0], rel=1e-9)
    assert vals[2] == pytest.approx(vals[0], rel=1e-9)


def test_grouped_sum_above_level_cap_is_usage_error():
    r = run("sum", "-n", "44", "--sigma", "2", "--method", "grouped")
    assert r.exit_code == 2
    assert "level must be < 44" in r.output


def test_energy_table_routes_above_cap_are_usage_errors():
    # dft's pair table is capped at N = 2e7; wce builds no table and
    # stops at the pair sum's cost bound, N < F_48
    for method, level, why in (("dft", 40, "capped at N"), ("wce", 48, "cost bound")):
        r = run("energy", "--fib-level", str(level), "--sigma", "2", "--method", method)
        assert r.exit_code == 2
        assert why in r.output


def test_energy_direct_above_cap_is_usage_error():
    r = run("energy", "--fib-level", "40", "--sigma", "2", "--method", "direct")
    assert r.exit_code == 2
    assert "capped at N = 1000" in r.output


def test_energy_direct_past_the_series_cap_is_usage_error():
    r = run("energy", "--fib-level", "16", "--sigma", "1.01", "--method", "direct")
    assert r.exit_code == 2
    assert "use dft or wce" in r.output


def test_verify_bad_limit_is_usage_error():
    # exit 1 would claim a failed check; a limit the suite cannot run is a usage error
    r = run("verify", "--suite", "zeta-routes", "--limit", "5")
    assert r.exit_code == 2
    assert "truncation too small" in r.output


@pytest.mark.parametrize("suite,cap", [("wythoff", 10 ** 6), ("dual", 5000),
                                       ("floor", 10 ** 5), ("ineq", 10 ** 5),
                                       ("reciprocity", 2000), ("closedform", 250),
                                       ("zeta-routes", 10 ** 6)])
def test_verify_limit_past_cap_is_usage_error(suite, cap):
    r = run("verify", "--suite", suite, "--limit", str(cap + 1))
    assert r.exit_code == 2
    errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: suite {suite} is capped at limit {cap}, got {cap + 1}"], r.output


def test_verify_help_lists_every_cap():
    r = run("verify", "--help")
    text = " ".join(r.output.split())
    assert r.exit_code == 0
    for suite, cap in (("wythoff", 10 ** 6), ("dual", 5000), ("floor", 10 ** 5),
                       ("ineq", 10 ** 5), ("reciprocity", 2000), ("closedform", 250),
                       ("zeta-routes", 10 ** 6)):
        assert f"{suite} {cap}" in text, text


def test_verify_checks_every_limit_before_any_suite_runs(monkeypatch):
    # 200000 is under the wythoff cap and past the floor cap
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda name, limit=None: ran.append(name))
    r = run("verify", "--suite", "wythoff", "--suite", "floor", "--limit", "200000")
    assert r.exit_code == 2 and "capped at limit 100000" in r.output, r.output
    assert ran == []


def test_closedform_limit_below_three_is_usage_error():
    for limit in ("1", "2"):
        r = run("verify", "--suite", "closedform", "--limit", limit)
        assert r.exit_code == 2 and "limit must be >= 3" in r.output, r.output


def test_energy_flag_conflict_is_usage_error():
    r = run("energy", "--fib-level", "7", "-N", "10", "--sigma", "2")
    assert r.exit_code == 2
    assert "conflicts" in r.output


def test_energy_requires_a_lattice():
    assert run("energy", "--sigma", "2").exit_code == 2


def test_energy_rejects_noncoprime():
    r = run("energy", "-N", "10", "--gen", "4", "--sigma", "2")
    assert r.exit_code == 2
    assert "coprime" in r.output


def test_constants_json_includes_closed_form():
    r = run("constants", "--sigma", "2", "--i-max", "400", "--k-max", "16")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["c_closed_coefficient"] == "4/15"
    assert abs(doc["c"] - doc["c_closed"]) <= doc["c_tail_bound"]
    assert doc["d_error_estimate"] >= doc["d_outer_tail"]
    assert doc["threads"] == 1


def test_constants_closed_coefficient_is_exact_for_a_big_weight():
    # f(0) = 2**53 + 1 is not a double: the coefficient takes it as the
    # exact sum of the trig coefficients, (4/15) f(0)**2
    r = run("constants", "--sigma", "2", "--kernel", "trig:9007199254740993",
            "--i-max", "100", "--k-max", "4")
    assert r.exit_code == 0, r.output
    doc = json.loads(r.output)
    assert doc["c_closed_coefficient"] == "108172851219475599613583352834732/5"
    assert Fraction(doc["c_closed_coefficient"]) == Fraction(4, 15) * (2 ** 53 + 1) ** 2


def test_constants_no_closed_form_for_odd_sigma():
    doc = json.loads(
        run("constants", "--sigma", "2.5", "--i-max", "200", "--k-max", "8").output)
    assert "c_closed" not in doc


def test_precision_bits_flag_is_a_floor():
    # C runs at the precision its tail needs; no flag or variable sets it
    args = ("constants", "--sigma", "18", "--i-max", "2000", "--k-max", "8")
    assert run(*args, "--precision-bits", "53").exit_code == 2
    doc = json.loads(run(*args).output)
    assert doc["c_precision_bits"] == 216
    assert json.loads(run(*args, env={"FIBLAT_PRECISION_BITS": "300"}).output) == doc


def test_threads_env_and_flag_precedence():
    # 24600 rows are four sweep chunks, so up to four workers are used;
    # the affinity mask alone sets the count: FIBLAT_THREADS is not read
    args = ("constants", "--sigma", "2", "--i-max", "24600", "--k-max", "8")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    doc = json.loads(run(*args).output)
    assert doc["threads"] == min(cpus, 4)
    assert json.loads(run(*args, env={"FIBLAT_THREADS": "3"}).output) == doc


def test_threads_field_reports_the_workers_used():
    # the count is capped at the chunks of one pass: up to 8192 rows
    # (one chunk) run inline, 8193 rows are two chunks
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for i_max, workers in (("64", 1), ("8192", 1), ("8193", min(cpus, 2))):
        doc = json.loads(run("constants", "--sigma", "2", "--i-max", i_max,
                             "--k-max", "8").output)
        assert doc["threads"] == workers, i_max


def test_bad_thread_env_is_usage_error():
    # FIBLAT_THREADS is not read, so no value of it is an error
    for env in ("0", "-3", "abc"):
        r = run("constants", "--sigma", "2", "--i-max", "64",
                env={"FIBLAT_THREADS": env})
        assert r.exit_code == 0, env
        assert json.loads(r.output)["threads"] == 1


def test_bad_thread_flag_is_usage_error():
    # the affinity mask is the one control: no option sets a thread count
    for cmd in (("constants", "--sigma", "2.5"), ("fit", "--sigma", "2.5")):
        for flag in ("0", "-3", "2"):
            r = run(*cmd, "--i-max", "64", "--threads", flag)
            assert r.exit_code == 2, (cmd, flag)
            assert "no such option" in r.output.lower() and "--threads" in r.output, r.output


def test_closed_family_table_exact():
    r = run("closed", "--family", "s22", "--n-min", "3", "--n-max", "8")
    assert r.output == (
        "n,value\n"
        "3,5/144\n"
        "4,11/324\n"
        "5,581/22500\n"
        "6,185/9216\n"
        "7,1153/79092\n"
        "8,1163/111132\n"
    )


def test_closed_family_c():
    r = run("closed", "--family", "c", "--sigma", "4")
    lines = r.output.splitlines()
    assert lines[0] == "sigma,coefficient,value"
    cells = lines[1].split(",")
    assert cells[:2] == ["4", "8/675"]
    assert float(cells[2]) == pytest.approx(8 / 675 / 5 ** 0.5, rel=1e-15)


def test_closed_family_c_needs_even_sigma():
    assert run("closed", "--family", "c", "--sigma", "3").exit_code == 2
    assert run("closed", "--family", "c").exit_code == 2


def test_closed_table_family_rejects_sigma():
    # only family c takes an exponent; each table family fixes its own
    for family in CLOSED_FAMILIES:
        r = run("closed", "--family", family, "--sigma", "4", "--n-min", "3", "--n-max", "4")
        assert r.exit_code == 2, family
        assert "--sigma" in r.output and family in r.output, r.output


def _errors(output):
    return [line for line in output.splitlines() if line.startswith("Error:")]


@pytest.mark.parametrize("cmd,option,floor", [
    ("wythoff", "--rows", 1), ("wythoff", "--cols", 1), ("closed", "--n-min", 2),
    ("closed", "--n-max", 2), ("verify", "--limit", 1), ("constants", "--i-max", 8),
    ("constants", "--k-max", 2), ("fit", "--i-max", 8), ("fit", "--k-max", 2)])
def test_option_floors_are_usage_errors_shown_in_help(cmd, option, floor):
    args = {"closed": ["--family", "s22"], "constants": ["--sigma", "2"],
            "fit": ["--sigma", "2"]}.get(cmd, [])
    r = run(cmd, *args, option, str(floor - 1))
    assert r.exit_code == 2
    assert _errors(r.output) == [
        f"Error: Invalid value for '{option}': {floor - 1} is not in the range x>={floor}."]
    help_text = " ".join(run(cmd, "--help").output.split())
    assert f"{option} INTEGER RANGE" in help_text and f"x>={floor}" in help_text, help_text


def test_closed_empty_level_range_is_usage_error():
    r = run("closed", "--family", "sigma2", "--n-min", "5", "--n-max", "4")
    assert r.exit_code == 2
    assert _errors(r.output) == ["Error: empty level range 5..4"], r.output
    assert not r.stdout


class _RefusesPastFour(ClosedFamily):
    def value(self, n):
        if n > 4:
            raise ValueError(f"level {n} is refused")
        return super().value(n)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_family_refusing_a_level_prints_no_partial_table(monkeypatch, fmt):
    fam = CLOSED_FAMILIES["sigma2"]
    monkeypatch.setitem(CLOSED_FAMILIES, "sigma2", _RefusesPastFour(
        fam.rows, fam.const, fam.den, fam.sigma, fam.weight))
    r = run("closed", "--family", "sigma2", "--n-min", "3", "--n-max", "6", "--format", fmt)
    assert r.exit_code == 2
    assert _errors(r.output) == ["Error: level 5 is refused"], r.output
    assert not r.stdout


def test_fit_json_is_the_csv_table_as_a_document():
    args = ("fit", "--sigma", "2.5", "--n-min", "5", "--n-max", "8", "--i-max", "2000",
            "--k-max", "16")
    r = run(*args, "--format", "json")
    assert r.exit_code == 0, r.output
    table = residual_fit(2.5, parse_kernel("one", sigma=2.5), 5, 8, i_max=2000, k_max=16)
    rows = [{"n": t.n, "sum": t.total, "asymptote": t.asymptote, "residual": t.residual,
             "scaled_residual": t.scaled_residual} for t in table]
    doc = {"schema_version": 1, "sigma": 2.5, "kernel": "one", "rows": rows}
    assert r.output == json.dumps(doc, indent=2) + "\n"
    csv_rows = run(*args).output.splitlines()[1:]
    assert [[float(x) for x in line.split(",")] for line in csv_rows] == [
        list(row.values()) for row in rows]


def test_fit_csv_shape():
    r = run("fit", "--sigma", "2", "--n-min", "10", "--n-max", "14")
    lines = r.output.splitlines()
    assert lines[0] == "n,sum,asymptote,residual,scaled_residual"
    assert len(lines) == 6
    resid = [abs(float(l.split(",")[3])) for l in lines[1:]]
    assert resid == sorted(resid, reverse=True)


def test_verify_subcommand_json():
    r = run("verify", "--suite", "floor", "--limit", "500")
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["passed"] is True
    assert doc["suites"][0]["suite"] == "floor"
    assert doc["suites"][0]["checks"] > 0
    assert list(doc["suites"][0]) == ["suite", "passed", "checks", "limit", "seconds",
                                      "counterexample"]


def test_verify_subcommand_csv():
    r = run("verify", "--suite", "floor", "--suite", "closedform",
            "--limit", "12", "--format", "csv")
    lines = r.output.splitlines()
    assert lines[0] == "suite,passed,checks,limit,seconds,counterexample"
    assert lines[1].startswith("floor,true,")
    assert lines[2].startswith("closedform,true,")


def test_verify_failure_sets_exit_code(monkeypatch):
    def broken(name, limit=None):
        return SuiteResult(name, False, 3, 10, 0.0, "i=4: boom")

    monkeypatch.setattr(cli, "run_suite", broken)
    r = run("verify", "--suite", "floor")
    assert r.exit_code == 1
    assert json.loads(r.output)["passed"] is False


def test_a_failing_suite_reports_its_counterexample(monkeypatch):
    def floor_fails_third(run, limit):
        run.ok(True, "unused")
        run.ok(limit == 7, "unused")
        run.ok(False, "floor fails at %d of %d", 3, limit)

    monkeypatch.setitem(verify._SUITES, "floor", (floor_fails_third, 10000))
    res = run_suite("floor", 7)
    assert (res.suite, res.passed, res.checks, res.limit) == ("floor", False, 3, 7)
    assert res.counterexample == "floor fails at 3 of 7"
    for fmt in ("csv", "json"):
        r = run("verify", "--suite", "floor", "--limit", "7", "--format", fmt)
        assert r.exit_code == 1, r.output
        if fmt == "json":
            doc = json.loads(r.output)
            assert doc["passed"] is False
            assert doc["suites"][0]["counterexample"] == "floor fails at 3 of 7"
        else:
            header, line = r.output.splitlines()
            assert header == "suite,passed,checks,limit,seconds,counterexample"
            assert re.fullmatch(r"floor,false,3,7,\d+\.\d{3},floor fails at 3 of 7", line), line


def test_unknown_kernel_reports_grammar():
    r = run("sum", "-n", "8", "--sigma", "2", "--kernel", "bogus")
    assert r.exit_code == 2
    assert "grammar" in r.output
    assert r.output.count("grammar") == 1


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_non_finite_sigma_is_usage_error(sigma):
    for method in ("flat", "grouped"):
        r = run("sum", "-n", "10", "--sigma", sigma, "--method", method)
        assert r.exit_code == 2 and "finite" in r.output, (method, r.output)
    r = run("constants", "--sigma", sigma, "--i-max", "100")
    assert r.exit_code == 2 and "finite" in r.output, r.output
    r = run("fit", "--sigma", sigma, "--n-max", "12", "--i-max", "100")
    assert r.exit_code == 2 and "finite" in r.output, r.output


@pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
def test_energy_non_finite_sigma_is_usage_error(sigma):
    for method in ("direct", "dft", "wce"):
        r = run("energy", "--fib-level", "5", "--sigma", sigma, "--method", method)
        assert r.exit_code == 2 and "finite" in r.output, (method, r.output)


@pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
def test_energy_non_finite_p_is_usage_error(p):
    for method in ("direct", "dft", "wce"):
        r = run("energy", "--fib-level", "5", "--sigma", "2", "--p", p, "--method", method)
        assert r.exit_code == 2 and "must be finite" in r.output, (method, r.output)


def test_energy_past_float64_is_usage_error():
    # p = 1e300 squares past float64; the JSON would read Infinity.  At
    # sigma = 2.5 direct's series tolerance is relative to |p|, so the
    # series cap does not refuse a large p first
    for sigma in ("2", "2.5"):
        for method in ("direct", "dft", "wce"):
            r = run("energy", "--fib-level", "5", "--sigma", sigma, "--p", "1e300",
                    "--method", method)
            assert r.exit_code == 2 and "leaves float64" in r.output, (sigma, method, r.output)


@pytest.mark.parametrize("flag", ["--c", "--d"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fit_non_finite_constant_is_usage_error(flag, value):
    r = run("fit", "--sigma", "2", "--n-max", "12", flag, value)
    assert r.exit_code == 2 and "must be finite" in r.output, r.output


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fit_row_past_float64_is_usage_error(fmt):
    # c*n + d overflows; the CSV would read inf and the JSON Infinity
    r = run("fit", "--sigma", "2", "--n-min", "5", "--n-max", "5", "--c", "1e308",
            "--d", "1e308", "--format", fmt)
    errors = [line for line in r.output.splitlines() if line.startswith("Error:")]
    assert r.exit_code == 2 and len(errors) == 1, r.output
    assert "leaves float64 at level 5" in errors[0]


def test_closed_families_come_from_the_table():
    for family, fam in CLOSED_FAMILIES.items():
        r = run("closed", "--family", family, "--n-min", "2", "--n-max", "5")
        assert r.exit_code == 0, family
        assert r.output.splitlines()[1:] == [
            f"{n},{fam.value(n).numerator}/{fam.value(n).denominator}"
            for n in range(2, 6)]


def test_oversized_weight_is_usage_error():
    for args in (["--sigma", "200", "--kernel", "bern:200"],
                 ["--sigma", "2", "--kernel", "trig:1," + "9" * 400],
                 ["--sigma", "2", "--kernel", "bern:1990"]):
        r = run("sum", "-n", "10", *args)
        assert r.exit_code == 2 and "too large" in r.output, (args, r.output)


def test_prefactor_overflow_is_usage_error():
    # pi**(2*sigma) leaves float64 above sigma ~ 310
    for args in (["constants"], ["fit", "--n-min", "10", "--n-max", "12"]):
        r = run(*args, "--sigma", "320", "--i-max", "100", "--k-max", "4")
        assert r.exit_code == 2 and "float64" in r.output, (args, r.output)


def test_offset_sweep_overflow_is_usage_error():
    # C is finite in both; the D sweep's (pi**2 * eta)**sigma is not in
    # the first, and its pi * w_plus * phi**k_max is not in the second
    for args in (["--sigma", "200", "--kernel", "fsigma", "--i-max", "100", "--k-max", "4"],
                 ["--sigma", "2", "--i-max", "8", "--k-max", "1500"]):
        r = run("constants", *args)
        assert r.exit_code == 2 and "float64" in r.output, (args, r.output)


def test_lattice_sum_overflow_is_usage_error():
    for extra in (["--method", "flat"], ["--method", "grouped"], ["--raw"]):
        r = run("sum", "-n", "30", "--sigma", "60", *extra)
        assert r.exit_code == 2 and "float64" in r.output, (extra, r.output)
    r = run("fit", "--sigma", "60", "--n-min", "28", "--n-max", "30",
            "--i-max", "100", "--k-max", "4")
    assert r.exit_code == 2 and "float64" in r.output, r.output


@pytest.fixture
def int_digit_cap():
    """sys.set_int_max_str_digits for one test; the cap is restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit cap")
    cap = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(cap)


def _exact_tokens(output):
    return set(re.findall(r"-?\d+(?:/\d+)?", output))


def _frac_text(q):
    return f"{q.numerator}/{q.denominator}"


# Each command prints an integer past the cap of 640 digits, the least
# the interpreter allows: the same overflow as the default cap of 4300
# digits at level 21000 or sigma 1000, where these commands take about
# half a second (21000 columns would too, but that table is past the
# wythoff command's digit budget).
PAST_THE_CAP = {
    "sigma2": (("closed", "--family", "sigma2", "--n-min", "3200", "--n-max", "3200"),
               lambda: [_frac_text(CLOSED_FAMILIES["sigma2"].value(3200))]),
    "c": (("closed", "--family", "c", "--sigma", "200"),
          lambda: [_frac_text(constant_C_closed(200).coefficient)]),
    "wythoff": (("wythoff", "--rows", "1", "--cols", "3200"),
                lambda: [str(w) for w in wythoff_row_entries(1, 3200)]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(PAST_THE_CAP))
def test_exact_values_past_the_int_digit_cap_print_in_full(case, fmt, int_digit_cap):
    args, expected = PAST_THE_CAP[case]
    int_digit_cap(640)
    r = run(*args, "--format", fmt)
    assert sys.get_int_max_str_digits() == 640  # lifted for the output only
    int_digit_cap(0)
    assert r.exit_code == 0, r.output
    if fmt == "json":
        json.loads(r.output, parse_constant=pytest.fail)  # no NaN or Infinity
    want = expected()
    assert max(len(d) for t in want for d in t.lstrip("-").split("/")) > 640
    assert set(want) <= _exact_tokens(r.output)


def test_level_past_the_default_digit_cap_prints_in_full(int_digit_cap):
    # the level-21000 sigma2 value has over 4300 digits in its numerator
    int_digit_cap(4300)
    out = {fmt: run("closed", "--family", "sigma2", "--n-min", "21000", "--n-max", "21000",
                    "--format", fmt) for fmt in ("csv", "json")}
    int_digit_cap(0)
    want = _frac_text(CLOSED_FAMILIES["sigma2"].value(21000))
    assert len(want.split("/")[0]) > 4300
    for fmt, r in out.items():
        assert r.exit_code == 0, (fmt, r.output)
        assert want in _exact_tokens(r.output), fmt
    assert json.loads(out["json"].output)["rows"] == [{"n": 21000, "value": want}]
