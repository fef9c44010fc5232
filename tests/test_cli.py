import json
import os

import pytest
from click.testing import CliRunner

import fiblat.cli as cli
from fiblat.cli import main
from fiblat.golden import fib
from fiblat.verify import SuiteResult

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
    for method in ("dft", "wce"):
        r = run("energy", "--fib-level", "40", "--sigma", "2", "--method", method)
        assert r.exit_code == 2
        assert "capped at N" in r.output


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
    # FIBLAT_THREADS is not read, so only the flag moves the count
    args = ("constants", "--sigma", "2", "--i-max", "24600", "--k-max", "8")
    env = {"FIBLAT_THREADS": "3"}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert json.loads(run(*args, env=env).output)["threads"] == min(cpus, 4)
    assert json.loads(run(*args, "--threads", "2", env=env).output)["threads"] == 2


def test_threads_field_reports_the_workers_used():
    # one chunk runs inline whatever was asked for
    doc = json.loads(run("constants", "--sigma", "2", "--i-max", "64", "--k-max", "8",
                         "--threads", "4").output)
    assert doc["threads"] == 1


def test_bad_thread_env_is_usage_error():
    # FIBLAT_THREADS is not read, so no value of it is an error
    for env in ("0", "-3", "abc"):
        r = run("constants", "--sigma", "2", "--i-max", "64",
                env={"FIBLAT_THREADS": env})
        assert r.exit_code == 0, env
        assert json.loads(r.output)["threads"] == 1


def test_bad_thread_flag_is_usage_error():
    for cmd in (("constants", "--sigma", "2.5"), ("fit", "--sigma", "2.5")):
        for flag in ("0", "-3"):
            r = run(*cmd, "--i-max", "64", "--threads", flag)
            assert r.exit_code == 2, (cmd, flag)
            assert "--threads" in r.output


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


def test_closed_families_come_from_the_table():
    from fiblat.dedekind import CLOSED_FAMILIES

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
    # C is finite here; the D sweep's (pi**2 * eta)**sigma is not
    r = run("constants", "--sigma", "200", "--kernel", "fsigma", "--i-max", "100",
            "--k-max", "4")
    assert r.exit_code == 2 and "float64" in r.output, r.output


def test_lattice_sum_overflow_is_usage_error():
    for extra in (["--method", "flat"], ["--method", "grouped"], ["--raw"]):
        r = run("sum", "-n", "30", "--sigma", "60", *extra)
        assert r.exit_code == 2 and "float64" in r.output, (extra, r.output)
    r = run("fit", "--sigma", "60", "--n-min", "28", "--n-max", "30",
            "--i-max", "100", "--k-max", "4")
    assert r.exit_code == 2 and "float64" in r.output, r.output
