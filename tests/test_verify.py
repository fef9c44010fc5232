import dataclasses

import numpy as np
import pytest

from fiblat.verify import _GRID_BLOCK, SUITE_NAMES, SuiteResult, _grid_holds, run_suite


def test_every_suite_passes_at_reduced_sweep():
    for res in [run_suite(n, 25) for n in SUITE_NAMES]:
        assert res.passed, f"{res.suite}: {res.counterexample}"
        assert res.checks > 0
        assert res.limit == 25
        assert res.counterexample is None


def test_suite_names_are_stable():
    assert SUITE_NAMES == ("wythoff", "dual", "floor", "ineq", "reciprocity",
                           "closedform", "dft", "zeta-routes")


def test_result_dict_shape():
    res = run_suite("floor", 25)
    d = dataclasses.asdict(res)
    assert d["suite"] == "floor"
    assert d["passed"] is True
    assert d["checks"] == res.checks
    assert d["limit"] == 25
    assert "seconds" in d


def test_every_suite_at_limit_one_checks_something_or_raises():
    # a suite that ran no check must not read as a pass
    for name in SUITE_NAMES:
        try:
            res = run_suite(name, 1)
        except ValueError:
            continue
        assert res.passed and res.checks > 0, name


def test_unknown_suite_and_bad_limit():
    with pytest.raises(ValueError):
        run_suite("sine")
    with pytest.raises(ValueError):
        run_suite("floor", 0)


def test_failures_carry_a_counterexample():
    bad = SuiteResult("floor", False, 7, 10, 0.01, "N=3: identity broke")
    assert not bad.passed
    assert "N=3" in bad.counterexample
    assert dataclasses.asdict(bad)["counterexample"] == "N=3: identity broke"


def test_grid_check_reaches_its_last_block():
    # the last block holds the final 50 rows only
    rows = 2 * _GRID_BLOCK + 50
    lhs, rhs = np.zeros((rows, 7)), np.ones((rows, 7))

    def holds():
        return _grid_holds(rows, lambda s: lhs[s], lambda s: rhs[s])

    assert holds()
    lhs[-1, 6] = 2.0
    assert not holds()
    # rounding slack: 1e-15 relative passes, 1e-14 fails
    lhs[-1, 6] = 1.0 + 1e-15
    assert holds()
    lhs[-1, 6] = 1.0 + 1e-14
    assert not holds()


def test_ineq_suite_checks_each_exponent_once():
    # one check per exponent for each grid bound, as before the blocking
    r = run_suite("ineq", limit=10)
    assert r.passed and r.checks == 4 * 10 + 1 + 3 * 5


def test_closedform_suite_sweeps_its_whole_limit():
    # five checks per level n = 3..limit, with no cap on the limit
    assert run_suite("closedform").checks == 5 * 23
    r = run_suite("closedform", 120)
    assert r.passed and r.limit == 120 and r.checks == 5 * 118
    # it starts at level 3, so a smaller limit would check nothing
    for limit in (1, 2):
        with pytest.raises(ValueError, match="limit must be >= 3"):
            run_suite("closedform", limit)
    assert run_suite("closedform", 3).checks == 5


def test_dft_suite_checks_the_table_against_the_exact_energy():
    # per (2s, p): 8 Fibonacci lattices F_2..F_9 against energy_exact and
    # 7 against the even coefficient route; 2 x 7 quadrature sums
    r = run_suite("dft")
    assert r.passed and r.limit == 34 and r.checks == 6 * (8 + 7) + 2 * 7
    assert run_suite("dft", 1).checks == 6
