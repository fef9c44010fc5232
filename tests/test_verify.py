import dataclasses

import numpy as np
import pytest

from fiblat.golden import fib
from fiblat import verify
from fiblat.verify import (
    _GRID_BLOCK,
    SUITE_NAMES,
    SuiteResult,
    _check_pairing,
    _Counterexample,
    _grid_holds,
    _Run,
    run_suite,
)
from fiblat.wythoff import _level_rows, row, rows_below_half_fib, wythoff_row_entries


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


_CAPS = {"wythoff": 10 ** 6, "dual": 5000, "floor": 10 ** 5, "ineq": 10 ** 5,
         "reciprocity": 2000, "closedform": 250, "zeta-routes": 10 ** 6}


@pytest.mark.parametrize("name", sorted(_CAPS))
def test_limit_cap_runs_and_one_more_is_refused_before_any_check(monkeypatch, name):
    # a stub in place of the suite: the caps themselves take 0.3 to 1.8 s
    fn, default = verify._SUITES[name]
    cap = verify.LIMIT_CAPS[name]
    assert cap == _CAPS[name] and cap >= 10 * default
    ran = []
    monkeypatch.setitem(verify._SUITES, name, (lambda run, limit: ran.append(limit), default))
    assert run_suite(name, cap).limit == cap
    with pytest.raises(ValueError, match=f"capped at limit {cap}, got {cap + 1}"):
        run_suite(name, cap + 1)
    assert ran == [cap]


def test_dual_pairing_sweeps_levels_up_to_the_limit(monkeypatch):
    # levels 5..min(26, limit): none at limit 1, all of them at the default 500
    assert run_suite("dual").checks == 204995
    assert run_suite("dual", 1).checks < 1000
    levels = []
    monkeypatch.setattr(verify, "_check_pairing", lambda run, n, *args: levels.append(n))
    for limit in (1, 7, 26, 500):
        levels.clear()
        run_suite("dual", limit)
        assert sorted(set(levels)) == list(range(5, min(26, limit) + 1)), limit


def test_uncapped_suites_take_any_limit():
    # dft reads no more than F_9 = 34 of its limit
    assert run_suite("dft", 10 ** 9).checks == run_suite("dft").checks


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


def test_array_check_counts_like_the_scalar_loop():
    run = _Run()
    run.ok_many(np.ones(7, dtype=bool), "never %d", lambda j: (j,))
    assert run.checks == 7
    run.ok_many(np.ones(0, dtype=bool), "never %d", lambda j: (j,))
    assert run.checks == 7
    cond = np.ones(10, dtype=bool)
    cond[[4, 8]] = False
    with pytest.raises(_Counterexample, match=r"^fails at 4 of 10$"):
        run.ok_many(cond, "fails at %d of %d", lambda j: (j, len(cond)))
    assert run.checks == 7 + 5
    run = _Run()
    with pytest.raises(_Counterexample, match="^first$"):
        run.ok_many(np.zeros(3, dtype=bool), "%s", lambda j: ("first",))
    assert run.checks == 1


def _outcome(check) -> tuple[int, str | None]:
    """check(run) on a fresh counter: its check count and counterexample."""
    run = _Run()
    try:
        check(run)
    except _Counterexample as ex:
        return run.checks, str(ex)
    return run.checks, None


def _pairing_scalar(run, levels, multiplier):
    """The pairing check one entry at a time, as the dual suite ran it
    before the array form: rows_below_half_fib, the row recurrence and
    row(i).dual."""
    for n in levels:
        fn, m = fib(n), multiplier(n)
        for i, k_max in rows_below_half_fib(n):
            r = row(i)
            for k, w in enumerate(wythoff_row_entries(i, k_max), start=1):
                res = (w * m) % fn
                wd = r.dual(n - k)
                run.ok(wd == res or wd == fn - res,
                       "pairing fails at level %d row %d depth %d", n, i, k)


def _pairing_arrays(run, levels, multiplier):
    for n in levels:
        for i, L, depth in _level_rows(n):
            _check_pairing(run, n, multiplier(n), i, L, depth)


def test_pairing_arrays_count_one_check_per_row_entry():
    for n in range(5, 21):
        pairs = sum(k_max for _, k_max in rows_below_half_fib(n))
        got = _outcome(lambda run: _pairing_arrays(run, [n], lambda n: fib(n - 1)))
        assert got == (pairs, None), n


def test_pairing_arrays_report_the_scalar_loops_first_failure():
    levels = range(5, 21)
    for multiplier in (
        lambda n: fib(n - 1),
        # F_{n-2} = -F_{n-1} mod F_n: the reflection absorbs it, and both pass
        lambda n: fib(n - 2),
        lambda n: fib(n - 1) + 1,
        # wrong at one level only: the levels before it count in full
        lambda n: fib(n - 1) + (n == 13),
    ):
        want = _outcome(lambda run: _pairing_scalar(run, levels, multiplier))
        assert _outcome(lambda run: _pairing_arrays(run, levels, multiplier)) == want


def _pairing_scalar_on(run, n, i, L, depth):
    """_check_pairing at multiplier F_{n-1}, one entry at a time on
    Python ints."""
    fn, fn1 = fib(n), fib(n - 1)
    for i, L in zip(i.tolist(), L.tolist()):
        prev, cur = L, L + i - 1
        for k in range(1, depth + 1):
            res = cur * fn1 % fn
            wd = fib(n - k - 1) * L - fib(n - k) * (i - 1)
            run.ok(wd == res or wd == fn - res,
                   "pairing fails at level %d row %d depth %d", n, i, k)
            prev, cur = cur, prev + cur


def test_pairing_arrays_find_a_bad_row_inside_a_group():
    # floor(phi*i) one or two too small on one row takes some of its dual
    # entries out of [0, F_n]: the first bad entry can then sit inside an
    # equal-depth run, whose entries are checked in (i, k) order
    inside = 0
    for n, step in ((12, 1), (20, 97)):
        for i, L, depth in _level_rows(n):
            for r in range(0, len(i), step):
                for d in (1, 2):
                    bad = L.copy()
                    bad[r] -= d
                    want = _outcome(lambda run: _pairing_scalar_on(run, n, i, bad, depth))
                    got = _outcome(lambda run: _check_pairing(run, n, fib(n - 1), i, bad, depth))
                    assert got == want, (n, r, d)
                    inside += want[1] is not None and r > 0 and depth > 1
    assert inside > 0
