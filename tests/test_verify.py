import pytest

from fiblat.verify import SUITE_NAMES, SuiteResult, run_suite


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
    d = res.as_dict()
    assert d["suite"] == "floor"
    assert d["passed"] is True
    assert d["checks"] == res.checks
    assert d["limit"] == 25
    assert "seconds" in d


def test_unknown_suite_and_bad_limit():
    with pytest.raises(ValueError):
        run_suite("sine")
    with pytest.raises(ValueError):
        run_suite("floor", 0)


def test_failures_carry_a_counterexample():
    bad = SuiteResult("floor", False, 7, 10, 0.01, "N=3: identity broke")
    assert not bad.passed
    assert "N=3" in bad.counterexample
    assert bad.as_dict()["counterexample"] == "N=3: identity broke"
