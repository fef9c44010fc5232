"""Tests of the benchmark itself: the gate counts what it should.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import refs  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from gate import Gate  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402


def _ctx(fb=None):
    import random

    import fiblat

    ctx = W.Ctx(Gate(), None, random.Random(0))
    ctx.fb = fb or fiblat
    return ctx


def _run_op(ctx, name, fn):
    ctx.gate.begin(name)
    try:
        fn(ctx)
    except W.OpAborted:
        pass
    return ctx.gate.end()


def test_perturbed_value_is_a_miss_and_the_run_goes_on():
    g = Gate()
    ref = Fraction(1, 3)
    g.begin("bad")
    g.exact("layer.f", "x", float(ref) * (1 + 1e-6), ref, rel=1e-9)
    g.end()
    g.begin("good")
    g.exact("layer.f", "y", float(ref), ref, rel=1e-9)
    g.end()
    assert (g.attempted, g.failed) == (2, 1)
    assert g.layer_failed["layer.f"] == 1
    assert g.max_rel_err == pytest.approx(1e-6, rel=1e-3)


def test_error_above_the_reported_error_is_a_bound_violation():
    g = Gate()
    ref = Fraction(-17, 225)
    g.begin("d")
    g.exact("asymptotics.constant_D.one", "D", float(ref) + 1e-5, ref,
            abs_tol=2e-3, reported=1e-6)
    g.exact("asymptotics.constant_D.one", "D2", float(ref) + 1e-7, ref, reported=1e-6)
    g.exact("asymptotics.constant_D.one", "oracle", float(ref) + 1e-5, ref,
            reported=1e-6, exact_ref=False)
    g.end()
    assert g.failed == 0
    assert list(g.violations) == ["D"]
    assert g.bound_checked == 2


def test_perturbed_library_result_fails_its_operation():
    import fiblat

    fb = types.SimpleNamespace(**{k: getattr(fiblat, k) for k in fiblat.__all__})
    fb.fib_sum = lambda n, sigma, *a, **k: fiblat.fib_sum(n, sigma, *a, **k) * (1 + 1e-7)
    ctx = _ctx(fb)
    name, op = W._flat_op(12)
    assert not _run_op(ctx, name, op)
    assert ctx.gate.layer_failed["energy.fib_sum"] == 1

    def boom(*a, **k):
        raise ValueError("boom")

    fb.fib_sum = boom
    assert not _run_op(ctx, name, op)
    ok_ctx = _ctx()
    assert _run_op(ok_ctx, name, op)
    assert (ctx.gate.attempted, ctx.gate.failed) == (2, 2)


def test_cli_outputs_are_compared_to_the_stored_ones():
    expected = W.load_expected()["cli"]
    g = Gate()

    key = "sum -n 8 --sigma 2 --kernel one --method flat"
    entry = expected[key]
    g.begin(key)
    W.check_cli_output(g, tuple(key.split()), 0, entry["output"], entry)
    assert g.end()
    doc = json.loads(entry["output"])
    doc["value"] *= 1 + 1e-8
    g.begin(key)
    W.check_cli_output(g, tuple(key.split()), 0, json.dumps(doc, indent=2), entry)
    assert not g.end()

    key = "wythoff --rows 4 --cols 4 --format csv"
    entry = expected[key]
    g.begin(key)
    W.check_cli_output(g, tuple(key.split()), 0, entry["output"].replace("7", "8"), entry)
    assert not g.end()
    g.begin(key)
    W.check_cli_output(g, tuple(key.split()), 1, entry["output"], entry)
    assert not g.end()

    key = "verify --suite floor --limit 100"
    entry = expected[key]
    doc = json.loads(entry["output"])
    doc["suites"][0]["seconds"] += 1.0
    g.begin(key)
    W.check_cli_output(g, tuple(key.split()), 0, json.dumps(doc), entry)
    assert g.end()
    doc["suites"][0]["checks"] += 1
    g.begin(key)
    W.check_cli_output(g, tuple(key.split()), 0, json.dumps(doc), entry)
    assert not g.end()
    assert (g.attempted, g.failed) == (6, 4)


def test_every_stream_request_has_a_stored_output():
    import random

    expected = W.load_expected()["cli"]
    menu = [" ".join(a) for reqs in W.cli_menu().values() for a in reqs]
    assert set(menu) == set(expected)
    reqs = W.cli_requests(random.Random(7))
    assert len(reqs) == len(menu) - 4
    assert reqs != W.cli_requests(random.Random(8))


def test_references_agree_with_each_other_and_the_package():
    import fiblat

    for s in (2, 4, 6):
        assert abs(refs.zeta_k(s) - refs.zeta_k_closed(s)) < Fraction(1, 10 ** 35)
    closed = fiblat.constant_C_closed(4, 6)
    assert abs(float(refs.c_exact(4, "bern:4")) - closed.value) <= 1e-15 * closed.value


def test_self_time_excludes_children():
    t = Tracer(0)
    with t.span("outer"):
        with t.span("inner", work=5):
            pass
        with t.span("inner", work=2):
            pass
    tot = layer_totals(t.spans)
    outer = t.spans[0]["end"] - t.spans[0]["start"]
    inner = sum(s["end"] - s["start"] for s in t.spans[1:])
    assert tot["inner"]["calls"] == 2 and tot["inner"]["work"] == 7
    assert tot["outer"]["s"] == pytest.approx(outer - inner)


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
