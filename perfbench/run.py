"""fiblat benchmark: time to an accurate answer on four workloads.

    python3 perfbench/run.py --workload constants --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each pass of a workload runs in a fresh process (worker.py) with
FIBLAT_THREADS and FIBLAT_PRECISION_BITS cleared and one BLAS thread, so
set-up time, memory and the package's caches belong to that pass alone.
Passes run one after another (a closed loop, one caller) until
--seconds have gone by; a pass is never cut, so a run lasts at least one
pass.  Every result is checked against an exact reference or an
independent route; a miss is counted, never fatal.

End-to-end metrics (--trace 0): setup_s is the median over at least
SETUP_SAMPLES fresh processes of importing fiblat plus the workload's
one-time fills; solve_s the median pass time; req_p50_ms and req_p90_ms
nearest-rank percentiles over the run's requests, where a request is one
command on the cli workload and one whole pass on the others (a single
caller asking for the task list); peak_rss_mb the median maximum
resident set of the pass processes; max_rel_err the worst relative error
against an exact reference.  failed_frac and bound_violations are
printed and recorded beside them; they are 0 when all is well.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics from the spans of
the traced ones, with the tracing overhead.  Every run writes its full
record (environment, failures, bound violations, per-case errors) to
perfbench/out/, and a traced run also writes its spans there.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.

Exit codes: 0 done (whatever the gate found), 2 no fiblat source in this
checkout, 3 a pass process failed or timed out.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SUITES, cli_menu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("constants", "energies", "exact", "cli")
SETUP_SAMPLES = 7      # set-up is measured this many times per run, median reported
RUN_BUDGET_S = 170.0   # a run starts no pass that would end after this

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("max_rel_err", "ratio"),
)


def _per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    out = []

    def add(layer, *measures):
        for m in measures:
            unit, better = {"s": ("s", "lower"), "checks": ("count", "higher")}.get(
                m, ("count", "lower"))
            out.append((f"{layer}.{m}", unit, better))

    add("setup.import", "s")
    add("wythoff.row_table", "s", "calls", "misses", "failed")
    add("wythoff.RowTable", "s", "work", "failed")
    add("asymptotics.constant_C", "s", "calls", "failed")
    for kind in ("one", "trig", "fsigma"):
        add(f"asymptotics.constant_D.{kind}", "s", "work")
    out.append(("asymptotics.constant_D.scaling_2t", "ratio", "higher"))
    add("asymptotics.constant_D", "failed")
    add("asymptotics.dedekind_zeta", "s", "calls", "failed")
    add("kernels.dft_coeffs", "s", "work", "failed")
    add("energy.energy_dft", "s", "failed")
    add("energy.wce_e", "s", "failed")
    add("energy.fib_sum", "s", "work", "failed")
    add("energy.fib_sum_grouped", "s", "work", "failed")
    add("dedekind.gen_dedekind_sum", "s", "work", "failed")
    for suite in SUITES:
        add(f"verify.{suite}", "s", "checks", "failed")
    for cmd in cli_menu():
        add(f"cli.{cmd}", "s", "calls", "failed")
    add("harness.reference", "s")
    add("harness.check", "s")
    add("harness", "failed")
    out += [("trace.overhead_s", "s", "lower"), ("trace.solve_s", "s", "lower"),
            ("trace.spans", "count", "lower")]
    return out


PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("FIBLAT_THREADS", "FIBLAT_PRECISION_BITS")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(workload: str, seed: int, pass_id: int, trace: bool, timeout: float,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-id", str(pass_id), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass {pass_id} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {pass_id} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def collect(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Run passes until `seconds` have gone by (at least one of each kind
    needed), then top set-up samples up to SETUP_SAMPLES."""
    start = time.perf_counter()
    passes, longest = [], 0.0

    def elapsed():
        return time.perf_counter() - start

    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(run_worker(workload, seed, len(passes), traced,
                                 RUN_BUDGET_S - elapsed()))
        longest = max(longest, time.perf_counter() - t0)
        kinds = {p["traced"] for p in passes}
        enough = kinds == ({False, True} if trace else {False})
        if enough and (elapsed() >= seconds or elapsed() + longest > RUN_BUDGET_S):
            break
    setups = [p["setup_s"] for p in passes if not p["traced"]]
    while not trace and len(setups) < SETUP_SAMPLES:
        s = run_worker(workload, seed, len(passes) + len(setups), False,
                       RUN_BUDGET_S - elapsed(), setup_only=True)
        setups.append(s["setup_s"])
    return passes, setups


def end_to_end(passes: list, setups: list) -> dict:
    plain = [p for p in passes if not p["traced"]]
    lat = [x for p in plain for x in p["requests_ms"]]
    return {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.median(p["solve_s"] for p in plain),
        "req_p50_ms": statistics.median(lat),
        "req_p90_ms": percentile(lat, 0.9),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        "max_rel_err": max(p["gate"]["max_rel_err"] for p in passes),
    }


def layer_value(name: str, p: dict) -> float:
    """One per-layer metric from one traced pass."""
    layers, failed = p["layers"], p["gate"]["layer_failed"]
    if name in p["extra"]:
        return p["extra"][name]
    if name == "asymptotics.constant_D.scaling_2t":
        return 0.0  # only the constants workload runs the 2-thread sweep
    if name == "wythoff.row_table.calls":
        return sum(p["row_table_cache"].values())
    if name == "wythoff.row_table.misses":
        return p["row_table_cache"]["misses"]
    if name == "harness.check.s":
        return sum(layers.get(k, {}).get("s", 0.0) for k in ("harness.pass", "harness.op"))
    if name == "trace.spans":
        return len(p["spans"])
    layer, measure = name.rsplit(".", 1)
    if measure == "failed":
        return sum(v for k, v in failed.items() if k == layer or k.startswith(layer + "."))
    if measure == "checks":
        return p["verify_checks"].get(layer.split(".", 1)[1], 0)
    return layers.get(layer, {}).get(measure, 0)


def per_layer(passes: list) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for name, _, _ in PER_LAYER:
        if name.startswith("trace.") and name != "trace.spans":
            continue
        out[name] = statistics.median(layer_value(name, p) for p in traced)
    traced_solve = statistics.median(p["solve_s"] for p in traced)
    out["trace.solve_s"] = traced_solve
    out["trace.overhead_s"] = traced_solve - statistics.median(p["solve_s"] for p in plain)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    passes, setups = collect(workload, seed, seconds, trace)
    attempted = sum(p["gate"]["attempted"] for p in passes)
    failed = sum(p["gate"]["failed"] for p in passes)
    violations, rel_errors = {}, {}
    for p in passes:
        violations.update(p["gate"]["violations"])
        for label, r in p["gate"]["rel_errors"].items():
            rel_errors[label] = max(r, rel_errors.get(label, 0.0))
    if trace:
        units = {n: u for n, u, _ in PER_LAYER}
        values = per_layer(passes)
    else:
        units = dict(END_TO_END)
        values = end_to_end(passes, setups)
    plain_ops = sum(len(p["requests_ms"]) for p in passes if not p["traced"])
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": passes[0]["env"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "failed_frac": failed / attempted if attempted else 0.0,
        "bound_violations": len(violations),
        "bound_checked": max(p["gate"]["bound_checked"] for p in passes),
        "violations": violations,
        "failures": [m for p in passes for m in p["gate"]["failures"]][:50],
        "rel_errors": rel_errors,
        "passes": len(passes),
        "setup_samples": setups,
        "requests": plain_ops,
        "p90_samples_beyond": plain_ops - math.ceil(0.9 * plain_ops),
        "solve_s_per_pass": [p["solve_s"] for p in passes],
        "traced_per_pass": [p["traced"] for p in passes],
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        spans = [s for p in passes for s in p["spans"]]
        (OUT / f"{workload}-seed{seed}-spans.json").write_text(json.dumps(spans) + "\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"], "record": record}


def describe(res: dict) -> str:
    rec = res["record"]
    env = rec["env"]
    lines = [f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
             f"passes={rec['passes']} requests={rec['requests']} "
             f"(p90 has {rec['p90_samples_beyond']} samples beyond it)",
             f"#   nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
             f"mpmath={env['mpmath']} longdouble_precision={env['longdouble_precision']}"]
    for k, m in rec["metrics"].items():
        lines.append(f"#   {k:44s} {m['value']:.6g} {m['unit']}")
    lines.append(f"#   failed_frac {rec['failed_frac']:.6g} ({res['failed']}/{res['attempted']})"
                 f"   bound_violations {rec['bound_violations']} of {rec['bound_checked']}")
    for label, (err, rep) in rec["violations"].items():
        lines.append(f"#     violation {label}: actual {err:.3e} > reported {rep:.3e}")
    for msg in rec["failures"][:10]:
        lines.append(f"#     failure {msg}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fiblat" / "__init__.py").is_file():
        print(f"no fiblat source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(describe(results[name]), flush=True)
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    if len(names) == 1:
        res = results[names[0]]
        metrics = res["metrics"]
    else:
        res = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
