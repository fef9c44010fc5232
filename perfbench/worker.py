"""One pass of one workload, in a fresh process.

Run by run.py, never by hand: it times the set-up (import of fiblat
plus the workload's one-time fills), then runs the workload's task list
once and prints one JSON line with timings, gate results and, when
tracing, the spans.  With --setup-only it stops after the set-up.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

from gate import Gate, OpAborted
from spans import Tracer, layer_totals
from workloads import WORKLOADS, Ctx

ROOT = Path(__file__).resolve().parent.parent


def environment(fb) -> dict:
    import mpmath
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "longdouble_precision": int(np.finfo(np.longdouble).precision),
        "fiblat": getattr(fb, "__version__", None),
    }


def run_pass(ctx: Ctx, ops: list) -> tuple[float, list[float]]:
    """Run every operation once; returns (pass seconds, per-op ms spent in
    library calls)."""
    gate, latencies = ctx.gate, []
    t0 = time.perf_counter()
    with ctx.span("harness.pass"):
        for name, fn in ops:
            gate.begin(name)
            ctx.call_s = 0.0
            with ctx.span("harness.op"):
                try:
                    fn(ctx)
                except OpAborted:
                    pass
                except Exception as exc:  # a harness fault fails the op, not the run
                    gate.fail("harness", f"check raised {exc!r}")
            gate.end()
            latencies.append(ctx.call_s * 1e3)
    return time.perf_counter() - t0, latencies


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-id", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    tracer = Tracer(args.pass_id) if args.trace else None
    ctx = Ctx(Gate(), tracer, random.Random(args.seed * 1_000_003 + args.pass_id))

    t0 = time.perf_counter()
    wl.setup(ctx)
    setup_s = time.perf_counter() - t0
    where = Path(ctx.fb.__file__).resolve()
    if ROOT / "src" not in where.parents:
        print(f"fiblat imported from {where}, not from this checkout", file=sys.stderr)
        return 3
    out = {"workload": args.workload, "pass": args.pass_id, "traced": bool(args.trace),
           "setup_s": setup_s}
    if not args.setup_only:
        solve_s, latencies = run_pass(ctx, wl.ops(ctx))
        layers = layer_totals(tracer.spans) if tracer else {}
        if tracer and wl.traced_extra:
            wl.traced_extra(ctx, {k: v["s"] for k, v in layers.items()})
        info = ctx.fb.row_table.cache_info()
        out.update({
            "solve_s": solve_s,
            "requests_ms": latencies if wl.op_is_request else [solve_s * 1e3],
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "gate": ctx.gate.summary(),
            "layers": layers,
            "extra": ctx.extra,
            "verify_checks": ctx.state.get("checks", {}),
            "row_table_cache": {"hits": info.hits, "misses": info.misses},
            "env": environment(ctx.fb),
            "spans": tracer.spans if tracer else [],
        })
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
