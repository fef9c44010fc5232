"""Regenerate data/expected.json from the current tree.

The file holds what the benchmark compares against: every cli request
the stream can draw, with its exit code, its full output and the exact
references of its float fields; and the check count of every verify
suite at its default limit.  Run it only at a commit whose outputs are
accepted as correct:

    PYTHONPATH=src python3 perfbench/make_expected.py
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from click.testing import CliRunner

import fiblat
import refs
from fiblat.cli import main
from workloads import SUITES, _even_energy, _level_sum_closed, cli_menu

OUT = Path(__file__).resolve().parent / "data" / "expected.json"


def _opt(args, flag, default=None):
    return args[args.index(flag) + 1] if flag in args else default


def cli_refs(args) -> list[dict]:
    """Exact references for the float fields of one request's output."""
    cmd = args[0]
    if cmd == "constants":
        sigma, spec = float(_opt(args, "--sigma")), _opt(args, "--kernel", "one")
        out = [{"field": "c", "exact": str(refs.c_exact(sigma, spec)), "bound": "c_tail_bound"}]
        if sigma == 2 and spec == "one":
            out.append({"field": "d", "exact": str(refs.D_SIGMA2_ONE),
                        "bound": "d_error_estimate"})
        return out
    if cmd == "sum":
        sigma, spec = float(_opt(args, "--sigma")), _opt(args, "--kernel", "one")
        exact = _level_sum_closed(fiblat, sigma, spec, int(_opt(args, "-n")))
        return [] if exact is None else [{"field": "value", "exact": str(exact)}]
    if cmd == "energy" and _opt(args, "--sigma") in ("2", "4"):
        n = int(_opt(args, "--fib-level"))
        e = _even_energy(fiblat, int(_opt(args, "--sigma")), fiblat.fib(n), fiblat.fib(n - 1))
        return [{"field": "value", "exact": str(Fraction(e))}]
    return []


def main_() -> None:
    runner = CliRunner()
    cli = {}
    for reqs in cli_menu().values():
        for args in reqs:
            res = runner.invoke(main, list(args))
            cli[" ".join(args)] = {"exit_code": res.exit_code, "output": res.output,
                                   "refs": cli_refs(args)}
    checks = {name: fiblat.run_suite(name).checks for name in SUITES}
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({"cli": cli, "verify_checks": checks}, indent=1,
                              sort_keys=True) + "\n")
    print(f"wrote {len(cli)} cli entries and {len(checks)} suites to {OUT}")


if __name__ == "__main__":
    main_()
