"""The four workloads: one-time set-up and the fixed task list of a pass.

Each workload is a closed loop with one caller and one thread.  A pass
is a list of operations; each operation calls public fiblat functions
through `Ctx.call`, which times the call from outside (and records a
span when tracing), then checks the results against exact references
or an independent route through the gate.

    constants  C and D at i_max = 1e5, k_max = 64 for three weights, each
               with the level-sum oracle at n = 26
    energies   pair energies at N = F_13..F_16 by two routes, flat and
               row-grouped lattice sums
    exact      every verify suite at its default limit, Dedekind sums
               against their closed forms, RowTable(10**6) against row(i)
    cli        a seeded stream of short commands through CliRunner
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import refs
from gate import Gate, OpAborted

# Miss tolerances, taken from the acceptance module.
REL_TOL = 1e-9      # float results against another route or a stored output
D_ABS_TOL = 2e-3    # D against its reference (printed digits, level-sum oracle)
C_REL_TOL = 1e-4    # truncated C against its closed form


class Ctx:
    """What an operation sees: the package, the gate, the tracer, the rng."""

    def __init__(self, gate: Gate, tracer, rng: random.Random):
        self.gate = gate
        self.tracer = tracer
        self.rng = rng
        self.fb = None
        self.state: dict = {}
        self.extra: dict = {}
        self.call_s = 0.0  # library time inside the current operation

    def span(self, name: str, work: int = 0):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, work)

    def call(self, layer: str, fn, *args, work: int = 0, **kw):
        """Call one library function as one layer; a raise fails the op."""
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kw)
            with self.tracer.span(layer, work):
                return fn(*args, **kw)
        except Exception as exc:  # the op fails, the run goes on
            self.gate.fail(layer, f"{layer} raised {exc!r}")
            raise OpAborted(layer) from exc
        finally:
            self.call_s += time.perf_counter() - t0


def import_fiblat(ctx: Ctx) -> None:
    with ctx.span("setup.import"):
        ctx.fb = importlib.import_module("fiblat")


# ---------------------------------------------------------------------------
# constants

CONST_CASES = ((2.0, "one"), (4.0, "bern:4"), (2.5, "fsigma"))
CONST_I_MAX = 100000
CONST_K_MAX = 64
ORACLE_LEVEL = 26


def setup_constants(ctx: Ctx) -> None:
    import_fiblat(ctx)
    ctx.call("wythoff.row_table", ctx.fb.row_table, CONST_I_MAX)


def _level_sum_closed(fb, sigma: float, spec: str, n: int):
    """Exact normalized level sum where a closed form exists."""
    closed = {(2.0, "one"): fb.sigma2_closed,
              (4.0, "bern:4"): fb.sigma4_closed}.get((sigma, spec))
    if closed is None:
        return None
    return closed(n) / Fraction(fb.fib(n)) ** int(sigma)


def _constants_case(sigma: float, spec: str) -> list:
    label = f"sigma={sigma:g},{spec}"
    memo: dict = {}

    def c_ref(ctx):
        if "c" not in memo:
            with ctx.span("harness.reference"):
                memo["c"] = refs.c_exact(sigma, spec)
        return memo["c"]

    def op_c(ctx):
        fb = ctx.fb
        kern = fb.parse_kernel(spec, sigma=sigma)
        c = ctx.call("asymptotics.constant_C", fb.constant_C, sigma, kern, CONST_I_MAX)
        # the tail bound covers value_mp; the float value rounds it
        ctx.gate.exact("asymptotics.constant_C", f"C[{label}]", refs.to_fraction(c.value_mp),
                       c_ref(ctx), rel=C_REL_TOL, reported=c.tail_bound)

    def op_oracle(ctx):
        fb = ctx.fb
        kern = fb.parse_kernel(spec, sigma=sigma)
        n = ORACLE_LEVEL
        v = ctx.call("energy.fib_sum", fb.fib_sum, n, sigma, kern, work=fb.fib(n) - 1)
        with ctx.span("harness.reference"):
            exact = _level_sum_closed(fb, sigma, spec, n)
        if exact is not None:
            ctx.gate.exact("energy.fib_sum", f"fib_sum[{label},n={n}]", v, exact, rel=REL_TOL)
        memo["oracle"] = Fraction(v) - n * c_ref(ctx)

    def op_d(ctx):
        fb = ctx.fb
        kern = fb.parse_kernel(spec, sigma=sigma)
        layer = f"asymptotics.constant_D.{kern.kind}"
        d = ctx.call(layer, fb.constant_D, sigma, kern, CONST_I_MAX, CONST_K_MAX,
                     work=CONST_I_MAX * 2 * CONST_K_MAX)
        exact = sigma == 2.0 and spec == "one"
        if exact:
            ctx.state["d_one"] = d.value
        ref = refs.D_SIGMA2_ONE if exact else memo.get("oracle")
        if ref is None:
            ctx.gate.fail(layer, f"D[{label}]: no oracle value to check against")
            return
        ctx.gate.exact(layer, f"D[{label}]", d.value, ref, abs_tol=D_ABS_TOL,
                       reported=d.error_estimate, exact_ref=exact)

    return [(f"C[{label}]", op_c), (f"oracle[{label}]", op_oracle), (f"D[{label}]", op_d)]


def ops_constants(ctx: Ctx) -> list:
    return [op for sigma, spec in CONST_CASES for op in _constants_case(sigma, spec)]


def traced_extra_constants(ctx: Ctx, layer_s: dict) -> None:
    """Thread scaling of the D sweep: the 1-thread time of the sigma = 2
    weight-one case from the traced pass over a 2-thread run of it."""
    fb, gate = ctx.fb, ctx.gate
    layer = "asymptotics.constant_D.one.2t"
    gate.begin("D[sigma=2,one] threads=2")
    t0 = time.perf_counter()
    try:
        d2 = ctx.call(layer, fb.constant_D, 2.0, fb.kernel_one(), CONST_I_MAX, CONST_K_MAX,
                      threads=2)
    except OpAborted:
        pass
    else:
        t2 = time.perf_counter() - t0
        ctx.extra["asymptotics.constant_D.scaling_2t"] = (
            layer_s.get("asymptotics.constant_D.one", 0.0) / t2)
        gate.check(layer, d2.value == ctx.state.get("d_one"),
                   f"2-thread D {d2.value!r} != 1-thread D {ctx.state.get('d_one')!r}")
    gate.end()


# ---------------------------------------------------------------------------
# energies

ENERGY_SIGMAS = (2.5, 4.0)
ENERGY_LEVELS = (13, 14, 15, 16)
ENERGY_P = 1.0
FLAT_LEVELS = (30, 31, 32, 33, 34)
GROUPED_LEVELS = (22, 23, 24, 25)


def setup_energies(ctx: Ctx) -> None:
    import_fiblat(ctx)


def _even_energy(fb, two_s: int, N: int, h: int) -> float:
    """Energy from the cotangent (even sigma) coefficient table, summed
    with math.fsum: an independent route for even sigma."""
    c = fb.dft_coeffs_even(two_s, ENERGY_P, N).tolist()
    return float(N) ** 2 * math.fsum(c[m] * c[(h * m) % N] for m in range(N))


def _energy_op(sigma: float, n: int):
    def op(ctx):
        fb = ctx.fb
        N, h = fb.fib(n), fb.fib(n - 1)
        coeffs = ctx.call("kernels.dft_coeffs", fb.dft_coeffs, sigma, ENERGY_P, N, work=N)
        e_dft = ctx.call("energy.energy_dft", fb.energy_dft, coeffs, N, h)
        w = ctx.call("energy.wce_e", fb.wce_e, sigma, ENERGY_P, N, h)
        e_wce = float(N) ** 2 * (1.0 + w)
        ctx.gate.close("energy.wce_e", f"wce vs dft [sigma={sigma:g},N={N}]",
                       e_wce, e_dft, REL_TOL)
        if sigma == int(sigma) and int(sigma) % 2 == 0:
            with ctx.span("harness.reference"):
                ref = Fraction(_even_energy(fb, int(sigma), N, h))
            ctx.gate.exact("energy.energy_dft", f"E_dft[sigma={sigma:g},N={N}]",
                           e_dft, ref, rel=REL_TOL)
            ctx.gate.exact("energy.wce_e", f"E_wce[sigma={sigma:g},N={N}]",
                           e_wce, ref, rel=REL_TOL)

    return f"energy[sigma={sigma:g},n={n}]", op


def _flat_op(n: int):
    def op(ctx):
        fb = ctx.fb
        v = ctx.call("energy.fib_sum", fb.fib_sum, n, 2.0, work=fb.fib(n) - 1)
        with ctx.span("harness.reference"):
            ref = _level_sum_closed(fb, 2.0, "one", n)
        ctx.gate.exact("energy.fib_sum", f"fib_sum[n={n}]", v, ref, rel=REL_TOL)

    return f"fib_sum[n={n}]", op


def _grouped_op(n: int):
    def op(ctx):
        fb = ctx.fb
        g = ctx.call("energy.fib_sum_grouped", fb.fib_sum_grouped, n, 2.0,
                     work=fb.fib(n) - 1)
        flat = ctx.call("energy.fib_sum", fb.fib_sum, n, 2.0, work=fb.fib(n) - 1)
        ctx.gate.close("energy.fib_sum_grouped", f"grouped vs flat [n={n}]", g, flat, REL_TOL)
        with ctx.span("harness.reference"):
            ref = _level_sum_closed(fb, 2.0, "one", n)
        ctx.gate.exact("energy.fib_sum_grouped", f"fib_sum_grouped[n={n}]", g, ref,
                       rel=REL_TOL)

    return f"fib_sum_grouped[n={n}]", op


def ops_energies(ctx: Ctx) -> list:
    ops = [_energy_op(s, n) for s in ENERGY_SIGMAS for n in ENERGY_LEVELS]
    ops += [_flat_op(n) for n in FLAT_LEVELS]
    ops += [_grouped_op(n) for n in GROUPED_LEVELS]
    return ops


# ---------------------------------------------------------------------------
# exact

SUITES = ("wythoff", "dual", "floor", "ineq", "reciprocity", "closedform", "dft",
          "zeta-routes")
DEDEKIND_LEVELS = range(3, 28)
ROWTABLE_SIZE = 10 ** 6
ROW_SAMPLE = 2000
# rows checked in every pass whatever the seed; they alone feed max_rel_err
ROW_FIXED = tuple(range(1, 201)) + tuple(range(ROWTABLE_SIZE - 199, ROWTABLE_SIZE + 1))
ZETA_SIGMAS = (2, 4, 6)
ZETA_ROUTES = ("eta-series", "euler-product-L-times-zeta")
ZETA_TRUNCATION = 2000


def setup_exact(ctx: Ctx) -> None:
    import_fiblat(ctx)


def _suite_op(name: str, expected_checks: int):
    def op(ctx):
        layer = f"verify.{name}"
        r = ctx.call(layer, ctx.fb.run_suite, name)
        ctx.state.setdefault("checks", {})[name] = r.checks
        ctx.gate.check(layer, r.passed, f"suite {name} failed: {r.counterexample}")
        ctx.gate.check(layer, r.checks == expected_checks,
                       f"suite {name} ran {r.checks} checks, expected {expected_checks}")

    return f"verify.{name}", op


def _dedekind_op(n: int):
    def op(ctx):
        fb = ctx.fb
        b, c = fb.fib(n - 1), fb.fib(n)
        layer = "dedekind.gen_dedekind_sum"
        s22 = ctx.call(layer, fb.gen_dedekind_sum, 2, 2, 1, b, c, work=c)
        s13 = ctx.call(layer, fb.gen_dedekind_sum, 1, 3, 1, b, c, work=c)
        with ctx.span("harness.reference"):
            r22, r13 = fb.s22_closed(n), fb.s13_closed(n)
        ctx.gate.check(layer, s22 == r22, f"s22 at n={n}: {s22} != {r22}")
        ctx.gate.check(layer, s13 == r13, f"s13 at n={n}: {s13} != {r13}")

    return f"dedekind[n={n}]", op


def _rowtable_op(ctx: Ctx) -> None:
    fb = ctx.fb
    layer = "wythoff.RowTable"
    tab = ctx.call(layer, fb.RowTable, ROWTABLE_SIZE, work=ROWTABLE_SIZE)
    sample = sorted(set(ctx.rng.sample(range(1, ROWTABLE_SIZE + 1), ROW_SAMPLE)) - set(ROW_FIXED))
    with ctx.span("harness.reference"):
        for fixed, rows in ((True, ROW_FIXED), (False, sample)):
            for i in rows:
                _check_row(ctx, tab, fb.row(i), fixed)


def _check_row(ctx: Ctx, tab, r, fixed: bool) -> None:
    layer = "wythoff.RowTable"
    j = r.i - 1
    got = (int(tab.i[j]), int(tab.floor_phi_i[j]), int(tab.eta[j]), int(tab.mu[j]))
    want = (r.i, r.floor_phi_i, r.eta, r.mu)
    if not ctx.gate.check(layer, got == want, f"row {r.i}: {got} != {want}"):
        return
    # -w_minus = -(a + b phi); both float columns against exact values
    for name, col, a, b in (("w_plus", tab.w_plus, r.w_plus.a, r.w_plus.b),
                            ("w_minus_neg", tab.w_minus_neg, -r.w_minus.a, -r.w_minus.b)):
        label = f"RowTable.{name}[fixed rows]" if fixed else f"RowTable.{name}[i={r.i}]"
        exact = refs.golden_value(a, b)
        v = float(col[j])
        if fixed:
            ctx.gate.exact(layer, label, v, exact, rel=REL_TOL)
        else:
            d = abs(Fraction(v) - exact) / exact
            ctx.gate.check(layer, d <= REL_TOL, f"{label}: {v!r} (rel {float(d):.3e})")


def _zeta_op(ctx: Ctx) -> None:
    fb = ctx.fb
    layer = "asymptotics.dedekind_zeta"
    for sigma in ZETA_SIGMAS:
        with ctx.span("harness.reference"):
            exact = refs.zeta_k_closed(sigma)
        for route in ZETA_ROUTES:
            z = ctx.call(layer, fb.dedekind_zeta, sigma, route, ZETA_TRUNCATION,
                         work=ZETA_TRUNCATION)
            # as for C, the certified error covers value_mp
            ctx.gate.exact(layer, f"zeta_K[{route},sigma={sigma}]",
                           refs.to_fraction(z.value_mp), exact, reported=z.certified_error)


def ops_exact(ctx: Ctx) -> list:
    expected = load_expected()["verify_checks"]
    ops = [_suite_op(name, expected[name]) for name in SUITES]
    ops += [_dedekind_op(n) for n in DEDEKIND_LEVELS]
    ops.append(("RowTable", _rowtable_op))
    ops.append(("dedekind_zeta", _zeta_op))
    return ops


# ---------------------------------------------------------------------------
# cli

CLI_I_MAX = (250, 500, 1000, 2000)
CLI_EXTRA_KERNELS = (("4", "bern:4"), ("6", "bern:6"))


def _constants_args(sigma: str, kernel: str, i_max: int) -> tuple[str, ...]:
    return ("constants", "--sigma", sigma, "--kernel", kernel, "--i-max", str(i_max))


def cli_menu() -> dict[str, list[tuple[str, ...]]]:
    """Every request the cli stream can draw, grouped by command."""
    menu: dict[str, list[tuple[str, ...]]] = {}
    menu["wythoff"] = [
        ("wythoff", "--rows", str(r), "--cols", str(c), *(("--dual",) if dual else ()),
         "--format", fmt)
        for r in (4, 8, 12) for c in (4, 6, 8) for dual in (False, True)
        for fmt in ("csv", "json")
    ]
    menu["closed"] = [
        ("closed", "--family", fam, "--n-min", str(lo), "--n-max", str(hi))
        for fam in ("s22", "s13", "sigma2", "sigma4", "sigma6", "sin4", "cos2sin4")
        for lo, hi in ((3, 12), (10, 25))
    ] + [("closed", "--family", "c", "--sigma", str(s)) for s in (2, 4, 6, 8)]
    # the zeta weight costs ~50x more per term; it stops at n = 12
    menu["sum"] = [
        ("sum", "-n", str(n), "--sigma", sig, "--kernel", kern, "--method", meth)
        for sig, kern, levels in (("2", "one", (8, 12, 16, 20)),
                                  ("4", "bern:4", (8, 12, 16, 20)),
                                  ("2.5", "fsigma", (8, 12)))
        for n in levels for meth in ("flat", "grouped")
    ]
    menu["energy"] = [
        ("energy", "--fib-level", str(n), "--sigma", sig, "--method", meth)
        for n in (5, 7, 9) for sig in ("2", "2.5", "4") for meth in ("dft", "wce")
    ] + [("energy", "--fib-level", "5", "--sigma", sig, "--method", "direct")
         for sig in ("2", "2.5", "4")]
    menu["constants"] = [_constants_args(sig, kern, i)
                         for sig, kern in (("2", "one"), *CLI_EXTRA_KERNELS)
                         for i in CLI_I_MAX]
    menu["fit"] = [("fit", "--sigma", "2", "--n-min", "10", "--n-max", str(hi))
                   for hi in (15, 20, 25)]
    menu["verify"] = [("verify", "--suite", "floor", "--limit", str(n)) for n in (100, 1000, 5000)]
    menu["verify"] += [("verify", "--suite", "reciprocity", "--limit", str(n)) for n in (3, 4, 5)]
    return menu


def cli_requests(rng: random.Random) -> list[tuple[str, ...]]:
    """One pass of the stream, in seeded order: every request of the menu
    once, except that constants runs the constant weight at every i_max
    and, at every i_max again, one of the even weights the seed picks
    (so the seed sets which weight meets which i_max).  The work of a
    pass is then nearly the same for every seed."""
    reqs = [a for cmd, group in cli_menu().items() if cmd != "constants" for a in group]
    reqs += [_constants_args("2", "one", i) for i in CLI_I_MAX]
    reqs += [_constants_args(*rng.choice(CLI_EXTRA_KERNELS), i) for i in CLI_I_MAX]
    rng.shuffle(reqs)
    return reqs


@functools.lru_cache(maxsize=None)
def load_expected() -> dict:
    return json.loads((Path(__file__).resolve().parent / "data" / "expected.json").read_text())


def setup_cli(ctx: Ctx) -> None:
    import_fiblat(ctx)
    with ctx.span("setup.import"):
        from click.testing import CliRunner

        cli = importlib.import_module("fiblat.cli")
    ctx.state["main"] = cli.main
    ctx.state["runner"] = CliRunner()


def _parse(text: str):
    """A command's output as JSON, or as CSV rows split into cells."""
    if text.startswith("{"):
        return json.loads(text)
    return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


def _cell(s: str):
    for kind in (int, float):
        try:
            return kind(s)
        except ValueError:
            pass
    return s


def compare_output(got, want, path: str = "") -> str | None:
    """None when a parsed output matches the stored one: floats to
    REL_TOL, everything else exactly; verify's seconds are ignored."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
        for k in want:
            if k == "seconds":
                continue
            msg = compare_output(got[k], want[k], f"{path}.{k}")
            if msg:
                return msg
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for idx, (g, w) in enumerate(zip(got, want)):
            msg = compare_output(g, w, f"{path}[{idx}]")
            if msg:
                return msg
        return None
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) and (
            got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want)))
        return None if ok else f"{path}: {got!r} != {want!r}"
    return None if got == want and type(got) is type(want) else f"{path}: {got!r} != {want!r}"


BYTE_EXACT = ("wythoff", "closed")


def check_cli_output(gate: Gate, args: tuple[str, ...], exit_code: int, output: str,
                     entry: dict) -> None:
    """The gate's cli check: exit code, stored output, exact references."""
    cmd = args[0]
    layer = f"cli.{cmd}"
    key = " ".join(args)
    if not gate.check(layer, exit_code == entry["exit_code"],
                      f"{key}: exit {exit_code}, expected {entry['exit_code']}"):
        return
    if cmd in BYTE_EXACT:
        gate.check(layer, output == entry["output"], f"{key}: output differs from stored")
        return
    try:
        got = _parse(output)
    except ValueError as exc:
        gate.fail(layer, f"{key}: unparsable output ({exc})")
        return
    msg = compare_output(got, _parse(entry["output"]))
    if not gate.check(layer, msg is None, f"{key}: {msg}"):
        return
    for ref in entry.get("refs", ()):
        value = got[ref["field"]]
        bound = got[ref["bound"]] if ref.get("bound") else None
        gate.exact(layer, f"{key} :: {ref['field']}", float(value), Fraction(ref["exact"]),
                   reported=bound)


def _cli_op(args: tuple[str, ...], entry: dict):
    def op(ctx):
        runner, main = ctx.state["runner"], ctx.state["main"]
        res = ctx.call(f"cli.{args[0]}", runner.invoke, main, list(args))
        check_cli_output(ctx.gate, args, res.exit_code, res.output, entry)

    return " ".join(args), op


def ops_cli(ctx: Ctx) -> list:
    expected = load_expected()["cli"]
    return [_cli_op(args, expected[" ".join(args)]) for args in cli_requests(ctx.rng)]


class Workload(NamedTuple):
    setup: Callable[[Ctx], None]
    ops: Callable[[Ctx], list]
    traced_extra: Callable[[Ctx, dict], None] | None = None
    # a request is one operation (a cli command) or one whole pass (one
    # caller asking for the workload's task list)
    op_is_request: bool = False


WORKLOADS = {
    "constants": Workload(setup_constants, ops_constants, traced_extra_constants),
    "energies": Workload(setup_energies, ops_energies),
    "exact": Workload(setup_exact, ops_exact),
    "cli": Workload(setup_cli, ops_cli, op_is_request=True),
}
