"""Command line front end.

Every subcommand emits either CSV or JSON (``--format``); floats are
printed with %.17g so a round trip through text preserves the double,
and exact rationals are printed as ``numerator/denominator``; exact
integers and rationals print in full at any length (Python's int-to-str
digit cap is lifted while output is formed).  JSON documents carry a
``schema_version`` field.  Two writers form every output: _echo_doc for
a one-row document and _echo_table for a table.  Exit status: 0 on
success, 1 when a verification suite fails, 2 on usage errors.

Every command refuses on one path: a ValueError from the library is a
usage error (_Command), printed with the command's usage line and one
``Error:`` line.  Integer options with a floor are ``click.IntRange``
types, so ``--help`` shows the floor as ``x>=N``.

Options take their values from the command line only.  The D row
sweep and the level sums at n >= 27 run on one worker per CPU in the
process's affinity mask, so ``taskset`` is the one control of where
they run; no output depends on it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

import click

from .asymptotics import PHI, constant_C, constant_C_closed, constant_D, residual_fit
from .dedekind import CLOSED_FAMILIES
from .energy import RationalLattice, energy, fib_sum, fib_sum_grouped
from .golden import fib
from .kernels import KERNEL_GRAMMAR, parse_kernel
from .verify import LIMIT_CAPS, SUITE_NAMES, check_limits, run_suite
from .wythoff import row, wythoff_row_entries

SCHEMA_VERSION = 1

_EPS = 2.0 ** -52


def _f(x) -> str:
    return format(float(x), ".17g")


@contextlib.contextmanager
def _all_digits():
    """Lift Python's int-to-str digit cap (4300 digits by default, where
    the interpreter has one) for the duration, so exact values print in
    full."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _frac(q) -> str:
    with _all_digits():
        return f"{q.numerator}/{q.denominator}"


def _echo_json(doc) -> None:
    with _all_digits():
        click.echo(json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2))


def _echo_csv(header, rows) -> None:
    buf = io.StringIO()
    with _all_digits():
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    click.echo(buf.getvalue(), nl=False)


def _echo_doc(fmt: str, doc, head=None) -> None:
    """{schema_version, **head, **doc} as JSON, or doc as a one-row CSV
    under its keys."""
    if fmt == "json":
        _echo_json({**(head or {}), **doc})
    else:
        _echo_csv(list(doc), [_cells(doc)])


def _cells(row: dict) -> list:
    """A table row's CSV cells: floats in %.17g, booleans in lower case,
    a list spread over cells of its own."""
    out = []
    for v in row.values():
        if isinstance(v, list):
            out += v
        else:
            out.append(_f(v) if isinstance(v, float)
                       else str(v).lower() if isinstance(v, bool) else v)
    return out


def _echo_table(fmt: str, head: dict, rows: list, header=None, key="rows") -> None:
    """rows, dicts with the same keys, as JSON {schema_version, **head, key:
    rows}, or as CSV: header (by default the rows' keys), then the cells
    of each row."""
    if fmt == "json":
        _echo_json({**head, key: rows})
    else:
        _echo_csv(header or list(rows[0]), [_cells(r) for r in rows])


def _format_option(default: str):
    return click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default=default,
        show_default=True, help="output format",
    )


class _Command(click.Command):
    """A command whose library ValueError is a usage error: exit 2, with
    the usage line and one Error: line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


@click.group()
def main():
    """Fibonacci lattice energies, golden-ratio combinatorics and the
    closed forms behind them."""


main.command_class = _Command


# the most digits a wythoff table or a closed-form level range may print,
# about 10 MB of output; a table grows with rows * cols**2 (--rows 1
# --cols 21000 would print 46 MB), a level range with n_max**2
_DIGIT_BUDGET = 10 ** 7


def _past_budget(what: str, advice: str) -> click.UsageError:
    return click.UsageError(
        f"{what} is past the budget of {_DIGIT_BUDGET:.0e} digits; {advice}")


def _table_digits(rows: int, cols: int) -> float:
    """An upper estimate of the digits in a rows x cols table of either
    array: entry j of row i <= rows is below 10 * rows * phi**j, so it
    has at most log10(10 rows) + j log10(phi) + 1 digits."""
    per_row = cols * (math.log10(rows) + 2) + math.log10(PHI) * cols * (cols + 1) / 2
    return rows * per_row


def _closed_digits(family: str, n_min: int, n_max: int) -> float:
    """An upper estimate of the digits `closed` prints for levels
    n_min..n_max of a table family, level numbers included; inf where
    it leaves float64.

    Over the least common denominator D of its coefficients, the
    level-n value is an integer of magnitude below
    D * A * (n + 2) * phi**(k n), A the sum of the coefficients'
    magnitudes and k the top row, over D * F_n**den < D * phi**(den n);
    reducing the fraction only shortens both.  Each integer x >= 1 has
    at most log10(x) + 1 digits."""
    fam = CLOSED_FAMILIES[family]
    coeffs = [*fam.const, *(q for r in fam.rows for q in r[1:])]
    lcd = math.lcm(*(Fraction(q).denominator for q in coeffs))
    mag = sum(abs(Fraction(q)) for q in coeffs)
    slope = (max(r[0] for r in fam.rows) + fam.den) * math.log10(PHI)
    count = n_max - n_min + 1
    try:
        per_level = 2 * math.log10(lcd) + math.log10(mag) + 2 * math.log10(n_max + 2) + 3
        return count * per_level + slope * (n_min + n_max) * count / 2
    except OverflowError:
        return math.inf


@main.command("wythoff")
@click.option("--rows", type=click.IntRange(min=1), default=8, show_default=True,
              help="number of rows to print")
@click.option("--cols", type=click.IntRange(min=1), default=6, show_default=True,
              help="entries per row")
@click.option("--dual", is_flag=True,
              help="dual array; row i starts at slot mu_i + 1")
@_format_option("csv")
def cmd_wythoff(rows, cols, dual, fmt):
    """Print the row array (or its dual) with the row invariants.

    A table past 10**7 digits (about 10 MB) is a usage error."""
    # every entry prints a digit or more, so rows * cols past the budget
    # is refused before the estimate takes floats of rows and cols
    if rows * cols > _DIGIT_BUDGET or _table_digits(rows, cols) > _DIGIT_BUDGET:
        raise _past_budget(f"a {rows} x {cols} table", "ask for fewer rows or columns")
    invariant, prefix = ("mu", "Wd") if dual else ("eta", "W")
    out = []
    for i in range(1, rows + 1):
        r = row(i)
        entries = ([r.dual(r.mu + j) for j in range(1, cols + 1)] if dual
                   else wythoff_row_entries(i, cols))
        out.append({"i": i, invariant: getattr(r, invariant), "entries": entries})
    _echo_table(fmt, {"table": "dual" if dual else "primal"}, out,
                ["i", invariant, *(f"{prefix}{j}" for j in range(1, cols + 1))])


@main.command("sum")
@click.option("--level", "-n", type=int, required=True, help="lattice level n")
@click.option("--sigma", type=float, required=True, help="sine exponent")
@click.option("--kernel", "kernel_spec", default="one", show_default=True,
              help=f"weight: {KERNEL_GRAMMAR}")
@click.option("--method", type=click.Choice(["flat", "grouped"]), default="flat",
              show_default=True, help="plain m-sweep or row-grouped rearrangement")
@click.option("--raw", is_flag=True, help="skip the 1/F_n^sigma normalization")
@_format_option("json")
def cmd_sum(level, sigma, kernel_spec, method, raw, fmt):
    """The level-n lattice sum for one weight and exponent."""
    kernel = parse_kernel(kernel_spec, sigma=sigma)
    normalized = not raw
    if method == "flat":
        value = fib_sum(level, sigma, kernel, normalized=normalized)
    else:
        value = fib_sum_grouped(level, sigma, kernel, normalized=normalized)
    modulus = fib(level)
    cross = None
    if modulus <= 50000:
        other = (fib_sum_grouped if method == "flat" else fib_sum)(
            level, sigma, kernel, normalized=normalized
        )
        cross = abs(value - other)
    terms = max(modulus - 1, 0)
    # pairwise reduction loses at most ~eps per doubling level
    roundoff = _EPS * max(1, math.ceil(math.log2(max(terms, 2)))) * abs(value)
    doc = {
        "level": level,
        "modulus": modulus,
        "sigma": sigma,
        "kernel": kernel.name,
        "method": method,
        "normalized": normalized,
        "terms": terms,
        "value": value,
        "cross_check_diff": cross,
        "roundoff_scale": roundoff,
    }
    _echo_doc(fmt, doc)


@main.command("energy")
@click.option("--points", "-N", type=int, default=None, help="lattice size N")
@click.option("--gen", type=int, default=None, help="generator h, coprime to N")
@click.option("--fib-level", type=int, default=None,
              help="level n shortcut for N = F_n, h = F_{n-1}")
@click.option("--sigma", type=float, required=True, help="potential exponent")
@click.option("--p", type=float, default=1.0, show_default=True,
              help="potential coefficient")
@click.option("--method", type=click.Choice(["direct", "dft", "wce"]),
              default="dft", show_default=True)
@_format_option("json")
def cmd_energy(points, gen, fib_level, sigma, p, method, fmt):
    """Pair energy of a rational lattice under the product potential."""
    if fib_level is not None and (points is not None or gen is not None):
        raise click.UsageError("--fib-level conflicts with --points/--gen")
    if fib_level is not None:
        lat = RationalLattice.fibonacci(fib_level)
    elif points is not None and gen is not None:
        lat = RationalLattice(points, gen)
    else:
        raise click.UsageError("need --points and --gen, or --fib-level")
    rep = energy(lat, sigma, p, method)
    doc = {
        "N": rep.N,
        "h": rep.h,
        "sigma": rep.sigma,
        "p": rep.p,
        "method": rep.method,
        "value": rep.value,
    }
    _echo_doc(fmt, doc)


@main.command("constants")
@click.option("--sigma", type=float, required=True, help="exponent, > 1")
@click.option("--kernel", "kernel_spec", default="one", show_default=True,
              help=f"weight: {KERNEL_GRAMMAR}")
@click.option("--i-max", type=click.IntRange(min=8), default=100000, show_default=True,
              help="rows kept in both series")
@click.option("--k-max", type=click.IntRange(min=2), default=64, show_default=True,
              help="inner terms per row")
@_format_option("json")
def cmd_constants(sigma, kernel_spec, i_max, k_max, fmt):
    """Slope and intercept of the large-level growth law, with the tail
    and rounding bounds produced alongside them."""
    kernel = parse_kernel(kernel_spec, sigma=sigma)
    c = constant_C(sigma, kernel, i_max)
    d = constant_D(sigma, kernel, i_max, k_max)
    doc = {
        "sigma": sigma,
        "kernel": kernel.name,
        "i_max": i_max,
        "k_max": k_max,
        "threads": d.threads,
        "c": c.value,
        "c_tail_bound": c.tail_bound,
        "c_precision_bits": c.prec,
        "d": d.value,
        "d_inner_tail": d.inner_tail,
        "d_outer_tail": d.outer_tail,
        "d_precision_gap": d.precision_gap,
        "d_error_estimate": d.error_estimate,
    }
    if kernel.trig_coeffs is not None:  # f(0) = sum a_j, exactly
        with contextlib.suppress(ValueError):  # no closed form unless sigma is even
            closed = constant_C_closed(sigma, sum(kernel.trig_coeffs))
            doc["c_closed"] = closed.value
            doc["c_closed_coefficient"] = _frac(closed.coefficient)
    _echo_doc(fmt, doc)


@main.command("closed")
@click.option("--family", type=click.Choice([*CLOSED_FAMILIES, "c"]), required=True,
              help="which closed form")
@click.option("--n-min", type=click.IntRange(min=2), default=3, show_default=True)
@click.option("--n-max", type=click.IntRange(min=2), default=20, show_default=True)
@click.option("--sigma", type=int, default=None,
              help="even exponent (family c only)")
@_format_option("csv")
def cmd_closed(family, n_min, n_max, sigma, fmt):
    """Exact rational closed forms, one value per level.

    A level range past 10**7 digits (about 10 MB) is a usage error."""
    if family == "c":
        if sigma is None:
            raise click.UsageError("family c needs --sigma")
        closed = constant_C_closed(sigma)
        _echo_doc(fmt, {"sigma": sigma, "coefficient": _frac(closed.coefficient),
                        "value": closed.value}, {"family": "c"})
        return
    if sigma is not None:
        raise click.UsageError(f"--sigma is for family c only, not {family}")
    if n_max < n_min:
        raise click.UsageError(f"empty level range {n_min}..{n_max}")
    # every level prints a digit or more, so a level count past the budget
    # is refused in integers, as wythoff's table size is
    if (n_max - n_min + 1 > _DIGIT_BUDGET
            or _closed_digits(family, n_min, n_max) > _DIGIT_BUDGET):
        raise _past_budget(f"the level range {n_min}..{n_max} of {family}",
                           "ask for fewer or lower levels")
    fam = CLOSED_FAMILIES[family]
    _echo_table(fmt, {"family": family},
                [{"n": n, "value": _frac(fam.value(n))} for n in range(n_min, n_max + 1)])


@main.command("verify")
@click.option("--suite", "suites", multiple=True, type=click.Choice(SUITE_NAMES),
              help="suite to run (repeatable; default: all)")
@click.option("--limit", type=click.IntRange(min=1), default=None,
              help="override every selected suite's sweep size (the dual "
                   "suite's modular pairing checks levels 5..min(26, limit)); "
                   "capped at " + ", ".join(f"{n} {c}" for n, c in LIMIT_CAPS.items()))
@_format_option("json")
@click.pass_context
def cmd_verify(ctx, suites, limit, fmt):
    """Run identity suites; exit 1 if any check fails.

    A --limit above a selected suite's cap (ten times its default, listed
    under --limit) is refused before any suite runs."""
    names = list(suites) if suites else list(SUITE_NAMES)
    check_limits(names, limit)
    results = [run_suite(n, limit) for n in names]
    ok = all(r.passed for r in results)
    _echo_table(fmt, {"passed": ok}, [
        {**dataclasses.asdict(r),
         "seconds": round(r.seconds, 3) if fmt == "json" else f"{r.seconds:.3f}"}
        for r in results], key="suites")
    if not ok:
        ctx.exit(1)


@main.command("fit")
@click.option("--sigma", type=float, required=True, help="exponent, > 1")
@click.option("--kernel", "kernel_spec", default="one", show_default=True,
              help=f"weight: {KERNEL_GRAMMAR}")
@click.option("--n-min", type=int, default=10, show_default=True)
@click.option("--n-max", type=int, default=25, show_default=True)
@click.option("--i-max", type=click.IntRange(min=8), default=100000, show_default=True)
@click.option("--k-max", type=click.IntRange(min=2), default=64, show_default=True)
@click.option("--c", "c_override", type=float, default=None,
              help="slope to subtract (default: computed)")
@click.option("--d", "d_override", type=float, default=None,
              help="intercept to subtract (default: computed)")
@_format_option("csv")
def cmd_fit(sigma, kernel_spec, n_min, n_max, i_max, k_max, c_override,
            d_override, fmt):
    """Level sums against the fitted growth line; the last column is the
    residual rescaled by the claimed decay rate."""
    kernel = parse_kernel(kernel_spec, sigma=sigma)
    table = residual_fit(sigma, kernel, n_min, n_max, c=c_override,
                         d=d_override, i_max=i_max, k_max=k_max)
    _echo_table(fmt, {"sigma": sigma, "kernel": kernel.name}, [
        {"n": r.n, "sum": r.total, "asymptote": r.asymptote, "residual": r.residual,
         "scaled_residual": r.scaled_residual} for r in table])


if __name__ == "__main__":
    main()
