"""The refusal contract, checked by a property test.

Every CLI command either succeeds (exit 0, with output that parses: JSON
without NaN or Infinity tokens, CSV whose numbers are all finite) or
refuses (exit 2, with one ``Error:`` line).  Never exit 1, never a
traceback, never a non-finite number.  numpy's RuntimeWarnings are
errors here, as in CI.  The public numeric functions are held to the
same contract: they return finite values or raise ValueError.

The draws include the edges: 0, 1, negatives, the documented caps (read
from fiblat._bounds, so that a moved bound moves its draws), huge and
tiny floats, nan, inf, and weights with big coefficients.  They are
derandomized, so every run draws the same cases.  The strategies cap
the cost (the _MAX_* constants below), so the module runs in a few
seconds.  It is skipped where hypothesis is not installed.
"""
import csv
import dataclasses
import io
import itertools
import json
import math
import re
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fiblat
from fiblat._bounds import (
    DIGITS,
    DIRECT_N,
    FIT_LEVEL,
    GROUPED_LEVEL,
    PAIR_SUM,
    PAIR_TABLE,
    ROW_TRUNCATION,
)
from fiblat.asymptotics import constant_C_closed, residual_fit
from fiblat.cli import main
from fiblat.dedekind import CLOSED_FAMILIES, gen_dedekind_sum
from fiblat.energy import RationalLattice, fib_sum, fib_sum_grouped, wce_e
from fiblat.golden import fib, lucas, phi_power
from fiblat.kernels import dft_coeffs, parse_kernel
from fiblat.verify import SUITE_NAMES, run_suite
from fiblat.wythoff import RowTable, _level_rows, row

# cost caps of the draws; a value past a documented cap is drawn only
# where the code refuses it before doing the work
_MAX_I = 2000  # i_max of constants and fit, and rows of the eta sums
_MAX_K = 64  # k_max, inner terms per row of the D sweep
_MAX_SUM_LEVEL = 30  # sum -n (832,039 terms at 30; the flat sum runs to 47)
_MAX_FIT_LEVEL = 22  # fit sums every level from --n-min to --n-max
_MAX_N = 1000  # lattice size of the dft and wce routes
_MAX_DIRECT_N = 40  # direct runs N**2 Python steps (5 s at N = 987)
_MAX_LIMIT = 50  # verify --limit
_MAX_TABLE = 300  # wythoff rows and columns (10**7 digits is the budget)
_MAX_LEVEL_SPAN = 30  # closed: levels per table, up to level 30000
_MAX_C_SIGMA = 1200  # closed --family c (B_1000 takes 0.3 s)
_MAX_EXACT_SIGMA = 12  # energy_exact (3.4 s at 2s = 40)


def _level_past(N):
    """The first level n with F_n > N."""
    return next(n for n in itertools.count() if fib(n) > N)


# the edges at the bounds: one step past each
_SUM_PAST = PAIR_SUM.hi + 1  # 48
_TABLE_PAST = PAIR_TABLE.hi + 1  # 2 * 10**7 + 1, F_37 and up
_DIRECT_PAST = DIRECT_N.hi + 1  # 1001, F_17 and up
_ROWS_MIN = ROW_TRUNCATION.lo  # 8

_EDGE_FLOATS = ("0", "-0.0", "1", "-1", "1e-300", "5e-324", "1e300", "-1e300",
                "1.7976931348623157e308", "1e308", "nan", "inf", "-inf")
_SIGMAS = ("2", "2.5", "3", "4", "6", "8", "1.5", "1.0000001", "40", "171", "1000")
# the weights that take every sigma come first
_KERNELS = ("one", "fsigma", "trig:1,2", "trig:0,0", "trig:9007199254740993",
            "bern:2", "bern:4", "bern:6", "bern:170", "bern:172",
            "bern:3", "bern:0", "bern:-2", "trig:0", "trig:-1",
            "trig:9007199254740993", "trig:" + "9" * 150, "trig:" + "9" * 300,
            "trig:" + "9" * 309, "trig:1.5", "trig:", "sine", "")


# each draw takes a typical value about half the time, so that a command
# with several options still succeeds often enough to check its output
def _floats(*typical):
    """Typical values, the edges and any double, as command-line strings."""
    return st.one_of(st.sampled_from(typical), st.sampled_from(typical),
                     st.sampled_from(_EDGE_FLOATS),
                     st.floats(allow_nan=True, allow_infinity=True).map(repr))


def _ints(lo, hi, *edges):
    """Integers in [lo, hi], and the given edges a third of the time, as
    command-line strings."""
    values = st.integers(lo, hi)
    if edges:
        values = st.one_of(values, values, st.sampled_from(edges))
    return values.map(str)


_SIGMA = _floats(*_SIGMAS)
_KERNEL = st.one_of(st.sampled_from(_KERNELS[:5]), st.sampled_from(_KERNELS))
_FORMAT = st.sampled_from(("csv", "json"))


def _opts(required=(), **options):
    """Command-line options: those named in required always, each other
    one drawn or left out; a flag is drawn as True or False."""
    def build(values):
        args = []
        for name, value in values.items():
            flag = "--" + name.replace("_", "-")
            if value is True:
                args.append(flag)
            elif value not in (None, False):
                args += [flag, value]
        return args
    return st.fixed_dictionaries(
        {name: options[name] for name in required},
        optional={name: s for name, s in options.items() if name not in required},
    ).map(build)


_COMMANDS = st.one_of(
    st.tuples(st.just(["wythoff"]), _opts(
        rows=_ints(-2, _MAX_TABLE, DIGITS.hi, 10 ** 400), cols=_ints(-2, _MAX_TABLE, DIGITS.hi),
        dual=st.booleans(), format=_FORMAT)),
    st.tuples(st.just(["sum"]), _opts(
        ("level", "sigma"), level=_ints(-2, _MAX_SUM_LEVEL, _SUM_PAST, 10 ** 4), sigma=_SIGMA,
        kernel=_KERNEL, method=st.sampled_from(("flat", "grouped")), raw=st.booleans(),
        format=_FORMAT)),
    st.tuples(st.just(["energy"]), st.one_of(
        _opts(("fib_level", "sigma"), fib_level=_ints(-2, 16, _level_past(PAIR_TABLE.hi), 10 ** 4),
              sigma=_SIGMA, p=_floats("2", "-0.5"), method=st.sampled_from(("dft", "wce")),
              format=_FORMAT),
        _opts(("points", "gen", "sigma"), points=_ints(-2, _MAX_N, _TABLE_PAST),
              gen=_ints(-3, _MAX_N, 10 ** 30), sigma=_SIGMA, p=_floats("2", "-0.5"),
              method=st.sampled_from(("dft", "wce")), format=_FORMAT),
        _opts(("sigma", "method"), points=_ints(-2, _MAX_DIRECT_N, _DIRECT_PAST, 10 ** 6),
              gen=_ints(-3, _MAX_DIRECT_N), fib_level=_ints(2, 9, _level_past(DIRECT_N.hi)),
              sigma=_SIGMA, p=_floats("2", "-0.5"), method=st.just("direct"), format=_FORMAT))),
    st.tuples(st.just(["constants"]), _opts(
        ("sigma", "i_max", "k_max"), sigma=_SIGMA, kernel=_KERNEL,
        i_max=_ints(_ROWS_MIN, _MAX_I, -2, _ROWS_MIN - 1, 10 ** 9), k_max=_ints(2, _MAX_K, -1, 1),
        format=_FORMAT)),
    st.tuples(st.just(["closed"]), st.one_of(
        _opts(("family", "sigma"), family=st.just("c"),
              sigma=_ints(-4, _MAX_C_SIGMA, 10 ** 400), format=_FORMAT),
        st.builds(
            lambda fam, lo, span, fmt, sigma: (
                ["--family", fam, "--n-min", str(lo), "--n-max", str(lo + span),
                 "--format", fmt] + (["--sigma", sigma] if sigma else [])),
            st.sampled_from(list(CLOSED_FAMILIES)),
            st.one_of(st.integers(-3, 40), st.integers(4000, 30000),
                      st.sampled_from((-10 ** 400,))),
            st.integers(-3, _MAX_LEVEL_SPAN), _FORMAT,
            st.sampled_from((None, None, None, "4"))))),
    st.tuples(st.just(["verify"]), st.builds(
        lambda suites, limit, fmt: (sum((["--suite", s] for s in suites), [])
                                    + limit + ["--format", fmt]),
        st.lists(st.sampled_from(SUITE_NAMES), min_size=1, max_size=3),
        _opts(("limit",), limit=_ints(-2, _MAX_LIMIT)), _FORMAT)),
    st.tuples(st.just(["fit"]), _opts(
        ("sigma", "n_min", "n_max", "i_max", "k_max"), sigma=_SIGMA, kernel=_KERNEL,
        n_min=_ints(2, _MAX_FIT_LEVEL, -2, 1), n_max=_ints(2, _MAX_FIT_LEVEL, 0, FIT_LEVEL.hi + 1),
        i_max=_ints(_ROWS_MIN, _MAX_I, -2), k_max=_ints(2, _MAX_K, 0), c=_floats("0.5"),
        d=_floats("-1"),
        format=_FORMAT)),
).map(lambda pair: pair[0] + pair[1])


def _reject(token):
    raise AssertionError(f"non-finite JSON token {token}")


def _check_output(args, result):
    """exit 0 with parseable, finite output, or exit 2 with one Error: line;
    and C's closed coefficient, where constants prints it, is
    f(0)**2 times that of closed --family c."""
    if result.exit_code == 2:
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1, (args, result.output)
        return
    assert result.exit_code == 0, (args, result.exit_code, result.output[-2000:],
                                   repr(result.exception))
    if "--format" in args:
        fmt = args[args.index("--format") + 1]
    else:
        fmt = "json" if args[0] in ("sum", "energy", "constants", "verify") else "csv"
    if fmt == "json":
        doc = json.loads(result.output, parse_constant=_reject)
    else:
        lines = list(csv.reader(io.StringIO(result.output)))
        for line in lines:
            for cell in line:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (args, cell)
        doc = dict(zip(*lines)) if len(lines) == 2 else {}
    if args[0] == "constants" and "c_closed_coefficient" in doc:
        option = dict(zip(args[1::2], args[2::2]))
        sigma = float(option["--sigma"])
        f0 = sum(parse_kernel(option.get("--kernel", "one"), sigma=sigma).trig_coeffs)
        want = f0 * f0 * constant_C_closed(sigma).coefficient
        assert Fraction(doc["c_closed_coefficient"]) == want, (args, doc)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(args=_COMMANDS)
# found by this test or by hand: each exited 1, printed a non-finite
# number or a wrong exact value
@example(["fit", "--sigma", "2", "--n-min", "5", "--n-max", "5", "--c", "1e308", "--d", "1e308"])
@example(["fit", "--sigma", "2", "--n-min", "5", "--n-max", "5", "--c", "1e308", "--d", "1e308",
          "--format", "json"])
@example(["fit", "--sigma", "1e308", "--n-min", "5", "--n-max", "6", "--i-max", "100",
          "--k-max", "4"])
@example(["constants", "--sigma", "2", "--kernel", "trig:9007199254740993", "--i-max", "100",
          "--k-max", "4"])
@example(["constants", "--sigma", "2", "--kernel", "trig:9007199254740993", "--i-max", "100",
          "--k-max", "4", "--format", "csv"])
@example(["constants", "--sigma", "4", "--kernel", "bern:170", "--i-max", "100", "--k-max", "4"])
@example(["closed", "--family", "c", "--sigma", str(10 ** 400)])
@example(["sum", "--method", "grouped", "--level", str(10 ** 4), "--raw", "--sigma", "2"])
@example(["energy", "--fib-level", str(10 ** 4), "--sigma", "171", "--method", "wce"])
# an index past the golden layer's 2**26 once ran out of stack
@example(["sum", "--method", "grouped", "--level", str(10 ** 400), "--sigma", "2"])
@example(["energy", "--fib-level", str(10 ** 400), "--sigma", "2"])
# past every suite's cap: refused before any suite runs, or ignored (dft)
@example(["verify", "--limit", str(10 ** 9)])
@example(["verify", "--suite", "dft", "--suite", "closedform", "--limit", str(10 ** 9)])
@example(["verify", "--suite", "dft", "--limit", str(10 ** 9)])
@example(["verify", "--suite", "zeta-routes", "--limit", str(10 ** 9)])
# C's tail formed i_max**(1 - sigma) before the size check: exit 1, OverflowError
@example(["constants", "--sigma", "2", "--i-max", str(10 ** 400)])
@example(["fit", "--sigma", "2.5", "--kernel", "fsigma", "--i-max", str(10 ** 400)])
def test_every_command_succeeds_cleanly_or_is_a_usage_error(args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, args)
    _check_output(args, result)


def _finite(value) -> bool:
    """Every number inside value (dataclasses, sequences, arrays) is finite."""
    if isinstance(value, (bool, int, Fraction, str)) or value is None:
        return True
    if isinstance(value, (float, np.floating, np.complexfloating, complex)):
        return bool(np.isfinite(value))
    if isinstance(value, np.ndarray):
        return bool(np.all(np.isfinite(value)))
    if isinstance(value, (mpmath.mpf, mpmath.mpc)):
        return bool(mpmath.isfinite(value))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    raise TypeError(f"unchecked result type {type(value).__name__}")


_NUM = st.one_of(st.sampled_from((0.5, 1.0, -1.0, 2.0, 0.3)),
                 st.sampled_from((0.0, 1e-300, 1e300, 1.7976931348623157e308, -1e300,
                                  math.nan, math.inf, -math.inf)),
                 st.floats(allow_nan=True, allow_infinity=True))
_PY_SIGMA = st.one_of(st.sampled_from((2, 2.5, 3.0, 4, 6.0, 1.5, 40.0)),
                      st.sampled_from((2, 2.5, 3.0, 4, 6.0, 1.5, 40.0)), _NUM)
_LATTICE = st.sampled_from(((1, 0), (5, 3), (13, 8), (89, 55), (100, 7)))


# the arguments each public numeric function is drawn with (see _call)
_CALLS = {
    "zeta": st.tuples(_PY_SIGMA),
    "prefactor": st.tuples(_PY_SIGMA, _NUM),
    "constant_C": st.tuples(_PY_SIGMA, _KERNEL, st.integers(-1, _MAX_I)),
    "constant_D": st.tuples(_PY_SIGMA, _KERNEL, st.integers(-1, _MAX_I),
                            st.integers(-1, 16)),
    "constant_C_closed": st.tuples(_PY_SIGMA, st.one_of(st.integers(-10 ** 200, 10 ** 200), _NUM)),
    "dedekind_zeta": st.tuples(_PY_SIGMA, st.sampled_from(fiblat.ZETA_ROUTES),
                               st.integers(-1, _MAX_I)),
    "dft_coeffs": st.tuples(_PY_SIGMA, _NUM, st.integers(-1, _MAX_N)),
    "dft_coeffs_even": st.tuples(st.one_of(st.integers(-2, 200), _NUM), _NUM,
                                 st.integers(-1, _MAX_N)),
    "energy": st.tuples(_LATTICE, _PY_SIGMA, _NUM, st.sampled_from(("direct", "dft", "wce"))),
    "wce_e": st.tuples(_PY_SIGMA, _NUM, _LATTICE),
    "energy_exact": st.tuples(st.one_of(st.integers(-2, _MAX_EXACT_SIGMA), _NUM),
                              st.one_of(st.integers(-10 ** 200, 10 ** 200), _NUM), _LATTICE),
    "fib_sum": st.tuples(st.integers(-1, _MAX_SUM_LEVEL - 6), _PY_SIGMA, _KERNEL,
                         st.booleans()),
    "fib_sum_grouped": st.tuples(st.integers(-1, _MAX_SUM_LEVEL - 6), _PY_SIGMA, _KERNEL,
                                 st.booleans()),
    "potential_K": st.tuples(_PY_SIGMA, _NUM, _NUM),
    "residual_fit": st.tuples(_PY_SIGMA, _KERNEL, st.integers(-1, 16), st.integers(-1, 16),
                              _NUM, _NUM),
    "approximation_errors": st.tuples(st.integers(-1, 50), st.integers(-1, 30),
                                      st.integers(-1, 30), _PY_SIGMA, _KERNEL),
}


def _call(name, args):
    """fiblat.<name> on the drawn arguments, with kernel specs parsed."""
    f = getattr(fiblat, name)
    if name == "constant_C":
        sigma, spec, i_max = args
        return f(sigma, parse_kernel(spec, sigma=sigma), i_max)
    if name == "constant_D":
        sigma, spec, i_max, k_max = args
        return f(sigma, parse_kernel(spec, sigma=sigma), i_max, k_max)
    if name == "energy":
        (N, h), sigma, p, method = args
        if method == "direct" and N > _MAX_DIRECT_N:
            method = "dft"
        return f(RationalLattice(N, h), sigma, p, method)
    if name in ("wce_e", "energy_exact"):
        *head, (N, h) = args
        return f(*head, N, h)
    if name in ("fib_sum", "fib_sum_grouped"):
        n, sigma, spec, normalized = args
        return f(n, sigma, parse_kernel(spec, sigma=sigma), normalized=normalized)
    if name == "residual_fit":
        sigma, spec, n_min, n_max, c, d = args
        return f(sigma, parse_kernel(spec, sigma=sigma), n_min, n_max, c=c, d=d,
                 i_max=200, k_max=8)
    if name == "approximation_errors":
        *head, spec = args
        return f(*head, parse_kernel(spec, sigma=head[-1]))
    return f(*args)


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(sorted(_CALLS)).flatmap(
    lambda name: st.tuples(st.just(name), _CALLS[name])))
@example(("prefactor", (-1e17, 1.0)))
@example(("constant_C_closed", (6.0, 1.25e222)))
@example(("constant_C_closed", (40.0, -math.inf)))
@example(("dft_coeffs", (2, 1.7976931348623157e308, 23)))
@example(("potential_K", (2.5, 1.0, -6.8e-56)))
@example(("potential_K", (1000.0, 1000.0, 1000.0)))
@example(("approximation_errors", (5, 29, 5, 6.0, "bern:170")))
@example(("fib_sum_grouped", (9, 1e-180, "bern:170", False)))
@example(("fib_sum_grouped", (10 ** 400, 2.0, "one", True)))
@example(("fib", (10 ** 400,)))
@example(("lucas", (10 ** 400,)))
@example(("phi_power", (10 ** 400,)))
@example(("phi_power", (-10 ** 400,)))
@example(("constant_C", (2.0, "one", 10 ** 400)))
def test_every_numeric_function_returns_finite_values_or_refuses(case):
    name, args = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            value = _call(name, args)
        except ValueError:
            return
    assert _finite(value), (name, args, value)


# past Python's int-to-str limit (4300 digits) a refusal that printed its
# argument raised that limit's ValueError instead; each names its bound
# and gives the argument by its size
_HUGE = 10 ** 5000
_HUGE_CASES = {
    "fib": (lambda: fib(_HUGE), "below 2\\*\\*26"),
    "lucas": (lambda: lucas(_HUGE), "below 2\\*\\*26"),
    "phi_power": (lambda: phi_power(_HUGE), "below 2\\*\\*26"),
    "phi_power_negative": (lambda: phi_power(-_HUGE), "below 2\\*\\*26"),
    "_level_rows": (lambda: _level_rows(_HUGE), f"< {GROUPED_LEVEL.hi + 1}"),
    "fib_sum": (lambda: fib_sum(_HUGE, 2.0), f"< {_SUM_PAST}"),
    "fib_sum_grouped": (lambda: fib_sum_grouped(_HUGE, 2.0), f"< {GROUPED_LEVEL.hi + 1}"),
    "wce_e": (lambda: wce_e(2.0, 1.0, _HUGE, 1), "< F_48"),
    "RationalLattice.fibonacci": (lambda: RationalLattice.fibonacci(_HUGE), "below 2\\*\\*26"),
    "run_suite": (lambda: run_suite("wythoff", _HUGE), "capped at limit"),
    "residual_fit": (lambda: residual_fit(2.0, None, 5, _HUGE), f"level cap is {FIT_LEVEL.hi}"),
    "row": (lambda: row(-_HUGE), ">= 1"),
    "RowTable": (lambda: RowTable(_HUGE), "< 2\\*\\*27"),
    "dft_coeffs": (lambda: dft_coeffs(2.0, 1.0, _HUGE), f"capped at N = {PAIR_TABLE.hi}"),
    "gen_dedekind_sum": (lambda: gen_dedekind_sum(2, 2, 1, 1, -_HUGE), ">= 1"),
}


@pytest.mark.parametrize("name", sorted(_HUGE_CASES))
def test_huge_integers_are_refused_by_their_bound(name):
    call, bound = _HUGE_CASES[name]
    with pytest.raises(ValueError, match=bound) as info:
        call()
    assert re.search(r"got (N = )?an integer near -?10\*\*5000", str(info.value)), info.value
