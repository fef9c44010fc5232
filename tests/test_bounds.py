"""Every input bound of fiblat, probed on both sides.

fiblat._bounds holds each bound once.  For every Bound there, its probe
checks, on each side the bound has:

- the bound's own check takes the limit and refuses one step past it;
- one step past it, each public entry that owns the bound raises
  ValueError with exactly the bound's message, before doing any work
  (the refusal traces under 1 MiB);
- where the CLI reaches the bound, the command exits 2 with one
  ``Error:`` line, the bound's message.

A Bound with no probe, or a probe with no Bound, fails the suite.
"""
import math
import re
import tracemalloc
import warnings
from typing import NamedTuple

import pytest
from click.testing import CliRunner

import fiblat.golden as golden
from fiblat import _bounds
from fiblat._bounds import (
    DEGREE,
    DIGITS,
    DIRECT_N,
    EVEN_EXPONENT,
    FIT_LEVEL,
    GROUPED_LEVEL,
    HURWITZ_SIGMA,
    INDEX,
    K_SERIES,
    LEVEL,
    LIMIT_CAPS,
    MODULUS,
    PAIR_SUM,
    PAIR_SUM_N,
    PAIR_TABLE,
    PHI_POWER,
    ROW_ENTRIES,
    ROW_TABLE,
    ROW_TRUNCATION,
    ROWS_BELOW,
    SCALE,
    SERIES_PREC,
    SUITE_LIMIT,
    Bound,
)
from fiblat.asymptotics import (
    constant_C,
    constant_C_closed,
    constant_D,
    dedekind_zeta,
    residual_fit,
)
from fiblat.cli import main
from fiblat.dedekind import gen_dedekind_sum, s22_closed, sigma2_closed_abstract
from fiblat.energy import (
    RationalLattice,
    energy,
    energy_exact,
    fib_sum,
    fib_sum_grouped,
    wce_e,
)
from fiblat.golden import fib, floor_phi_times, lucas, phi_power
from fiblat.kernels import (
    dft_coeffs,
    dft_coeffs_even,
    even_weight_coeffs,
    kernel_bernoulli_weight,
    potential_K,
)
from fiblat.verify import run_suite
from fiblat.wythoff import RowTable, row_table, rows_below_half_fib, wythoff_row_entries


class Side(NamedTuple):
    """One side of a bound: step is one step past its limit; calls are
    (shown, call) pairs, each call refusing with the message that shows
    shown (step itself where shown is None); cli are commands that
    refuse with the bound's message on that side."""

    bound: Bound
    step: object
    calls: tuple = ()
    cli: tuple = ()


def _scale_sigma(N):
    """The least double sigma with sigma * log10(2 pi N) past 307."""
    sigma = 307 / math.log10(2 * math.pi * N)
    while not sigma * math.log10(2 * math.pi * N) > 307:
        sigma = math.nextafter(sigma, math.inf)
    return sigma


def _k_series_t(sigma):
    """A t in (0, 1/2) at which potential_K(sigma, 1, t) needs just over
    2**22 cosine terms: the largest double t past the cap."""
    head = min(2 / (2 * math.pi) ** sigma, 1.0) / 1e-13

    def terms(t):
        return (head / math.sin(math.pi * t)) ** (1 / sigma)
    t = math.asin(head / K_SERIES.hi ** sigma) / math.pi
    while not terms(t) > K_SERIES.hi:
        t = math.nextafter(t, 0)
    return t


def _series_prec_sigma(n_top):
    """The least double sigma whose eta sum to n_top needs more than
    2**16 bits: (sigma - 1) log2(n_top) + 30 past the cap."""
    sigma = 1 + (SERIES_PREC.hi - 30) / math.log2(n_top)
    while not (sigma - 1) * math.log2(n_top) + 30 > SERIES_PREC.hi:
        sigma = math.nextafter(sigma, math.inf)
    return sigma


F48 = PAIR_SUM_N.hi + 1
SCALE_SIGMA = _scale_sigma(5)
K_T = _k_series_t(2.5)
PREC_SIGMA = _series_prec_sigma(8)
TABLE_PAST = ROW_TABLE.hi + 1
I = 2 ** 26  # INDEX.hi + 1


PROBES = {
    "INDEX": [Side(INDEX, I, ((None, lambda: fib(I)), (None, lambda: lucas(I)),
                              (None, lambda: RationalLattice.fibonacci(I))),
                   (["energy", "--fib-level", str(I), "--sigma", "2"],))],
    # both signs, one and two steps past; the checks near 2**26 form no F
    "PHI_POWER": [Side(PHI_POWER, I, tuple(
        ((n,), lambda n=n: phi_power(n)) for n in (I, -I, I + 1, -I - 1)))],
    "DEGREE": [Side(DEGREE, 65, (((33, 32), lambda: gen_dedekind_sum(33, 32, 1, 2, 3)),
                                 ((0, 65), lambda: gen_dedekind_sum(0, 65, 1, 1, 1)),
                                 ((34, 34), lambda: energy_exact(34, 1, 5, 3))))],
    "MODULUS": [Side(MODULUS, 0, ((None, lambda: gen_dedekind_sum(2, 2, 1, 1, 0)),
                                  (None, lambda: RationalLattice(0, 1)),
                                  (None, lambda: wce_e(2.0, 1.0, 0, 1)),
                                  (None, lambda: energy_exact(2, 1, 0, 1)),
                                  (None, lambda: dft_coeffs(2.0, 1.0, 0)),
                                  (None, lambda: dft_coeffs_even(2, 1.0, 0))),
                     (["energy", "-N", "0", "--gen", "1", "--sigma", "2"],))],
    "LEVEL": [Side(LEVEL, 1, ((None, lambda: RationalLattice.fibonacci(1)),
                              (None, lambda: fib_sum(1, 2.0)),
                              (None, lambda: fib_sum_grouped(1, 2.0)),
                              (None, lambda: s22_closed(1)),
                              (None, lambda: sigma2_closed_abstract(1))),
                   (["sum", "-n", "1", "--sigma", "2"],
                    ["energy", "--fib-level", "1", "--sigma", "2"]))],
    "DIRECT_N": [Side(DIRECT_N, 1001, (
        (None, lambda: energy(RationalLattice(1001, 1), 2.0, 1.0, "direct")),),
        (["energy", "-N", "1001", "--gen", "1", "--sigma", "2", "--method", "direct"],))],
    "PAIR_SUM": [Side(PAIR_SUM, 48, ((None, lambda: fib_sum(48, 2.0)),),
                      (["sum", "-n", "48", "--sigma", "2"],))],
    "PAIR_SUM_N": [Side(PAIR_SUM_N, F48, ((None, lambda: wce_e(2.0, 1.0, F48, 1)),
                                          (None, lambda: energy(RationalLattice(F48, 1), 2.0,
                                                                1.0, "wce"))),
                        (["energy", "-N", str(F48), "--gen", "1", "--sigma", "2",
                          "--method", "wce"],))],
    "ROW_TABLE": [Side(ROW_TABLE, -1, ((None, lambda: RowTable(-1)),)),
                  Side(ROW_TABLE, TABLE_PAST, ((None, lambda: RowTable(TABLE_PAST)),
                                               (None, lambda: row_table(TABLE_PAST)),
                                               (None, lambda: dedekind_zeta(2.0, "eta-series",
                                                                            TABLE_PAST))))],
    "ROW_TRUNCATION": [
        Side(ROW_TRUNCATION, 7, ((None, lambda: constant_C(2.0, None, 7)),
                                 (None, lambda: constant_D(2.0, None, 7)))),
        Side(ROW_TRUNCATION, TABLE_PAST, ((None, lambda: constant_C(2.0, None, TABLE_PAST)),
                                          (None, lambda: constant_D(2.0, None, TABLE_PAST))),
             (["constants", "--sigma", "2", "--i-max", str(TABLE_PAST)],
              ["fit", "--sigma", "2.5", "--kernel", "fsigma", "--i-max", str(TABLE_PAST)]))],
    "GROUPED_LEVEL": [Side(GROUPED_LEVEL, 0, ((None, lambda: rows_below_half_fib(0)),)),
                      Side(GROUPED_LEVEL, 44, ((None, lambda: fib_sum_grouped(44, 2.0)),
                                               (None, lambda: rows_below_half_fib(44))),
                           (["sum", "-n", "44", "--sigma", "2", "--method", "grouped"],))],
    "ROWS_BELOW": [Side(ROWS_BELOW, 31, ((None, lambda: rows_below_half_fib(31)),))],
    "ROW_ENTRIES": [Side(ROW_ENTRIES, 10001, ((None, lambda: wythoff_row_entries(1, 10001)),))],
    "PAIR_TABLE": [Side(PAIR_TABLE, PAIR_TABLE.hi + 1, (
        (None, lambda: dft_coeffs(2.0, 1.0, PAIR_TABLE.hi + 1)),
        (None, lambda: energy(RationalLattice(PAIR_TABLE.hi + 1, 1), 2.0, 1.0))),
        (["energy", "-N", str(PAIR_TABLE.hi + 1), "--gen", "1", "--sigma", "2"],))],
    # 2001 is one step past; 2002, the next even exponent, is refused as well
    "EVEN_EXPONENT": [
        Side(EVEN_EXPONENT, 1, ((None, lambda: constant_C_closed(1)),
                                (None, lambda: energy_exact(1, 1, 5, 3)))),
        Side(EVEN_EXPONENT, 2001, tuple(((2002,), lambda f=f: f(2002)) for f in (
            constant_C_closed, even_weight_coeffs, kernel_bernoulli_weight,
            lambda s: energy_exact(s, 1, 5, 3), lambda s: dft_coeffs_even(s, 1.0, 5))),
            (["closed", "--family", "c", "--sigma", "2002"],))],
    "K_SERIES": [Side(K_SERIES, math.nextafter(K_SERIES.hi, math.inf), (
        ((math.nextafter(K_SERIES.hi, math.inf), 2.5, K_T), lambda: potential_K(2.5, 1.0, K_T)),),
        (["energy", "--fib-level", "16", "--sigma", "1.01", "--method", "direct"],))],
    "SCALE": [Side(SCALE, math.nextafter(SCALE.hi, math.inf), (
        ((SCALE_SIGMA, 5), lambda: dft_coeffs(SCALE_SIGMA, 1.0, 5)),
        ((SCALE_SIGMA, 5), lambda: wce_e(SCALE_SIGMA, 1.0, 5, 3))),
        (["energy", "-N", "5", "--gen", "3", "--sigma", repr(SCALE_SIGMA)],))],
    "SERIES_PREC": [Side(SERIES_PREC, math.nextafter(SERIES_PREC.hi, math.inf), (
        ((math.nextafter(SERIES_PREC.hi, math.inf), 8),
         lambda: dedekind_zeta(PREC_SIGMA, "eta-series", 8)),))],
    "HURWITZ_SIGMA": [Side(HURWITZ_SIGMA, math.nextafter(HURWITZ_SIGMA.hi, math.inf), (
        (None, lambda: dedekind_zeta(math.nextafter(HURWITZ_SIGMA.hi, math.inf),
                                     "euler-product-L-times-zeta")),))],
    "FIT_LEVEL": [Side(FIT_LEVEL, 33, ((None, lambda: residual_fit(2.0, None, 5, 33)),),
                       (["fit", "--sigma", "2", "--n-max", "33"],))],
    "SUITE_LIMIT": [Side(SUITE_LIMIT, 0, ((None, lambda: run_suite("floor", 0)),)),
                    *(Side(SUITE_LIMIT._replace(hi=cap), cap + 1,
                           (((cap + 1, name), lambda n=name, c=cap: run_suite(n, c + 1)),),
                           (["verify", "--suite", name, "--limit", str(cap + 1)],))
                      for name, cap in LIMIT_CAPS.items())],
    "DIGITS": [Side(DIGITS, DIGITS.hi + 1, (), (
        ["wythoff", "--rows", str(DIGITS.hi + 1), "--cols", "1"],
        ["closed", "--family", "sigma2", "--n-min", "2", "--n-max", str(DIGITS.hi + 2)]))],
}


def test_every_bound_has_exactly_one_probe():
    bounds = {name for name, value in vars(_bounds).items() if isinstance(value, Bound)}
    assert bounds == set(PROBES)


def test_the_derived_limits_are_the_exact_ones():
    # F_48 - 1, and the last row i with floor(phi*i) < 2**27
    assert PAIR_SUM_N.hi == fib(PAIR_SUM.hi + 1) - 1
    assert floor_phi_times(ROW_TABLE.hi) < 2 ** 27 <= floor_phi_times(ROW_TABLE.hi + 1)
    assert ROW_TRUNCATION.hi == ROW_TABLE.hi and PHI_POWER.hi == INDEX.hi


def _refusal(bound, value, *shown):
    with pytest.raises(ValueError) as info:
        bound.check(value, *shown)
    return str(info.value)


def _pattern(bound, side):
    """The message template of a side as a regex, any text in its fields."""
    template = bound.above if side == "hi" else bound.below or bound.above
    parts = re.split(r"\{[^}]*\}", template)
    return ".+".join(map(re.escape, parts))


@pytest.mark.parametrize("name", sorted(PROBES))
def test_each_bound_is_refused_one_step_past_and_by_its_owners(name):
    for bound, step, calls, cli in PROBES[name]:
        above = bound.hi is not None and step > bound.hi
        edge = bound.hi if above else bound.lo
        assert bound.check(edge) == edge
        if isinstance(step, int):
            assert step == edge + (1 if above else -1), name
        else:
            assert step == math.nextafter(edge, math.inf if above else -math.inf), name
        for shown, call in calls:
            want = _refusal(bound, step, *(() if shown is None else shown))
            tracemalloc.start()
            try:
                with pytest.raises(ValueError) as info:
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(info.value) == want, name
            assert peak < 2 ** 20, (name, want, peak)
        for args in cli:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = CliRunner().invoke(main, args)
            errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
            assert result.exit_code == 2 and len(errors) == 1, (args, result.output)
            assert re.fullmatch("Error: " + _pattern(bound, "hi" if above else "lo"),
                                errors[0]), (args, errors)


def test_phi_power_takes_its_documented_range(monkeypatch):
    # |n| = 2**26 - 1 is taken; forming F near 2**26 takes about 45 s,
    # so the Fibonacci pair is stubbed and only the index is checked
    asked = []
    monkeypatch.setattr(golden, "_fib_doubling", lambda k: asked.append(k) or (0, 0))
    phi_power(I - 1)
    phi_power(-(I - 1))
    assert asked == [I - 2, I - 1] and INDEX.check(I - 1) == I - 1
