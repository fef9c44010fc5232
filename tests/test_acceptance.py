"""Acceptance gate: the eleven headline checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per criterion.  Tolerances and sweep sizes are pinned here and must not
be loosened; module tests cover the same code at finer grain.
"""
import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from click.testing import CliRunner

from fiblat.asymptotics import (
    constant_C,
    constant_C_closed,
    constant_D,
    residual_fit,
)
from fiblat.cli import main
from fiblat.dedekind import (
    CLOSED_FAMILIES,
    apostol_check,
    gen_dedekind_sum,
    hwz_check,
    s13_closed,
    s22_closed,
    sigma2_closed,
    sigma4_closed,
)
from fiblat.energy import RationalLattice, energy, fib_sum
from fiblat.golden import fib
from fiblat.kernels import Trig, kernel_bernoulli_weight, kernel_one
from fiblat.verify import run_suite


def test_criterion_01_exact_22_closed_form():
    t0 = time.perf_counter()
    for n in range(3, 26):
        b, c = fib(n - 1), fib(n)
        assert gen_dedekind_sum(2, 2, 1, b, c) == s22_closed(n), n
    assert time.perf_counter() - t0 < 10.0


def test_criterion_02_exact_13_closed_form_and_parity():
    for n in range(3, 26):
        b, c = fib(n - 1), fib(n)
        s13 = gen_dedekind_sum(1, 3, 1, b, c)
        assert s13_closed(n) == s13, n
        assert gen_dedekind_sum(3, 1, 1, b, c) == (-1) ** n * s13, n


def test_criterion_03_trig_sums_match_closed_forms():
    for n in range(5, 21):
        got = fib_sum(n, 2.0, kernel_one(), normalized=False)
        assert got == pytest.approx(float(sigma2_closed(n)), rel=1e-9), n
    cases = (
        (4.0, kernel_bernoulli_weight(4), sigma4_closed),
        (6.0, kernel_bernoulli_weight(6), CLOSED_FAMILIES["sigma6"].value),
        (4.0, kernel_one(), CLOSED_FAMILIES["sin4"].value),
        (4.0, Trig([0, 1]), CLOSED_FAMILIES["cos2sin4"].value),
    )
    for sigma, kern, closed in cases:
        for n in range(5, 17):
            got = fib_sum(n, sigma, kern, normalized=False)
            assert got == pytest.approx(float(closed(n)), rel=1e-8), (sigma, n)


def test_criterion_04_reciprocity_laws():
    rng = random.Random(20260818)
    pairs = []
    while len(pairs) < 200:
        c = rng.randrange(2, 5001)
        b = rng.randrange(1, c)
        if math.gcd(b, c) == 1:
            pairs.append((b, c))
    pairs += [(fib(n), fib(n + 1)) for n in range(2, 15)]
    for b, c in pairs:
        assert apostol_check(b, c), (b, c)
        assert hwz_check(b, c), (b, c)


C_TABLE = {
    2: Fraction(4, 15),
    4: Fraction(8, 675),
    6: Fraction(1072, 1771875),
    8: Fraction(5776, 186046875),
    10: Fraction(6604016, 4144194140625),
    12: Fraction(25449165152, 311125375107421875),
    14: Fraction(36389877952, 8667064020849609375),
    16: Fraction(1750445666277664, 8122122370538690185546875),
    18: Fraction(9141810707034331408, 826385340590459032928466796875),
}


def test_criterion_05_linear_constant_table():
    for sigma, coeff in C_TABLE.items():
        closed = constant_C_closed(sigma)
        assert closed.coefficient == coeff, sigma
        series = constant_C(float(sigma), i_max=100000)
        with mpmath.workprec(200):
            gap = abs(series.value_mp - closed.value_mp)
        # the 120-bit closed value carries its own rounding
        assert gap <= series.tail_bound + abs(closed.value) * 2.0 ** -110, sigma
        if sigma == 2:
            assert abs(series.value - closed.value) <= 1e-4


def test_criterion_06_printed_constants():
    printed = (
        (2, kernel_one(), 1, 0.119256958, 17 / 225),
        (4, kernel_bernoulli_weight(4), 6, 0.190811134, 0.174222),
        (6, kernel_bernoulli_weight(6), 120, 3.896181633, 0.369674),
    )
    d = {}  # one D sweep per weight: the sweep is deterministic
    for sigma, kern, f0, c_str, d_abs in printed:
        closed = constant_C_closed(sigma, f0)
        assert abs(closed.value - c_str) <= 1e-8, sigma
        d[sigma] = constant_D(float(sigma), kern, 100000, 64).value
        assert abs(abs(d[sigma]) - d_abs) <= 2e-3, sigma
    # signs: quadratic and sextic cases as printed with the series value
    assert d[2] < 0
    assert d[6] > 0
    # the quartic sign is read off an independent oracle: level sums
    # minus the exact slope settle at the intercept
    c4 = constant_C_closed(4, 6).value
    oracle = fib_sum(26, 4.0, kernel_bernoulli_weight(4)) - c4 * 26
    assert abs(oracle - d[4]) <= 2e-3
    assert math.copysign(1.0, oracle) == math.copysign(1.0, d[4])


def test_criterion_07_residual_decay():
    t0 = time.perf_counter()
    rows = residual_fit(2.0, n_min=10, n_max=25)
    res = [abs(r.residual) for r in rows]
    assert all(a > b for a, b in zip(res, res[1:]))
    assert res[10] < 1e-6  # n = 20
    rows25 = residual_fit(2.5, n_min=12, n_max=24, i_max=100000, k_max=64)
    res25 = [abs(r.residual) for r in rows25]
    assert all(a > b for a, b in zip(res25, res25[1:]))
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_energy_route_agreement():
    for n in (5, 6, 7, 8, 9):
        lat = RationalLattice.fibonacci(n)
        for sigma in (2.0, 2.5, 4.0):
            for p in (1.0, 6.0):
                direct = energy(lat, sigma, p, "direct").value
                dft = energy(lat, sigma, p, "dft").value
                wce = energy(lat, sigma, p, "wce").value
                assert dft == pytest.approx(direct, rel=1e-9), (n, sigma, p)
                assert wce == pytest.approx(direct, rel=1e-9), (n, sigma, p)


def test_criterion_09_combinatorial_suites():
    t0 = time.perf_counter()
    wy = run_suite("wythoff", 100000)
    du = run_suite("dual")
    assert wy.passed, wy.counterexample
    assert du.passed, du.counterexample
    assert time.perf_counter() - t0 < 30.0


def test_criterion_10_floor_identity_suites():
    fl = run_suite("floor", 10000)
    iq = run_suite("ineq", 10000)
    assert fl.passed, fl.counterexample
    assert iq.passed, iq.counterexample


PRIMAL_TABLE = (
    "i,eta,W1,W2,W3,W4,W5,W6\n"
    "1,1,1,2,3,5,8,13\n"
    "2,5,4,7,11,18,29,47\n"
    "3,4,6,10,16,26,42,68\n"
    "4,9,9,15,24,39,63,102\n"
    "5,16,12,20,32,52,84,136\n"
    "6,11,14,23,37,60,97,157\n"
    "7,19,17,28,45,73,118,191\n"
    "8,11,19,31,50,81,131,212\n"
)

DUAL_TABLE = (
    "i,mu,Wd1,Wd2,Wd3,Wd4,Wd5,Wd6\n"
    "1,2,1,2,3,5,8,13\n"
    "2,5,7,11,18,29,47,76\n"
    "3,5,4,6,10,16,26,42\n"
    "4,6,9,15,24,39,63,102\n"
    "5,7,20,32,52,84,136,220\n"
    "6,7,12,19,31,50,81,131\n"
    "7,8,27,44,71,115,186,301\n"
)


def test_criterion_11_printed_tables_byte_identical():
    runner = CliRunner()
    got = runner.invoke(main, ["wythoff", "--rows", "8", "--cols", "6"])
    assert got.exit_code == 0 and got.output == PRIMAL_TABLE
    got = runner.invoke(main, ["wythoff", "--dual", "--rows", "7", "--cols", "6"])
    assert got.exit_code == 0 and got.output == DUAL_TABLE
