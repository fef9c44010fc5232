import math
import os
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fiblat import asymptotics
from fiblat.asymptotics import (
    PHI,
    _eta_power_sum,
    _power_sum,
    approximation_errors,
    constant_C,
    constant_C_closed,
    constant_D,
    dedekind_zeta,
    delta_mp,
    delta_star_mp,
    exact_constants,
    prefactor,
    residual_fit,
    ZETA_ROUTES,
)
from fiblat.kernels import FSigma, kernel_bernoulli_weight, kernel_one, parse_kernel
from fiblat.wythoff import row, row_table


def test_prefactor():
    assert prefactor(2.0, 1.0) == pytest.approx(5 / math.pi ** 4, rel=1e-15)
    assert prefactor(4.0, 6.0) == pytest.approx(36 * 25 / math.pi ** 8, rel=1e-15)


def test_prefactor_overflow_is_a_value_error():
    assert prefactor(300.0, 1.0) > 0
    for call in (lambda: prefactor(320.0, 1.0), lambda: constant_C(320.0, i_max=100)):
        with pytest.raises(ValueError, match="overflows float64"):
            call()


def test_offset_series_outside_float64_is_a_value_error():
    # a float64 pass would overflow in pi**(2*sigma), in g**sigma and in
    # the fsigma weight's argument**-sigma, and its result would be no bound on D
    cases = ((320.0, None, 4, "pi\\*\\*\\(2\\*sigma\\)"),
             (200.0, FSigma(200.0), 4, "sqrt5\\)\\*\\*sigma"),
             (25.0, FSigma(25.0), 64, "fsigma weight leaves float64"),
             (2.0, None, 1500, "k_max=1500"))
    for sigma, kernel, k_max, match in cases:
        with pytest.raises(ValueError, match=match):
            constant_D(sigma, kernel, 100, k_max)
    # the eta bound is tight: sigma = 97.8 still sweeps 100 rows
    assert math.isfinite(constant_D(97.8, None, 100, 64).value)
    with pytest.raises(ValueError, match="float64"):
        constant_D(97.9, None, 100, 64)
    # so is the phi**k_max bound: at i_max = 8 it refuses from k_max = 1466,
    # and the float64 pass overflows from 1467
    assert math.isfinite(constant_D(2.0, None, 8, 1465).value)
    with pytest.raises(ValueError, match="k_max=1466"):
        constant_D(2.0, None, 8, 1466)


def test_row_truncation_below_eight_is_a_value_error():
    for i_max in (-5, 0, 1, 7):
        for call in (constant_C, constant_D):
            with pytest.raises(ValueError, match="row truncation too small"):
                call(2.0, None, i_max)
    assert constant_C(2.0, None, 8).i_max == 8


def _oracle_offset(sigma, kernel, i_max, k_max, prec=100):
    """2 * sum_i (delta_mp + delta_star_mp - base_i*(mu_i+1)), row by row
    in mpmath."""
    pref = prefactor(sigma, kernel.value_at_zero)
    acc = mpmath.mpf(0)
    for i in range(1, i_max + 1):
        r = row(i)
        acc += (delta_mp(i, sigma, kernel, k_max=k_max, prec=prec)
                + delta_star_mp(i, sigma, kernel, j_max=k_max, prec=prec)
                - pref * (r.mu + 1) / float(r.eta) ** sigma)
    return 2 * float(acc)


def test_offset_sweep_matches_mp_oracle():
    for sigma, kernel in ((2.0, kernel_one()), (2.5, FSigma(2.5)),
                          (4.0, kernel_bernoulli_weight(4))):
        want = _oracle_offset(sigma, kernel, 12, 32)
        got = constant_D(sigma, kernel, i_max=12, k_max=32)
        assert got.value == pytest.approx(want, rel=1e-12, abs=0)


def test_row_one_is_self_dual():
    # W[1, k] = F_{k+1} and the dual array reproduces the same shifts
    d = delta_mp(1, 2.0, prec=100)
    ds = delta_star_mp(1, 2.0, prec=100)
    assert float(d) == pytest.approx(float(ds), rel=1e-13)


def test_delta_decays_quadratically():
    vals = [abs(float(delta_mp(i, 2.0, prec=64))) for i in range(1, 120)]
    assert max(i * i * v for i, v in enumerate(vals, start=1)) <= 1.0
    # the i**-2 envelope: quadrupling i cuts the term by ~4
    assert vals[79] < 0.2 * vals[19]


def test_offset_series_matches_scalar_reconstruction():
    vec = constant_D(2.0, i_max=50, k_max=32)
    assert vec.value == pytest.approx(_oracle_offset(2.0, kernel_one(), 50, 32), abs=1e-9)
    assert vec.error_estimate > 0


def test_offset_series_thread_invariant():
    # 24600 rows are four chunks of _CHUNK, the last one partial
    fields = ("value", "inner_tail", "outer_tail", "precision_gap")
    for sigma, spec in ((2.0, "one"), (4.0, "bern:4"), (2.5, "fsigma")):
        kernel = parse_kernel(spec, sigma=sigma)
        runs = {t: constant_D(sigma, kernel, i_max=24600, k_max=6, threads=t)
                for t in (1, 2, 3, None)}
        assert [runs[t].threads for t in (1, 2, 3)] == [1, 2, 3]
        want = [getattr(runs[1], f) for f in fields]
        for d in runs.values():  # bit-identical by fixed chunking and reduction order
            assert [getattr(d, f) for f in fields] == want, (spec, d.threads)


def test_default_thread_count_is_the_available_cpus(monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert constant_D(2.0, i_max=24600, k_max=4).threads == min(cpus, 4)
    # one chunk runs inline whatever the request
    assert constant_D(2.0, i_max=2000, k_max=4, threads=8).threads == 1
    # the environment is not read: only threads= moves the count
    monkeypatch.setenv("FIBLAT_THREADS", "3")
    assert constant_D(2.0, i_max=24600, k_max=4).threads == min(cpus, 4)
    assert constant_D(2.0, i_max=24600, k_max=4, threads=2).threads == 2


def test_offset_series_validates_arguments():
    with pytest.raises(ValueError):
        constant_D(2.0, i_max=4)
    with pytest.raises(ValueError):
        constant_D(2.0, k_max=1)
    for threads in (0, -3, 2.5):
        with pytest.raises(ValueError, match="thread count"):
            constant_D(2.0, i_max=64, k_max=4, threads=threads)


@pytest.mark.parametrize("env", ["0", "-3", "abc", "2.5"])
def test_bad_thread_env_is_rejected(env, monkeypatch):
    # FIBLAT_THREADS is no longer read, so no value of it can be
    # rejected; bad threads= values are in test_offset_series_validates_arguments
    monkeypatch.setenv("FIBLAT_THREADS", env)
    assert constant_D(2.0, i_max=64, k_max=4).threads == 1


def test_linear_constant_tail_is_honest():
    for sigma in (2.0, 4.0):
        small = constant_C(sigma, i_max=500)
        big = constant_C(sigma, i_max=8000)
        assert abs(small.value - big.value) <= small.tail_bound
        closed = constant_C_closed(int(sigma))
        assert abs(small.value - closed.value) <= small.tail_bound
        assert small.value > 0
        assert small.value == pytest.approx(float(small.value_mp), rel=1e-15)


def test_precision_bits_is_a_floor():
    # the precision is the one the tail needs; there is no floor to set
    default = constant_C(18.0, i_max=2000)
    assert default.prec == 216
    closed = constant_C_closed(18).value_mp
    assert abs(default.value_mp / closed - 1) < 1e-30
    with pytest.raises(TypeError):
        constant_C(18.0, i_max=2000, prec=300)


def test_c_is_the_eta_series_times_its_prefactor():
    for sigma in (1.5, 2.0, 2.5, 4.0, 18.0):
        for n in (8, 2000):
            c = constant_C(sigma, i_max=n)
            z = dedekind_zeta(sigma, "eta-series", n)
            with mpmath.workprec(c.prec):
                pref = mpmath.power(5, mpmath.mpf(sigma) / 2) / mpmath.pi ** (2 * sigma)
                assert abs(c.value_mp / (2 * pref * z.value_mp) - 1) < mpmath.mpf(2) ** (4 - c.prec)


def test_closed_constant_values_and_ratio():
    c2 = constant_C_closed(2)
    assert c2.coefficient == Fraction(4, 15)
    assert c2.value == pytest.approx(4 / (15 * 5 ** 0.5), rel=1e-14)
    assert constant_C_closed(4).coefficient == Fraction(8, 675)
    # consecutive even exponents approach the ratio 5/pi^4
    tgt = 5 / math.pi ** 4
    r1 = constant_C_closed(10).value / constant_C_closed(8).value
    r2 = constant_C_closed(12).value / constant_C_closed(10).value
    assert r1 == pytest.approx(tgt, rel=1e-4)
    assert r2 == pytest.approx(tgt, rel=1e-5)
    assert abs(r2 - tgt) < abs(r1 - tgt)
    with pytest.raises(ValueError):
        constant_C_closed(3)


def test_quadratic_field_zeta_routes_agree():
    for sigma in (2.0, 2.5, 4.0):
        routes = ZETA_ROUTES if float(sigma).is_integer() else ZETA_ROUTES[:2]
        got = [dedekind_zeta(sigma, rt, truncation=20000) for rt in routes]
        for a in got:
            for b in got:
                assert abs(a.value - b.value) <= a.certified_error + b.certified_error
    closed = dedekind_zeta(2.0, "bernoulli-closed-form")
    assert closed.value == pytest.approx(2 * math.pi ** 4 / (75 * 5 ** 0.5), rel=1e-13)
    series = dedekind_zeta(2.0, "eta-series", truncation=20000)
    assert abs(series.value - closed.value) <= series.certified_error


def _eta_sum_mp(eta, sigma):
    """sum eta**-sigma term by term in mpmath, equal values grouped."""
    vals, counts = np.unique(eta, return_counts=True)
    return mpmath.fsum(int(c) * mpmath.mpf(int(v)) ** -sigma for v, c in zip(vals, counts))


@pytest.mark.parametrize("sigma", [2, 3, 4, 6, 18])
def test_fixed_point_power_sum_against_mpmath(sigma):
    # the eta route's term set at the route's own precision, against a
    # reference 64 bits finer: the integer sum plus its one rounding
    # stays within 2**-prec relative
    for n in (8, 2000, 100000):
        eta = row_table(n).eta
        prec = max(60, int((sigma - 1) * math.log2(n)) + 30)
        with mpmath.workprec(prec):
            got = _power_sum(sigma, *np.unique(eta, return_counts=True))
        with mpmath.workprec(prec + 64):
            want = _eta_sum_mp(eta, sigma)
            assert abs(got - want) <= abs(want) * mpmath.mpf(2) ** -prec, (n, prec)
    # the eta route returns the sum itself
    z = dedekind_zeta(sigma, "eta-series", truncation=2000)
    with mpmath.workprec(max(60, int((sigma - 1) * math.log2(2000)) + 30)):
        assert z.value_mp == _power_sum(sigma, *np.unique(row_table(2000).eta, return_counts=True))


# value_mp (mantissa, exponent) of the per-term mpmath branch at
# truncation 2000; non-integer sigma keeps it bit for bit
_NONINTEGER_ZETA = {
    (1.3, "eta-series"): (566985345994459015, -58),
    (2.5, "eta-series"): (613101074113283155, -59),
}


def test_noninteger_zeta_routes_keep_their_values():
    for (sigma, route), man_exp in _NONINTEGER_ZETA.items():
        z = dedekind_zeta(sigma, route, truncation=2000)
        assert (z.value_mp.man, z.value_mp.exp) == man_exp, (sigma, route)


def test_power_sum_blocks_do_not_move_the_sum(monkeypatch):
    # the arrays become Python ints a block at a time; the integer sum
    # is exact and mpf_sum rounds once, so the block size moves no bit
    eta, count = np.unique(row_table(20000).eta, return_counts=True)
    for sigma in (2, 2.5, 6):
        with mpmath.workprec(90):
            want = _power_sum(sigma, eta, count)
            monkeypatch.setattr(asymptotics, "_POWER_BLOCK", 7)
            got = _power_sum(sigma, eta, count)
            monkeypatch.undo()
        assert (got.man, got.exp) == (want.man, want.exp), sigma


def test_eta_sums_build_no_row_table():
    row_table.cache_clear()
    constant_C(2.0, i_max=2000)
    dedekind_zeta(2.5, "eta-series", 2000)
    assert row_table.cache_info().currsize == 0


def test_eta_sums_past_the_exact_rows_are_a_value_error():
    # 82951118 is the first row with floor(phi*i) >= 2**27, where the
    # array eta column stops being exact; refused before allocating
    for call in (lambda: constant_C(2.0, i_max=82951118),
                 lambda: dedekind_zeta(2.0, "eta-series", 82951118)):
        with pytest.raises(ValueError, match="floor\\(phi\\*i\\) < 2\\*\\*27"):
            call()


def test_eta_power_sum_peak_memory():
    # the int32 eta column, its np.unique and int blocks: no RowTable
    # and no whole lists of Python ints (6.2 MiB with both)
    _eta_power_sum(2.0, 10 ** 5)
    row_table.cache_clear()
    tracemalloc.start()
    try:
        _eta_power_sum(2.0, 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20, peak


def test_constant_c_precision_is_pinned():
    # c_precision_bits of the cli constants requests (i_max 250..2000)
    pinned = {(2.0, "one"): [60, 60, 60, 60],
              (4.0, "bern:4"): [60, 60, 60, 62],
              (6.0, "bern:6"): [69, 74, 79, 84]}
    for (sigma, spec), precs in pinned.items():
        kern = parse_kernel(spec, sigma=sigma)
        assert [constant_C(sigma, kern, i).prec for i in (250, 500, 1000, 2000)] == precs


def test_zeta_route_validation():
    with pytest.raises(ValueError):
        dedekind_zeta(3.0, "bernoulli-closed-form")
    with pytest.raises(ValueError):
        dedekind_zeta(2.5, "bernoulli-closed-form")
    with pytest.raises(ValueError):
        dedekind_zeta(2.0, "riemann")
    with pytest.raises(ValueError):
        dedekind_zeta(1.0)
    # mpmath's Hurwitz values lose their digits at large sigma (at 1e300
    # the route gave 0 for zeta_K = 1); 2**16 itself is fine
    assert dedekind_zeta(2.0 ** 16, "euler-product-L-times-zeta").value == 1.0
    for sigma in (2.0 ** 16 + 1, 1e300):
        with pytest.raises(ValueError, match="lose their digits"):
            dedekind_zeta(sigma, "euler-product-L-times-zeta")


def test_exact_constants():
    ex = exact_constants(2)
    assert ex.c_scaled == Fraction(4, 15)
    assert ex.d == Fraction(-17, 225)
    assert ex.c == pytest.approx(0.11925695879998878, rel=1e-15)
    assert ex.c == pytest.approx(constant_C_closed(2).value, rel=1e-14)


def test_residual_fit_exact_line():
    rows = residual_fit(2.0, n_min=6, n_max=24)
    assert [r.n for r in rows] == list(range(6, 25))
    # residual of the exact line decays like n*phi^(-2n)
    m = max(abs(r.residual) * PHI ** (2 * r.n) / r.n for r in rows)
    assert m <= 0.3
    for r in rows:
        assert r.scaled_residual == pytest.approx(
            r.residual * PHI ** (r.n / 2), rel=1e-12)
        assert r.asymptote == pytest.approx(
            float(Fraction(4, 15)) / 5 ** 0.5 * r.n - 17 / 225, rel=1e-14)
    with pytest.raises(ValueError):
        residual_fit(2.0, n_max=33)
    with pytest.raises(ValueError):
        residual_fit(2.0, n_min=1)
    # the affinity mask alone sets where the sweeps run
    with pytest.raises(TypeError, match="threads"):
        residual_fit(2.0, threads=2)


def test_residual_fit_with_supplied_constants():
    rows = residual_fit(2.0, n_min=8, n_max=14, c=0.5, d=0.0)
    for r in rows:
        assert r.asymptote == 0.5 * r.n
        assert r.residual == r.total - r.asymptote
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="slope c must be finite"):
            residual_fit(2.0, n_min=8, n_max=14, c=bad)
        with pytest.raises(ValueError, match="intercept d must be finite"):
            residual_fit(2.0, n_min=8, n_max=14, d=bad)


def test_two_sided_approximation_errors():
    sup_row = sup_dual = 0.0
    for i in (1, 2, 3, 5, 8, 20, 50):
        mu = row(i).mu
        for n in range(mu + 3, mu + 16):
            for k in range(1, n - mu):
                er, ed = approximation_errors(i, n, k, 2.0)
                sup_row = max(sup_row, er * PHI ** (n - k) * i)
                sup_dual = max(sup_dual, ed * PHI ** k * i)
    assert sup_row <= 1.0
    assert sup_dual <= 1.0
    with pytest.raises(ValueError):
        approximation_errors(1, 10, 9, 2.0)


def test_offset_matches_exact_value_within_reported_error():
    got = constant_D(2.0, i_max=20000, k_max=48)
    want = -17 / 225
    assert abs(got.value - want) <= max(got.error_estimate, 5e-7)


EXACT_FAMILIES = [(2, "one"), (4, "one"), (4, "trig:0,1"), (4, "bern:4"), (6, "bern:6")]


@pytest.mark.parametrize("sigma,weight", EXACT_FAMILIES)
def test_table_constants_match_closed_C_and_bound_series_D(sigma, weight):
    kernel = parse_kernel(weight)
    ex = exact_constants(sigma, kernel)
    f0 = int(kernel.value_at_zero)
    assert ex.c_scaled == constant_C_closed(sigma, f0).coefficient
    d = constant_D(sigma, kernel, 2000, 64)
    assert abs(Fraction(d.value) - ex.d) <= d.error_estimate


def test_exact_constants_cover_only_closed_families():
    assert exact_constants(2.0) == exact_constants(2)
    assert exact_constants(2.5, FSigma(2.5)) is None
    assert exact_constants(4, parse_kernel("trig:1,1")) is None
    assert exact_constants(6, kernel_one()) is None


def test_residual_fit_refuses_rows_past_float64():
    # the asymptote c*n + d overflows; with d alone near the float64 edge
    # the asymptote is finite and the scaled residual is not
    for c, d in ((1e308, 1e308), (0.0, 1.7e308)):
        with pytest.raises(ValueError, match="leaves float64 at level 5"):
            residual_fit(2.0, n_min=5, n_max=5, c=c, d=d)


def test_residual_fit_takes_table_constants_for_bern4():
    ex = exact_constants(4, kernel_bernoulli_weight(4))
    rows = residual_fit(4.0, kernel_bernoulli_weight(4), n_min=8, n_max=12)
    for r in rows:
        assert r.asymptote == ex.c * r.n + float(ex.d)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_constants_reject_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="finite"):
        constant_C(sigma, i_max=100)
    with pytest.raises(ValueError, match="finite"):
        constant_D(sigma, i_max=100)


def test_exact_constants_match_the_weight_not_its_name():
    assert exact_constants(4, parse_kernel("trig:2,4")) == exact_constants(4, kernel_bernoulli_weight(4))
    assert exact_constants(4, parse_kernel("trig:2,4,0")) == exact_constants(4, kernel_bernoulli_weight(4))
    assert exact_constants(2, parse_kernel("trig:1")) == exact_constants(2)
    assert exact_constants(4, parse_kernel("trig:0,1,0")) == exact_constants(4, parse_kernel("trig:0,1"))
    assert exact_constants(6, parse_kernel("trig:16,88,16")) == exact_constants(6, kernel_bernoulli_weight(6))
    assert exact_constants(2, parse_kernel("trig:2")) is None
    assert exact_constants(2, parse_kernel("trig:0")) is None


def test_residual_fit_takes_table_constants_for_trig_spelling_of_bern4():
    ex = exact_constants(4, kernel_bernoulli_weight(4))
    rows = residual_fit(4.0, parse_kernel("trig:2,4"), n_min=8, n_max=12)
    for r in rows:
        assert r.asymptote == ex.c * r.n + float(ex.d)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_dedekind_zeta_rejects_non_finite_sigma(sigma):
    for route in ZETA_ROUTES:
        with pytest.raises(ValueError, match="finite"):
            dedekind_zeta(sigma, route)


def test_constant_D_of_one_is_bit_equal_to_trig_1():
    one = constant_D(2.0, kernel_one(), 3000, 16, threads=1)
    trig1 = constant_D(2.0, parse_kernel("trig:1"), 3000, 16, threads=1)
    for field in ("value", "inner_tail", "outer_tail", "precision_gap", "error_estimate"):
        assert getattr(one, field) == getattr(trig1, field), field


# (value, inner_tail, outer_tail) of the constants requests in the cli
# benchmark's menu (k_max 64) as float.hex, and the precision_gap values
# seen.  The first three come from the extended-precision pass alone.
# precision_gap also takes the double pass, whose np.power at sigma 4
# and 6 rounds differently in numpy's AVX-512 loops and in its baseline
# ones (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"), so it
# has one pinned value per loop.
_D_PINS = {
    (2, "one", 250): ("-0x1.3020293c6a4f0p-4", "0x1.eec4ede2be2c0p-61", "0x1.85856bc8d98b6p-9",
                      ("0x1.3a80000000000p-47",)),
    (2, "one", 500): ("-0x1.328a419fe93fap-4", "0x1.01c74df95f160p-60", "0x1.65dfe765e5345p-10",
                      ("0x1.4f80000000000p-47",)),
    (2, "one", 1000): ("-0x1.33e5f9da03d65p-4", "0x1.0c1be9295f160p-60", "0x1.bf30531ec43e0p-11",
                       ("0x1.6480000000000p-47",)),
    (2, "one", 2000): ("-0x1.349f7f767ba37p-4", "0x1.16ecf6ed5f160p-60", "0x1.a8667be8bf303p-12",
                       ("0x1.7a00000000000p-47",)),
    (4, "bern:4", 250): ("-0x1.64ce9e5c2e1dap-3", "0x1.8d720636b945ap-59", "0x1.0b5d16fb73fc4p-27",
                         ("0x1.c000000000000p-47", "0x1.ea00000000000p-47")),
    (4, "bern:4", 500): ("-0x1.64ce9ec4d1986p-3", "0x1.8d720982ec2b0p-59", "0x1.f0d5c334604cep-31",
                         ("0x1.c000000000000p-47", "0x1.ea00000000000p-47")),
    (4, "bern:4", 1000): ("-0x1.64ce9ed33da8cp-3", "0x1.8d720a56202b3p-59",
                          "0x1.271bf17df9523p-33",
                          ("0x1.c100000000000p-47", "0x1.eb00000000000p-47")),
    (4, "bern:4", 2000): ("-0x1.64ce9ed5261bdp-3", "0x1.8d720a8fa3dc0p-59",
                          "0x1.29e45a2e45d1dp-36",
                          ("0x1.c100000000000p-47", "0x1.eb00000000000p-47")),
    (6, "bern:6", 250): ("0x1.7a8beba8cd88dp-2", "0x1.7a11448684033p-54", "0x1.277e7d357d4a2p-41",
                         ("0x1.ca00000000000p-42", "0x1.ca80000000000p-42")),
    (6, "bern:6", 500): ("0x1.7a8beba8cc8adp-2", "0x1.7a11448684bbep-54", "0x1.04ff04f72f47ep-46",
                         ("0x1.ca00000000000p-42", "0x1.ca80000000000p-42")),
    (6, "bern:6", 1000): ("0x1.7a8beba8cc822p-2", "0x1.7a11448684c7ap-54",
                          "0x1.38cf82173ae9bp-51",
                          ("0x1.ca00000000000p-42", "0x1.ca80000000000p-42")),
    (6, "bern:6", 2000): ("0x1.7a8beba8cc81ep-2", "0x1.7a11448684c87p-54",
                          "0x1.3b1f38aae4745p-56",
                          ("0x1.ca10000000000p-42", "0x1.ca90000000000p-42")),
}


@pytest.mark.skipif(np.finfo(np.longdouble).nmant != 63,
                    reason="the pins are of an 80-bit long double pass")
@pytest.mark.parametrize("case", sorted(_D_PINS))
def test_d_sweep_bits_are_pinned(case):
    sigma, spec, i_max = case
    d = constant_D(float(sigma), parse_kernel(spec), i_max, 64)
    *pins, gaps = _D_PINS[case]
    assert [d.value.hex(), d.inner_tail.hex(), d.outer_tail.hex()] == pins
    assert d.precision_gap.hex() in gaps, d.precision_gap.hex()


def _one_sided_expr(acc, x0, w0, sign, kernel, k_max, sg, f0, base, pi, phi, sqrt5):
    """The row sweep's terms as whole-array expressions: the form
    asymptotics._one_sided works in place."""
    prev_t = last_t = None
    for k in range(1, k_max + 1):
        pk = phi ** k
        x = x0 * (1 / pk)
        sx = sign * x
        w = (w0 * pk + (sx if k % 2 == 0 else -sx)) / sqrt5
        g = pi * w * np.sin(pi * x)
        t = f0 * kernel.eval_many(x) / g ** sg - base
        acc += t
        prev_t, last_t = last_t, t
    return asymptotics._tail_mass(last_t, prev_t)


def _d_chunk_expr(tab, lo, hi, sigma, kernel, k_max, i_max, dtype):
    """asymptotics._d_chunk as whole-array expressions."""
    pi = dtype(asymptotics._PI_STR)
    sqrt5 = np.sqrt(dtype(5))
    phi = (1 + sqrt5) / 2
    sg = dtype(sigma)
    f0 = dtype(kernel.value_at_zero)
    pref = f0 * f0 * dtype(5) ** (sg / 2) / pi ** (2 * sg)
    iv = tab.i[lo:hi]
    idx = iv.astype(dtype)
    L = tab.floor_phi_i[lo:hi].astype(dtype)
    eta = tab.eta[lo:hi].astype(dtype)
    mu = tab.mu[lo:hi]
    wp = (idx - 1) + L * phi
    wmn = (phi - 1) * L - (idx - 1)
    base = pref / eta ** sg
    acc = -(mu.astype(dtype) + 1) * base
    inner = _one_sided_expr(acc, wmn, wp, 1, kernel, k_max, sg, f0, base, pi, phi, sqrt5)
    pmu = np.power(phi, mu)
    smu = np.where(mu % 2 == 0, dtype(1), dtype(-1))
    inner += _one_sided_expr(acc, wp / pmu, wmn * pmu, smu, kernel, k_max, sg, f0, base,
                             pi, phi, sqrt5)
    rabs = np.abs(acc)
    m_hi = float(rabs[2 * iv > i_max].sum())
    m_mid = float(rabs[(4 * iv > i_max) & (2 * iv <= i_max)].sum())
    return acc.sum(), inner, m_hi, m_mid


def _exact(x):
    return type(x), bool(np.signbit(x)), x.as_integer_ratio()


@pytest.mark.parametrize("sigma,spec", [(2.0, "one"), (4.0, "bern:4"), (4.0, "trig:0,1"),
                                        (2.5, "fsigma")])
def test_d_chunk_in_place_is_bit_equal_to_the_expression(sigma, spec):
    # 8193 rows end in a chunk of one row
    kernel = parse_kernel(spec, sigma=sigma)
    for i_max in (8191, 8193):
        tab = row_table(i_max)
        for lo in range(0, i_max, asymptotics._CHUNK):
            hi = min(lo + asymptotics._CHUNK, i_max)
            for dtype in (np.longdouble, np.float64):
                args = (tab, lo, hi, sigma, kernel, 6, i_max, dtype)
                got = asymptotics._d_chunk(*args)
                want = _d_chunk_expr(*args)
                assert list(map(_exact, got)) == list(map(_exact, want)), (i_max, lo, dtype)


def test_d_chunk_peak_memory():
    # one 8192-row chunk per pass, its terms formed in five work arrays
    # (2.9 MiB when each term allocated its own)
    kernel = parse_kernel("bern:4")
    row_table(8192)
    tracemalloc.start()
    try:
        constant_D(4.0, kernel, 8192, 8, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * 2 ** 20, peak
