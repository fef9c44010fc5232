import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fiblat.energy import wce_e
from fiblat.kernels import (
    KERNEL_GRAMMAR,
    FSigma,
    Kernel,
    One,
    Trig,
    _hurwitz_pair_table,
    _pair_coeffs,
    bernoulli_number,
    bernoulli_poly,
    cot_power_sums,
    dft_coeff_sum_exact,
    dft_coeffs,
    dft_coeffs_even,
    f_sigma,
    f_sigma_many,
    hurwitz_zeta,
    kernel_bernoulli_weight,
    kernel_fsigma,
    kernel_one,
    kernel_trig,
    parse_kernel,
    potential_K,
    zeta,
)


def test_bernoulli_numbers():
    known = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
             4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
             12: Fraction(-691, 2730)}
    for m, b in known.items():
        assert bernoulli_number(m) == b
    for m in (3, 5, 7, 9, 11):
        assert bernoulli_number(m) == 0


def test_bernoulli_polynomials_exact():
    t = Fraction(1, 5)
    assert bernoulli_poly(2, t) == t * t - t + Fraction(1, 6)
    assert bernoulli_poly(4, Fraction(0)) == bernoulli_number(4)
    # reflection B_m(1 - t) = (-1)^m B_m(t)
    for m in range(1, 9):
        for num in range(0, 6):
            x = Fraction(num, 5)
            assert bernoulli_poly(m, 1 - x) == (-1) ** m * bernoulli_poly(m, x)


def test_hurwitz_zeta_against_mpmath():
    # the offset is taken exactly, and tol far below the value is honored
    third = hurwitz_zeta(2.5, Fraction(1, 3), tol=1e-30)
    with mpmath.workprec(120):
        assert third == float(mpmath.zeta(2.5, mpmath.mpf(1) / 3))
    assert hurwitz_zeta(40.0, 1e-3, tol=1e-13) == pytest.approx(1e120, rel=1e-15)
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 0.5)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0)
    with mpmath.workprec(80):
        for s in (1.5, 2.0, 2.5, 4.0, 6.0):
            for a in (0.05, 0.1, 0.3, 0.5, 0.77, 1.0):
                want = float(mpmath.zeta(s, a))
                assert hurwitz_zeta(s, a, tol=1e-14) == pytest.approx(
                    want, rel=1e-12
                )
        assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)
        assert zeta(3.5) == pytest.approx(float(mpmath.zeta(3.5)), rel=1e-13)


def test_f_sigma_is_symmetric_and_matches_scalar():
    for s in (2.0, 2.5, 4.0):
        for a in (0.1, 0.25, 0.4):
            assert f_sigma(s, a) == pytest.approx(f_sigma(s, 1 - a), rel=1e-12)
    k = kernel_fsigma(2.5)
    xs = np.array([0.1, 0.2, 0.35, 0.5])
    many = k.eval_many(xs)
    for x, v in zip(xs, many):
        assert v == pytest.approx(k.eval(float(x)), rel=1e-10)


def test_eval_many_matches_eval_outside_the_unit_interval():
    # t is a point of the torus: eval_many reduces mod 1 like eval, and the
    # zeta weight takes its limit pi**sigma at t = 0
    t = np.array([0.0, 1.0, 1.3, -0.2])
    for k in (kernel_one(), kernel_fsigma(2.5), kernel_bernoulli_weight(6),
              kernel_trig([0, 1])):
        many = k.eval_many(t)
        assert np.all(np.isfinite(many)), k.name
        for x, v in zip(t, many):
            assert v == pytest.approx(k.eval(float(x)), rel=1e-12), (k.name, x)
        # so does eval_mp, and every family takes f(0) there
        with mpmath.workprec(80):
            for x in t:
                got = k.eval_mp(mpmath.mpf(float(x)))
                assert float(got) == pytest.approx(k.eval(float(x)), rel=1e-12), (k.name, x)
            assert float(k.eval_mp(0)) == pytest.approx(k.value_at_zero, rel=1e-15), k.name
    assert kernel_fsigma(2.5).eval_many(t)[0] == math.pi ** 2.5


def test_eval_many_keeps_the_input_dtype():
    x = np.array([0.05, 0.2, 1 / 3, 0.45, 0.5])
    for k in (kernel_one(), kernel_fsigma(2.5), kernel_bernoulli_weight(4)):
        assert k.eval_many(x).dtype == np.float64
        wide = k.eval_many(x.astype(np.longdouble))
        assert wide.dtype == np.longdouble
        assert np.allclose(wide.astype(np.float64), k.eval_many(x), rtol=1e-14)
    assert kernel_trig([2, 4]).eval_many(np.array([0, 1])).tolist() == [6.0, 6.0]


def _ld_to_mpf(v) -> mpmath.mpf:
    num, den = np.longdouble(v).as_integer_ratio()
    return mpmath.mpf(num) / den


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="long double is not wider than double here")
def test_trig_eval_many_is_accurate_in_extended_precision():
    k = kernel_bernoulli_weight(6)
    x = np.arange(1, 20, dtype=np.longdouble) / np.longdouble(41)
    got = k.eval_many(x)
    with mpmath.workprec(80):
        for xi, gi in zip(x, got):
            want = k.eval_mp(_ld_to_mpf(xi))
            assert abs(_ld_to_mpf(gi) / want - 1) <= 1e-17


def test_kernel_values_at_zero_and_smoothness_class():
    assert kernel_one().value_at_zero == 1.0
    assert kernel_bernoulli_weight(2).coeffs == (1,)
    assert kernel_bernoulli_weight(4).coeffs == (2, 4)
    assert kernel_bernoulli_weight(6).coeffs == (16, 88, 16)
    assert kernel_bernoulli_weight(4).value_at_zero == 6.0
    assert kernel_bernoulli_weight(6).value_at_zero == 120.0
    assert kernel_fsigma(2.5).value_at_zero == pytest.approx(math.pi ** 2.5)
    assert kernel_one().holder_alpha == 1.0
    assert kernel_trig([1, 2]).holder_alpha == 1.0
    assert kernel_fsigma(1.5).holder_alpha == 0.5
    assert kernel_fsigma(4.0).holder_alpha == 1.0


def test_trig_kernel_evaluates_cosine_polynomial():
    k = kernel_trig([2, 4])
    for t in (0.0, 0.1, 0.33, 0.5, 0.91):
        u = math.cos(math.pi * t) ** 2
        assert k.eval(t) == pytest.approx(2 + 4 * u, rel=1e-15)
    with mpmath.workprec(80):
        assert float(k.eval_mp(mpmath.mpf(1) / 3)) == pytest.approx(
            k.eval(1 / 3), rel=1e-13
        )


def test_parse_kernel_grammar():
    assert parse_kernel("one").name == "one"
    assert parse_kernel("bern:6").name == "bern:6"
    assert parse_kernel("trig:2,4").coeffs == (2, 4)
    assert parse_kernel("fsigma", sigma=2.5).sigma == 2.5
    with pytest.raises(ValueError, match="grammar"):
        parse_kernel("nope")
    with pytest.raises(ValueError):
        parse_kernel("fsigma")
    with pytest.raises(ValueError, match="grammar"):
        parse_kernel("trig:a,b")
    assert "one" in KERNEL_GRAMMAR


def test_each_family_is_a_kernel_class():
    for spec, cls, kind in (("one", One, "one"), ("bern:4", Trig, "trig"),
                            ("trig:0,1", Trig, "trig"), ("fsigma", FSigma, "fsigma")):
        k = parse_kernel(spec, sigma=2.5)
        assert type(k) is cls and isinstance(k, Kernel) and k.kind == kind, spec
    # one is trig:1 under its own name, evaluated without arrays
    assert isinstance(kernel_one(), Trig) and kernel_one().coeffs == (1,)
    assert kernel_one().pair(np.full(3, 0.25), np.full(3, 0.5)) == 1.0
    assert kernel_fsigma(2.5).coeffs is None and kernel_one().sigma is None


def test_oversized_weights_are_rejected():
    # sum |a_j| must fit in a float64; bern:2s has f(0) = (2s-1)!, which
    # overflows from bern:172 on
    with pytest.raises(ValueError, match="too large"):
        kernel_trig([1, 10 ** 400])
    with pytest.raises(ValueError, match="too large"):
        kernel_trig([10 ** 308, -(10 ** 308)])
    assert kernel_bernoulli_weight(170).value_at_zero == float(math.factorial(169))
    for two_s in (172, 200, 1990):
        with pytest.raises(ValueError, match="too large"):
            kernel_bernoulli_weight(two_s)


def test_potential_even_exponent_is_exact_bernoulli_path():
    val = potential_K(2, Fraction(1), Fraction(1, 3))
    assert isinstance(val, Fraction)
    assert val == 1 + Fraction(1, 2) * bernoulli_poly(2, Fraction(1, 3))
    # float route approaches the exact one for even sigma
    assert float(val) == pytest.approx(potential_K(2.0, 1.0, 1.0 / 3.0), rel=1e-12)


def test_potential_series_past_its_term_cap_is_refused():
    # near sigma = 1 and t = 0 the cosine series needs ~7e14 terms
    with pytest.raises(ValueError, match="use dft or wce"):
        potential_K(1.01, 1.0, 1 / 987)


def test_potential_series_route_matches_reference():
    # at t = a/q the cosine series collapses to q Hurwitz zeta values:
    # sum_m cos(2 pi m t)/m^sigma = q^-sigma sum_r cos(2 pi r t) zeta(sigma, r/q)
    with mpmath.workprec(80):
        for sigma in (2.5, 3.5):
            for a, q in ((1, 10), (1, 4), (1, 2)):
                t = mpmath.mpf(a) / q
                series = q ** -mpmath.mpf(sigma) * mpmath.fsum(
                    mpmath.cos(2 * mpmath.pi * r * t)
                    * mpmath.zeta(sigma, mpmath.mpf(r) / q)
                    for r in range(1, q + 1)
                )
                want = float(1 + 2 * series / (2 * mpmath.pi) ** sigma)
                assert potential_K(sigma, 1.0, a / q, tol=1e-13) == pytest.approx(
                    want, rel=1e-10
                )


def test_dft_table_inverse_transforms_to_potential():
    for N in (5, 8, 13):
        for sigma, p in ((2.0, 1.0), (2.5, 6.0), (4.0, 1.0)):
            c = dft_coeffs(sigma, p, N)
            for k in (0, 1, N // 2):
                recon = float(
                    np.sum(c * np.cos(2 * np.pi * np.arange(N) * k / N))
                )
                want = float(potential_K(sigma, p, k / N))
                assert recon == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_dft_even_route_matches_quadrature_route():
    for two_s in (2, 4, 6):
        for p in (1.0, 6.0):
            for N in (2, 3, 5, 8, 21):
                a = dft_coeffs(float(two_s), p, N)
                b = dft_coeffs_even(two_s, p, N)
                assert float(np.max(np.abs(a - b))) < 1e-12


def test_hurwitz_pair_table_against_mpmath():
    # a = 1/F_25, 1/2 and 1 - 1/F_25 at 2e-15; at the other offsets the
    # rounding of m/N to a double adds up to sigma * 2**-53
    F25 = 75025
    with mpmath.workdps(40):
        for sigma in (1.01, 1.5, 2, 2.5, 3.5, 4, 6, 8, 12, 40):
            tables = {N: _hurwitz_pair_table(sigma, N) for N in (2, F25)}
            for N, m, rel in ((F25, 1, 2e-15), (2, 1, 2e-15), (F25, F25 - 1, 2e-15),
                              (F25, 17, 2e-15 + sigma * 2.0 ** -53),
                              (F25, F25 // 3, 2e-15 + sigma * 2.0 ** -53)):
                a = mpmath.mpf(m) / N
                want = mpmath.zeta(sigma, a) + mpmath.zeta(sigma, 1 - a)
                got = tables[N][m]
                assert abs(got - want) <= rel * want, (sigma, N, m)


def test_f_sigma_is_accurate_near_one():
    # sin(pi a) would carry the rounding of pi*a (1.6e-11 relative at
    # a = 1 - 1e-6); both routes take the sine at min(a, 1 - a)
    for a in (1 - 1e-6, 1 - 1e-3, 0.9):
        with mpmath.workprec(120):
            x = mpmath.mpf(a)
            want = mpmath.sinpi(x) ** 2.5 * (mpmath.zeta(2.5, x) + mpmath.zeta(2.5, 1 - x))
        for got in (f_sigma(2.5, a), f_sigma_many(2.5, np.array([a]))[0]):
            assert abs(got - want) <= 4e-15 * want, a


def test_pair_coeffs_are_built_once_per_sigma():
    _pair_coeffs.cache_clear()
    for _ in range(3):
        _hurwitz_pair_table(3.25, 50)
        f_sigma_many(3.25, np.linspace(0.1, 0.9, 9))
    f_sigma_many(4.25, np.array([0.3]))
    info = _pair_coeffs.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.hits == 5


def test_f_sigma_outside_float64_is_a_value_error():
    # zeta(40, 1e-9) ~ 1e360; f_sigma itself is finite there, ~pi**40,
    # but both routes form the zeta values and refuse instead of
    # raising OverflowError or returning nan
    with pytest.raises(ValueError, match="overflows float64"):
        hurwitz_zeta(40.0, 1e-9)
    for call in (lambda: f_sigma(40.0, 1e-9), lambda: f_sigma(40.0, 1 - 1e-9)):
        with pytest.raises(ValueError, match="float64"):
            call()
    for a in ([1e-9], [0.3, 1 - 1e-9]):
        with pytest.raises(ValueError, match="leaves float64"):
            f_sigma_many(40.0, np.array(a))
    # pi**sigma, the value at 0, leaves float64 above sigma ~ 620
    for call in (lambda: f_sigma(700.0, 0.0), lambda: f_sigma_many(700.0, np.array([0.5])),
                 lambda: kernel_fsigma(700.0).value_at_zero):
        with pytest.raises(ValueError, match="pi\\*\\*sigma"):
            call()
    # just inside the range both stay finite and agree
    assert f_sigma_many(40.0, np.array([1e-7]))[0] == pytest.approx(
        f_sigma(40.0, 1e-7), rel=1e-12)


def test_pair_table_routes_are_capped():
    # N = F_40 ~ 1e8 would build a 1e8-entry table for ~40 s
    from fiblat.kernels import _PAIR_TABLE_MAX_N

    N = _PAIR_TABLE_MAX_N + 1
    with pytest.raises(ValueError, match="capped at N"):
        dft_coeffs(2.0, 1.0, N)
    with pytest.raises(ValueError, match="capped at N"):
        wce_e(2.0, 1.0, N, 2)
    assert _PAIR_TABLE_MAX_N >= 10 ** 6


def test_pair_table_routes_refuse_float64_overflow():
    # (2 pi N)**sigma past float64 range: a usage error, not inf or nan
    with pytest.raises(ValueError):
        dft_coeffs(64.0, 1.0, 10 ** 6)
    with pytest.raises(ValueError):
        wce_e(64.0, 1.0, 10 ** 6, 10 ** 6 - 1)
    with pytest.raises(ValueError):
        dft_coeffs(82.0, 1.0, 987)
    # just inside the range both routes stay finite and correct
    c = dft_coeffs(80.0, 1.0, 987)
    assert np.all(np.isfinite(c))
    assert c[1] == pytest.approx((2 * math.pi) ** -80, rel=1e-13)
    # with h = 1 the unscaled product A(1)**2 ~ 1e479 would overflow; the
    # sum is dominated by c(1)**2 + c(N-1)**2
    e = wce_e(80.0, 1.0, 987, 1)
    assert e == pytest.approx(2 * (2 * math.pi) ** -160, rel=1e-13)


def test_cot_power_sums_match_float_sums():
    for N in (2, 3, 4, 7, 12, 31):
        S = cot_power_sums(N, 3)
        assert S[0] == N - 1
        for r in range(1, 4):
            want = sum(
                (1 / math.tan(math.pi * m / N)) ** (2 * r)
                for m in range(1, N) if 2 * m != N
            )
            assert float(S[r]) == pytest.approx(want, rel=1e-11, abs=1e-11)
    # quartic sum has a classical closed form
    for N in (5, 9, 14):
        assert cot_power_sums(N, 2)[2] == Fraction(
            (N - 1) * (N - 2) * (N * N + 3 * N - 13), 45
        )


def test_exact_coefficient_sum_equals_potential_at_zero():
    for two_s in (2, 4, 6):
        for p in (1, Fraction(6)):
            for N in (1, 2, 5, 13, 55):
                total, k0 = dft_coeff_sum_exact(two_s, p, N)
                assert total == k0
                assert k0 == potential_K(two_s, Fraction(p), Fraction(0))


def test_trig_kernel_rejects_non_integral_coefficients():
    with pytest.raises(ValueError, match="got 0.5"):
        kernel_trig([0.5, 1.7])
    with pytest.raises(ValueError, match="got 2.0"):
        kernel_trig((1, 2.0))
    # integral types of any kind are kept, as plain ints
    assert kernel_trig(np.array([0, 1])).coeffs == (0, 1)
    assert kernel_trig(c for c in (2, 4)) == kernel_trig([2, 4])
    assert parse_kernel("trig:0, 1").coeffs == (0, 1)


def test_kernel_classes_validate_themselves():
    # the checks live in the classes, so building one directly cannot
    # make a weight the factories refuse
    for sigma in (0.5, 1.0, math.nan):
        with pytest.raises(ValueError, match="exceed 1"):
            FSigma(sigma)
    with pytest.raises(ValueError, match="at least one coefficient"):
        Trig(())
    with pytest.raises(ValueError, match="got 0.5"):
        Trig((0.5,))
    with pytest.raises(ValueError, match="weight big has coefficients too large"):
        Trig((1, 10 ** 400), "big")
    assert Trig((np.int64(2), 4)) == Trig((2, 4)) == kernel_trig([2, 4])
    assert FSigma(2.5) == kernel_fsigma(2.5)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_exponent_must_be_finite(sigma):
    for call in (lambda: hurwitz_zeta(sigma, 0.5), lambda: zeta(sigma),
                 lambda: kernel_fsigma(sigma), lambda: dft_coeffs(sigma, 1.0, 8)):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_trig_coeffs_name_the_function():
    assert kernel_one().trig_coeffs == (1,)
    assert parse_kernel("trig:1,0,0").trig_coeffs == (1,)
    assert kernel_bernoulli_weight(4).trig_coeffs == parse_kernel("trig:2,4").trig_coeffs == (2, 4)
    assert parse_kernel("trig:0").trig_coeffs == (0,)
    assert kernel_fsigma(2.5).trig_coeffs is None
