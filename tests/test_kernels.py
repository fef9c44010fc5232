import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fiblat.asymptotics import constant_C_closed, dedekind_zeta
from fiblat.energy import RationalLattice, energy, energy_exact, wce_e
from fiblat.golden import fib
from fiblat.kernels import (
    KERNEL_GRAMMAR,
    FSigma,
    Kernel,
    One,
    Trig,
    _PI_STR,
    _even_exponent,
    _horner,
    _hurwitz_pair,
    _pair_coeffs,
    bernoulli_number,
    bernoulli_poly,
    dft_coeffs,
    dft_coeffs_even,
    even_weight_coeffs,
    kernel_bernoulli_weight,
    kernel_one,
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


def test_bernoulli_numbers_match_mpmath():
    # bernoulli_number is mpmath.bernfrac, so the oracles avoid it: the
    # exact recurrence sum_{j <= m} C(m+1, j) B_j = 0 for m >= 1, and the
    # zeta value B_2k = (-1)**(k+1) 2 (2k)! zeta(2k) / (2 pi)**(2k)
    for m in range(1, 121):
        assert sum(math.comb(m + 1, j) * bernoulli_number(j) for j in range(m + 1)) == 0, m
    with mpmath.workdps(250):
        for m in (998, 1000):
            k = m // 2
            want = ((-1) ** (k + 1) * 2 * mpmath.factorial(m) * mpmath.zeta(m)
                    / (2 * mpmath.pi) ** m)
            b = bernoulli_number(m)
            got = mpmath.mpf(b.numerator) / b.denominator
            assert abs(got - want) <= mpmath.mpf(10) ** -60 * abs(want), m


def test_even_exponent_stops_at_its_cap():
    # every even-sigma route builds B_{2s}, B_{2s}(t) or G_{2s-1}: past
    # 2s = 2000 they refuse rather than build for minutes (or overflow
    # math.factorial, as at 10**400)
    assert _even_exponent(2000) == 2000 and _even_exponent(2000.0) == 2000
    for sigma in (2002, 10 ** 400, 1e300):
        with pytest.raises(ValueError, match=r"even integer exponent in \[2, 2000\]"):
            _even_exponent(sigma)
    with pytest.raises(ValueError, match="even integer exponent"):
        constant_C_closed(10 ** 400)


def test_bernoulli_polynomials_exact():
    t = Fraction(1, 5)
    assert bernoulli_poly(2, t) == t * t - t + Fraction(1, 6)
    assert bernoulli_poly(4, Fraction(0)) == bernoulli_number(4)
    # reflection B_m(1 - t) = (-1)^m B_m(t)
    for m in range(1, 9):
        for num in range(0, 6):
            x = Fraction(num, 5)
            assert bernoulli_poly(m, 1 - x) == (-1) ** m * bernoulli_poly(m, x)


def test_zeta_against_mpmath():
    # mpmath.zeta at 75 bits, rounded once: within an ulp of the 200-bit value
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-15)
    with mpmath.workprec(200):
        for s in (1.001, 1.5, 2.5, 3.5, 6.0, 40.0, 300.0):
            want = mpmath.zeta(s)
            assert abs(zeta(s) - want) <= 2.0 ** -52 * want, s
    with pytest.raises(ValueError, match="exceed 1"):
        zeta(1.0)


def test_f_sigma_is_symmetric_and_matches_scalar():
    for s in (2.0, 2.5, 4.0):
        k = FSigma(s)
        for a in (0.1, 0.25, 0.4):
            assert k.eval(a) == pytest.approx(k.eval(1 - a), rel=1e-12)
    # the scalar value against the oracle
    k = FSigma(2.5)
    with mpmath.workprec(80):
        for x in (0.1, 0.2, 0.35, 0.5):
            assert k.eval(x) == pytest.approx(float(k.eval_mp(mpmath.mpf(x))), rel=1e-14)


def test_eval_many_matches_eval_outside_the_unit_interval():
    # t is a point of the torus: eval_many gives f at t mod 1, and the zeta
    # weight takes its limit pi**sigma at t = 0.  A weight has one float
    # path, so eval is eval_many at one double, bit for bit
    t = np.array([0.0, 0.1, 1 / 3, 0.5, 0.77, 1.0, 1.3, -0.2, 1 - 1e-9])
    for k in (kernel_one(), FSigma(2.5), kernel_bernoulli_weight(6), Trig((0, 1))):
        many = np.broadcast_to(k.eval_many(t), t.shape)
        assert np.all(np.isfinite(many)), k.name
        for x, v in zip(t, many):
            got = k.eval(float(x))
            assert type(got) is float and got == v, (k.name, x)
        # so does eval_mp, and every family takes f(0) there
        with mpmath.workprec(80):
            for x in t:
                got = k.eval_mp(mpmath.mpf(float(x)))
                assert float(got) == pytest.approx(k.eval(float(x)), rel=1e-12), (k.name, x)
            assert float(k.eval_mp(0)) == pytest.approx(k.value_at_zero, rel=1e-15), k.name
    assert FSigma(2.5).eval_many(t)[0] == math.pi ** 2.5


def test_eval_many_keeps_the_input_dtype():
    x = np.array([0.05, 0.2, 1 / 3, 0.45, 0.5])
    for k in (kernel_one(), FSigma(2.5), kernel_bernoulli_weight(4)):
        assert k.eval_many(x).dtype == np.float64
        wide = k.eval_many(x.astype(np.longdouble))
        assert wide.dtype == np.longdouble
        assert np.allclose(wide.astype(np.float64), k.eval_many(x), rtol=1e-14)
    assert Trig([2, 4]).eval_many(np.array([0, 1])).tolist() == [6.0, 6.0]


def _horner_expr(coeffs, x):
    """Horner as one expression per step: the form _horner works in place."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _same_bits(got, want):
    # equal values with equal signs; tobytes would also compare the
    # padding bytes of a long double
    return (got.dtype == want.dtype and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_in_place_horner_is_bit_equal_to_the_expression(dtype):
    t = np.linspace(-1.5, 2.5, 1001).astype(dtype)
    cos2 = np.cos(dtype(_PI_STR) * t) ** 2
    for spec in ("bern:4", "bern:6", "trig:0,1"):
        k = parse_kernel(spec)
        for x in (cos2, t):
            want = _horner_expr(k.coeffs, x)
            assert want.dtype == dtype and _same_bits(_horner(k.coeffs, x), want), spec
        assert _same_bits(k.eval_many(t), _horner_expr(k.coeffs, cos2)), spec


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
    assert FSigma(2.5).value_at_zero == pytest.approx(math.pi ** 2.5)
    assert kernel_one().holder_alpha == 1.0
    assert Trig([1, 2]).holder_alpha == 1.0
    assert FSigma(1.5).holder_alpha == 0.5
    assert FSigma(4.0).holder_alpha == 1.0


def test_trig_kernel_evaluates_cosine_polynomial():
    k = Trig([2, 4])
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
    # its eval_many is one NumPy scalar 1 of t's float dtype, which broadcasts
    for dtype in (np.float64, np.longdouble):
        one = kernel_one().eval_many(np.full(3, 0.25, dtype=dtype))
        assert type(one) is dtype and one == 1, dtype
    assert FSigma(2.5).coeffs is None and kernel_one().sigma is None


def test_oversized_weights_are_rejected():
    # sum |a_j| must fit in a float64; bern:2s has f(0) = (2s-1)!, which
    # overflows from bern:172 on
    with pytest.raises(ValueError, match="too large"):
        Trig([1, 10 ** 400])
    with pytest.raises(ValueError, match="too large"):
        Trig([10 ** 308, -(10 ** 308)])
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


def test_potential_even_exponent_float_path_is_the_rounded_exact_one():
    # p or t a float: Horner on the rounded coefficients of c B_{2s}, a
    # few ulps from the exact value and finite where B_{2s}'s own
    # coefficients leave float64 (from 2s near 260)
    for two_s in (2, 4, 6, 40):
        for p in (1.0, 0.3, -2.5):
            for t in (0.0, 0.3, 0.5, 0.77, 1 / 3, -0.1, 2.7):
                got = potential_K(float(two_s), p, t)
                want = float(potential_K(two_s, Fraction(p), Fraction(t)))
                assert abs(got - want) <= 4 * math.ulp(want), (two_s, p, t)
    for two_s in (262, 1000):
        for p, t in ((1.0, 0.3), (0.3, Fraction(1, 3)), (Fraction(1), 0.0)):
            got = potential_K(float(two_s), p, t)
            assert isinstance(got, float) and got == pytest.approx(1.0, abs=1e-100)


def _exact_potential(sigma):
    # potential_K's exact path is the one that returns a Fraction for exact
    # p and t; every other sigma takes the float cosine series or is refused
    val = potential_K(sigma, 1, Fraction(1, 3))
    if not isinstance(val, Fraction):
        raise ValueError(f"no exact path at sigma={sigma!r}")
    return val


EVEN_SIGMA_ENTRY_POINTS = {
    "constant_C_closed": lambda s: constant_C_closed(s, 6),
    "dedekind_zeta": lambda s: dedekind_zeta(s, "bernoulli-closed-form"),
    "energy_exact": lambda s: energy_exact(s, 1, 13, 8),
    "even_weight_coeffs": even_weight_coeffs,
    "dft_coeffs_even": lambda s: dft_coeffs_even(s, 1.0, 8).tolist(),
    "kernel_bernoulli_weight": kernel_bernoulli_weight,
    "potential_K": _exact_potential,
}


@pytest.mark.parametrize("name", EVEN_SIGMA_ENTRY_POINTS)
def test_even_sigma_entry_points_share_one_rule(name):
    # every even-sigma entry point takes any real equal to an even integer
    # >= 2 and refuses everything else with ValueError
    call = EVEN_SIGMA_ENTRY_POINTS[name]
    want = call(4)
    for sigma in (4.0, Fraction(4), np.float64(4.0), np.int64(4)):
        assert call(sigma) == want, (name, sigma)
    for sigma in (3, 4.5, 0, -2, math.inf, math.nan):
        with pytest.raises(ValueError):
            call(sigma)


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
                assert potential_K(sigma, 1.0, a / q) == pytest.approx(
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


def test_dft_even_route_outside_float64_is_a_value_error():
    # (2N)**(2s) * (2s-1)! scales the m >= 1 entries, as (2 pi N)**sigma
    # scales dft_coeffs; both refuse where it leaves float64
    for call in (dft_coeffs, dft_coeffs_even):
        with pytest.raises(ValueError, match="overflows float64"):
            call(200, 1.0, 1000)
    with pytest.raises(ValueError, match="overflows float64"):
        dft_coeffs_even(100, 1.0, 10 ** 4)
    assert np.all(np.isfinite(dft_coeffs_even(40, 1.0, 987)))


def test_hurwitz_pair_table_against_mpmath():
    # dft_coeffs takes the pair at the double m/N for m <= N/2: a = 1/F_25
    # and 1/2 at 2e-15; at the other offsets the rounding of m/N to a
    # double adds up to sigma * 2**-53.  Entry N - m mirrors entry m bit
    # for bit, which covers a = 1 - 1/F_25
    F25 = 75025
    with mpmath.workdps(40):
        for sigma in (1.01, 1.5, 2, 2.5, 3.5, 4, 6, 8, 12, 40):
            for N, m, rel in ((F25, 1, 2e-15), (2, 1, 2e-15),
                              (F25, 17, 2e-15 + sigma * 2.0 ** -53),
                              (F25, F25 // 3, 2e-15 + sigma * 2.0 ** -53)):
                a = mpmath.mpf(m) / N
                want = mpmath.zeta(sigma, a) + mpmath.zeta(sigma, 1 - a)
                got = _hurwitz_pair(sigma, np.array([m / N]))[0]
                assert abs(got - want) <= rel * want, (sigma, N, m)
            for N in (2, F25):
                coeffs = dft_coeffs(sigma, 1.0, N)
                assert _same_bits(coeffs[1:], coeffs[:0:-1]), (sigma, N)


def test_f_sigma_is_accurate_near_one():
    # sin(pi a) would carry the rounding of pi*a (1.6e-11 relative at
    # a = 1 - 1e-6); both routes take the sine at min(a, 1 - a)
    for a in (1 - 1e-6, 1 - 1e-3, 0.9):
        with mpmath.workprec(120):
            x = mpmath.mpf(a)
            want = mpmath.sinpi(x) ** 2.5 * (mpmath.zeta(2.5, x) + mpmath.zeta(2.5, 1 - x))
        for got in (FSigma(2.5).eval(a), FSigma(2.5).eval_many(np.array([a]))[0]):
            assert abs(got - want) <= 4e-15 * want, a


def test_pair_coeffs_are_built_once_per_sigma():
    _pair_coeffs.cache_clear()
    for _ in range(3):
        dft_coeffs(3.25, 1.0, 50)
        FSigma(3.25).eval_many(np.linspace(0.1, 0.9, 9))
    FSigma(4.25).eval_many(np.array([0.3]))
    info = _pair_coeffs.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    assert info.hits == 5


def test_pair_coeffs_cache_is_bounded():
    # a 2000-sigma scan keeps at most the cache's bound, and every pair
    # rebuilt after eviction has the bits it had
    _pair_coeffs.cache_clear()
    sigmas = [1.01 + 0.0195 * j for j in range(2000)]
    a = np.array([1e-3, 0.3, 0.5])
    first = [_hurwitz_pair(sigma, a).tobytes() for sigma in sigmas]
    info = _pair_coeffs.cache_info()
    assert info.currsize <= info.maxsize <= 1000, info
    assert [_hurwitz_pair(sigma, a).tobytes() for sigma in sigmas] == first
    assert _pair_coeffs.cache_info().currsize <= info.maxsize


def test_f_sigma_outside_float64_is_a_value_error():
    # zeta(40, 1e-9) ~ 1e360; the weight itself is finite there, ~pi**40,
    # but it forms the zeta values and refuses instead of raising
    # OverflowError or returning nan
    for t in (1e-9, 1 - 1e-9):
        with pytest.raises(ValueError, match="leaves float64"):
            FSigma(40.0).eval(t)
    for a in ([1e-9], [0.3, 1 - 1e-9]):
        with pytest.raises(ValueError, match="leaves float64"):
            FSigma(40.0).eval_many(np.array(a))
    # pi**sigma, the value at 0, leaves float64 above sigma ~ 620
    for call in (lambda: FSigma(700.0).eval(0.0), lambda: FSigma(700.0).eval_many(np.array([0.5])),
                 lambda: FSigma(700.0).value_at_zero):
        with pytest.raises(ValueError, match="pi\\*\\*sigma"):
            call()
    # just inside the range it stays finite and matches the oracle
    with mpmath.workprec(80):
        want = FSigma(40.0).eval_mp(mpmath.mpf(1e-7))
    assert FSigma(40.0).eval_many(np.array([1e-7]))[0] == pytest.approx(float(want), rel=1e-12)


def test_pair_table_routes_are_capped():
    # N = F_40 ~ 1e8 would build a 1e8-entry table for ~40 s; wce_e
    # builds none, and stops at the pair sum's cost bound instead
    from fiblat._bounds import PAIR_TABLE

    N = PAIR_TABLE.hi + 1
    with pytest.raises(ValueError, match="capped at N"):
        dft_coeffs(2.0, 1.0, N)
    with pytest.raises(ValueError, match="cost bound"):
        wce_e(2.0, 1.0, fib(48), fib(47))
    assert PAIR_TABLE.hi >= 10 ** 6


def test_one_point_lattice_needs_no_pair_table():
    # N = 1 has no pair, so no (2 pi N)**sigma range check and no
    # Hurwitz series: a sigma far past that range still gives [1.0]
    assert dft_coeffs(1e60, 1.0, 1).tolist() == [1.0]
    for method in ("dft", "wce"):
        assert energy(RationalLattice(1, 0), 1e60, 1.0, method).value == 1.0


def test_pair_coeffs_return_where_the_binomial_leaves_float64():
    # from sigma ~ 1.5e51 a coefficient is inf * 0 = nan; the loop must stop
    # on it.  A child process, killed after 10 s, so that a loop that never
    # stops (its list grows by about 40 MB a second) fails here instead
    subprocess.run([sys.executable, "-c", "from fiblat.kernels import _pair_coeffs; "
                    "_pair_coeffs(1e60)"], check=True, timeout=10,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


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


def test_trig_kernel_rejects_non_integral_coefficients():
    with pytest.raises(ValueError, match="got 0.5"):
        Trig([0.5, 1.7])
    with pytest.raises(ValueError, match="got 2.0"):
        Trig((1, 2.0))
    # integral types of any kind are kept, as plain ints
    assert Trig(np.array([0, 1])).coeffs == (0, 1)
    assert Trig(c for c in (2, 4)) == Trig([2, 4])
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
    assert Trig((np.int64(2), 4)) == Trig((2, 4)) == Trig([2, 4])
    # and sigma is stored as a float, whatever number it came as
    for sigma in (np.float64(2.5), 2.5, 5, np.int64(5)):
        assert type(FSigma(sigma).sigma) is float and FSigma(sigma) == FSigma(float(sigma))
    assert FSigma(5).name == "fsigma:5"


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_exponent_must_be_finite(sigma):
    for call in (lambda: zeta(sigma), lambda: FSigma(sigma),
                 lambda: dft_coeffs(sigma, 1.0, 8)):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_trig_coeffs_name_the_function():
    assert kernel_one().trig_coeffs == (1,)
    assert parse_kernel("trig:1,0,0").trig_coeffs == (1,)
    assert kernel_bernoulli_weight(4).trig_coeffs == parse_kernel("trig:2,4").trig_coeffs == (2, 4)
    assert parse_kernel("trig:0").trig_coeffs == (0,)
    assert FSigma(2.5).trig_coeffs is None


def _f_sigma_expr(sigma, a):
    """FSigma.eval_many as whole-array expressions: the form it works in place."""
    a = np.mod(np.asarray(a, dtype=np.float64), 1.0)
    zero = a == 0.0
    b = np.minimum(a, 1.0 - a)
    pair = _hurwitz_pair(sigma, np.where(zero, 0.5, b))
    return np.where(zero, math.pi ** sigma, np.sin(np.pi * b) ** sigma * pair)


def test_f_sigma_many_in_place_is_bit_equal_to_the_expression():
    rng = np.random.default_rng(5)
    a = np.concatenate([[0.0, 0.5, 1.0, -0.25, 2.75, 1 - 2.0 ** -40, 1 - 1e-9, 2.0 ** -40],
                        rng.random(3000), 1 - 1e-6 * rng.random(200), rng.uniform(-3, 3, 200)])
    for sigma in (1.5, 2.0, 2.5, 4.0, 7.3):
        for x in (a, a[:3400].reshape(34, 100), np.float64(0.3), 0.0):
            got, want = FSigma(sigma).eval_many(x), _f_sigma_expr(sigma, x)
            assert _same_bits(got, want), (sigma, np.shape(x))
    # the argument is left as it was
    b = rng.random(100)
    copy = b.copy()
    _hurwitz_pair(2.5, b)
    FSigma(2.5).eval_many(b)
    assert np.array_equal(b, copy)
