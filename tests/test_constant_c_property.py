"""Property tests of C's eta sum and of the zeta value behind it.

The grouped power sum behind constant_C and the eta-series route of
dedekind_zeta must equal, bit for bit, the per-occurrence sum it
replaced, which is kept here as the oracle.  C's reported tail bound,
and the reported error of the Euler product route, must cover the
distance to the Hurwitz zeta decomposition taken at a finer precision.

Kept apart from test_asymptotics.py so those tests never depend on
hypothesis; this module is skipped where it is not installed.
"""
import math

import mpmath
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from fiblat.asymptotics import constant_C, dedekind_zeta
from fiblat.kernels import parse_kernel
from fiblat.wythoff import row_table

_CHI5 = (0, 1, -1, -1, 1)


def _floor_sum(s, terms):
    """Per-occurrence fixed-point sum at the working precision: each term
    floor(2**P / v**s), P = prec + bit_length(#terms) + 2, one rounding."""
    P = mpmath.mp.prec + len(terms).bit_length() + 2
    one = 1 << P
    return mpmath.ldexp(mpmath.mpf(sum(one // v ** s for v in terms)), -P)


def _eta_oracle(sigma, n):
    """sum_{i <= n} eta_i**-sigma, one term per row."""
    eta = row_table(n).eta
    if float(sigma).is_integer():
        return _floor_sum(int(sigma), eta.tolist())
    return mpmath.fsum(mpmath.mpf(int(e)) ** (-sigma) for e in eta[::-1])


def _check_routes(sigma, n):
    eta_route = dedekind_zeta(sigma, "eta-series", truncation=n)
    with mpmath.workprec(max(60, int((sigma - 1) * math.log2(n)) + 30)):
        want = _eta_oracle(sigma, n)
    got = eta_route.value_mp
    assert (got.man, got.exp) == (want.man, want.exp), (sigma, n)


_N = st.integers(8, 20000)


# derandomized: the same draws on every run
@settings(max_examples=40, deadline=None, derandomize=True)
@given(sigma=st.integers(2, 18).map(float), n=_N)
def test_integer_sigma_power_sum_is_the_per_term_floor_sum(sigma, n):
    _check_routes(sigma, n)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(sigma=st.one_of(st.integers(1, 40).map(lambda k: k + 0.5),
                       st.floats(1, 41, exclude_min=True, exclude_max=True)
                       .filter(lambda s: not s.is_integer())),
       n=_N)
def test_noninteger_sigma_power_sum_is_the_per_term_fsum(sigma, n):
    _check_routes(sigma, n)


def _zeta_k_hurwitz(sigma):
    """zeta(sigma) 5**-sigma sum_a chi_5(a) zeta(sigma, a/5), in the
    caller's precision."""
    s = mpmath.mpf(sigma)
    lser = mpmath.fsum(_CHI5[a] * mpmath.zeta(s, mpmath.mpf(a) / 5) for a in range(1, 5))
    return mpmath.zeta(s) * lser / mpmath.mpf(5) ** s


def _c_hurwitz(sigma, f0):
    """C = 2 prefactor zeta_K(sigma), in the caller's precision."""
    s = mpmath.mpf(sigma)
    pref = mpmath.mpf(f0) ** 2 * mpmath.mpf(5) ** (s / 2) / mpmath.pi ** (2 * s)
    return 2 * pref * _zeta_k_hurwitz(sigma)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sigma=st.floats(1.5, 8.0), i_max=st.integers(8, 3000),
       spec=st.sampled_from(("one", "bern:4", "fsigma")))
def test_constant_c_tail_bound_holds(sigma, i_max, spec):
    # every term is positive, so the truncated sum lies below C and
    # within the certified tail of it
    c = constant_C(sigma, parse_kernel(spec, sigma=sigma), i_max)
    with mpmath.workprec(c.prec + 64):
        gap = _c_hurwitz(sigma, c.f0) - c.value_mp
        assert 0 <= gap <= c.tail_bound, (sigma, i_max, spec, float(gap), c.tail_bound)


_EULER = "euler-product-L-times-zeta"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sigma=st.floats(1.5, 8.0), n=_N)
def test_euler_route_lies_above_the_eta_series(sigma, n):
    # the eta terms are positive, so the truncated sum lies below zeta_K;
    # eta's reported error holds its tail
    euler = dedekind_zeta(sigma, _EULER)
    eta = dedekind_zeta(sigma, "eta-series", truncation=n)
    with mpmath.workprec(300):
        gap = euler.value_mp - eta.value_mp
    budget = eta.certified_error + euler.certified_error
    assert 0 <= gap <= budget, (sigma, n, float(gap), budget)


def test_euler_route_agrees_with_the_closed_form():
    for sigma in range(2, 19, 2):
        euler = dedekind_zeta(sigma, _EULER)
        closed = dedekind_zeta(sigma, "bernoulli-closed-form")
        with mpmath.workprec(300):
            gap = abs(euler.value_mp - closed.value_mp)
        assert gap <= euler.certified_error + closed.certified_error, (sigma, float(gap))


@pytest.mark.parametrize("sigma", [1 + 1e-8, 1.0001, 2.5, 40.0, 1000.0])
def test_euler_route_is_within_its_error_of_300_bits(sigma):
    # near the pole the four Hurwitz values cancel (by 1.9e8 at 1 + 1e-8),
    # and the error scales with their sum, not with the value
    euler = dedekind_zeta(sigma, _EULER)
    assert euler.truncation == 0
    with mpmath.workprec(300):
        gap = abs(euler.value_mp - _zeta_k_hurwitz(sigma))
    assert gap <= euler.certified_error, (sigma, float(gap), euler.certified_error)
