"""Property tests of C's eta sum.

The grouped power sum behind constant_C and both series routes of
dedekind_zeta must equal, bit for bit, the per-occurrence sums it
replaced, which are kept here as the oracle.  C's reported tail bound
must cover the distance to C from the Hurwitz zeta decomposition.

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


def _floor_sum(s, plus, minus=()):
    """Per-occurrence fixed-point sum at the working precision: each term
    floor(2**P / v**s), P = prec + bit_length(#terms) + 2, one rounding."""
    P = mpmath.mp.prec + (len(plus) + len(minus)).bit_length() + 2
    one = 1 << P
    total = sum(one // v ** s for v in plus) - sum(one // v ** s for v in minus)
    return mpmath.ldexp(mpmath.mpf(total), -P)


def _eta_oracle(sigma, n):
    """sum_{i <= n} eta_i**-sigma, one term per row."""
    eta = row_table(n).eta
    if float(sigma).is_integer():
        return _floor_sum(int(sigma), eta.tolist())
    return mpmath.fsum(mpmath.mpf(int(e)) ** (-sigma) for e in eta[::-1])


def _l_oracle(sigma, n):
    """sum_{m <= n} chi_5(m) m**-sigma, one term per m."""
    if float(sigma).is_integer():
        return _floor_sum(int(sigma),
                          [*range(1, n + 1, 5), *range(4, n + 1, 5)],
                          [*range(2, n + 1, 5), *range(3, n + 1, 5)])
    return mpmath.fsum(_CHI5[m % 5] * mpmath.mpf(m) ** (-sigma)
                       for m in range(n, 0, -1) if m % 5)


def _check_routes(sigma, n):
    eta_route = dedekind_zeta(sigma, "eta-series", truncation=n)
    with mpmath.workprec(max(60, int((sigma - 1) * math.log2(n)) + 30)):
        want = _eta_oracle(sigma, n)
    got = eta_route.value_mp
    assert (got.man, got.exp) == (want.man, want.exp), ("eta", sigma, n)

    l_route = dedekind_zeta(sigma, "euler-product-L-times-zeta", truncation=n)
    with mpmath.workprec(max(60, int(sigma * math.log2(n)) + 30)):
        want = mpmath.zeta(mpmath.mpf(sigma)) * _l_oracle(sigma, n)
    got = l_route.value_mp
    assert (got.man, got.exp) == (want.man, want.exp), ("chi5", sigma, n)


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


def _c_hurwitz(sigma, f0):
    """C = 2 prefactor zeta(sigma) 5**-sigma sum_a chi_5(a) zeta(sigma, a/5),
    in the caller's precision."""
    s = mpmath.mpf(sigma)
    pref = mpmath.mpf(f0) ** 2 * mpmath.mpf(5) ** (s / 2) / mpmath.pi ** (2 * s)
    lser = mpmath.fsum(_CHI5[a] * mpmath.zeta(s, mpmath.mpf(a) / 5) for a in range(1, 5))
    return 2 * pref * mpmath.zeta(s) * lser / mpmath.mpf(5) ** s


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
