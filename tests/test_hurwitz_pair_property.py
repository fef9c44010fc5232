"""Property test of the float64 Hurwitz pair engine against mpmath.

Kept apart from test_kernels.py so the kernel tests never depend on
hypothesis; this module is skipped where it is not installed.
"""
import math

import mpmath
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fiblat.kernels import _hurwitz_pair, _pair_coeffs, f_sigma_many

# offsets anywhere in (0, 1), and within 1e-3 of 0, 1/2 and 1
_OFFSETS = st.one_of(
    st.floats(0, 1, exclude_min=True, exclude_max=True),
    st.floats(1e-12, 1e-3),
    st.floats(-1e-3, 1e-3).map(lambda d: 0.5 + d),
    st.floats(1e-12, 1e-3).map(lambda d: 1.0 - d),
)


# derandomized: the same 200 draws on every run, so a draw near the
# rounding bound cannot make the suite flaky
@settings(max_examples=200, deadline=None, derandomize=True)
@given(sigma=st.floats(1.01, 40.0), a=_OFFSETS)
def test_pair_engine_against_mpmath(sigma, a):
    b = min(a, 1.0 - a)
    assume(sigma * -math.log10(b) < 300)  # b**-sigma < 1e300
    pair = float(_hurwitz_pair(sigma, np.array([a]))[0])
    f = float(f_sigma_many(sigma, np.array([a]))[0])
    with mpmath.workprec(120):
        x = mpmath.mpf(a)
        want = mpmath.zeta(sigma, x) + mpmath.zeta(sigma, 1 - x)
        want_f = mpmath.sinpi(x) ** sigma * want
        assert abs(pair - want) <= 2e-15 * want, (sigma, a)
        assert abs(f - want_f) <= (2e-15 + sigma * 2.0 ** -52) * want_f, (sigma, a)


def _pair_expr(sigma, a):
    """The engine as whole-array expressions: the form _hurwitz_pair
    works in place."""
    b = np.minimum(a, 1.0 - a)
    u = 1.0 - b
    du = (1.0 - u) - b
    with np.errstate(over="ignore"):
        head = b ** -sigma + u ** -sigma * (1.0 - sigma * du / u) + (1.0 + b) ** -sigma
    series = 0
    for c in reversed(_pair_coeffs(sigma)):
        series = series * (b * b) + c
    return head + series


@settings(max_examples=200, deadline=None, derandomize=True)
@given(sigma=st.floats(1.01, 40.0), a=st.lists(_OFFSETS, min_size=1, max_size=64))
def test_pair_engine_is_bit_equal_to_the_expression(sigma, a):
    a = np.array(a)
    assert _hurwitz_pair(sigma, a).tobytes() == _pair_expr(sigma, a).tobytes(), (sigma, a)
