import math

import mpmath
import numpy as np
import pytest

from fiblat.golden import GoldenInt, fib, golden_compare, phi_power
from fiblat.wythoff import (
    RowTable,
    dual_entry,
    dual_slot,
    fib_signed,
    floor_phi_plus_inv,
    floor_phi_times,
    half_fib_witness,
    locate,
    row,
    row_invariant_eta,
    row_table,
    row_threshold_mu,
    rows_below_half_fib,
    wythoff_entry,
    wythoff_entry_extended,
    wythoff_row_entries,
)

PHI = (1 + 5 ** 0.5) / 2

FIRST_ETAS = [1, 5, 4, 9, 16, 11, 19, 11]
FIRST_MUS = [2, 5, 5, 6, 7, 7, 8]


def test_entry_closed_form_matches_recurrence():
    for i in range(1, 40):
        L = floor_phi_times(i)
        prev, cur = L, L + i - 1
        for k in range(1, 20):
            assert wythoff_entry(i, k) == cur
            prev, cur = cur, prev + cur


def test_row_invariants_on_first_rows():
    for i, eta in enumerate(FIRST_ETAS, start=1):
        assert row_invariant_eta(i) == eta
    for i, mu in enumerate(FIRST_MUS, start=1):
        assert row_threshold_mu(i) == mu


def test_eta_equals_negative_root_product():
    for i in range(1, 400):
        r = row(i)
        assert -(r.w_plus * r.w_minus) == GoldenInt(r.eta, 0)
        assert i <= r.eta < (PHI ** 2 + 1) * i


def test_growth_root_window():
    for i in range(1, 2000):
        r = row(i)
        assert PHI ** -2 - 1e-12 < float(-r.w_minus) < 1.0
        # phi*i <= w_plus < (phi+2)*i, checked exactly in the ring
        assert golden_compare(r.w_plus, GoldenInt(0, i)) >= 0
        assert golden_compare(r.w_plus, GoldenInt(2 * i, i)) < 0


def test_threshold_brackets_twice_w_plus_exactly():
    for i in range(1, 500):
        r = row(i)
        two_wp = 2 * r.w_plus
        assert golden_compare(two_wp, phi_power(r.mu)) >= 0
        assert golden_compare(two_wp, phi_power(r.mu + 1)) < 0


def test_locate_round_trips():
    for m in range(1, 3000):
        i, k = locate(m)
        assert wythoff_entry(i, k) == m
    with pytest.raises(ValueError):
        locate(0)


def test_rows_below_half_fib_partitions_prefix():
    for n in range(4, 21):
        fn = fib(n)
        seen = []
        for i, k_max in rows_below_half_fib(n):
            assert k_max == n - row(i).mu - 1 >= 1
            seen.extend(wythoff_row_entries(i, k_max))
        assert sorted(seen) == [m for m in range(1, fn) if 2 * m < fn]


def test_half_fib_witnesses():
    for ell in range(1, 9):
        i, k, n = half_fib_witness(ell)
        assert 2 * wythoff_entry(i, k) == fib(n)


def test_dual_entries_bracketed_by_fibonacci():
    for i in range(1, 200):
        mu = row_threshold_mu(i)
        for m in range(mu + 1, mu + 30):
            wd = dual_slot(i, m)
            assert fib(m - 2) <= wd < fib(m)
    with pytest.raises(ValueError):
        dual_slot(3, row_threshold_mu(3))


def test_dual_signed_form_matches_closed_form():
    for i in range(1, 40):
        mu = row_threshold_mu(i)
        for n in range(mu + 2, 38):
            for k in range(1, n - mu):
                assert dual_entry(i, n, k) == dual_slot(i, n - k)


def test_dual_entry_is_residue_up_to_reflection():
    for n in range(5, 24):
        fn, fn1 = fib(n), fib(n - 1)
        for i, k_max in rows_below_half_fib(n):
            for k, w in enumerate(wythoff_row_entries(i, k_max), start=1):
                r = (w * fn1) % fn
                assert dual_slot(i, n - k) in (r, fn - r)


def test_extended_entries_continue_the_recurrence():
    for i in range(1, 30):
        for k in range(-8, 10):
            a = wythoff_entry_extended(i, k)
            b = wythoff_entry_extended(i, k + 1)
            c = wythoff_entry_extended(i, k + 2)
            assert a + b == c
        assert wythoff_entry_extended(i, 1) == wythoff_entry(i, 1)


def test_fib_signed_reflection():
    for n in range(0, 15):
        assert fib_signed(n) == fib(n)
        assert fib_signed(-n) == (-1) ** (n + 1) * fib(n)


def test_floor_phi_plus_inv_matches_high_precision():
    with mpmath.workprec(120):
        phi = (1 + mpmath.sqrt(5)) / 2
        for x in list(range(1, 2000)) + [10 ** 9, 10 ** 12 + 13]:
            assert floor_phi_plus_inv(x) == int(mpmath.floor(phi * x + 1 / phi))


def test_row_table_matches_scalar_rows():
    tab = row_table(3000)
    assert tab.i[0] == 1 and len(tab.i) == 3000
    for i in (1, 2, 3, 17, 100, 999, 3000):
        r = row(i)
        j = i - 1
        assert tab.floor_phi_i[j] == r.floor_phi_i
        assert tab.eta[j] == r.eta
        assert tab.mu[j] == r.mu
        assert tab.w_plus[j] == pytest.approx(float(r.w_plus), rel=1e-14)
        assert tab.w_minus_neg[j] == pytest.approx(float(-r.w_minus), rel=1e-12)
    assert np.all(tab.eta >= tab.i)


def test_row_table_w_minus_neg_has_no_cancellation():
    # -w_minus(i) = 1 - phi^-1 frac(phi i), correct to a rounding even
    # where floor(phi i) has grown to 1.6e6
    tab = RowTable(10 ** 6)
    with mpmath.workdps(50):
        phi = (1 + mpmath.sqrt(5)) / 2
        for i in (1, 2, 10 ** 5, 10 ** 6):
            wm = -row(i).w_minus
            want = wm.a + wm.b * phi
            assert abs(want - (1 - mpmath.frac(phi * i) / phi)) < 1e-40
            assert abs(tab.w_minus_neg[i - 1] - want) <= 1e-16 * want, i
    with pytest.raises(ValueError):
        RowTable(10 ** 8)
