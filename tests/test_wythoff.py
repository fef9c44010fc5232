import dataclasses
import itertools
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest

from fiblat import wythoff
from fiblat.energy import fib_sum_grouped
from fiblat.golden import GoldenInt, fib, phi_power
from fiblat.wythoff import (
    RowTable,
    WythoffRow,
    _eta,
    _eta_column,
    _floor_phi_many,
    _level_rows,
    _mu_many,
    _phi_pow_below,
    _phi_pow_below_int,
    floor_phi_plus_inv,
    floor_phi_times,
    half_fib_witness,
    row,
    row_table,
    rows_below_half_fib,
    wythoff_row_entries,
)
from fiblat.kernels import parse_kernel
from fiblat.verify import run_suite

PHI = (1 + 5 ** 0.5) / 2

FIRST_ETAS = [1, 5, 4, 9, 16, 11, 19, 11]
FIRST_MUS = [2, 5, 5, 6, 7, 7, 8]


def test_entry_closed_form_matches_recurrence():
    for i in range(1, 40):
        L = floor_phi_times(i)
        prev, cur = L, L + i - 1
        assert row(i).entry(0) == prev
        for k in range(1, 20):
            assert row(i).entry(k) == cur
            prev, cur = cur, prev + cur
        assert wythoff_row_entries(i, 19)[-1] == row(i).entry(19)


def test_row_invariants_on_first_rows():
    for i, eta in enumerate(FIRST_ETAS, start=1):
        assert row(i).eta == eta
    for i, mu in enumerate(FIRST_MUS, start=1):
        assert row(i).mu == mu


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
        assert r.w_plus >= GoldenInt(0, i)
        assert r.w_plus < GoldenInt(2 * i, i)


def test_threshold_brackets_twice_w_plus_exactly():
    for i in range(1, 500):
        r = row(i)
        two_wp = 2 * r.w_plus
        assert two_wp >= phi_power(r.mu)
        assert two_wp < phi_power(r.mu + 1)


def test_scalar_threshold_is_exact_past_the_column_edge():
    # the scalar rows take any index: near floor(phi*i) = 2**27 and far
    # beyond it, mu_i still brackets 2*w_plus between powers of phi
    rows = [*range(_EDGE - 50, _EDGE + 50), *(fib(k) + d for k in (45, 60, 90) for d in (-1, 0, 1)),
            10 ** 12 + 7, 3 * 10 ** 20]
    for i in rows:
        r = row(i)
        two_wp = 2 * r.w_plus
        assert two_wp > phi_power(r.mu), i
        assert two_wp < phi_power(r.mu + 1), i


def test_scalar_rows_are_slotted():
    r = row(12)
    for obj in (r, r.w_plus, GoldenInt(1, 2)):
        assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        r.eta = 0
    assert [f.name for f in dataclasses.fields(WythoffRow)] == ["i", "floor_phi_i", "eta", "mu"]


def test_scalar_rows_keep_their_values_equality_and_hash():
    # against the definitions of the module docstring, on sampled rows
    sample = [1, 2, 3, 17, 999, 10 ** 6, _EDGE, *random.Random(7).sample(range(1, 10 ** 9), 40)]
    for i in sample:
        L = floor_phi_times(i)
        r = row(i)
        assert (r.i, r.floor_phi_i) == (i, L)
        assert r.w_plus == GoldenInt(i - 1, L)
        assert r.w_minus == GoldenInt(i - 1 + L, -L)
        assert r.w_minus == r.w_plus.conjugate()
        assert [r.entry(k) for k in range(1, 25)] == wythoff_row_entries(i, 24)
        fresh = row(i)
        assert fresh is not r and fresh == r and hash(fresh) == hash(r)
        assert WythoffRow(i, L, r.eta, r.mu) == r
        assert fresh != row(i + 1)
    assert len({row(i) for i in range(1, 100)} | {row(i) for i in range(1, 100)}) == 99


def test_rows_below_half_fib_partitions_prefix():
    for n in range(4, 21):
        fn = fib(n)
        seen = []
        for i, k_max in rows_below_half_fib(n):
            assert k_max == n - row(i).mu - 1 >= 1
            seen.extend(wythoff_row_entries(i, k_max))
        assert sorted(seen) == [m for m in range(1, fn) if 2 * m < fn]


def test_rows_below_half_fib_matches_scalar_rows():
    # the row-column scan against the definition by scalar row objects;
    # each row is built once, up to the level-30 bound
    mus = []
    while (mu := row(len(mus) + 1).mu) <= 28:
        mus.append(mu)
    for n in range(1, 31):
        want = [(i, n - mu - 1)
                for i, mu in enumerate(itertools.takewhile(lambda mu: mu <= n - 2, mus), 1)]
        assert rows_below_half_fib(n) == want, n


def test_level_rows_are_capped_at_the_int64_columns():
    # level 43 needs rows up to i ~ 8.3e7, still inside floor(phi*i) < 2**27
    i, L, depth = next(_level_rows(43))
    assert (i[0], L[0], depth) == (1, 1, 40)
    for n in (44, 60, 10 ** 400):
        with pytest.raises(ValueError, match="level must be < 44"):
            rows_below_half_fib(n)
    # 44 is the first level whose row bound (F_n + 4) / (2 phi**2) passes the columns
    bound = [(2 * (fib(n) + 4) - floor_phi_times(fib(n) + 4) - 1) // 2 for n in (43, 44)]
    assert floor_phi_times(bound[0]) < 2 ** 27 <= floor_phi_times(bound[1])


def test_half_fib_witnesses():
    for ell in range(1, 9):
        i, k, n = half_fib_witness(ell)
        assert 2 * row(i).entry(k) == fib(n)


def test_dual_entries_bracketed_by_fibonacci():
    for i in range(1, 200):
        r = row(i)
        for m in range(r.mu + 1, r.mu + 30):
            wd = r.dual(m)
            assert fib(m - 2) <= wd < fib(m)
    r = row(3)
    with pytest.raises(ValueError, match=f"slot {r.mu} not above threshold mu_3 = {r.mu}"):
        r.dual(r.mu)


def test_dual_signed_form_matches_closed_form():
    # (-1)**k * (F_{n-1} W[i, k] - F_n W[i, k-1]) telescopes to Wd[i, n-k]
    for i in range(1, 40):
        r = row(i)
        for n in range(r.mu + 2, 38):
            for k in range(1, n - r.mu):
                signed = fib(n - 1) * r.entry(k) - fib(n) * r.entry(k - 1)
                assert (-signed if k & 1 else signed) == r.dual(n - k)


def test_dual_entry_is_residue_up_to_reflection():
    for n in range(5, 24):
        fn, fn1 = fib(n), fib(n - 1)
        for i, k_max in rows_below_half_fib(n):
            r = row(i)
            for k, w in enumerate(wythoff_row_entries(i, k_max), start=1):
                res = (w * fn1) % fn
                assert r.dual(n - k) in (res, fn - res)


def test_floor_phi_plus_inv_matches_high_precision():
    with mpmath.workprec(120):
        phi = (1 + mpmath.sqrt(5)) / 2
        for x in list(range(1, 2000)) + [10 ** 9, 10 ** 12 + 13]:
            assert floor_phi_plus_inv(x) == int(mpmath.floor(phi * x + 1 / phi))


def test_row_walk_keeps_no_rows():
    # row(i) keeps no state: 40000 rows past 10**6 leave nothing behind
    # (a cache of them would hold several MB)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(10 ** 6, 10 ** 6 + 40000):
            row(i)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20, held


def test_row_table_columns_are_narrow():
    # floor(phi*i) < 2**27 bounds i, floor_phi_i and eta (< 3.62*i) in
    # int32; mu < 45
    tab = RowTable(5000)
    dtypes = {name: getattr(tab, name).dtype
              for name in ("i", "floor_phi_i", "eta", "mu", "w_plus", "w_minus_neg")}
    assert dtypes == {"i": np.int32, "floor_phi_i": np.int32, "eta": np.int32,
                      "mu": np.int8, "w_plus": np.float64, "w_minus_neg": np.float64}
    assert sum(getattr(tab, name).nbytes for name in dtypes) == 29 * tab.i_max


def test_eta_column_is_the_row_table_column():
    # block edges included: 2**13 rows per block
    for n in (0, 1, 8, 8191, 8192, 8193, 30000):
        eta = _eta_column(n)
        assert eta.dtype == np.int32
        assert np.array_equal(eta, RowTable(n).eta), n


def _row_scan_outputs():
    """What the three row scans feed: RowTable's columns, the eta column,
    the level rows, the grouped level sums (as hex) and the dual suite."""
    tab = RowTable(3000)
    columns = [getattr(tab, name).tobytes()
               for name in ("i", "floor_phi_i", "eta", "mu", "w_plus", "w_minus_neg")]
    # level 30 alone is 1.4 s at 7 rows per block; 1..26 cover the cuts
    levels = [rows_below_half_fib(n) for n in (*range(1, 27), 30)]
    sums = [fib_sum_grouped(n, sigma, parse_kernel(spec, sigma=sigma),
                            normalized=normalized).hex()
            for spec, sigma in (("one", 2.0), ("bern:4", 4.0), ("fsigma", 2.5))
            for n in range(2, 21) for normalized in (True, False)]
    dual = run_suite("dual", 1)
    return columns, _eta_column(20000).tobytes(), levels, sums, (dual.passed, dual.checks)


def test_row_block_size_moves_no_value(monkeypatch):
    # every row scan takes its blocks from _row_blocks; at 7 rows per
    # block, with a cut inside nearly every block, each output is the
    # default run's bit for bit
    want = _row_scan_outputs()
    monkeypatch.setattr(wythoff, "_ROW_BLOCK", 7)
    assert _row_scan_outputs() == want


def test_negative_table_size_is_a_value_error():
    for build in (RowTable, row_table, _eta_column):
        with pytest.raises(ValueError, match="table size must be >= 0"):
            build(-5)


def test_row_table_matches_scalar_rows():
    # integer columns at every row up to 20000 and a fixed sample up to 1e6
    tab = RowTable(10 ** 6)
    assert np.array_equal(tab.i, np.arange(1, 10 ** 6 + 1))
    sample = random.Random(20).sample(range(20001, 10 ** 6 + 1), 3000)
    rows = [*range(1, 20001), *sorted(sample)]
    want = np.array([(row(i).floor_phi_i, row(i).eta, row(i).mu) for i in rows])
    j = np.array(rows) - 1
    assert np.array_equal(np.stack([tab.floor_phi_i[j], tab.eta[j], tab.mu[j]], axis=1), want)
    for i in (1, 2, 3, 17, 100, 999, 3000):
        r = row(i)
        j = i - 1
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


# largest i with floor(phi*i) < 2**27, the top of RowTable's exact range
_EDGE = 82951117


def _edge_rows() -> np.ndarray:
    near_edge = range(_EDGE - 3000, _EDGE + 1)
    # phi*F_k sits within phi**-k of an integer: the hardest float floors
    fib_like = {c * fib(k) + d for k in range(2, 40) for c in (1, 2, 3) for d in (-1, 0, 1)}
    return np.array(sorted({*near_edge, *(i for i in fib_like if 1 <= i <= _EDGE)}),
                    dtype=np.int64)


def test_row_columns_exact_near_the_int64_edge():
    assert floor_phi_times(_EDGE) < 1 << 27 <= floor_phi_times(_EDGE + 1)
    i = _edge_rows()
    L = _floor_phi_many(i)
    mu = _mu_many(i, L)
    eta = _eta(i, L)
    assert L.tolist() == [floor_phi_times(int(x)) for x in i]
    assert mu.tolist() == [row(int(x)).mu for x in i]
    assert eta.tolist() == [row(int(x)).eta for x in i]
    # RowTable's narrow columns hold the int64 values unchanged here
    tab = RowTable(8)
    for ref, col in ((i, tab.i), (L, tab.floor_phi_i), (eta, tab.eta), (mu, tab.mu)):
        assert np.array_equal(ref.astype(col.dtype).astype(np.int64), ref)
    # the comparison on both sides of the threshold, where |t| and |v|
    # are largest, against exact ring arithmetic
    F = np.array([fib(k) for k in range(int(mu.max()) + 3)], dtype=np.int64)
    a, b = 2 * (i - 1), 2 * L
    for dm in (-1, 0, 1, 2):
        got = _phi_pow_below(F, mu + dm, a, b)
        want = [phi_power(int(m)) < GoldenInt(int(x), int(y))
                for m, x, y in zip(mu + dm, a, b)]
        assert got.tolist() == want, dm
        # and the scalar rule of row(i), on Python ints
        assert [_phi_pow_below_int(int(m), int(x), int(y))
                for m, x, y in zip(mu + dm, a, b)] == want, dm


def test_scalar_sign_rule_matches_the_ring_on_generic_elements():
    # rows give t and v of one sign; generic a + b*phi exercise both branches
    rng = random.Random(11)
    for _ in range(3000):
        m, a, b = rng.randint(1, 40), rng.randint(-10 ** 8, 10 ** 8), rng.randint(-10 ** 8, 10 ** 8)
        want = phi_power(m) < GoldenInt(a, b)
        assert _phi_pow_below_int(m, a, b) == want, (m, a, b)


@pytest.mark.parametrize("phi_scale, log_scale", [(1 + 1e-9, 1.01), (1 - 1e-9, 0.99)])
def test_row_columns_correct_a_wrong_estimate(monkeypatch, phi_scale, log_scale):
    # skewed constants push the float estimates off by one, up or down;
    # the exact step each way must still land on floor(phi*i) and mu_i
    i = _edge_rows()
    L_exact = np.array([floor_phi_times(int(x)) for x in i])
    mu_exact = np.array([row(int(x)).mu for x in i])
    monkeypatch.setattr(wythoff, "_PHI", wythoff._PHI * phi_scale)
    monkeypatch.setattr(wythoff, "_LOG_PHI", wythoff._LOG_PHI * log_scale)
    assert np.any(np.floor(i * wythoff._PHI).astype(np.int64) != L_exact)
    L = _floor_phi_many(i)
    assert np.array_equal(L, L_exact)
    w = (i - 1) + L * wythoff._PHI
    assert np.any(np.floor(np.log(2 * w) / wythoff._LOG_PHI).astype(np.int64) != mu_exact)
    assert np.array_equal(_mu_many(i, L), mu_exact)
    # the scalar rows settle the same skewed estimate
    assert [row(int(x)).mu for x in i] == mu_exact.tolist()
