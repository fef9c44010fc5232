"""The Wythoff array, its row invariants, and the dual array.

Row i of the Wythoff array is the Fibonacci-like sequence

    W[i, k] = F_{k+1} * floor(phi*i) + F_k * (i - 1),     i, k >= 1,

whose rows partition the positive integers.  Each row carries two
conjugate ring elements

    w_plus(i)  = (i - 1) + floor(phi*i) * phi
    w_minus(i) = (i - 1 + floor(phi*i)) - floor(phi*i) * phi

with invariant eta_i = -w_plus * w_minus, a positive rational integer,
and a threshold mu_i = floor(log_phi(2 * w_plus(i))) that marks where
row entries cross half of a Fibonacci number.  The dual array

    Wd[i, m] = F_{m-1} * floor(phi*i) - F_m * (i - 1),    m > mu_i,

collects the mirrored tails W[i, -m] up to sign.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .golden import GoldenInt, fib, floor_phi_times, golden_compare, phi_power

__all__ = [
    "WythoffRow",
    "wythoff_entry",
    "wythoff_row_entries",
    "row_invariant_eta",
    "row_threshold_mu",
    "dual_entry",
    "dual_slot",
    "locate",
    "rows_below_half_fib",
    "half_fib_witness",
    "floor_phi_plus_inv",
    "fib_signed",
    "row",
    "row_table",
]

_LOG_PHI = math.log((1 + 5 ** 0.5) / 2)


def _inv_phi_split() -> tuple[float, float, float]:
    """phi**-1 = hi + mid + lo, with hi and mid of 26 significant bits, so
    that L * hi and L * mid are exact doubles for integers L < 2**27."""
    K = 120
    P = (math.isqrt(5 << (2 * K)) - (1 << K)) // 2  # phi**-1 * 2**K, floored
    hi = P >> (K - 26)
    mid = (P >> (K - 52)) - (hi << 26)
    lo = P - (((hi << 26) + mid) << (K - 52))
    return hi / 2 ** 26, mid / 2 ** 52, lo / 2 ** K


_INV_PHI_SPLIT = _inv_phi_split()


def floor_phi_plus_inv(x: int) -> int:
    """floor(phi*x + 1/phi) for x >= 1, exactly.

    phi*x + 1/phi = ((x-1) + (x+1)*sqrt5)/2, so the floor is
    ((x-1) + isqrt(5*(x+1)**2)) // 2.
    """
    if x < 1:
        raise ValueError(f"argument must be >= 1, got {x}")
    return (x - 1 + math.isqrt(5 * (x + 1) * (x + 1))) // 2


def fib_signed(n: int) -> int:
    """F_n for any integer n, via F_{-m} = (-1)**(m+1) * F_m."""
    if n >= 0:
        return fib(n)
    m = -n
    f = fib(m)
    return f if m & 1 else -f


@dataclass(frozen=True)
class WythoffRow:
    """Cached per-row data: floor(phi*i), the conjugate pair, eta, mu."""

    i: int
    floor_phi_i: int
    w_plus: GoldenInt
    w_minus: GoldenInt
    eta: int
    mu: int

    @classmethod
    def from_index(cls, i: int) -> WythoffRow:
        if i < 1:
            raise ValueError(f"row index must be >= 1, got {i}")
        L = floor_phi_times(i)
        w_plus = GoldenInt(i - 1, L)
        w_minus = GoldenInt(i - 1 + L, -L)
        eta = L * L - (i - 1) * (i - 1 + L)
        mu = _mu_exact(i, L)
        return cls(i, L, w_plus, w_minus, eta, mu)

    def entry(self, k: int) -> int:
        return fib(k + 1) * self.floor_phi_i + fib(k) * (self.i - 1)


@functools.lru_cache(maxsize=None)
def row(i: int) -> WythoffRow:
    return WythoffRow.from_index(i)


def _mu_exact(i: int, L: int) -> int:
    """Largest m with phi**m < 2*w_plus(i), by exact ring comparison.

    2*w_plus(i) is never a power of phi, so the strict inequality is
    well defined.  A float estimate is corrected by at most a step or
    two of exact comparisons.
    """
    a, b = 2 * (i - 1), 2 * L
    w = a + b * (1 + 5 ** 0.5) / 2
    m = int(math.log(w) / _LOG_PHI)
    target = GoldenInt(a, b)
    while golden_compare(phi_power(m + 1), target) < 0:
        m += 1
    while golden_compare(phi_power(m), target) > 0:
        m -= 1
    return m


def wythoff_entry(i: int, k: int) -> int:
    """W[i, k] for i >= 1, k >= 1."""
    if i < 1 or k < 1:
        raise ValueError(f"indices must be >= 1, got ({i}, {k})")
    return fib(k + 1) * floor_phi_times(i) + fib(k) * (i - 1)


def wythoff_entry_extended(i: int, k: int) -> int:
    """W[i, k] for any integer k, extending the row backwards."""
    if i < 1:
        raise ValueError(f"row index must be >= 1, got {i}")
    return fib_signed(k + 1) * floor_phi_times(i) + fib_signed(k) * (i - 1)


def wythoff_row_entries(i: int, k_max: int) -> list[int]:
    """[W[i, 1], ..., W[i, k_max]] by the two-term recurrence."""
    if k_max < 1:
        return []
    L = floor_phi_times(i)
    prev, cur = L, L + i - 1  # W[i, 0], W[i, 1]
    out = [cur]
    for _ in range(k_max - 1):
        prev, cur = cur, prev + cur
        out.append(cur)
    return out


def row_invariant_eta(i: int) -> int:
    """eta_i = -w_plus(i) * w_minus(i), a positive integer."""
    return row(i).eta


def row_threshold_mu(i: int) -> int:
    """mu_i = floor(log_phi(2 * w_plus(i))), computed exactly."""
    return row(i).mu


def dual_slot(i: int, m: int) -> int:
    """Dual-array entry Wd[i, m] = F_{m-1}*floor(phi*i) - F_m*(i-1).

    Defined (positive) for m > mu_i; the slot index m plays the role
    of n - k when the entry is paired with W[i, k] at level n.
    """
    r = row(i)
    if m <= r.mu:
        raise ValueError(f"slot {m} not above threshold mu_{i} = {r.mu}")
    return fib(m - 1) * r.floor_phi_i - fib(m) * (i - 1)


def dual_entry(i: int, n: int, k: int) -> int:
    """Wd[i, n-k] via the signed combination of adjacent row entries.

    Requires n - k > mu_i.  Computed as
    (-1)**k * (F_{n-1} * W[i, k] - F_n * W[i, k-1]), which telescopes to
    the closed form used by dual_slot.
    """
    r = row(i)
    if n - k <= r.mu:
        raise ValueError(f"slot {n - k} not above threshold mu_{i} = {r.mu}")
    wk = r.entry(k)
    wk1 = r.entry(k - 1) if k >= 1 else wythoff_entry_extended(i, k - 1)
    val = fib(n - 1) * wk - fib(n) * wk1
    return -val if k & 1 else val


def locate(m: int) -> tuple[int, int]:
    """The unique (i, k) with W[i, k] == m, for m >= 1.

    Scans rows in order; row starts W[i, 1] are strictly increasing so
    the scan terminates as soon as they pass m.
    """
    if m < 1:
        raise ValueError(f"value must be >= 1, got {m}")
    i = 1
    while True:
        L = floor_phi_times(i)
        start = L + i - 1
        if start > m:
            raise AssertionError(f"no Wythoff entry equals {m}")  # unreachable
        prev, cur, k = L, start, 1
        while cur < m:
            prev, cur = cur, prev + cur
            k += 1
        if cur == m:
            return i, k
        i += 1


def rows_below_half_fib(n: int) -> list[tuple[int, int]]:
    """Rows whose entries reach below F_n / 2, with their depth.

    Returns [(i, k_max)] where k_max = n - mu_i - 1 >= 1; the union of
    {W[i, k] : k <= k_max} over these rows is exactly the set of
    positive integers below F_n / 2.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    out = []
    i = 1
    while True:
        mu = row(i).mu
        if mu > n - 2:
            # mu_i is nondecreasing in i, so no later row qualifies
            return out
        out.append((i, n - mu - 1))
        i += 1


def half_fib_witness(ell: int) -> tuple[int, int, int]:
    """A row entry equal to F_n / 2 exactly: for n = 3*ell the entry
    W[(F_{3*ell - 2} + 1)/2, 1] equals F_{3*ell}/2.

    Returns (i, k, n) with k = 1; raises if the identity fails.
    """
    if ell < 1:
        raise ValueError(f"witness index must be >= 1, got {ell}")
    n = 3 * ell
    i = (fib(n - 2) + 1) // 2
    if 2 * wythoff_entry(i, 1) != fib(n):
        raise AssertionError(f"witness identity failed at ell={ell}")
    return i, 1, n


class RowTable:
    """Columnar row data for 1 <= i <= i_max (numpy arrays).

    Built once and cached; used by the asymptotic-constant series where
    per-row Python objects would dominate the runtime.
    """

    def __init__(self, i_max: int):
        import numpy as np

        if i_max >= 1 and floor_phi_times(i_max) >= 1 << 27:
            raise ValueError(f"table size must keep floor(phi*i) < 2**27, got {i_max}")
        self.i_max = i_max
        idx = np.arange(1, i_max + 1, dtype=np.int64)
        L = np.empty(i_max, dtype=np.int64)
        for j in range(i_max):
            i = j + 1
            L[j] = (i + math.isqrt(5 * i * i)) // 2
        eta = L * L - (idx - 1) * (idx - 1 + L)
        mu = np.empty(i_max, dtype=np.int64)
        # float estimate of mu, then exact correction; the estimate is
        # off by at most 1 for i in range, but correction is cheap
        phi = (1 + 5 ** 0.5) / 2
        wplus = (idx - 1) + L * phi
        est = np.floor(np.log(2 * wplus) / _LOG_PHI).astype(np.int64)
        fibs = [fib(k) for k in range(int(est.max()) + 4)]
        for j in range(i_max):
            m = int(est[j])
            a, b = 2 * j, 2 * int(L[j])  # 2*(i-1), 2*floor(phi*i)
            while _phi_pow_cmp(fibs, m + 1, a, b) < 0:
                m += 1
            while _phi_pow_cmp(fibs, m, a, b) > 0:
                m -= 1
            mu[j] = m
        self.i = idx
        self.floor_phi_i = L
        self.eta = eta
        self.mu = mu
        self.w_plus = wplus
        # -w_minus(i) = 1 - phi^-1 * frac(phi*i) = L * phi^-1 - (i - 1), in
        # (phi^-2, 1).  With phi^-1 split as hi + mid + lo, the first two
        # products and both differences are exact for L < 2**27, so only
        # the last addition rounds: no cancellation.
        hi, mid, lo = _INV_PHI_SPLIT
        wmn = hi * L
        wmn -= idx - 1
        wmn += mid * L
        wmn += lo * L
        self.w_minus_neg = wmn


def _phi_pow_cmp(fibs: list[int], m: int, a: int, b: int) -> int:
    """sign(phi**m - (a + b*phi)) with cached Fibonacci numbers."""
    t = 2 * (fibs[m - 1] if m >= 1 else fib_signed(m - 1)) + fibs[m] - 2 * a - b
    v = fibs[m] - b
    if t >= 0 and v >= 0:
        return 0 if t == 0 and v == 0 else 1
    if t <= 0 and v <= 0:
        return -1
    if t > 0:
        return 1 if t * t > 5 * v * v else -1
    return 1 if 5 * v * v > t * t else -1


@functools.lru_cache(maxsize=2)
def row_table(i_max: int) -> RowTable:
    return RowTable(i_max)
