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

row(i) is the one scalar path to a row's data: W[i, k], eta_i, mu_i
and Wd[i, m] are row(i).entry(k), .eta, .mu and .dual(m).  It keeps no
state, so a caller that reads one row many times holds the row itself;
RowTable and row_table serve the same columns as arrays.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._bounds import GROUPED_LEVEL, ROW_ENTRIES, ROW_TABLE, ROWS_BELOW, _shown
from .golden import GoldenInt, fib, floor_phi_times

__all__ = [
    "WythoffRow",
    "wythoff_row_entries",
    "rows_below_half_fib",
    "half_fib_witness",
    "floor_phi_plus_inv",
    "row",
    "row_table",
]

_PHI = (1 + 5 ** 0.5) / 2
_LOG_PHI = math.log(_PHI)


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
# rows per block of every row scan (_row_blocks), so that int64
# temporaries stay small beside the columns they fill
_ROW_BLOCK = 1 << 13


def floor_phi_plus_inv(x: int) -> int:
    """floor(phi*x + 1/phi) for x >= 1, exactly.

    phi*x + 1/phi = ((x-1) + (x+1)*sqrt5)/2, so the floor is
    ((x-1) + isqrt(5*(x+1)**2)) // 2.
    """
    if x < 1:
        raise ValueError(f"argument must be >= 1, got {_shown(x)}")
    return (x - 1 + math.isqrt(5 * (x + 1) * (x + 1))) // 2


@dataclass(frozen=True, slots=True)
class WythoffRow:
    """Per-row data: i, floor(phi*i), eta and mu.

    The conjugate pair w_plus, w_minus is derived from (i, floor(phi*i))
    on each access, so a row holds four ints and no ring elements.
    """

    i: int
    floor_phi_i: int
    eta: int
    mu: int

    @property
    def w_plus(self) -> GoldenInt:
        """(i - 1) + floor(phi*i) * phi."""
        return GoldenInt(self.i - 1, self.floor_phi_i)

    @property
    def w_minus(self) -> GoldenInt:
        """(i - 1 + floor(phi*i)) - floor(phi*i) * phi, the conjugate of w_plus."""
        return GoldenInt(self.i - 1 + self.floor_phi_i, -self.floor_phi_i)

    def entry(self, k: int) -> int:
        """W[i, k] for k >= 0; W[i, 0] = floor(phi*i)."""
        return fib(k + 1) * self.floor_phi_i + fib(k) * (self.i - 1)

    def dual(self, m: int) -> int:
        """Dual-array entry Wd[i, m] = F_{m-1}*floor(phi*i) - F_m*(i-1).

        Defined (positive) for m > mu_i; the slot index m plays the role
        of n - k when the entry is paired with W[i, k] at level n.
        """
        if m <= self.mu:
            raise ValueError(f"slot {m} not above threshold mu_{self.i} = {self.mu}")
        return fib(m - 1) * self.floor_phi_i - fib(m) * (self.i - 1)


def row(i: int) -> WythoffRow:
    """Row i >= 1 of the Wythoff array, built afresh on each call."""
    if i < 1:
        raise ValueError(f"row index must be >= 1, got {_shown(i)}")
    L = floor_phi_times(i)
    return WythoffRow(i, L, _eta(i, L), _mu_exact(i, L))


def _eta(i, L):
    """eta_i = -w_plus(i) * w_minus(i) = L**2 - (i - 1) * (i - 1 + L) for
    L = floor(phi*i): on Python ints, or elementwise on int64 arrays."""
    return L * L - (i - 1) * (i - 1 + L)


def _mu_exact(i: int, L: int) -> int:
    """Largest m with phi**m < 2*w_plus(i), exactly.

    2*w_plus(i) is never a power of phi, so the strict inequality is
    well defined.  A float estimate is corrected by at most a step or
    two of the integer sign rule of _phi_pow_below, on Python ints.
    """
    a, b = 2 * (i - 1), 2 * L
    w = a + b * (1 + 5 ** 0.5) / 2
    m = int(math.log(w) / _LOG_PHI)
    while _phi_pow_below_int(m + 1, a, b):
        m += 1
    while not _phi_pow_below_int(m, a, b):
        m -= 1
    return m


def _phi_pow_below_int(m: int, a: int, b: int) -> bool:
    """phi**m < a + b*phi for m >= 1 and a + b*phi not a power of phi:
    the sign rule of _phi_pow_below on exact ints."""
    fm = fib(m)
    t = 2 * fib(m - 1) + fm - 2 * a - b
    v = fm - b
    return t < 0 if t * t > 5 * v * v else v < 0


def wythoff_row_entries(i: int, k_max: int) -> list[int]:
    """[W[i, 1], ..., W[i, k_max]] by the two-term recurrence.  k_max above
    10**4 raises ValueError: the list grows as k_max**2."""
    ROW_ENTRIES.check(k_max)
    if k_max < 1:
        return []
    L = floor_phi_times(i)
    prev, cur = L, L + i - 1  # W[i, 0], W[i, 1]
    out = [cur]
    for _ in range(k_max - 1):
        prev, cur = cur, prev + cur
        out.append(cur)
    return out


def rows_below_half_fib(n: int) -> list[tuple[int, int]]:
    """Rows whose entries reach below F_n / 2, with their depth.

    Returns [(i, k_max)] where k_max = n - mu_i - 1 >= 1; the union of
    {W[i, k] : k <= k_max} over these rows is exactly the set of
    positive integers below F_n / 2.  Levels above 30 raise ValueError
    (the list keeps about 96 B per row, 14.6 MiB at level 30), and those
    from 44 on by _level_rows' bound.
    """
    rows = _level_rows(n)  # first, so that n >= 44 keeps _level_rows' message
    ROWS_BELOW.check(n)
    out = []
    for i, _, depth in rows:
        out.extend((r, depth) for r in i.tolist())
    return out


def _level_rows(n: int):
    """The rows of rows_below_half_fib(n) as runs (i, floor(phi*i),
    depth) of equal depth k_max = n - mu_i - 1, with i and floor(phi*i)
    int64 arrays, in ascending i; a run never crosses a block of
    _row_blocks.

    Row i qualifies iff W[i, 1] = floor(phi*i) + i - 1 < F_n / 2, which
    bounds i below (F_n + 4) / (2 phi**2).  mu_i is nondecreasing in i,
    so each block is cut by searchsorted at mu_i <= n - 2, the rows of
    equal depth in it are contiguous, and the scan stops at the first
    row past the cut.  Levels whose bound leaves the exact row columns
    (floor(phi*i) < 2**27, so n >= 44) raise ValueError at the call,
    before F_n is formed.
    """
    GROUPED_LEVEL.check(n)
    # floor(x / phi**2) = 2x - floor(phi*x) - 1 for integers x >= 1
    x = fib(n) + 4
    i_bound = (2 * x - floor_phi_times(x) - 1) // 2

    def runs():
        for _, i, L in _row_blocks(i_bound):
            mu = _mu_many(i, L)
            cut = int(np.searchsorted(mu, n - 2, side="right"))
            if cut:
                edges = [0, *(np.flatnonzero(np.diff(mu[:cut])) + 1).tolist(), cut]
                for a, b in zip(edges, edges[1:]):
                    yield i[a:b], L[a:b], n - 1 - int(mu[a])
            if cut < len(i):
                return
    return runs()


def half_fib_witness(ell: int) -> tuple[int, int, int]:
    """A row entry equal to F_n / 2 exactly: for n = 3*ell the entry
    W[(F_{3*ell - 2} + 1)/2, 1] equals F_{3*ell}/2.

    Returns (i, k, n) with k = 1; raises if the identity fails.
    """
    if ell < 1:
        raise ValueError(f"witness index must be >= 1, got {_shown(ell)}")
    n = 3 * ell
    i = (fib(n - 2) + 1) // 2
    if 2 * row(i).entry(1) != fib(n):
        raise AssertionError(f"witness identity failed at ell={ell}")
    return i, 1, n


class RowTable:
    """Columnar row data for 1 <= i <= i_max (numpy arrays).

    Built once and cached (row_table); used by the D row sweep, where
    per-row Python objects would dominate the runtime.  Every column is
    computed by whole-array operations; the integer columns are exact
    (float estimates settled by exact int64 comparisons), which needs
    floor(phi*i_max) < 2**27.  That cap lets i, floor_phi_i and eta
    (below w_plus(i) < 3.62*i, so under 3.1e8) be int32 and mu (below 45)
    int8; w_plus and w_minus_neg are float64: 29 bytes per row.
    """

    def __init__(self, i_max: int):
        ROW_TABLE.check(i_max)
        self.i_max = i_max
        self.i = np.arange(1, i_max + 1, dtype=np.int32)
        self.floor_phi_i = np.empty(i_max, dtype=np.int32)
        self.eta = np.empty(i_max, dtype=np.int32)
        self.mu = np.empty(i_max, dtype=np.int8)
        self.w_plus = np.empty(i_max)
        self.w_minus_neg = np.empty(i_max)
        hi, mid, lo = _INV_PHI_SPLIT
        for s, i, L in _row_blocks(i_max):
            self.floor_phi_i[s] = L
            self.eta[s] = _eta(i, L)
            self.mu[s] = _mu_many(i, L)
            self.w_plus[s] = (i - 1) + L * _PHI
            # -w_minus(i) = 1 - phi^-1 * frac(phi*i) = L * phi^-1 - (i - 1),
            # in (phi^-2, 1).  With phi^-1 split as hi + mid + lo, the first
            # two products and both differences are exact for L < 2**27, so
            # only the last addition rounds: no cancellation.
            wmn = hi * L
            wmn -= i - 1
            wmn += mid * L
            wmn += lo * L
            self.w_minus_neg[s] = wmn


def _eta_column(i_max: int) -> np.ndarray:
    """RowTable(i_max).eta, int32, without the table's other columns:
    built in the same blocks by the same formula."""
    ROW_TABLE.check(i_max)
    eta = np.empty(i_max, dtype=np.int32)
    for s, i, L in _row_blocks(i_max):
        eta[s] = _eta(i, L)
    return eta


def _row_blocks(i_max: int):
    """(s, i, floor(phi*i)) for rows 1..i_max in blocks of _ROW_BLOCK
    rows: s is the block's slice of a 0-based row column, and i and
    floor(phi*i) are int64 arrays (5*i*i leaves int32).  The caller keeps
    floor(phi*i_max) < 2**27, where _floor_phi_many is exact."""
    for start in range(0, i_max, _ROW_BLOCK):
        i = np.arange(start + 1, min(start + _ROW_BLOCK, i_max) + 1, dtype=np.int64)
        yield slice(start, start + len(i)), i, _floor_phi_many(i)


def _floor_phi_many(i: np.ndarray) -> np.ndarray:
    """floor(phi*i) for an int64 array of i >= 1 with phi*i < 2**27.

    The float product is off by less than 2**-25, so its floor is off by
    at most one; one exact step each way settles it, since
    L = floor(phi*i) iff (2L - i)**2 <= 5 i**2 < (2L - i + 2)**2
    (all below 2**56 in range).
    """
    L = np.floor(i * _PHI).astype(np.int64)
    five_i2 = 5 * i * i
    L -= (2 * L - i) ** 2 > five_i2
    L += (2 * L - i + 2) ** 2 <= five_i2
    return L


def _mu_many(i: np.ndarray, L: np.ndarray) -> np.ndarray:
    """mu_i, the largest m with phi**m < 2*w_plus(i), for int64 arrays of
    i and L = floor(phi*i) < 2**27.

    The float estimate floor(log_phi(2*w_plus)) is within 1e-13 of the
    true logarithm, so it is off by at most one; one exact step each way
    settles it (see _phi_pow_below).
    """
    a, b = 2 * (i - 1), 2 * L
    m = np.floor(np.log(2 * ((i - 1) + L * _PHI)) / _LOG_PHI).astype(np.int64)
    F = np.array([fib(k) for k in range(int(m.max(initial=2)) + 3)], dtype=np.int64)
    m += _phi_pow_below(F, m + 1, a, b)
    m -= ~_phi_pow_below(F, m, a, b)
    return m


def _phi_pow_below(F: np.ndarray, m: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """phi**m < a + b*phi, elementwise, for m >= 1 with a + b*phi never a
    power of phi; F holds F_0..F_{max m}.

    phi**m - (a + b*phi) = (t + v*sqrt5)/2 with t = 2F_{m-1} + F_m - 2a - b
    and v = F_m - b: the sign is that of t where t**2 > 5v**2 and that of
    v otherwise.  Within two steps of the threshold of rows with
    floor(phi*i) < 2**27, |t| < 2**31 and |v| < 2**30, so t**2 and 5v**2
    fit in int64.
    """
    t = 2 * F[m - 1] + F[m] - 2 * a - b
    v = F[m] - b
    return np.where(t * t > 5 * v * v, t < 0, v < 0)


@functools.lru_cache(maxsize=2)
def row_table(i_max: int) -> RowTable:
    return RowTable(i_max)
