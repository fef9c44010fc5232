"""The input bounds of fiblat, each held once.

Most inputs of the package's sums grow the work exponentially or by a
high power (a level n over F_n points, a Fibonacci index, a Dedekind
degree, a row count), so the public entries refuse them past a bound.
Each bound is one Bound below: its value, its ValueError message and
the comment above it, the reason that sets it.  Bound.check is the one
place that compares and raises; the modules call it in place of a
constant and a message of their own.  A derived form (ROW_TRUNCATION,
PAIR_SUM_N, PHI_POWER) takes its value from the bound it derives from,
and tests/test_bounds.py probes every Bound on both sides.

Checks on a per-element hot path stay inline in their modules: fib's
int fast path, floor_phi_times, floor_phi_plus_inv and row.
"""
from __future__ import annotations

from math import isqrt, log10
from typing import NamedTuple


def _shown(n) -> str:
    """str(n) for a message; an int past Python's int-to-str limit (4300
    digits by default) by its size, as "an integer near 10**5000"."""
    try:
        return str(n)
    except ValueError:
        return f"an integer near {'-' if n < 0 else ''}10**{log10(abs(n)):.0f}"


class Bound(NamedTuple):
    """A cap hi (the largest value taken), a floor lo (the least), or
    both, each with the message of a ValueError past it (below, or above
    where it is empty): a format template of the values the message shows
    ({0}, {1}, ...) and of lo and hi by name."""

    hi: int | float | None = None
    above: str = ""
    lo: int | None = None
    below: str = ""

    def check(self, value, *shown):
        """value, or ValueError where it is below lo or not at or below hi
        (so NaN passes no cap).  The message shows the values shown, value
        by default, with ints by _shown."""
        below = self.lo is not None and value < self.lo
        if below or self.hi is not None and not value <= self.hi:
            message = (self.below or self.above) if below else self.above
            shown = [_shown(a) if isinstance(a, int) else a for a in shown or (value,)]
            raise ValueError(message.format(*shown, lo=self.lo, hi=self.hi))
        return value


# a Fibonacci index: F_n has about 0.209 n digits, F at 2**26 (14 million
# digits) takes about 45 s, and every value the CLI prints stays below it
INDEX = Bound(2 ** 26 - 1, "index must be below 2**26, got {0}")
PHI_POWER = INDEX._replace(above="|n| must be below 2**26, got {0}")
# l + m of a generalized Dedekind sum: its floor-sum plan grows like (l + m)**4;
# energy_exact at 2s = 32 (l + m = 64) peaks at 116 MB, at 2s = 40 at 235 MB
DEGREE = Bound(64, "ell + m must be <= {hi}, got ({0}, {1})")
# the size N of a lattice or the modulus of a Dedekind sum: no empty residue system
MODULUS = Bound(lo=1, below="modulus must be >= {lo}, got {0}")
# a Fibonacci lattice level: Phi_n = Lambda_{F_n, F_{n-1}} needs n >= 2
LEVEL = Bound(lo=2, below="level must be >= {lo}, got {0}")
# the direct energy route runs N**2 Python steps: 5.2 s at N = 987 on one Xeon core
DIRECT_N = Bound(1000, "direct route is O(N**2) and capped at N = {hi}, got N = {0}; "
                       "use dft or wce")
# the pair-sum engine's cost: F_48 - 1 is about 4.8e9 terms, so the flat level
# sum takes n < 48 and wce_e lattices N < F_48
PAIR_SUM = Bound(47, "level must be < 48 (F_48 - 1, about 4.8e9 terms, is past the "
                     "flat sweep's cost bound), got {0}")
PAIR_SUM_N = Bound(round(((1 + 5 ** 0.5) / 2) ** (PAIR_SUM.hi + 1) / 5 ** 0.5) - 1,
                   "N must be < F_48, the pair sum's cost bound (4.8e9 terms), got {0}")
# the exact row columns: RowTable's int64 row arithmetic is exact while
# floor(phi*i) < 2**27, the last such i is the cap
ROW_TABLE = Bound((isqrt(5 << 54) - (1 << 27)) // 2,
                  "table size must keep floor(phi*i) < 2**27, got {0}",
                  0, "table size must be >= 0, got {0}")
# the rows of C and D: at least 8, within the exact row columns
ROW_TRUNCATION = ROW_TABLE._replace(lo=8, below="row truncation too small: {0}")
# a level of the row-grouped sum: from n = 44 on its rows leave the exact row columns
GROUPED_LEVEL = Bound(43, "level must be < 44 (its rows pass the exact row columns, "
                          "floor(phi*i) < 2**27), got {0}", 1, "level must be >= 1, got {0}")
# rows_below_half_fib keeps about 96 B per row: 158,905 rows (14.6 MiB) at
# level 30, where the tests read it, and about 8.3e7 rows (8 GB) at 43
ROWS_BELOW = Bound(30, "level must be <= {hi} (the list keeps about 96 B per row, "
                       "14.6 MiB at 30), got {0}")
# wythoff_row_entries grows as k_max**2: 4.8 MiB at 10**4, past the 9772 columns
# the CLI's digit budget lets one row print; 45 GB at 10**6
ROW_ENTRIES = Bound(10 ** 4, "k_max must be <= {hi} (the list grows as k_max**2), got {0}")
# dft_coeffs, the one whole-N Hurwitz pair table: ~35 bytes per N, 721 MB peak RSS at the cap
PAIR_TABLE = Bound(2 * 10 ** 7, "pair table is capped at N = {hi} (memory), got N = {0}")
# 2s of the even-sigma routes: each builds B_{2s}, B_{2s}(t) or G_{2s-1}, and
# B_0..B_2000 alone take about 2 s
EVEN_EXPONENT = Bound(2000, "needs an even integer exponent in [{lo}, {hi}], got {0}", 2)
# terms of potential_K's cosine series: 32 MB per work array at 2**22
K_SERIES = Bound(1 << 22, "cosine series of K needs {0:.3g} terms at sigma={1:g}, t={2:g} "
                          "(cap {hi}); use dft or wce")
# sigma * log10(2 pi N): (2 pi N)**sigma, the scale of the Hurwitz pair sums
# over Z/N, leaves the float64 normal range past 10**307
SCALE = Bound(307, "(2 pi N)**sigma overflows float64 at sigma={0:g}, N={1}")
# bits of the eta sum: near sigma 3900 at 1e5 rows, where integer sigma
# already takes 73,000-bit powers of eta
SERIES_PREC = Bound(1 << 16, "a sum to {1} at this exponent needs {0:.3g} bits (cap {hi}); "
                             "lower sigma or the truncation")
# sigma of the Euler product route: mpmath's 120-bit Hurwitz values lose about
# log2(sigma) of its 18 spare bits, and past ~1e300 all of them
HURWITZ_SIGMA = Bound(1 << 16, "Hurwitz zeta values lose their digits past sigma = 2**16: {0}")
# residual_fit's top level: it sums every level up to it on the flat sweep, F_32
# is 2.2e6 terms, and each level past it costs phi times more
FIT_LEVEL = Bound(32, "level cap is {hi}, got {0}")
# the largest limit of each verify suite whose work grows with it, every
# suite but dft: ten times its default
LIMIT_CAPS = {"wythoff": 10 ** 6, "dual": 5000, "floor": 10 ** 5, "ineq": 10 ** 5,
              "reciprocity": 2000, "closedform": 250, "zeta-routes": 10 ** 6}
SUITE_LIMIT = Bound(None, "suite {1} is capped at limit {hi}, got {0}",
                    1, "limit must be >= 1, got {0}")
# the digits one CLI table may print, about 10 MB: a wythoff table grows with
# rows * cols**2 (--rows 1 --cols 21000 would print 46 MB), a closed level
# range with n_max**2
DIGITS = Bound(10 ** 7, "{0} is past the budget of {hi:.0e} digits; {1}")
