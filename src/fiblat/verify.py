"""Batch identity checks behind the ``verify`` subcommand.

Each suite sweeps one family of relations the rest of the package rests
on and reports the first counterexample when a check fails.  Integer and
rational checks are exact; the handful of grid-based analytic bounds
allow a relative slack of 1e-15 for float rounding and nothing else.

Suites:

    wythoff      row array partitions the positive integers; successor
                 floor rule; alternating invariant identity; threshold
                 index vs half-Fibonacci cutoff; exact half witnesses
    dual         dual array bracketing by Fibonacci numbers; signed
                 two-term form vs closed form; modular pairing with the
                 primal array (levels 5..min(26, limit))
    floor        golden-ratio floor identities on an integer range
    ineq         golden-ratio floor inequalities (exact, denominators
                 cleared) and sine/power calculus bounds on grids
    reciprocity  two reciprocity laws for the generalized sums, on
                 seeded random coprime pairs and consecutive Fibonacci
                 pairs
    closedform   closed forms of the generalized sums against their
                 defining sums, parity relation, trigonometric bridge:
                 the exact sigma = 2 energy from the sigma2 closed form
    dft          coefficient-table routes agree; the dft energy of the
                 Fibonacci lattices matches the exact even-sigma energy
    zeta-routes  the three number-field zeta routes agree within their
                 certified errors

The limit rescales a suite's sweep.  The seven suites whose work grows
with it take at most ten times their default limit (LIMIT_CAPS), and
check_limits refuses a larger limit with ValueError before any check
runs.  dft reads no more than F_9 = 34 of its limit.

Two bulk sweeps test an identity rather than a scalar function, so they
run on whole arrays (``_Run.ok_many``, which counts and reports exactly
as the one-call-per-entry loop would): the wythoff partition, as the
sorted entries against 1..limit, and the dual suite's modular pairing,
one equal-depth group of level rows at a time, with the row entries from
the two-term recurrence.  The other checks are there to test the scalar
path itself, so they stay one call per entry: bracketing and the two-term
form read row(i).dual, and the successor rule and the invariant read
floor_phi_plus_inv and the integer eta.
"""

from __future__ import annotations

import array
import bisect
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .asymptotics import ZETA_ROUTES, dedekind_zeta
from .dedekind import (
    apostol_check,
    gen_dedekind_sum,
    hwz_check,
    s13_closed,
    s22_closed,
    sigma2_closed,
    sigma2_closed_abstract,
)
from .energy import energy_dft, energy_exact
from .golden import GoldenInt, _shown, fib
from .kernels import dft_coeffs, dft_coeffs_even, potential_K
from .wythoff import (
    _eta,
    _level_rows,
    floor_phi_plus_inv,
    floor_phi_times,
    half_fib_witness,
    row,
    wythoff_row_entries,
)

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite"]

_GRID_SLACK = 1e-15
_GRID_BLOCK = 100  # grid rows per block of a two-dimensional bound


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    passed: bool
    checks: int
    limit: int
    seconds: float
    counterexample: str | None = None


class _Counterexample(Exception):
    pass


class _Run:
    """Check counter; raises on the first failed relation."""

    __slots__ = ("checks",)

    def __init__(self):
        self.checks = 0

    def ok(self, cond: bool, label: str, *args) -> None:
        self.checks += 1
        if not cond:
            raise _Counterexample(label % args if args else label)

    def ok_many(self, cond: np.ndarray, label: str, args) -> None:
        """ok on each entry of a boolean array, in order: len(cond) checks
        when all hold, else j + 1 checks for the first False entry j, then
        raise with label % args(j)."""
        if cond.all():
            self.checks += cond.size
            return
        j = int(np.argmin(cond))
        self.checks += j + 1
        raise _Counterexample(label % args(j))


def _suite_wythoff(run: _Run, limit: int) -> None:
    # Every row entry at most `limit`, generated row by row.  The union
    # must be exactly 1..limit, each value once; the entries are kept as
    # int64, not as a list of ints.
    seen = array.array("q")
    i = 1
    while True:
        L = floor_phi_times(i)
        start = L + i - 1
        if start > limit:
            break
        eta = _eta(i, L)
        prev, cur, k = L, start, 1
        while cur <= limit:
            seen.append(cur)
            run.ok(
                floor_phi_plus_inv(cur) == prev + cur,
                "successor rule fails at row %d entry %d (value %d)", i, k, cur,
            )
            sq = cur * cur - cur * prev - prev * prev
            run.ok(
                (sq if k % 2 == 0 else -sq) == eta,
                "alternating invariant fails at row %d entry %d", i, k,
            )
            prev, cur, k = cur, prev + cur, k + 1
        i += 1
    seen = np.sort(np.frombuffer(seen, dtype=np.int64))
    run.ok(len(seen) == limit, "array covers %d of %d integers", len(seen), limit)
    run.ok_many(seen == np.arange(1, limit + 1), "partition breaks at %d (got %d)",
                lambda j: (j + 1, seen[j]))

    # Threshold index: an entry is below half the level-n modulus
    # exactly when its slot depth n - k stays above the row threshold.
    # W[i, k] >= F_{k+1}, so 40 entries reach past F_40 / 2.
    for i in range(1, min(limit, 200) + 1):
        mu = row(i).mu
        twice = [2 * w for w in wythoff_row_entries(i, 40)]
        for n in range(2, 41):
            got, want = bisect.bisect_left(twice, fib(n)), max(0, n - mu - 1)
            run.ok(got == want, "threshold mismatch at row %d level %d: depth %d vs %d",
                   i, n, got, want)

    # Exact equality with half the modulus does occur, on a sparse
    # family of rows; the witness constructor re-derives each one.
    for ell in range(1, 9):
        i, k, n = half_fib_witness(ell)
        run.ok(
            2 * wythoff_row_entries(i, k)[-1] == fib(n),
            "half witness %d fails", ell,
        )


def _suite_dual(run: _Run, limit: int) -> None:
    # Bracketing: the slot-m dual entry sits in [F_{m-2}, F_m).
    for i in range(1, limit + 1):
        r = row(i)
        for m in range(r.mu + 1, r.mu + 41):
            wd = r.dual(m)
            run.ok(
                fib(m - 2) <= wd < fib(m),
                "dual entry out of bracket at row %d slot %d: %d", i, m, wd,
            )

    # Signed two-term combination telescopes to the closed form:
    # (-1)**k * (F_{n-1} W[i, k] - F_n W[i, k-1]) = Wd[i, n-k], the row
    # entries taken from the recurrence.
    for i in range(1, min(limit, 60) + 1):
        r = row(i)
        ws = wythoff_row_entries(i, 40 - r.mu)
        w = [ws[1] - ws[0], *ws]  # W[i, 0], ..., W[i, 40 - mu_i]
        for n in range(r.mu + 2, 41):
            fn, fn1 = fib(n), fib(n - 1)
            for k in range(1, n - r.mu):
                signed = fn1 * w[k] - fn * w[k - 1]
                run.ok(
                    (-signed if k & 1 else signed) == r.dual(n - k),
                    "dual forms disagree at row %d level %d depth %d", i, n, k,
                )

    # Modular pairing: multiplying a primal entry by F_{n-1} mod F_n
    # gives the dual entry up to reflection (the residue or its
    # complement; both sit under the same sine), at levels 5..min(26, limit).
    for n in range(5, min(26, limit) + 1):
        for i, L, depth in _level_rows(n):
            _check_pairing(run, n, fib(n - 1), i, L, depth)


def _check_pairing(run: _Run, n: int, multiplier: int, i, L, depth: int) -> None:
    """The modular pairing at level n on one run of _level_rows(n):
    W[i, k] * multiplier mod F_n against Wd[i, n - k] for 1 <= k <= depth,
    in (i, k) order, checked as one array: W column by column from the
    two-term recurrence, Wd from its closed form.  For n <= 26 and a
    multiplier below F_n, every product stays below 2**33, well inside
    int64."""
    fn = fib(n)
    F = np.array([fib(m) for m in range(n)], dtype=np.int64)
    w = np.empty((len(i), depth), dtype=np.int64)
    prev, cur = L, L + i - 1  # W[i, 0], W[i, 1]
    for k in range(depth):
        w[:, k] = cur
        prev, cur = cur, prev + cur
    res = w * multiplier % fn
    m = n - np.arange(1, depth + 1)  # the dual slot n - k
    wd = F[m - 1] * L[:, None] - F[m] * (i[:, None] - 1)
    run.ok_many(
        ((wd == res) | (wd == fn - res)).ravel(),
        "pairing fails at level %d row %d depth %d",
        lambda j: (n, i[j // depth], j % depth + 1),
    )


def _suite_floor(run: _Run, limit: int) -> None:
    phi = GoldenInt(0, 1)
    for n in range(1, limit + 1):
        L = floor_phi_times(n)
        m2 = n + L  # floor(phi^2 n), since phi^2 = phi + 1
        run.ok(
            phi * L < GoldenInt(m2, 0),
            "floor product bound fails at %d", n,
        )
        run.ok(
            floor_phi_plus_inv(L) == m2,
            "double floor identity fails at %d", n,
        )
        s = floor_phi_plus_inv(n)
        run.ok(
            floor_phi_plus_inv(s) == n + s,
            "shifted floor identity fails at %d", n,
        )
        lo = floor_phi_plus_inv(2 * n - 1)
        hi = floor_phi_plus_inv(2 * n + 1)
        run.ok(
            lo < 2 * s < hi,
            "halving bracket fails at %d: %d, %d, %d", n, lo, 2 * s, hi,
        )


def _holds(lhs, rhs) -> bool:
    return bool(np.all(lhs <= rhs + _GRID_SLACK * (1.0 + np.abs(lhs) + np.abs(rhs))))


def _grid_holds(rows: int, lhs, rhs) -> bool:
    """_holds on a grid of `rows` rows, taken _GRID_BLOCK rows at a time
    so that no temporary spans the whole grid; lhs(s) and rhs(s) give
    the grid rows in slice s."""
    return all(_holds(lhs(s), rhs(s))
               for s in (slice(lo, lo + _GRID_BLOCK) for lo in range(0, rows, _GRID_BLOCK)))


def _suite_ineq(run: _Run, limit: int) -> None:
    # Floor inequalities with denominators cleared, exact in Z[phi].
    # phi*i/floor(phi*i) > 1 + 1/((phi+2) i^2) becomes
    # (1 + 3 phi) i^3 > L (2 i^2 + 1) + L i^2 phi, and
    # phi*i/(floor(phi*i)+1) <= 1 - 1/(2 phi^2 i^2) becomes
    # (2 + 4 phi) i^3 <= (L+1)(2 i^2 - 1) + 2 i^2 (L+1) phi.
    for i in range(1, limit + 1):
        L = floor_phi_times(i)
        i3 = i * i * i
        lhs = GoldenInt(i3, 3 * i3)
        rhs = GoldenInt(L * (2 * i * i + 1), L * i * i)
        run.ok(lhs > rhs, "lower floor bound fails at %d", i)
        lhs = GoldenInt(2 * i3, 4 * i3)
        c = L + 1
        rhs = GoldenInt(c * (2 * i * i - 1), 2 * i * i * c)
        run.ok(lhs <= rhs, "upper floor bound fails at %d", i)
        # integer forms of the fractional-part bounds: the norms of
        # L - i*phi and (L+1) - i*phi never vanish
        run.ok(i * i + i * L - L * L >= 1, "lower norm bound fails at %d", i)
        run.ok(c * c - i * c - i * i >= 1, "upper norm bound fails at %d", i)

    # Calculus bounds on 1000-point grids, float with rounding slack.
    x = (2.0 / 3.0) * np.arange(1, 1001) / 1000.0
    sinx = np.sin(np.pi * x)
    run.ok(_holds(1.0 / sinx, 1.0 / x), "reciprocal sine bound fails on grid")
    inv = 1.0 / x
    for sig in (1.5, 2.0, 2.5, 4.0, 6.0):
        s_pow = sinx ** -sig
        c = sig * math.pi ** sig
        run.ok(
            _grid_holds(
                len(x),
                lambda s: np.abs(s_pow[s, None] - s_pow[None, :]),
                lambda s: (
                    c
                    * (inv[s, None] + inv[None, :]) ** (sig - 1.0)
                    * np.abs(inv[s, None] - inv[None, :])
                ),
            ),
            "sine power difference bound fails at %g", sig,
        )
        run.ok(
            _holds((np.pi * x / sinx) ** sig - 1.0, 4.0 ** (sig + 1.0) * x * x),
            "sinc power bound fails at %g", sig,
        )
        y = np.concatenate([-x[::-1], x])
        run.ok(
            _holds(np.abs((1.0 - y) ** -sig - 1.0), 4.0 ** sig * np.abs(y)),
            "geometric power bound fails at %g", sig,
        )


def _suite_reciprocity(run: _Run, limit: int) -> None:
    rng = random.Random(58231)
    pairs = []
    while len(pairs) < limit:
        c = rng.randrange(2, 5001)
        b = rng.randrange(1, c)
        if math.gcd(b, c) == 1:
            pairs.append((b, c))
    for n in range(3, 16):
        pairs.append((fib(n - 1), fib(n)))
    for b, c in pairs:
        run.ok(apostol_check(b, c), "odd-pair reciprocity fails at (%d, %d)", b, c)
        run.ok(hwz_check(b, c), "even-pair reciprocity fails at (%d, %d)", b, c)


def _suite_closedform(run: _Run, limit: int) -> None:
    if limit < 3:
        raise ValueError(f"closedform sweeps levels 3..limit; limit must be >= 3, got {limit}")
    for n in range(3, limit + 1):
        b, c = fib(n - 1), fib(n)
        run.ok(
            s22_closed(n) == gen_dedekind_sum(2, 2, 1, b, c),
            "(2,2) closed form fails at %d", n,
        )
        s13 = gen_dedekind_sum(1, 3, 1, b, c)
        run.ok(s13_closed(n) == s13, "(1,3) closed form fails at %d", n)
        run.ok(
            gen_dedekind_sum(3, 1, 1, b, c) == (-1) ** n * s13,
            "(1,3)/(3,1) parity fails at %d", n,
        )
        run.ok(
            sigma2_closed(n) == sigma2_closed_abstract(n),
            "quadratic closed forms disagree at %d", n,
        )
        run.ok(
            energy_exact(2, 1, c, b)
            == c * c + Fraction(1, 6) + (sigma2_closed(n) + Fraction(1, 9)) / (16 * c * c),
            "trigonometric bridge fails at %d", n,
        )


def _suite_dft(run: _Run, limit: int) -> None:
    # the Fibonacci lattices Lambda_{F_n, F_{n-1}}, N = F_2 = 1 to F_9 = 34,
    # up to the limit
    levels = [n for n in range(2, 10) if fib(n) <= limit]
    sizes = [fib(n) for n in levels]
    for two_s in (2, 4, 6):
        for p in (1, 6):
            for n in levels:
                N, h = fib(n), fib(n - 1)
                a = dft_coeffs(float(two_s), float(p), N)
                want = energy_exact(two_s, p, N, h)
                run.ok(
                    abs(Fraction(energy_dft(a, N, h)) - want) <= Fraction(1e-12) * abs(want),
                    "dft energy misses the exact energy at (%d, %d, %d)",
                    two_s, p, N,
                )
                if N < 2:
                    continue
                b = dft_coeffs_even(two_s, float(p), N)
                run.ok(
                    float(np.max(np.abs(a - b))) <= 1e-12,
                    "coefficient routes disagree at (%d, %d, %d)", two_s, p, N,
                )
    # non-integer exponents only have the quadrature route; its column
    # sum must still reproduce the potential at zero
    for sigma in (2.5, 3.5):
        for N in sizes:
            if N < 2:
                continue
            c = dft_coeffs(sigma, 1.0, N)
            k0 = float(potential_K(sigma, 1.0, 0.0))
            run.ok(
                abs(float(np.sum(c)) - k0) <= 1e-10 * max(1.0, abs(k0)),
                "quadrature coefficient sum drifts at (%g, %d)", sigma, N,
            )


def _suite_zeta_routes(run: _Run, limit: int) -> None:
    for sigma in (2, 3, 4, 6):
        routes = ZETA_ROUTES if sigma % 2 == 0 else ZETA_ROUTES[:2]
        vals = [dedekind_zeta(sigma, route=r, truncation=limit) for r in routes]
        for a in range(len(vals)):
            for b in range(a + 1, len(vals)):
                gap = abs(vals[a].value_mp - vals[b].value_mp)
                budget = vals[a].certified_error + vals[b].certified_error
                run.ok(
                    gap <= budget,
                    "zeta routes %s and %s differ by %.3e (budget %.3e) at %g",
                    vals[a].route, vals[b].route, float(gap), float(budget), sigma,
                )


_SUITES: dict[str, tuple] = {
    "wythoff": (_suite_wythoff, 100000),
    "dual": (_suite_dual, 500),
    "floor": (_suite_floor, 10000),
    "ineq": (_suite_ineq, 10000),
    "reciprocity": (_suite_reciprocity, 200),
    "closedform": (_suite_closedform, 25),
    "dft": (_suite_dft, 34),
    "zeta-routes": (_suite_zeta_routes, 100000),
}

SUITE_NAMES = tuple(_SUITES)

# the largest limit of each suite whose work grows with it, every suite but
# dft: ten times its default
LIMIT_CAPS = {name: 10 * default for name, (_, default) in _SUITES.items() if name != "dft"}


def check_limits(names, limit: int | None = None) -> None:
    """ValueError unless every suite of names runs at limit: an unknown
    suite, a limit below 1 or one above a suite's LIMIT_CAPS entry.
    A limit of None takes each suite's default."""
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(_SUITES)}")
        lim = _SUITES[name][1] if limit is None else limit
        if lim < 1:
            raise ValueError(f"limit must be >= 1, got {_shown(lim)}")
        if lim > LIMIT_CAPS.get(name, lim):
            raise ValueError(
                f"suite {name} is capped at limit {LIMIT_CAPS[name]}, got {_shown(lim)}")


def run_suite(name: str, limit: int | None = None) -> SuiteResult:
    """Run one named suite; `limit` rescales its sweep (suite default
    when omitted).  A limit check_limits refuses raises ValueError
    before any check runs."""
    check_limits([name], limit)
    fn, default = _SUITES[name]
    lim = default if limit is None else limit
    run = _Run()
    t0 = time.perf_counter()
    try:
        fn(run, lim)
    except _Counterexample as ex:
        return SuiteResult(name, False, run.checks, lim, time.perf_counter() - t0, str(ex))
    return SuiteResult(name, True, run.checks, lim, time.perf_counter() - t0)
