"""Pair energies of rational lattices and Fibonacci lattice sums.

The point set is Lambda_{N,h} = {(k/N, {h k/N}) : 0 <= k < N} with
gcd(h, N) = 1; the Fibonacci lattice Phi_n uses N = F_n, h = F_{n-1}.
For a one-dimensional potential c the tensor energy is

    E = sum_{x, y in Lambda} c(x1 - y1) c(x2 - y2),

computable either directly (O(N^2) pairs) or, since the lattice is a
cyclic group, from the DFT coefficients of c as
E = N^2 sum_m chat(m) chat(h m mod N).

fib_sum evaluates the weighted trigonometric sums

    sum_{m=1}^{F_n - 1} f(m/F_n) f({F_{n-1} m/F_n})
        / |sin(pi m/F_n) sin(pi F_{n-1} m/F_n)|^sigma,

normalized by F_n^sigma, either over the flat grid or grouped along
Wythoff rows paired with dual-array entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .golden import fib
from .kernels import (
    Kernel,
    _hurwitz_pair_table,
    dft_coeffs,
    kernel_one,
    potential_K,
    zeta,
)
from .wythoff import dual_slot, row, rows_below_half_fib, wythoff_row_entries

__all__ = [
    "RationalLattice",
    "EnergyReport",
    "lattice_points",
    "energy_direct",
    "energy_dft",
    "wce_e",
    "energy",
    "fib_sum",
    "fib_sum_grouped",
]

_TWO_PI = 2 * math.pi
_SUM_CHUNK = 1 << 16  # terms per block of the flat fib_sum sweep


@dataclass(frozen=True)
class RationalLattice:
    """Lambda_{N,h}: N points on the torus, generator slope h."""

    N: int
    h: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"size must be >= 1, got {self.N}")
        if math.gcd(self.h, self.N) != 1:
            raise ValueError(f"generator {self.h} not coprime to {self.N}")

    @classmethod
    def fibonacci(cls, n: int) -> RationalLattice:
        """Phi_n = Lambda_{F_n, F_{n-1}}, n >= 2."""
        if n < 2:
            raise ValueError(f"level must be >= 2, got {n}")
        return cls(fib(n), fib(n - 1))


def lattice_points(lat: RationalLattice, *, exact: bool = False) -> list[tuple]:
    """The N points (k/N, {h k/N}); Fractions when exact is set."""
    if exact:
        return [
            (Fraction(k, lat.N), Fraction(lat.h * k % lat.N, lat.N))
            for k in range(lat.N)
        ]
    return [(k / lat.N, (lat.h * k % lat.N) / lat.N) for k in range(lat.N)]


def energy_direct(potential, points) -> float | Fraction:
    """Double sum of c(x1-y1) c(x2-y2) over all ordered point pairs.

    The potential is called on torus differences in [0, 1); values are
    cached per distinct argument, and exact inputs stay exact.
    """
    cache: dict = {}

    def pot(t):
        v = cache.get(t)
        if v is None:
            v = potential(t)
            cache[t] = v
        return v

    total = None
    for x1, x2 in points:
        for y1, y2 in points:
            v = pot((x1 - y1) % 1) * pot((x2 - y2) % 1)
            total = v if total is None else total + v
    return total


def energy_dft(coeffs, N: int, h: int) -> float:
    """E = N^2 sum_m chat(m) chat(h m mod N) from an N-periodic table."""
    if len(coeffs) != N:
        raise ValueError(f"coefficient table has length {len(coeffs)}, expected {N}")
    c = np.asarray(coeffs, dtype=np.float64)
    idx = (h * np.arange(N)) % N
    return float(N) ** 2 * float(np.sum(c * c[idx]))


def wce_e(sigma: float, p: float, N: int, h: int) -> float:
    """-1 + E/N^2 for the potential K_{sigma,p} on Lambda_{N,h}:

    p*4*zeta(sigma)/(2 pi N)**sigma + p^2*4*zeta(sigma)^2/(2 pi N)**(2 sigma)
    + p^2/(2 pi N)**(2 sigma) * sum_{m=1}^{N-1} A(m) A(h m mod N),

    with A(m) = zeta(sigma, m/N) + zeta(sigma, 1 - m/N) from the same
    vectorized Hurwitz pair table as dft_coeffs (relative error ~1e-15).
    The table is scaled by (2 pi N)**-sigma before the pairing sum so
    the products stay in range; sizes where (2 pi N)**sigma overflows
    float64 raise ValueError.
    """
    if math.gcd(h, N) != 1:
        raise ValueError(f"generator {h} not coprime to {N}")
    z = zeta(sigma)
    scale = (_TWO_PI * N) ** -sigma
    acc = 4 * p * z * scale + 4 * p * p * z * z * scale * scale
    if N > 1:
        A = scale * _hurwitz_pair_table(sigma, N)
        idx = ((h % N) * np.arange(1, N, dtype=np.int64)) % N
        acc += p * p * float(np.sum(A[1:] * A[idx]))
    return acc


@dataclass(frozen=True)
class EnergyReport:
    value: float
    method: str
    N: int
    h: int
    sigma: float
    p: float


def energy(lat: RationalLattice, sigma: float, p: float, method: str = "dft",
           *, tol: float = 1e-13) -> EnergyReport:
    """Energy of K_{sigma,p} on the lattice by the chosen route:
    "direct" (pairwise), "dft" (coefficient table), or "wce"
    (N^2 * (1 + wce_e)).

    The dft and wce routes share the vectorized Hurwitz pair table
    (relative error ~1e-15); tol is the potential's series tolerance
    and applies to "direct" only."""
    if method == "direct":
        pts = lattice_points(lat)
        val = energy_direct(
            lambda t: float(potential_K(sigma, p, t, tol=tol)), pts
        )
    elif method == "dft":
        val = energy_dft(dft_coeffs(sigma, p, lat.N), lat.N, lat.h)
    elif method == "wce":
        val = lat.N ** 2 * (1.0 + wce_e(sigma, p, lat.N, lat.h))
    else:
        raise ValueError(f"unknown method {method!r}; use direct, dft or wce")
    return EnergyReport(float(val), method, lat.N, lat.h, sigma, float(p))


def fib_sum(n: int, sigma: float, kernel: Kernel | None = None,
            *, normalized: bool = True) -> float:
    """The Fibonacci lattice sum at level n >= 2 for the given weight.

    Arguments of sine and weight are reduced exactly on the rational
    grid before any float division.  The sweep runs over m in fixed
    blocks of _SUM_CHUNK terms, each summed with numpy's pairwise
    bracketing and added in index order, so memory stays bounded and
    the result does not depend on the machine; levels with
    F_n <= _SUM_CHUNK are a single block.  Levels n >= 48 are rejected:
    the residue m * F_{n-1} overflows int64 there.
    """
    if n < 2:
        raise ValueError(f"level must be >= 2, got {n}")
    if n >= 48:
        raise ValueError(f"level must be < 48 (int64 residues overflow), got {n}")
    if sigma <= 0:
        raise ValueError(f"exponent must be positive, got {sigma}")
    kernel = kernel or kernel_one()
    fn, fn1 = fib(n), fib(n - 1)
    total = 0.0
    for lo in range(1, fn, _SUM_CHUNK):
        m = np.arange(lo, min(lo + _SUM_CHUNK, fn), dtype=np.int64)
        r = (m * fn1) % fn
        t1 = np.minimum(m, fn - m) / fn
        t2 = np.minimum(r, fn - r) / fn
        vals = kernel.eval_many(t1) * kernel.eval_many(t2)
        vals /= (np.sin(np.pi * t1) * np.sin(np.pi * t2)) ** sigma
        total += float(np.sum(vals))
    return total / float(fn) ** sigma if normalized else total


def fib_sum_grouped(n: int, sigma: float, kernel: Kernel | None = None,
                    *, normalized: bool = True, collect_rows: bool = False):
    """The same sum rearranged along Wythoff rows.

    Each entry W[i, k] below F_n/2 contributes twice (for m and F_n - m),
    with the companion argument taken from the dual array at slot n - k;
    when F_n is even the midpoint m = F_n/2 adds f(1/2)^2 exactly once.
    With collect_rows, also returns {i: per-k term array} of normalized
    terms.
    """
    if n < 2:
        raise ValueError(f"level must be >= 2, got {n}")
    if sigma <= 0:
        raise ValueError(f"exponent must be positive, got {sigma}")
    kernel = kernel or kernel_one()
    fn = fib(n)
    if fn == 1:
        return (0.0, {}) if collect_rows else 0.0
    scale = float(fn) ** sigma if normalized else 1.0
    rows_terms: dict[int, np.ndarray] = {}
    total = 0.0
    for i, k_max in rows_below_half_fib(n):
        w = np.array(wythoff_row_entries(i, k_max), dtype=np.int64)
        wd = np.array([dual_slot(i, n - k) for k in range(1, k_max + 1)],
                      dtype=np.int64)
        t1 = w / fn
        t2 = wd / fn
        vals = kernel.eval_many(t1) * kernel.eval_many(t2)
        vals /= (np.sin(np.pi * t1) * np.sin(np.pi * t2)) ** sigma
        vals /= scale
        rows_terms[i] = vals
        total += 2.0 * float(np.sum(vals))
    if fn % 2 == 0:
        total += kernel.eval(0.5) ** 2 / scale
    if collect_rows:
        return total, rows_terms
    return total
