"""Pair energies of rational lattices and Fibonacci lattice sums.

The point set is Lambda_{N,h} = {(k/N, {h k/N}) : 0 <= k < N} with
gcd(h, N) = 1; the Fibonacci lattice Phi_n uses N = F_n, h = F_{n-1}.
For a one-dimensional potential c the tensor energy is

    E = sum_{x, y in Lambda} c(x1 - y1) c(x2 - y2),

computable either directly (O(N^2) pairs) or, since the lattice is a
cyclic group, from the DFT coefficients of c as
E = N^2 sum_m chat(m) chat(h m mod N).  At even sigma = 2s the energy
of K_{2s,p} is also one generalized Dedekind sum (energy_exact), an
exact rational at any N.

fib_sum evaluates the weighted trigonometric sums

    sum_{m=1}^{F_n - 1} f(m/F_n) f({F_{n-1} m/F_n})
        / |sin(pi m/F_n) sin(pi F_{n-1} m/F_n)|^sigma,

normalized by F_n^sigma, either over the flat grid (fib_sum, levels
n < 48, a cost bound of about 4.8e9 terms) or grouped along Wythoff
rows paired with dual-array entries (fib_sum_grouped, levels n < 44).
Both are whole-array sweeps in fixed blocks of about 2**16 terms and
evaluate each mirror pair m, F_n - m once; the grouped sum is
bit-identical to a loop over rows.

The flat sum is one instance of _pair_sum, the engine of every pair
sum sum_{m=1}^{N-1} term(m/N, h m mod N/N) over a rank-1 lattice: the
other is wce_e's pairing sum A(m/N) A(h m mod N/N), which on
(F_n, F_{n-1}) is the raw fsigma level sum.  The engine adds its
blocks on a grid symmetric about N/2, bit-identical to one flat block
in index order while N - 1 <= 2**16.  Its residues h m mod N come from
a table of one block's residues, built once per call and shifted per
block in exact float64, not from an integer division per term, and
its blocks work in per-call buffers, one pair of arrays per worker, so
a block allocates no work arrays beyond its term's values.  The engine
hands its term a block a slice of _PAIR_SLICE = 2**14 terms at a time,
so the term's temporaries do not grow with the block either.  The level
sums' term is one function, _level_terms, which the grouped sum calls
on 2-D blocks of at most _PAIR_SLICE terms and on its midpoint; its
numerator is the weight's one float path, eval_many(t1) * eval_many(t2),
a NumPy scalar 1 for the constant weight.

The engine's blocks are tasks for _sweep_map, the ordered thread pool
the D row sweep of asymptotics.constant_D also runs on, with one
worker per CPU in the process's affinity mask (_workers) and results
in task order.  Sizes with N - 1 > 2 * 2**16 (levels n >= 27) use it;
smaller ones run inline and start no pool.  The caller adds the block
sums in the same fixed order whatever the worker count, so every sum
has the same bits for any count.  numpy picks its SIMD loops by CPU at
run time, and across those loop families a sum may differ by a few
ulp.  The grouped sum runs inline.

Only the dft energy route reads a whole-N Hurwitz pair table,
kernels.dft_coeffs, capped at N = kernels._PAIR_TABLE_MAX_N; wce takes
N < F_48, the engine's cost bound, and "direct" is capped at
N = _DIRECT_MAX_N.  energy_exact takes 2s <= 32, the degree cap of
gen_dedekind_sum.
"""
from __future__ import annotations

import functools
import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dedekind import gen_dedekind_sum
from .golden import _shown, fib
from .kernels import (
    Kernel,
    _as_float,
    _as_int,
    _bernoulli_coeff,
    _check_coefficient,
    _check_exponent,
    _check_scale,
    _even_exponent,
    _hurwitz_pair,
    bernoulli_number,
    dft_coeffs,
    kernel_one,
    potential_K,
    zeta,
)
from .wythoff import _level_rows

__all__ = [
    "RationalLattice",
    "EnergyReport",
    "lattice_points",
    "energy_direct",
    "energy_exact",
    "energy_dft",
    "wce_e",
    "energy",
    "fib_sum",
    "fib_sum_grouped",
]

_TWO_PI = 2 * math.pi
_SUM_CHUNK = 1 << 16  # terms per block of the pair sum
# terms per slice of a block handed to the pair sum's term, and per 2-D
# block of the grouped sum: a term's temporaries stay at about 128 KiB
# each.  The finer the slices, the more the engine's workers contend for
# the GIL: on two workers the fsigma level sum runs about 10% slower at
# 2**14 than at 2**16, and about twice as slow at 2**12
_PAIR_SLICE = 1 << 14
_DIRECT_MAX_N = 1000  # "direct" runs N**2 Python steps: 5.2 s at N = 987 on one Xeon core


@dataclass(frozen=True)
class RationalLattice:
    """Lambda_{N,h}: N points on the torus, generator slope h."""

    N: int
    h: int

    def __post_init__(self):
        _check_lattice(self.N, self.h)

    @classmethod
    def fibonacci(cls, n: int) -> RationalLattice:
        """Phi_n = Lambda_{F_n, F_{n-1}}, n >= 2."""
        if n < 2:
            raise ValueError(f"level must be >= 2, got {_shown(n)}")
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


def _check_lattice(N: int, h: int) -> tuple[int, int]:
    """(N, h) as ints; ValueError unless both are integers (NumPy ones
    too), N >= 1 and gcd(h, N) = 1, so Lambda_{N,h} exists."""
    N, h = _as_int("modulus", N), _as_int("generator", h)
    if N < 1:
        raise ValueError(f"modulus must be >= 1, got {_shown(N)}")
    if math.gcd(h, N) != 1:
        raise ValueError(f"generator {_shown(h)} not coprime to {_shown(N)}")
    return N, h


def energy_exact(sigma, p, N: int, h: int) -> Fraction:
    """The energy of K_{sigma,p} on Lambda_{N,h} as an exact Fraction, for
    even integer sigma = 2s.

    There K_{2s,p}(t) = 1 + c B_{2s}({t}) with c = p (-1)**(s-1)/(2s)!,
    each coordinate sums B_{2s} over a full residue system, and the
    lattice is a group, so

        E = N (N + 2 c N**(1-2s) B_{2s} + c**2 s_{2s,2s}(1, h; N)),

    one generalized Dedekind sum in O(log N) steps.  p is taken exactly
    (a float as its binary value).  Any other sigma, 2s > 32 (the sum's
    degree cap, 2s + 2s <= 64), a non-finite p, N < 1 and gcd(h, N) != 1
    raise ValueError.
    """
    two_s = _even_exponent(sigma)
    _check_coefficient(p)
    N, h = _check_lattice(N, h)
    c = _bernoulli_coeff(two_s, p)
    s = gen_dedekind_sum(two_s, two_s, 1, h, N)  # first: it refuses 2s > 32
    return N * (N + 2 * c * Fraction(N) ** (1 - two_s) * bernoulli_number(two_s) + c * c * s)


def _quiet_overflow(fn):
    """fn with NumPy's divide, overflow and invalid warnings off.  A term
    past float64 is inf, and the total then fails a finiteness check
    (_finite_sum or _finite_energy) with a ValueError; the warnings would
    only repeat it.  Each call enters a fresh errstate and restores the
    caller's state on return, so the decorated function may also run on
    the sweep pool's threads."""
    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)
    return quiet


def _finite_energy(value: float, N: int, sigma=None, p=None) -> float:
    """value, or ValueError naming the input when it has left float64."""
    if not math.isfinite(value):
        at = "" if sigma is None else f", sigma={sigma:g}, p={p}"
        raise ValueError(f"energy leaves float64 at N={N}{at}")
    return value


@_quiet_overflow
def energy_dft(coeffs, N: int, h: int) -> float:
    """E = N^2 sum_m chat(m) chat(h m mod N) from an N-periodic table;
    ValueError unless Lambda_{N,h} is a lattice (N >= 1, gcd(h, N) = 1),
    and where E leaves float64."""
    N, h = _check_lattice(N, h)
    if len(coeffs) != N:
        raise ValueError(f"coefficient table has length {len(coeffs)}, expected {N}")
    c = np.asarray(coeffs, dtype=np.float64)
    idx = ((h % N) * np.arange(N)) % N  # h % N keeps h * m inside int64
    return _finite_energy(float(N) ** 2 * float(np.sum(c * c[idx])), N)


def wce_e(sigma: float, p: float, N: int, h: int) -> float:
    """-1 + E/N^2 for the potential K_{sigma,p} on Lambda_{N,h}:

    p*4*zeta(sigma)/(2 pi N)**sigma + p^2*4*zeta(sigma)^2/(2 pi N)**(2 sigma)
    + p^2/(2 pi N)**(2 sigma) * sum_{m=1}^{N-1} A(m) A(h m mod N),

    with A(m) = zeta(sigma, m/N) + zeta(sigma, 1 - m/N) from
    kernels._hurwitz_pair (relative error ~1e-15).  The pairing sum is
    _pair_sum's, the engine of the flat level sum (on (F_n, F_{n-1}) it is
    the raw fsigma level sum), with the term (s A(t1)) (s A(t2)),
    s = (2 pi N)**-sigma, so the products stay in range; A is formed on
    the engine's slices of _PAIR_SLICE terms, and a call holds about
    1.6 MiB per worker plus 1 MiB of tables.  Sizes N >= F_48 (the
    engine's cost bound) and those where (2 pi N)**sigma overflows
    float64 raise ValueError, and so do N < 1, gcd(h, N) != 1, a
    non-finite p and a result that leaves float64.  sigma and p are
    taken as Python floats, N and h as ints (a non-integer raises
    ValueError).
    """
    sigma = _check_exponent(sigma)
    _check_coefficient(p)
    p = _as_float("p", p)
    N, h = _check_lattice(N, h)
    if N >= fib(48):  # fib_sum's level bound; first, so that N is a float only below it
        raise ValueError(f"N must be < F_48, the pair sum's cost bound (4.8e9 terms), "
                         f"got {_shown(N)}")
    _check_scale(sigma, N)
    scale = (_TWO_PI * N) ** -sigma

    def term(t1: np.ndarray, t2: np.ndarray) -> None:
        np.multiply(scale * _hurwitz_pair(sigma, t1), scale * _hurwitz_pair(sigma, t2), out=t1)

    z = zeta(sigma)
    acc = 4 * p * z * scale + 4 * p * p * z * z * scale * scale
    return _finite_energy(acc + p * p * _pair_sum(N, h % N, term), N, sigma, p)


@dataclass(frozen=True)
class EnergyReport:
    value: float
    method: str
    N: int
    h: int
    sigma: float
    p: float


@_quiet_overflow
def energy(lat: RationalLattice, sigma: float, p: float,
           method: str = "dft") -> EnergyReport:
    """Energy of K_{sigma,p} on the lattice by the chosen route:
    "direct" (pairwise), "dft" (coefficient table), or "wce"
    (N^2 * (1 + wce_e)).

    The dft and wce routes both take the vectorized Hurwitz pair
    (relative error ~1e-15).  Only dft reads it from the whole-N table,
    and is refused with ValueError above N = 2 * 10**7
    (kernels._PAIR_TABLE_MAX_N, for memory); wce runs on the pair-sum
    engine in bounded memory and is refused from N = F_48 on (a cost
    bound, about 4.8e9 terms).  "direct"
    sums the potential's cosine series to 1e-13 relative to
    max(1, |2p/(2 pi)**sigma|), visits all N**2 pairs in Python and is
    refused with ValueError above N = 1000.  A non-finite sigma or p,
    sigma <= 1, and an energy that leaves float64 raise ValueError on
    every route."""
    sigma = _check_exponent(sigma)
    if method == "direct":
        if lat.N > _DIRECT_MAX_N:
            raise ValueError(
                f"direct route is O(N**2) and capped at N = {_DIRECT_MAX_N}, "
                f"got N = {lat.N}; use dft or wce"
            )
        val = energy_direct(lambda t: float(potential_K(sigma, p, t)), lattice_points(lat))
    elif method == "dft":
        val = energy_dft(dft_coeffs(sigma, p, lat.N), lat.N, lat.h)
    elif method == "wce":
        val = lat.N ** 2 * (1.0 + wce_e(sigma, p, lat.N, lat.h))
    else:
        raise ValueError(f"unknown method {method!r}; use direct, dft or wce")
    _finite_energy(val, lat.N, sigma, p)
    return EnergyReport(float(val), method, lat.N, lat.h, sigma, float(p))


def _workers(threads: int | None, tasks: int) -> int:
    """The worker count of a sweep with this many tasks: threads, else
    the number of CPUs in the process's affinity mask, capped at tasks.
    A count that is not a positive integer raises ValueError."""
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            threads = len(os.sched_getaffinity(0))
        else:
            threads = os.cpu_count() or 1
    elif threads < 1 or int(threads) != threads:
        raise ValueError(f"thread count must be a positive integer, got {threads!r}")
    return min(int(threads), tasks)


def _sweep_map(fn, tasks, workers: int) -> list:
    """[fn(t) for t in tasks], in task order: one worker runs the list
    inline and starts no pool, more run it on a thread pool of that
    many.  Both start tasks in list order.

    The sweeps' tasks are NumPy array kernels, which release the GIL in
    the elementwise loops that take the time.  Pool threads start with
    NumPy's default floating-point error state, so a task that needs
    another sets it itself (as _quiet_overflow does)."""
    if workers <= 1:
        return list(map(fn, tasks))
    with ThreadPoolExecutor(workers) as ex:
        return list(ex.map(fn, tasks))


def _level_scale(n: int, sigma: float) -> float:
    """F_n**sigma, the normalization of a level sum; ValueError where it
    leaves float64."""
    try:
        return float(fib(n)) ** sigma
    except OverflowError:
        raise ValueError(
            f"F_n**sigma overflows float64 at n={n}, sigma={sigma:g}") from None


def _check_level(n: int, sigma: float, kernel: Kernel | None) -> tuple[float, Kernel]:
    """sigma as a Python float and the weight (one by default) of a level
    sum; ValueError for a level below 2 and a sigma outside (0, inf)."""
    if n < 2:
        raise ValueError(f"level must be >= 2, got {_shown(n)}")
    if not 0 < sigma < math.inf:
        raise ValueError(f"exponent must be finite and positive, got {sigma}")
    return _as_float("exponent", sigma), kernel or kernel_one()


def _finite_sum(total: float, n: int, sigma: float) -> float:
    if not math.isfinite(total):
        raise ValueError(f"level sum leaves float64 at n={n}, sigma={sigma:g}")
    return total


def _level_terms(kernel: Kernel, sigma: float, t1: np.ndarray, t2: np.ndarray) -> None:
    """The level-sum terms f(t1) f(t2) / (sin(pi t1) sin(pi t2))**sigma of
    arrays of one shape, formed in place in t1, with t2 as scratch: the
    one term of fib_sum (on the pair-sum engine's slices) and of
    fib_sum_grouped (on its 2-D blocks and its midpoint).  The numerator
    is eval_many(t1) * eval_many(t2): for the constant weight a NumPy
    scalar 1."""
    num = kernel.eval_many(t1) * kernel.eval_many(t2)
    for t in (t1, t2):
        t *= np.pi
        np.sin(t, out=t)
    t1 *= t2
    t1 **= sigma
    np.divide(num, t1, out=t1)


def _pair_sum(N: int, h: int, term) -> float:
    """The pair sum sum_{m=1}^{N-1} term(t1, t2) over Lambda_{N,h},
    1 <= N < F_48 and 0 <= h < N, at t1 = min(m, N - m)/N and
    t2 = min(r, N - r)/N, r = h m mod N: the one engine of the flat level
    sum and of wce_e.  N < F_48 (about 4.8e9 terms) is the engine's cost
    bound, which each caller checks before it forms an array or turns N
    into a float.

    term(t1, t2) takes two float64 views of at most _PAIR_SLICE terms of
    a block's folded arguments and leaves their terms in t1; t2 is its
    scratch.  The engine hands it each block a slice at a time, so the
    term's temporaries stay the size of a slice, while the block sums
    are taken over whole blocks as below.  Both arguments are reduced
    exactly on the rational grid before the one float division, so the
    term at N - m is bit-equal to the term at m, and each mirror pair is
    computed once, for m <= N/2.  The residues come from a table built
    once per call, k and k h mod N for k below one block: a block at lo
    adds lo and lo h mod N and folds, in float64, where every value is
    an integer of magnitude below 2 N < 2**53 and so exact; no term pays
    an integer division.  The sum runs
    over a fixed block grid symmetric about N/2: pairs of outer blocks of
    B = _SUM_CHUNK terms, [1 + jB, 1 + (j+1)B) and its mirror (the same
    values reversed), around one middle block of 1 to 2B terms.  Each
    block is summed with numpy's pairwise bracketing in index order and
    the block sums are added in ascending m, so for N - 1 <= B the sum is
    bit-identical to one flat block in index order.  Each outer pair and
    the middle block is one task of _sweep_map: sizes with more than one
    block (N - 1 > 2B) run on every CPU in the affinity mask, smaller
    ones inline.  The bits are the same for any worker count; numpy's
    SIMD loop families (picked by CPU at run time) may round a term
    differently, and the sum then by a few ulp.  A task works in one of
    the call's pairs of work arrays, one pair per worker, and hands it
    back once its block sums are formed: a call allocates its memory
    once, about 1 MiB per worker plus 1 MiB of tables at N > 2B, beyond
    the term's temporaries on one slice, and holds none after it returns.
    """
    if N == 1:
        return 0.0
    B = _SUM_CHUNK
    pairs = (N - 2) // (2 * B)  # leaves 1 to 2B of the N - 1 terms in the middle
    span = min(B, N // 2)  # the most terms one block computes
    # k and k h mod N - N for k < span, as doubles: every value here and
    # in block() is an integer of magnitude below 2 N < 2**53, so each is
    # exact (k h < 2**16 F_48 stays in int64)
    shifted = np.arange(span, dtype=np.int64)
    shifted *= h
    shifted %= N
    shifted = np.subtract(shifted, N, dtype=np.float64)
    ks = np.arange(span, dtype=np.float64)

    # one (t1, t2) pair of work arrays per worker, for this call only: a
    # block takes a free pair and puts it back once its sums are formed
    workers = _workers(None, pairs + 1)
    free = queue.SimpleQueue()
    for pair in np.empty((workers, 2, span)):
        free.put(pair)

    @_quiet_overflow
    def block(j: int) -> tuple:
        buf = free.get()
        try:
            # outer block j, or the half of the middle block
            # [1 + pairs*B, N - pairs*B) below N/2 (at most span terms)
            lo = 1 + j * B
            size = span if j < pairs else N // 2 - pairs * B
            t1, t2 = buf[:, :size]
            # m = lo + k <= N/2 here, so min(m, N - m) = m.  With
            # r = k h mod N + lo h mod N in [0, 2N) and d = |r - N|, the
            # folded residue min(r mod N, N - r mod N) is min(d, N - d),
            # formed with t1 as scratch
            np.add(shifted[:size], lo * h % N, out=t2)
            np.abs(t2, out=t2)
            np.subtract(N, t2, out=t1)
            np.minimum(t2, t1, out=t2)
            t2 /= N
            np.add(ks[:size], lo, out=t1)
            t1 /= N
            for a in range(0, size, _PAIR_SLICE):
                term(t1[a:a + _PAIR_SLICE], t2[a:a + _PAIR_SLICE])
            if j < pairs:  # and its mirror, the same values reversed
                return float(np.sum(t1)), float(np.sum(t1[::-1]))
            # the middle block's mirror, right after its half in the
            # pair's memory, leaves out the midpoint N/2 when N is even
            whole = buf.reshape(-1)[: 2 * size - 1 + N % 2]
            whole[size:] = t1[: size - 1 + N % 2][::-1]
            return (float(np.sum(whole)),)
        finally:
            free.put(buf)  # on an error too, or later blocks would wait forever

    *outer, (middle,) = _sweep_map(block, range(pairs + 1), workers)
    total = 0.0
    for s in (*(lo for lo, _ in outer), middle, *(up for _, up in outer[::-1])):
        total += s
    return total


def fib_sum(n: int, sigma: float, kernel: Kernel | None = None,
            *, normalized: bool = True) -> float:
    """The Fibonacci lattice sum at level n >= 2 for the given weight:
    the pair sum of _pair_sum on Phi_n = Lambda_{F_n, F_{n-1}} with the
    term f(t1) f(t2) / (sin(pi t1) sin(pi t2))**sigma of _level_terms,
    formed on the engine's slices of _PAIR_SLICE terms, divided by
    F_n**sigma when normalized.  sigma is taken as a Python float.

    _pair_sum's block grid makes levels with F_n - 1 <= 2**16 (n <= 24)
    bit-identical to one flat block in index order, and levels with
    F_n - 1 > 2 * 2**16 (n >= 27) run on every CPU in the affinity mask.
    The bits are the same for any worker count; across numpy's SIMD loop
    families they may differ by a few ulp.  A call holds about 1 MiB per
    worker plus 1 MiB of tables at n >= 25, and the term's temporaries on
    one slice, and none after it returns.  Levels n >= 48 are refused by
    the cost bound: F_48 - 1 is about 4.8e9 terms.  So are sums whose
    F_n**sigma (when normalized) or total leaves float64.
    """
    sigma, kernel = _check_level(n, sigma, kernel)
    if n >= 48:
        raise ValueError(
            f"level must be < 48 (F_48 - 1, about 4.8e9 terms, is past the "
            f"flat sweep's cost bound), got {_shown(n)}")
    scale = _level_scale(n, sigma) if normalized else 1.0
    term = functools.partial(_level_terms, kernel, sigma)
    return _finite_sum(_pair_sum(fib(n), fib(n - 1), term), n, sigma) / scale


@_quiet_overflow
def fib_sum_grouped(n: int, sigma: float, kernel: Kernel | None = None,
                    *, normalized: bool = True) -> float:
    """The same sum rearranged along Wythoff rows.

    Each entry W[i, k] below F_n/2 contributes twice (for m and F_n - m),
    with the companion argument taken from the dual array at slot n - k;
    when F_n is even the midpoint m = F_n/2 adds its term, f(1/2)^2,
    exactly once.  Every term is fib_sum's, from _level_terms.

    Vectorized over the row columns: rows of equal depth k_max form 2-D
    blocks of at most _PAIR_SLICE terms, with W[i, k] and Wd[i, n - k]
    exact in int64.  Each row is summed by numpy's pairwise bracketing
    over that row alone, and 2 * (row sum) is added in ascending i, so
    the result is bit-identical to a per-row loop.  Levels n >= 44 raise
    ValueError: their rows leave the exact row columns, and so do
    sums whose F_n**sigma (when normalized) or total leaves float64.
    """
    sigma, kernel = _check_level(n, sigma, kernel)
    rows = _level_rows(n)  # refuses n >= 44 before F_n is formed
    fn = fib(n)
    if fn == 1:
        return 0.0
    scale = _level_scale(n, sigma) if normalized else 1.0
    F = np.array([fib(k) for k in range(n + 1)], dtype=np.int64)
    total = 0.0
    for i, L, depth in rows:
        k = np.arange(1, depth + 1)
        step = _PAIR_SLICE // depth  # depths stay below 44
        for lo in range(0, len(i), step):
            Lc, ic = L[lo:lo + step, None], i[lo:lo + step, None] - 1
            t1 = (F[k + 1] * Lc + F[k] * ic) / fn
            t2 = (F[n - k - 1] * Lc - F[n - k] * ic) / fn
            _level_terms(kernel, sigma, t1, t2)
            t1 /= scale
            total = float(np.add.accumulate(np.r_[total, 2.0 * t1.sum(axis=1)])[-1])
    if fn % 2 == 0:  # the midpoint m = F_n/2, once
        t1, t2 = np.full((2, 1), 0.5)
        _level_terms(kernel, sigma, t1, t2)
        total += float(t1[0]) / scale
    return _finite_sum(total, n, sigma)
