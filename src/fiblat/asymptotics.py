"""Asymptotic constants of the Fibonacci lattice sums.

The normalized level-n sum grows like C*n + D.  C is a prefactor times
the sum of eta_i**-sigma over all rows, a Dedekind zeta value of the
field generated by sqrt 5; D adds two one-sided correction series per
row (one along the row, one along its dual) minus a counting term.

C carries a certified tail (eta_i >= i, so the remainder is dominated
by an integral) and is summed at the precision that tail needs, by the
same eta sum as the eta-series route of dedekind_zeta.  That sum forms
the int32 eta column alone, block by block, and builds or caches no
RowTable.  eta_i = -N(w_plus(i)) is a norm and repeats, so it takes
one power per distinct eta, weighted by its row count (_power_sum).
The Euler product route of dedekind_zeta takes the same zeta value
untruncated, from the Riemann zeta and four Hurwitz zeta values.
For even sigma C also has an exact Bernoulli closed form, which the
closed route of dedekind_zeta reuses.  D has one production path, a
vectorized row sweep run at extended and at double precision (the gap
is reported as a rounding proxy), and one oracle, the per-row mpmath
series delta_mp and delta_star_mp.  D's inner tails are
geometric-ratio estimates and its outer tail a fitted dyadic decay,
both reported rather than certified.

The sweep cuts the rows into fixed chunks of _CHUNK rows, and the
chunks of both precision passes form one task list.  It runs on
energy._sweep_map, the ordered thread pool the level sums share, by
the same rule: one worker per CPU in the process's affinity mask,
capped at the number of chunks, so i_max <= _CHUNK runs inline.  The
affinity mask is the one control; constant_D's threads= is kept only
for timing one worker count against another.  Each pass adds its
chunk sums in row order, so every output is bit-identical for any
worker count.  A chunk forms its terms in place, in five chunk-length
work arrays shared by its two series, so a worker's memory does not
grow with k_max and stays near a dozen chunk-length arrays.

A term f0*f(x)/(pi*w*sin(pi*x))**sigma comes from the weight's
Kernel.d_term.  For one and the trig weights it is that expression in
the pass's precision.  The fsigma weight divides its own sin**sigma back
out and forms its terms, the Hurwitz pair over (pi*w)**sigma, at double
in both passes, as its eval_many does; its precision gap then measures
only the forming of x and w, the flat weights and the summation.
"""
from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import libmp

from ._bounds import FIT_LEVEL, HURWITZ_SIGMA, ROW_TRUNCATION, SERIES_PREC, _shown
from .dedekind import CLOSED_FAMILIES
from .energy import _sweep_map, _workers, fib_sum
from .golden import _to_mpf, fib, phi_power
from .kernels import (
    _PI_STR,
    Kernel,
    _as_float,
    _bernoulli_coeff,
    _check_exponent,
    _even_exponent,
    bernoulli_number,
    bernoulli_poly,
    kernel_one,
    parse_kernel,
)
from .wythoff import WythoffRow, _eta_column, row, row_table

__all__ = [
    "PHI",
    "CConstant",
    "ClosedConstant",
    "ZetaRoute",
    "ZETA_ROUTES",
    "DConstant",
    "ExactConstants",
    "ResidualRow",
    "prefactor",
    "delta_mp",
    "delta_star_mp",
    "constant_C",
    "constant_C_closed",
    "dedekind_zeta",
    "constant_D",
    "exact_constants",
    "residual_fit",
    "approximation_errors",
]

PHI = (1 + 5 ** 0.5) / 2
_CHUNK = 8192  # fixed chunk size keeps the reduction order independent of threading
_POWER_BLOCK = 4096  # terms per block _power_sum turns into Python ints

ZETA_ROUTES = (
    "eta-series",
    "euler-product-L-times-zeta",
    "bernoulli-closed-form",
)


def prefactor(sigma: float, f0: float) -> float:
    """f(0)**2 * 5**(sigma/2) / pi**(2*sigma): the weight every row term
    in C and D is measured against.  ValueError where it leaves float64
    (pi**(2*sigma) does above sigma ~ 310, f(0)**2 above f(0) ~ 1e154)."""
    sigma = _as_float("exponent", sigma)
    try:
        value = f0 * f0 * 5.0 ** (sigma / 2) / math.pi ** (2 * sigma)
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(
            f"prefactor f(0)**2 * 5**(sigma/2) / pi**(2*sigma) overflows float64 "
            f"at sigma={sigma:g}, f(0)={f0:g}")
    return value


def _pref_mp(sigma: float, f0) -> mpmath.mpf:
    return f0 * f0 * mpmath.power(5, mpmath.mpf(sigma) / 2) / mpmath.pi ** (2 * mpmath.mpf(sigma))


# ---------------------------------------------------------------------------
# the two one-sided series behind D


def _one_sided_mp(r: WythoffRow, sigma: float, kernel: Kernel, terms, prec: int) -> mpmath.mpf:
    """Sum of f0*f(x)/(pi*w*sin(pi*x))**sigma - base over the pairs
    (x, w) of terms, x exact in Z[phi] and w an integer entry, in
    prec-bit arithmetic; base = f(0)**2 * 5**(sigma/2)/(pi**(2*sigma) *
    eta_i**sigma) is the flat per-slot weight of row r."""
    with mpmath.workprec(prec):
        f0 = kernel.eval_mp(0)
        base = _pref_mp(sigma, f0) / mpmath.mpf(r.eta) ** sigma
        total = mpmath.mpf(0)
        for x, w in terms:
            x = _to_mpf(x)
            g = mpmath.pi * w * mpmath.sinpi(x)
            total += f0 * kernel.eval_mp(x) / g ** sigma - base
        return +total


def delta_mp(i: int, sigma: float, kernel: Kernel | None = None,
             k_max: int = 64, prec: int = 200) -> mpmath.mpf:
    """Row-side correction series at row i, truncated after k_max terms,
    in prec-bit arithmetic.

    Term k compares the limiting row term f(0)*f(x)/(pi*W[i,k]*sin(pi*x))**sigma,
    x = -w_minus(i)*phi**-k, against the flat per-slot weight
    f(0)**2 * 5**(sigma/2)/(pi**(2*sigma) * eta_i**sigma); the difference
    decays geometrically in k.  The independent oracle for the row sweep
    of constant_D: exact integer entries, exact ring arguments.
    """
    r = row(i)
    terms = ((-r.w_minus * phi_power(-k), r.entry(k)) for k in range(1, k_max + 1))
    return _one_sided_mp(r, sigma, kernel or kernel_one(), terms, prec)


def delta_star_mp(i: int, sigma: float, kernel: Kernel | None = None,
                  j_max: int = 64, prec: int = 200) -> mpmath.mpf:
    """Dual-side correction series at row i, starting at slot mu_i + 1,
    in prec-bit arithmetic.

    Term j uses the dual entry Wd[i, mu_i + j] and the argument
    x = w_plus(i)*phi**-(mu_i+j), which lies in (0, 1/2) by the choice
    of the threshold mu_i; it is measured against the same flat weight
    as delta_mp.
    """
    r = row(i)
    terms = ((r.w_plus * phi_power(-m), r.dual(m))
             for m in range(r.mu + 1, r.mu + j_max + 1))
    return _one_sided_mp(r, sigma, kernel or kernel_one(), terms, prec)


# ---------------------------------------------------------------------------
# the linear coefficient C


@dataclass(frozen=True)
class CConstant:
    """Series value of the linear coefficient with a certified tail."""

    value: float
    tail_bound: float
    sigma: float
    f0: float
    i_max: int
    prec: int
    value_mp: mpmath.mpf


def _power_sum(sigma: float, values: np.ndarray, weights: np.ndarray) -> mpmath.mpf:
    """sum_v w_v * v**-sigma over distinct positive integers v (values)
    with positive integer weights w_v (weights), at the current working
    precision prec and rounded once there.  A weight counts the
    occurrences of v in a sum over terms.

    Integer sigma is summed exactly in integers: each occurrence is
    floor(2**P / v**sigma) with P = prec + bit_length(sum w_v) + 2, so
    the occurrences together round down by less than 2**-(prec+2) and
    the integer does not depend on the grouping or the order.  Other
    sigma take one mpf_pow per v, rounded at prec as mpf(v)**-sigma is;
    each is multiplied by w_v exactly, and mpf_sum adds them exactly and
    rounds once at prec, so the result equals fsum over the occurrences
    bit for bit.  Either way the arrays become Python ints
    _POWER_BLOCK at a time, never as whole lists.
    """
    prec = mpmath.mp.prec
    blocks = [slice(lo, lo + _POWER_BLOCK) for lo in range(0, len(values), _POWER_BLOCK)]
    if float(sigma).is_integer():
        s = int(sigma)
        P = prec + int(weights.sum()).bit_length() + 2
        one = 1 << P
        total = 0
        for b in blocks:
            total += sum(w * (one // v ** s)
                         for v, w in zip(values[b].tolist(), weights[b].tolist()))
        return mpmath.ldexp(mpmath.mpf(total), -P)
    t = libmp.from_float(-float(sigma))
    rnd = libmp.round_nearest
    pairs = itertools.chain.from_iterable(
        zip(values[b].tolist(), weights[b].tolist()) for b in blocks)
    terms = (libmp.mpf_mul(libmp.mpf_pow(libmp.from_int(v), t, prec, rnd), libmp.from_int(w))
             for v, w in pairs)
    return mpmath.mp.make_mpf(libmp.mpf_sum(terms, prec, rnd))


def _series_prec(decay: float, n_top: int) -> int:
    """max(60, decay*log2(n_top) + 30) bits: the precision that puts the
    rounding of a sum over n <= n_top some 2**-30 below a tail of order
    n_top**-decay.  ValueError past 2**16 bits (_bounds.SERIES_PREC; inf
    and NaN too), where the powers would grow without bound."""
    bits = decay * math.log2(n_top)
    SERIES_PREC.check(bits + 30, bits + 30, n_top)
    return max(60, int(bits) + 30)


def _eta_power_sum(sigma: float, n_top: int) -> tuple[mpmath.mpf, int]:
    """sum_{i <= n_top} eta_i**-sigma and the precision prec it is
    formed at, _series_prec(sigma - 1, n_top) bits, so that its rounding
    sits some 2**-30 below the certified tail n_top**(1-sigma)/(sigma-1).
    constant_C and the eta-series route of dedekind_zeta both take their
    sum from here.

    eta_i = -N(w_plus(i)) is a norm and repeats (44598 distinct values
    in the first 10**5 rows), so _power_sum takes one power per distinct
    eta, weighted by its row count.  The eta column is formed on its own
    (_eta_column, int32), with no RowTable built or cached; past
    RowTable's exact range it raises ValueError, as RowTable does."""
    prec = _series_prec(sigma - 1, n_top)
    eta, count = np.unique(_eta_column(n_top), return_counts=True)
    with mpmath.workprec(prec):
        return _power_sum(sigma, eta, count), prec


def constant_C(sigma: float, kernel: Kernel | None = None,
               i_max: int = 100000) -> CConstant:
    """C = 2 f(0)**2 5**(sigma/2)/pi**(2*sigma) * sum_i eta_i**-sigma,
    truncated at i_max.

    The tail is certified: eta_i >= i gives
    sum_{i>i_max} eta_i**-sigma <= i_max**(1-sigma)/(sigma-1).  For
    large sigma that tail sits far below double precision, so the sum
    is formed at a precision prec matched to the tail (_eta_power_sum)
    and returned both as a float and as value_mp.  i_max below 8 raises
    ValueError, as in constant_D, and so does one past the exact row
    columns (RowTable's), before the tail forms i_max**(1 - sigma).
    """
    sigma = _check_exponent(sigma)
    ROW_TRUNCATION.check(i_max)
    f0 = kernel.value_at_zero if kernel is not None else 1.0
    # first, so that a sigma whose prefactor leaves float64 is refused
    # before the sum
    tail = 2 * prefactor(sigma, f0) * i_max ** (1 - sigma) / (sigma - 1)
    total, prec = _eta_power_sum(sigma, i_max)
    with mpmath.workprec(prec):
        c_mp = 2 * _pref_mp(sigma, mpmath.mpf(f0)) * total
    return CConstant(float(c_mp), tail, float(sigma), float(f0), i_max, prec, c_mp)


@dataclass(frozen=True)
class ClosedConstant:
    """Exact closed form of C for even integer exponents.

    value = coefficient / sqrt(5) with coefficient rational.
    """

    coefficient: Fraction
    value: float
    value_mp: mpmath.mpf


def constant_C_closed(sigma: int, f0=1) -> ClosedConstant:
    """C at sigma = 2s in closed form, c**2 * 80**s * (B_{2s}(1/5) - B_{2s}(2/5))
    * B_{2s} / sqrt5 with c = f0 (-1)**(s-1) / (2s)! taken exactly.  A
    non-finite f0, and a C that leaves float64, raise ValueError."""
    two_s = _even_exponent(sigma)
    if not isinstance(f0, numbers.Rational) and not math.isfinite(f0):
        raise ValueError(f"weight value f(0) must be finite, got {f0}")
    c = _bernoulli_coeff(two_s, Fraction(f0))
    db = bernoulli_poly(two_s, Fraction(1, 5)) - bernoulli_poly(two_s, Fraction(2, 5))
    coeff = c * c * Fraction(80) ** (two_s // 2) * db * bernoulli_number(two_s)
    with mpmath.workprec(120):
        v = mpmath.mpf(coeff.numerator) / coeff.denominator / mpmath.sqrt(5)
    value = float(v)
    if not math.isfinite(value):
        raise ValueError(f"C leaves float64 at sigma={sigma}, f(0)={f0}")
    return ClosedConstant(coeff, value, v)


# ---------------------------------------------------------------------------
# the zeta value behind C, by three routes


@dataclass(frozen=True)
class ZetaRoute:
    route: str
    sigma: float
    value: float
    certified_error: float
    truncation: int
    value_mp: mpmath.mpf


def dedekind_zeta(sigma: float, route: str = "eta-series",
                  truncation: int = 100000) -> ZetaRoute:
    """The zeta value sum_i eta_i**-sigma by one of three routes.

    eta-series sums the row invariants to truncation >= 8 (tail certified
    via eta_i >= i) through _power_sum at the working precision prec: an
    exact integer fixed-point sum for integer sigma, mpmath powers added
    exactly and rounded once otherwise.  euler-product-L-times-zeta is
    zeta(sigma) * 5**-sigma * sum_a chi_5(a) zeta(sigma, a/5) exactly
    (Apostol, ch. 12), at 120 bits and untruncated; its error scales with
    sum_a zeta(sigma, a/5), which covers their cancellation near the pole,
    and it refuses sigma > 2**16.  The Bernoulli closed form (even integer
    sigma only) rescales constant_C_closed.
    """
    _check_exponent(sigma)
    if route not in ZETA_ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ZETA_ROUTES}")
    if route == "bernoulli-closed-form":
        # C = 2 * 5**(sigma/2) / pi**(2*sigma) * zeta_K at unit weight
        two_s = _even_exponent(sigma)
        c = constant_C_closed(two_s)
        with mpmath.workprec(120):
            v = (c.value_mp * mpmath.pi ** (2 * two_s)
                 / (2 * mpmath.mpf(5) ** (two_s // 2)))
        return ZetaRoute(route, float(sigma), float(v), float(abs(v)) * 2.0 ** -100, 0, v)

    if route == "euler-product-L-times-zeta":
        HURWITZ_SIGMA.check(sigma)
        with mpmath.workprec(120):
            s = mpmath.mpf(sigma)
            h1, h2, h3, h4 = (mpmath.zeta(s, mpmath.mpf(a) / 5) for a in range(1, 5))
            scale = mpmath.zeta(s) / mpmath.power(5, s)
            v = scale * (h1 - h2 - h3 + h4)
            size = scale * (h1 + h2 + h3 + h4)  # every zeta(s, a) > 0
        return ZetaRoute(route, float(sigma), float(v), float(size) * 2.0 ** (18 - 120), 0, v)

    n_top = int(truncation)
    if n_top < 8:
        raise ValueError(f"truncation too small: {_shown(n_top)}")
    total, prec = _eta_power_sum(sigma, n_top)
    tail = n_top ** (1 - sigma) / (sigma - 1)
    err = tail + float(total) * 2.0 ** (18 - prec)
    return ZetaRoute(route, float(sigma), float(total), err, n_top, total)


# ---------------------------------------------------------------------------
# the offset D: vectorized two-precision row sweep


@dataclass(frozen=True)
class DConstant:
    """Truncated offset series with reported (not certified) errors."""

    value: float
    inner_tail: float
    outer_tail: float
    precision_gap: float
    sigma: float
    kernel: str
    i_max: int
    k_max: int
    threads: int  # workers the sweep ran on

    @property
    def error_estimate(self) -> float:
        return self.inner_tail + self.outer_tail + self.precision_gap


def _tail_mass(last: np.ndarray, prev: np.ndarray) -> float:
    last = np.abs(last)
    prev = np.abs(prev)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(prev > 0, last / prev, 0.9)
    r = np.minimum(r, 0.9)
    t = 2.0 * last * r / (1.0 - r)
    return float(np.where(last > 0, t, 0).sum())


def _one_sided(acc, x0, w0, sign, kernel: Kernel, k_max: int, sg, f0, base,
               pi, phi, sqrt5, work) -> float:
    """Add terms k = 1..k_max of one one-sided series into acc in place;
    return their inner tail mass.

    Term k has argument x = x0*phi**-k and integer entry
    w = (w0*phi**k + (-1)**k*sign*x)/sqrt5, and is
    f0*f(x)/(pi*w*sin(pi*x))**sigma - base.  The terms are formed in
    the five chunk-length arrays of work, term k in t[k % 2], by the
    operations of that expression in its order (a - b for a + (-b));
    the weight's part comes from kernel.d_term, with g as its scratch
    array, so no term allocates an array beyond the weight's own.
    """
    x, w, g, *t = work
    for k in range(1, k_max + 1):
        pk = phi ** k
        np.multiply(x0, 1 / pk, out=x)
        np.multiply(sign, x, out=g)  # sign * x
        np.multiply(w0, pk, out=w)
        if k % 2 == 0:
            w += g
        else:
            w -= g
        w /= sqrt5
        w *= pi
        tk = t[k % 2]
        kernel.d_term(x, w, sg, f0, tk, g)
        tk -= base
        acc += tk
    return _tail_mass(t[k_max % 2], t[(k_max - 1) % 2])


def _d_chunk(tab, lo: int, hi: int, sigma: float, kernel: Kernel,
             k_max: int, i_max: int, dtype):
    """Row terms delta_mp + delta_star_mp - base*(mu+1) summed over rows
    (lo, hi] (0-based slice), all in the requested dtype.

    Returns (sum, inner tail mass, |term| mass over i > i_max/2,
    |term| mass over i_max/4 < i <= i_max/2).  Every array is formed in
    place, in the order of the expressions it stands for, and the two
    series share one set of five work arrays: a chunk holds about a
    dozen chunk-length arrays at a time, its weight's values included.
    """
    pi = dtype(_PI_STR)
    sqrt5 = np.sqrt(dtype(5))
    phi = (1 + sqrt5) / 2
    sg = dtype(sigma)
    f0 = dtype(kernel.value_at_zero)
    pref = f0 * f0 * dtype(5) ** (sg / 2) / pi ** (2 * sg)

    iv = tab.i[lo:hi]
    mu = tab.mu[lo:hi]
    idx = iv.astype(dtype)
    idx -= 1
    L = tab.floor_phi_i[lo:hi].astype(dtype)
    wp = np.multiply(L, phi)
    np.add(idx, wp, out=wp)  # (i - 1) + L * phi
    wmn = L
    wmn *= phi - 1
    wmn -= idx  # -w_minus, in (phi**-2, 1)
    del idx
    base = tab.eta[lo:hi].astype(dtype)
    base **= sg
    np.divide(pref, base, out=base)  # pref / eta**sigma
    acc = mu.astype(dtype)
    acc += 1
    np.negative(acc, out=acc)
    acc *= base  # -(mu + 1) * base

    work = np.empty((5, len(acc)), dtype)
    inner = _one_sided(acc, wmn, wp, 1, kernel, k_max, sg, f0, base, pi, phi, sqrt5, work)

    smu = np.where(mu % 2 == 0, dtype(1), dtype(-1))
    pmu = np.power(phi, mu)
    wp /= pmu
    wmn *= pmu
    del pmu
    inner += _one_sided(acc, wp, wmn, smu, kernel, k_max, sg, f0, base, pi, phi, sqrt5,
                        work)

    total = acc.sum()
    rabs = np.abs(acc, out=acc)
    m_hi = float(rabs[2 * iv > i_max].sum())
    m_mid = float(rabs[(4 * iv > i_max) & (2 * iv <= i_max)].sum())
    return total, inner, m_hi, m_mid


def _check_sweep_range(sigma: float, kernel: Kernel, tab, k_max: int) -> None:
    """Raise ValueError where a float64 power the row sweep forms would
    overflow.  prefactor covers f(0)**2 and pi**(2*sigma).  A term's base
    g = pi*w*sin(pi*x) stays below pi**2 * w*x <= pi**2 * (eta + 1)/sqrt5,
    which also exceeds eta, and is near it for large k.  On the way the
    sweep forms w0 * phi**k and pi * w, both below
    pi * max(w_plus) * phi**k_max (the dual side's w0 is under
    2 * w_plus).  The weight is tried at the smallest argument,
    min(-w_minus, 1/2) * phi**-k_max (the dual side starts at or above
    1/2): the fsigma weight forms argument**-sigma."""
    pref = prefactor(sigma, kernel.value_at_zero)
    g_max = math.pi ** 2 * (float(tab.eta.max()) + 1) / math.sqrt(5)
    log_max = math.log(sys.float_info.max)
    if not math.isfinite(pref) or sigma * math.log(g_max) >= log_max:
        raise ValueError(f"the D sweep leaves float64 at sigma={sigma:g}, i_max="
                         f"{tab.i_max}: (pi**2 * (eta + 1)/sqrt5)**sigma overflows")
    if math.log(math.pi * float(tab.w_plus.max())) + k_max * math.log(PHI) >= log_max:
        raise ValueError(f"the D sweep leaves float64 at k_max={k_max}, i_max="
                         f"{tab.i_max}: pi * max(w_plus) * phi**k_max overflows")
    kernel.eval_many(np.array([min(float(tab.w_minus_neg.min()), 0.5) * PHI ** -k_max]))


def _d_pass(parts, dtype):
    """Reduce one pass's chunk results, given in row order, to
    (value, inner tail, outer tail)."""
    total = dtype(0)
    inner = m_hi = m_mid = 0.0
    for p in parts:  # fixed order: deterministic for any thread count
        total = total + p[0]
        inner += p[1]
        m_hi += p[2]
        m_mid += p[3]
    value = 2.0 * float(total)
    inner *= 2.0
    # dyadic decay of the outer |term| mass, fitted from the last two
    # halvings and extended geometrically (safety factor two)
    q = min(m_hi / m_mid, 0.95) if m_mid > 0 else 0.95
    outer = 2.0 * 2.0 * m_hi * q / (1.0 - q)
    return value, inner, outer


def constant_D(sigma: float, kernel: Kernel | None = None,
               i_max: int = 100000, k_max: int = 64, *,
               threads: int | None = None) -> DConstant:
    """D = 2 sum_i (delta_mp(i) + delta_star_mp(i) - base_i*(mu_i+1))
    truncated at i_max rows and k_max inner terms, by a vectorized sweep.

    Runs the sweep in extended precision and again at double, reporting
    the difference as the rounding proxy; the fsigma weight's terms are
    formed at double in both passes (Kernel.d_term), so for it the proxy
    covers the arguments, the flat weights and the summation.  Rows are
    cut into chunks of _CHUNK rows, and the chunks of both passes form
    one task list, extended precision first.  One worker runs the list
    inline; more run it on a pool of one worker per CPU in the process's
    affinity mask (threads= sets another count, for timing), capped at
    the number of chunks, so i_max <= _CHUNK runs inline.  Each pass adds
    its chunk sums in row order, so the result is bit-identical for any
    worker count; DConstant.threads records the count used.  A thread
    count that is not a positive integer raises ValueError, and so does
    a sigma, weight and i_max whose powers leave float64
    (_check_sweep_range), or a non-finite pass total.  An i_max past the
    exact row columns (RowTable's) is refused before the chunk list.
    """
    _check_exponent(sigma)
    ROW_TRUNCATION.check(i_max)
    if k_max < 2:
        raise ValueError(f"need at least two inner terms, got k_max={k_max}")
    kernel = kernel or kernel_one()
    spans = [(lo, min(lo + _CHUNK, i_max)) for lo in range(0, i_max, _CHUNK)]
    nthreads = _workers(threads, len(spans))
    tab = row_table(i_max)
    _check_sweep_range(sigma, kernel, tab, k_max)

    def run(task):
        dtype, (lo, hi) = task
        return _d_chunk(tab, lo, hi, sigma, kernel, k_max, i_max, dtype)

    # the slow extended-precision chunks come first
    tasks = [(dtype, span) for dtype in (np.longdouble, np.float64) for span in spans]
    parts = _sweep_map(run, tasks, nthreads)
    value, inner, outer = _d_pass(parts[:len(spans)], np.longdouble)
    lo_value, _, _ = _d_pass(parts[len(spans):], np.float64)
    if not (math.isfinite(value) and math.isfinite(lo_value)):
        raise ValueError(f"the D sweep leaves float64 at sigma={sigma:g}, "
                         f"kernel {kernel.name}")
    gap = abs(value - lo_value)
    return DConstant(value, inner, outer, gap, float(sigma), kernel.name,
                     i_max, k_max, nthreads)


# ---------------------------------------------------------------------------
# residual analysis


@dataclass(frozen=True)
class ExactConstants:
    """Exact c_scaled = C*sqrt5 and d = D of a lattice sum with an entry in
    dedekind.CLOSED_FAMILIES, from ClosedFamily.constants (4/15 and
    -17/225 at sigma = 2 with the constant weight)."""

    c_scaled: Fraction
    d: Fraction

    @property
    def c(self) -> float:
        return float(self.c_scaled) / 5 ** 0.5


def exact_constants(sigma: float, kernel: Kernel | None = None) -> ExactConstants | None:
    """Exact constants of the closed family with this sigma and weight, else None.

    The weight is matched as a function (Kernel.trig_coeffs), not by
    name: trig:2,4 finds the bern:4 family and trig:1 the constant one.
    """
    coeffs = (kernel or kernel_one()).trig_coeffs
    if coeffs is None:
        return None
    for fam in CLOSED_FAMILIES.values():
        if (fam.sigma == sigma and fam.weight is not None
                and parse_kernel(fam.weight).trig_coeffs == coeffs):
            return ExactConstants(*fam.constants())
    return None


@dataclass(frozen=True)
class ResidualRow:
    n: int
    total: float
    asymptote: float
    residual: float
    scaled_residual: float


def residual_fit(sigma: float, kernel: Kernel | None = None,
                 n_min: int = 5, n_max: int = 25, *,
                 c: float | None = None, d: float | None = None,
                 i_max: int = 100000, k_max: int = 64) -> list[ResidualRow]:
    """Level sums against the fitted line c*n + d.

    Constants are passed in, or exact where a closed family covers
    (sigma, kernel) (exact_constants), else from the truncated series.
    The D sweep and the level sums at n >= 27 run on every CPU in the
    process's affinity mask, which does not change the result.  The
    scaled residual multiplies by phi**(beta*n/2) with
    beta = min(alpha, sigma-1), the claimed decay normalization.  A
    non-finite c or d, and a row whose asymptote, residual or scaled
    residual leaves float64, raise ValueError.
    """
    FIT_LEVEL.check(n_max)
    if n_min < 2 or n_min > n_max:
        raise ValueError(f"bad level range [{_shown(n_min)}, {_shown(n_max)}]")
    for name, given in (("slope c", c), ("intercept d", d)):
        if given is not None and not math.isfinite(given):
            raise ValueError(f"{name} must be finite, got {given}")
    kernel = kernel or kernel_one()
    exact = exact_constants(sigma, kernel)
    if c is None:
        c = exact.c if exact else constant_C(sigma, kernel, i_max).value
    if d is None:
        d = (float(exact.d) if exact
             else constant_D(sigma, kernel, i_max, k_max).value)
    beta = min(kernel.holder_alpha, sigma - 1)
    out = []
    for n in range(n_min, n_max + 1):
        total = fib_sum(n, sigma, kernel)
        asym = c * n + d
        res = total - asym
        scaled = res * PHI ** (beta * n / 2)
        if not all(map(math.isfinite, (asym, res, scaled))):
            raise ValueError(
                f"the fitted line leaves float64 at level {n}: asymptote {asym:g}, "
                f"residual {res:g}, scaled residual {scaled:g}")
        out.append(ResidualRow(n, total, asym, res, scaled))
    return out


def approximation_errors(i: int, n: int, k: int, sigma: float,
                         kernel: Kernel | None = None) -> tuple[float, float]:
    """Distance from the exact level-n term at row i, slot k to each of
    its two one-sided limits (row side and dual side).

    Requires 1 <= k < n - mu_i so the dual slot n - k is defined.  Used
    to check that the errors decay like phi**(-alpha*(n-k))*i**(alpha-sigma)
    and phi**(-alpha*k)*i**(alpha-sigma) respectively.  sigma <= 1, and
    terms that leave float64, raise ValueError.
    """
    _check_exponent(sigma)
    kernel = kernel or kernel_one()
    r = row(i)
    if not 1 <= k < n - r.mu:
        raise ValueError(f"slot {k} outside (0, n - mu_{i}) = (0, {n - r.mu})")
    fn = fib(n)
    f0 = kernel.value_at_zero
    w = r.entry(k)
    wd = r.dual(n - k)
    t1 = w / fn
    t2 = wd / fn
    x = float(-r.w_minus * phi_power(-k))
    xd = float(r.w_plus * phi_power(-(n - k)))
    try:
        exact = (kernel.eval(t1) * kernel.eval(t2)
                 / (fn * math.sin(math.pi * t1) * math.sin(math.pi * t2)) ** sigma)
        row_side = (f0 * kernel.eval(x)
                    / (math.pi * w * math.sin(math.pi * x)) ** sigma)
        dual_side = (f0 * kernel.eval(xd)
                     / (math.pi * wd * math.sin(math.pi * xd)) ** sigma)
        errors = abs(exact - row_side), abs(exact - dual_side)
    except (OverflowError, ZeroDivisionError):
        errors = (math.inf,)
    if not all(map(math.isfinite, errors)):
        raise ValueError(f"terms leave float64 at row {i}, level {n}, sigma={sigma:g}")
    return errors
