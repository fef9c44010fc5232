"""Asymptotic constants of the Fibonacci lattice sums.

The normalized level-n sum grows like C*n + D.  C is a prefactor times
the sum of eta_i**-sigma over all rows, a Dedekind zeta value of the
field generated by sqrt 5; D adds two one-sided correction series per
row (one along the row, one along its dual) minus a counting term.

C carries a certified tail (eta_i >= i, so the remainder is dominated
by an integral) and is summed at the precision that tail needs, by the
same eta sum as the eta-series route of dedekind_zeta; for even sigma
it also has an exact Bernoulli closed form, which the closed route of
dedekind_zeta reuses.  D has one production path, a vectorized row
sweep run at extended and at double precision (the gap is reported as
a rounding proxy), and one oracle, the per-row mpmath series delta_mp
and delta_star_mp.  D's inner tails are geometric-ratio estimates and
its outer tail a fitted dyadic decay, both reported rather than
certified.

The sweep cuts the rows into fixed chunks of _CHUNK rows, and the
chunks of both precision passes form one task list.  When there is
more than one chunk, a thread pool runs the list, by default one
worker per CPU in the process's affinity mask (threads= overrides it);
NumPy releases the GIL in the elementwise loops that take the time.
Each pass adds its chunk sums in row order, so every output is
bit-identical for any worker count.
"""
from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .dedekind import CLOSED_FAMILIES
from .energy import fib_sum
from .golden import _to_mpf, fib, phi_power
from .kernels import (
    _PI_STR,
    Kernel,
    _check_exponent,
    bernoulli_number,
    bernoulli_poly,
    kernel_one,
    parse_kernel,
)
from .wythoff import dual_slot, row, row_table

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

ZETA_ROUTES = (
    "eta-series",
    "euler-product-L-times-zeta",
    "bernoulli-closed-form",
)


def prefactor(sigma: float, f0: float) -> float:
    """f(0)**2 * 5**(sigma/2) / pi**(2*sigma): the weight every row term
    in C and D is measured against.  ValueError where a power leaves
    float64 (pi**(2*sigma) does above sigma ~ 310)."""
    try:
        return f0 * f0 * 5.0 ** (sigma / 2) / math.pi ** (2 * sigma)
    except OverflowError:
        raise ValueError(
            f"pi**(2*sigma) overflows float64 at sigma={sigma:g}") from None


def _pref_mp(sigma: float, f0) -> mpmath.mpf:
    return f0 * f0 * mpmath.power(5, mpmath.mpf(sigma) / 2) / mpmath.pi ** (2 * mpmath.mpf(sigma))


# ---------------------------------------------------------------------------
# the two one-sided series behind D


def _one_sided_mp(i: int, sigma: float, kernel: Kernel, terms, prec: int) -> mpmath.mpf:
    """Sum of f0*f(x)/(pi*w*sin(pi*x))**sigma - base over the pairs
    (x, w) of terms, x exact in Z[phi] and w an integer entry, in
    prec-bit arithmetic; base = f(0)**2 * 5**(sigma/2)/(pi**(2*sigma) *
    eta_i**sigma) is the flat per-slot weight of row i."""
    with mpmath.workprec(prec):
        f0 = kernel.eval_mp(0)
        base = _pref_mp(sigma, f0) / mpmath.mpf(row(i).eta) ** sigma
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
    return _one_sided_mp(i, sigma, kernel or kernel_one(), terms, prec)


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
    terms = ((r.w_plus * phi_power(-m), dual_slot(i, m))
             for m in range(r.mu + 1, r.mu + j_max + 1))
    return _one_sided_mp(i, sigma, kernel or kernel_one(), terms, prec)


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


def _fixed_point_power_sum(s: int, plus, minus=()) -> mpmath.mpf:
    """sum(v**-s for v in plus) - sum(v**-s for v in minus) at the
    current working precision prec, for positive integers v.

    The sum is formed exactly in integers: each term is
    floor(2**P / v**s) with P = prec + bit_length(#terms) + 2, so it
    rounds down by less than 2**-P, the terms together by less than
    2**-(prec+2), and the result does not depend on summation order.
    The one conversion to mpf then rounds once at prec.
    """
    prec = mpmath.mp.prec
    P = prec + (len(plus) + len(minus)).bit_length() + 2
    one = 1 << P
    total = sum(one // v ** s for v in plus) - sum(one // v ** s for v in minus)
    return mpmath.ldexp(mpmath.mpf(total), -P)


def _eta_power_sum(sigma: float, n_top: int) -> tuple[mpmath.mpf, int]:
    """sum_{i <= n_top} eta_i**-sigma and the precision prec it is
    formed at, max(60, (sigma-1)*log2(n_top) + 30) bits, so that its
    rounding sits some 2**-30 below the certified tail
    n_top**(1-sigma)/(sigma-1).  constant_C and the eta-series route of
    dedekind_zeta both take their sum from here.

    Integer sigma goes through _fixed_point_power_sum (error below
    2**-(prec+2) before the one rounding at prec); other sigma sums
    mpmath powers with fsum, smallest terms first."""
    prec = max(60, int((sigma - 1) * math.log2(n_top)) + 30)
    eta = row_table(n_top).eta
    with mpmath.workprec(prec):
        if float(sigma).is_integer():
            return _fixed_point_power_sum(int(sigma), eta.tolist()), prec
        return mpmath.fsum(mpmath.mpf(int(e)) ** (-sigma) for e in eta[::-1]), prec


def constant_C(sigma: float, kernel: Kernel | None = None,
               i_max: int = 100000) -> CConstant:
    """C = 2 f(0)**2 5**(sigma/2)/pi**(2*sigma) * sum_i eta_i**-sigma,
    truncated at i_max.

    The tail is certified: eta_i >= i gives
    sum_{i>i_max} eta_i**-sigma <= i_max**(1-sigma)/(sigma-1).  For
    large sigma that tail sits far below double precision, so the sum
    is formed at a precision prec matched to the tail (_eta_power_sum)
    and returned both as a float and as value_mp.
    """
    _check_exponent(sigma)
    f0 = kernel.value_at_zero if kernel is not None else 1.0
    total, prec = _eta_power_sum(sigma, i_max)
    with mpmath.workprec(prec):
        c_mp = 2 * _pref_mp(sigma, mpmath.mpf(f0)) * total
    tail = 2 * prefactor(sigma, f0) * i_max ** (1 - sigma) / (sigma - 1)
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
    """C at sigma = 2s in closed form:
    f0**2 * 80**s * (B_{2s}(1/5) - B_{2s}(2/5)) * B_{2s} / ((2s)!**2 * sqrt5)."""
    if sigma != int(sigma) or int(sigma) < 2 or int(sigma) % 2:
        raise ValueError(f"closed form needs a positive even integer exponent, got {sigma}")
    two_s = int(sigma)
    s = two_s // 2
    db = bernoulli_poly(two_s, Fraction(1, 5)) - bernoulli_poly(two_s, Fraction(2, 5))
    coeff = (Fraction(f0) ** 2 * Fraction(80) ** s * db * bernoulli_number(two_s)
             / Fraction(math.factorial(two_s)) ** 2)
    with mpmath.workprec(120):
        v = mpmath.mpf(coeff.numerator) / coeff.denominator / mpmath.sqrt(5)
    return ClosedConstant(coeff, float(v), v)


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


_CHI5 = (0, 1, -1, -1, 1)  # the quadratic character mod 5


def dedekind_zeta(sigma: float, route: str = "eta-series",
                  truncation: int = 100000) -> ZetaRoute:
    """The zeta value sum_i eta_i**-sigma by one of three routes.

    eta-series sums the row invariants directly (tail certified via
    eta_i >= i).  euler-product-L-times-zeta multiplies the Riemann
    zeta by the character L-series mod 5, whose partial character sums
    are bounded by 1, giving the tail 2*(N+1)**-sigma.  For integer
    sigma both series are exact integer fixed-point sums
    (_fixed_point_power_sum: error below 2**-(prec+2) before one
    rounding at the working precision prec); other sigma sums mpmath
    powers term by term.  The Bernoulli closed form (even integer sigma
    only) rescales constant_C_closed and is exact up to arithmetic
    rounding.
    """
    _check_exponent(sigma)
    if route not in ZETA_ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {ZETA_ROUTES}")
    if route == "bernoulli-closed-form":
        # C = 2 * 5**(sigma/2) / pi**(2*sigma) * zeta_K at unit weight
        c = constant_C_closed(sigma)  # rejects all but even integer sigma
        two_s = int(sigma)
        with mpmath.workprec(120):
            v = (c.value_mp * mpmath.pi ** (2 * two_s)
                 / (2 * mpmath.mpf(5) ** (two_s // 2)))
        return ZetaRoute(route, float(sigma), float(v), float(abs(v)) * 2.0 ** -100, 0, v)

    n_top = int(truncation)
    if n_top < 8:
        raise ValueError(f"truncation too small: {n_top}")
    if route == "eta-series":
        total, prec = _eta_power_sum(sigma, n_top)
        tail = n_top ** (1 - sigma) / (sigma - 1)
        err = tail + float(total) * 2.0 ** (18 - prec)
        return ZetaRoute(route, float(sigma), float(total), err, n_top, total)

    # euler-product-L-times-zeta
    prec = max(60, int(sigma * math.log2(n_top)) + 30)
    with mpmath.workprec(prec):
        if float(sigma).is_integer():
            # chi_5 is +1 on n = +-1 and -1 on n = +-2 (mod 5)
            lser = _fixed_point_power_sum(
                int(sigma),
                [*range(1, n_top + 1, 5), *range(4, n_top + 1, 5)],
                [*range(2, n_top + 1, 5), *range(3, n_top + 1, 5)],
            )
        else:
            lser = mpmath.fsum(
                _CHI5[n % 5] * mpmath.mpf(n) ** (-sigma)
                for n in range(n_top, 0, -1) if n % 5
            )
        z = mpmath.zeta(mpmath.mpf(sigma))
        v = z * lser
    tail = 2.0 * float(z) * (n_top + 1) ** (-sigma)
    err = tail + float(abs(v)) * 2.0 ** (18 - prec)
    return ZetaRoute(route, float(sigma), float(v), err, n_top, v)


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


def _thread_count(threads: int | None) -> int:
    """Requested worker count: threads, else the number of CPUs in the
    process's affinity mask.  A count that is not a positive integer
    raises ValueError."""
    if threads is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if threads < 1 or int(threads) != threads:
        raise ValueError(f"thread count must be a positive integer, got {threads!r}")
    return int(threads)


def _tail_mass(last: np.ndarray, prev: np.ndarray) -> float:
    last = np.abs(last)
    prev = np.abs(prev)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(prev > 0, last / prev, 0.9)
    r = np.minimum(r, 0.9)
    t = 2.0 * last * r / (1.0 - r)
    return float(np.where(last > 0, t, 0).sum())


def _one_sided(acc, x0, w0, sign, kernel: Kernel, k_max: int, sg, f0, base,
               pi, phi, sqrt5) -> float:
    """Add terms k = 1..k_max of one one-sided series into acc in place;
    return their inner tail mass.

    Term k has argument x = x0*phi**-k and integer entry
    w = (w0*phi**k + (-1)**k*sign*x)/sqrt5, and is
    f0*f(x)/(pi*w*sin(pi*x))**sigma - base.
    """
    prev_t = last_t = None
    for k in range(1, k_max + 1):
        pk = phi ** k
        x = x0 * (1 / pk)
        sx = sign * x
        w = (w0 * pk + (sx if k % 2 == 0 else -sx)) / sqrt5
        g = pi * w * np.sin(pi * x)
        t = f0 * kernel.eval_many(x) / g ** sg - base
        acc += t
        prev_t, last_t = last_t, t
    return _tail_mass(last_t, prev_t)


def _d_chunk(tab, lo: int, hi: int, sigma: float, kernel: Kernel,
             k_max: int, i_max: int, dtype):
    """Row terms delta_mp + delta_star_mp - base*(mu+1) summed over rows
    (lo, hi] (0-based slice), all in the requested dtype.

    Returns (sum, inner tail mass, |term| mass over i > i_max/2,
    |term| mass over i_max/4 < i <= i_max/2).
    """
    pi = dtype(_PI_STR)
    sqrt5 = np.sqrt(dtype(5))
    phi = (1 + sqrt5) / 2
    sg = dtype(sigma)
    f0 = dtype(kernel.value_at_zero)
    pref = f0 * f0 * dtype(5) ** (sg / 2) / pi ** (2 * sg)

    iv = tab.i[lo:hi]
    idx = iv.astype(dtype)
    L = tab.floor_phi_i[lo:hi].astype(dtype)
    eta = tab.eta[lo:hi].astype(dtype)
    mu = tab.mu[lo:hi]
    wp = (idx - 1) + L * phi
    wmn = (phi - 1) * L - (idx - 1)  # -w_minus, in (phi**-2, 1)
    base = pref / eta ** sg
    acc = -(mu.astype(dtype) + 1) * base

    inner = _one_sided(acc, wmn, wp, 1, kernel, k_max, sg, f0, base, pi, phi, sqrt5)

    pmu = np.power(phi, mu)
    smu = np.where(mu % 2 == 0, dtype(1), dtype(-1))
    inner += _one_sided(acc, wp / pmu, wmn * pmu, smu, kernel, k_max, sg, f0, base,
                        pi, phi, sqrt5)

    rabs = np.abs(acc)
    m_hi = float(rabs[2 * iv > i_max].sum())
    m_mid = float(rabs[(4 * iv > i_max) & (2 * iv <= i_max)].sum())
    return acc.sum(), inner, m_hi, m_mid


def _check_sweep_range(sigma: float, kernel: Kernel, tab, k_max: int) -> None:
    """Raise ValueError where a float64 power the row sweep forms would
    overflow.  prefactor covers f(0)**2 and pi**(2*sigma).  A term's base
    g = pi*w*sin(pi*x) stays below pi**2 * w*x <= pi**2 * (eta + 1)/sqrt5,
    which also exceeds eta, and is near it for large k.  The weight is
    tried at the smallest argument, min(-w_minus, 1/2) * phi**-k_max (the
    dual side starts at or above 1/2): f_sigma forms argument**-sigma."""
    pref = prefactor(sigma, kernel.value_at_zero)
    g_max = math.pi ** 2 * (float(tab.eta.max()) + 1) / math.sqrt(5)
    if not math.isfinite(pref) or sigma * math.log(g_max) >= math.log(sys.float_info.max):
        raise ValueError(f"the D sweep leaves float64 at sigma={sigma:g}, i_max="
                         f"{tab.i_max}: (pi**2 * (eta + 1)/sqrt5)**sigma overflows")
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
    the difference as the rounding proxy.  Rows are cut into chunks of
    _CHUNK rows, and the chunks of both passes form one task list,
    extended precision first.  One worker runs the list inline; more
    run it on a pool of threads workers (default: every CPU in the
    process's affinity mask), capped at the number of chunks, so
    i_max <= _CHUNK runs inline.  Each pass adds its chunk sums in row
    order, so the result is bit-identical for any worker count;
    DConstant.threads records the count used.  A thread count that is
    not a positive integer raises ValueError, and so does a sigma, weight
    and i_max whose powers leave float64 (_check_sweep_range), or a
    non-finite pass total.
    """
    _check_exponent(sigma)
    if i_max < 8:
        raise ValueError(f"row truncation too small: {i_max}")
    if k_max < 2:
        raise ValueError(f"need at least two inner terms, got k_max={k_max}")
    kernel = kernel or kernel_one()
    spans = [(lo, min(lo + _CHUNK, i_max)) for lo in range(0, i_max, _CHUNK)]
    nthreads = min(_thread_count(threads), len(spans))
    tab = row_table(i_max)
    _check_sweep_range(sigma, kernel, tab, k_max)

    def run(task):
        dtype, (lo, hi) = task
        return _d_chunk(tab, lo, hi, sigma, kernel, k_max, i_max, dtype)

    # the slow extended-precision chunks come first; both runners start
    # tasks in list order and return their results in list order
    tasks = [(dtype, span) for dtype in (np.longdouble, np.float64) for span in spans]
    if nthreads == 1:
        parts = list(map(run, tasks))
    else:
        with ThreadPoolExecutor(nthreads) as ex:
            parts = list(ex.map(run, tasks))
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
                 i_max: int = 100000, k_max: int = 64,
                 threads: int | None = None) -> list[ResidualRow]:
    """Level sums against the fitted line c*n + d.

    Constants are passed in, or exact where a closed family covers
    (sigma, kernel) (exact_constants), else from the truncated series;
    threads is passed to constant_D (default: every CPU in the
    process's affinity mask) and does not change the result.  The
    scaled residual multiplies by phi**(beta*n/2) with
    beta = min(alpha, sigma-1), the claimed decay normalization.
    """
    if n_max > 32:
        raise ValueError(f"level cap is 32, got {n_max}")
    if n_min < 2 or n_min > n_max:
        raise ValueError(f"bad level range [{n_min}, {n_max}]")
    kernel = kernel or kernel_one()
    exact = exact_constants(sigma, kernel)
    if c is None:
        c = exact.c if exact else constant_C(sigma, kernel, i_max).value
    if d is None:
        d = (float(exact.d) if exact
             else constant_D(sigma, kernel, i_max, k_max, threads=threads).value)
    beta = min(kernel.holder_alpha, sigma - 1)
    out = []
    for n in range(n_min, n_max + 1):
        total = fib_sum(n, sigma, kernel)
        asym = c * n + d
        res = total - asym
        scaled = res * PHI ** (beta * n / 2)
        out.append(ResidualRow(n, total, asym, res, scaled))
    return out


def approximation_errors(i: int, n: int, k: int, sigma: float,
                         kernel: Kernel | None = None) -> tuple[float, float]:
    """Distance from the exact level-n term at row i, slot k to each of
    its two one-sided limits (row side and dual side).

    Requires 1 <= k < n - mu_i so the dual slot n - k is defined.  Used
    to check that the errors decay like phi**(-alpha*(n-k))*i**(alpha-sigma)
    and phi**(-alpha*k)*i**(alpha-sigma) respectively.
    """
    kernel = kernel or kernel_one()
    r = row(i)
    if not 1 <= k < n - r.mu:
        raise ValueError(f"slot {k} outside (0, n - mu_{i}) = (0, {n - r.mu})")
    fn = fib(n)
    f0 = kernel.value_at_zero
    w = r.entry(k)
    wd = dual_slot(i, n - k)
    t1 = w / fn
    t2 = wd / fn
    exact = (kernel.eval(t1) * kernel.eval(t2)
             / (fn * math.sin(math.pi * t1) * math.sin(math.pi * t2)) ** sigma)
    x = float(-r.w_minus * phi_power(-k))
    row_side = (f0 * kernel.eval(x)
                / (math.pi * w * math.sin(math.pi * x)) ** sigma)
    xd = float(r.w_plus * phi_power(-(n - k)))
    dual_side = (f0 * kernel.eval(xd)
                 / (math.pi * wd * math.sin(math.pi * xd)) ** sigma)
    return abs(exact - row_side), abs(exact - dual_side)
