"""Periodic potentials, their Fourier data, and weight functions.

The central potential is

    K_{sigma,p}(t) = 1 + p * sum_{m != 0} e(m t) / |2 pi m|**sigma,

whose lattice DFT coefficients come either from Hurwitz zeta values
(any sigma > 1) or, for even sigma = 2s, from derivatives of the
cotangent and Bernoulli polynomials.  Weight functions f enter the
energy sums as f(t1) f(t2) / |sin sin|**sigma; supported shapes are the
constant 1, the normalized zeta weight

    f_sigma(a) = sin(pi a)**sigma * (zeta(sigma, a) + zeta(sigma, 1-a)),

and even trigonometric polynomials sum_j a_j cos(pi t)**(2j).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

__all__ = [
    "ExactRational",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_coeffs",
    "hurwitz_zeta",
    "hurwitz_zeta_mpf",
    "zeta",
    "f_sigma",
    "f_sigma_many",
    "cot_derivative_poly",
    "even_weight_coeffs",
    "Kernel",
    "kernel_one",
    "kernel_fsigma",
    "kernel_trig",
    "kernel_bernoulli_weight",
    "parse_kernel",
    "KERNEL_GRAMMAR",
    "potential_K",
    "dft_coeffs",
    "dft_coeffs_even",
    "dft_coeff_sum_exact",
    "cot_power_sums",
]

# Exact rationals are stdlib fractions; the alias marks intent at call sites.
ExactRational = Fraction

_TWO_PI = 2 * math.pi


@functools.lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """B_m with the B_1 = -1/2 convention, exact."""
    if m < 0:
        raise ValueError(f"negative index: {m}")
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 for m >= 1
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * bernoulli_number(j)
    return -acc / (m + 1)


@functools.lru_cache(maxsize=None)
def bernoulli_poly_coeffs(m: int) -> tuple[Fraction, ...]:
    """Coefficients of B_m(t), ascending powers of t."""
    return tuple(
        math.comb(m, j) * bernoulli_number(m - j) for j in range(m + 1)
    )


def bernoulli_poly(m: int, t):
    """B_m(t); exact when t is a Fraction or int, float otherwise."""
    coeffs = bernoulli_poly_coeffs(m)
    if isinstance(t, (Fraction, int)):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + float(c)
    return acc


def _em_remainder_log(sigma: float, x: float, j: int) -> float:
    """log10 of the Euler-Maclaurin term j at abscissa x (tail start)."""
    b = abs(float(bernoulli_number(2 * j)))
    rising = 0.0
    for r in range(2 * j - 1):
        rising += math.log10(sigma + r)
    return (
        math.log10(b)
        - math.log10(math.factorial(2 * j))
        + rising
        - (sigma + 2 * j - 1) * math.log10(x)
    )


def _hurwitz_with_context(sigma: float, a, tol: float):
    """Head sum plus order-8 Euler-Maclaurin tail, in the current mpmath
    context.  Caller chose the precision."""
    M = max(20, math.ceil(sigma) + 10)
    while _em_remainder_log(sigma, M + float(a), 9) > math.log10(tol) - 1:
        M *= 2
    s = mpmath.mpf(sigma)
    if isinstance(a, Fraction):
        aa = mpmath.mpf(a.numerator) / a.denominator
    else:
        aa = mpmath.mpf(a)
    head = mpmath.fsum((n + aa) ** -s for n in range(M))
    x = M + aa
    tail = x ** (1 - s) / (s - 1) + x ** -s / 2
    rising = s
    xpow = x ** (-s - 1)
    x2 = x * x
    corr = mpmath.mpf(0)
    for j in range(1, 9):
        b = mpmath.mpf(bernoulli_number(2 * j).numerator) / bernoulli_number(
            2 * j
        ).denominator
        corr += b / math.factorial(2 * j) * rising * xpow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        xpow /= x2
    return head + tail + corr


def hurwitz_zeta(sigma: float, a, *, tol: float = 1e-13) -> float:
    """zeta(sigma, a) = sum_{n >= 0} (n + a)**-sigma for sigma > 1, a > 0.

    Absolute error below tol; working precision is raised as needed so
    that tolerances far below the magnitude of the result are honored.
    """
    if sigma <= 1:
        raise ValueError(f"exponent must exceed 1, got {sigma}")
    if a <= 0:
        raise ValueError(f"offset must be positive, got {a}")
    mag = float(a) ** -sigma + 2.0
    prec = max(70, math.ceil(math.log2(mag / tol)) + 30)
    with mpmath.workprec(prec):
        return float(_hurwitz_with_context(sigma, a, tol))


def hurwitz_zeta_mpf(sigma: float, a, prec_bits: int) -> mpmath.mpf:
    """zeta(sigma, a) as an mpf carrying prec_bits of working precision."""
    if sigma <= 1:
        raise ValueError(f"exponent must exceed 1, got {sigma}")
    if a <= 0:
        raise ValueError(f"offset must be positive, got {a}")
    with mpmath.workprec(prec_bits + 20):
        tol = float(mpmath.mpf(2) ** -(prec_bits + 5))
        val = _hurwitz_with_context(sigma, a, tol)
    return val


def zeta(sigma: float, *, tol: float = 1e-13) -> float:
    """Riemann zeta for sigma > 1, as the a = 1 Hurwitz value."""
    return hurwitz_zeta(sigma, 1, tol=tol)


def f_sigma(sigma: float, a: float, *, tol: float = 1e-13) -> float:
    """sin(pi a)**sigma * (zeta(sigma, a) + zeta(sigma, 1 - a)) on [0, 1).

    Continuous at the endpoints with value pi**sigma; symmetric about
    a = 1/2.
    """
    a = a % 1.0
    if a == 0.0:
        return math.pi ** sigma
    z = hurwitz_zeta(sigma, a, tol=tol) + hurwitz_zeta(sigma, 1 - a, tol=tol)
    return math.sin(math.pi * a) ** sigma * z


_EM_BERN = tuple(
    float(bernoulli_number(2 * j)) / math.factorial(2 * j) for j in range(1, 5)
)


def _hurwitz_many(sigma: float, a: np.ndarray) -> np.ndarray:
    """Vectorized Hurwitz zeta for a in (0, 1], float64.

    Head of M terms plus four Euler-Maclaurin corrections; truncation
    stays below double rounding for sigma <= 40.
    """
    M = max(24, math.ceil(sigma) + 16)
    head = np.zeros_like(a)
    for n in range(M):
        head += (a + n) ** -sigma
    x = a + M
    out = head + x ** (1.0 - sigma) / (sigma - 1.0) + 0.5 * x ** -sigma
    rising = sigma
    xpow = x ** (-sigma - 1.0)
    x2 = x * x
    for j, b in enumerate(_EM_BERN, start=1):
        out += b * rising * xpow
        rising *= (sigma + 2 * j - 1) * (sigma + 2 * j)
        xpow = xpow / x2
    return out


def _hurwitz_pair_table(sigma: float, N: int) -> np.ndarray:
    """A(m) = zeta(sigma, m/N) + zeta(sigma, 1 - m/N) for 1 <= m < N, at
    index m of a length-N array; index 0 is unused and left at 0.

    Half the table is evaluated by _hurwitz_many, with both offsets m/N
    and (N - m)/N rounded once from the exact fractions, and mirrored by
    A(m) = A(N - m).  Against zeta at those rounded offsets the relative
    error is ~1e-15 for 1 < sigma <= 40; rounding m/N itself adds up to
    sigma * 2**-53.  Every caller scales the table by (2 pi N)**-sigma, so
    sizes where that factor leaves the float64 normal range raise
    ValueError; this also keeps the table, of order N**sigma, finite.
    """
    if sigma <= 1:
        raise ValueError(f"exponent must exceed 1, got {sigma}")
    if sigma * math.log10(_TWO_PI * N) > 307:
        raise ValueError(
            f"(2 pi N)**sigma overflows float64 at sigma={sigma:g}, N={N}"
        )
    m = np.arange(1, N // 2 + 1, dtype=np.int64)
    half = _hurwitz_many(sigma, m / N) + _hurwitz_many(sigma, (N - m) / N)
    A = np.zeros(N, dtype=np.float64)
    A[m] = half
    A[N - m] = half
    return A


def f_sigma_many(sigma: float, a: np.ndarray) -> np.ndarray:
    """Vectorized f_sigma on (0, 1), float64."""
    a = np.asarray(a, dtype=np.float64)
    z = _hurwitz_many(sigma, a) + _hurwitz_many(sigma, 1.0 - a)
    return np.sin(np.pi * a) ** sigma * z


@functools.lru_cache(maxsize=None)
def cot_derivative_poly(r: int) -> tuple[int, ...]:
    """Integer coefficients (ascending powers of c) of G_r(c), where
    G_r(cot(pi x)) = g^{(r)}(x) / pi**r and g(x) = -cot(pi x).

    G_0 = -c and G_{r+1} = -(1 + c^2) * G_r'(c).
    """
    if r < 0:
        raise ValueError(f"negative order: {r}")
    if r == 0:
        return (0, -1)
    prev = cot_derivative_poly(r - 1)
    deriv = tuple(j * prev[j] for j in range(1, len(prev)))
    out = [0] * (len(deriv) + 2)
    for j, c in enumerate(deriv):
        out[j] -= c
        out[j + 2] -= c
    return tuple(out)


@functools.lru_cache(maxsize=None)
def even_weight_coeffs(two_s: int) -> tuple[int, ...]:
    """Coefficients a_j with sum_j a_j cos(pi t)**(2j) equal to
    sin(pi t)**(2s) * G_{2s-1}(cot(pi t)); the weight that turns the even
    potential K_{2s,p} into a trigonometric-polynomial numerator.
    """
    if two_s < 2 or two_s % 2 != 0:
        raise ValueError(f"even exponent required, got {two_s}")
    s = two_s // 2
    g = cot_derivative_poly(2 * s - 1)
    # g has only even powers; g[2j] multiplies cos^{2j} sin^{2s-2j}
    out = [0] * (s + 1)
    for j in range(s + 1):
        q = g[2 * j] if 2 * j < len(g) else 0
        if q == 0:
            continue
        # expand sin^{2(s-j)} = (1 - u)^{s-j} with u = cos^2
        for t in range(s - j + 1):
            out[j + t] += q * (-1) ** t * math.comb(s - j, t)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class Kernel:
    """A weight function on the torus, evaluated as f(t) for t in [0, 1).

    kind is one of "one", "fsigma", "trig"; trig kernels carry integer
    coefficients of cos(pi t)**(2j).  holder_alpha records the assumed
    smoothness class as data (the constants are not derived).
    """

    kind: str
    sigma: float | None = None
    coeffs: tuple[int, ...] | None = None
    label: str | None = None

    @property
    def name(self) -> str:
        if self.label is not None:
            return self.label
        if self.kind == "one":
            return "one"
        if self.kind == "fsigma":
            return f"fsigma:{self.sigma:g}"
        return "trig:" + ",".join(str(c) for c in self.coeffs)

    @property
    def value_at_zero(self) -> float:
        if self.kind == "one":
            return 1.0
        if self.kind == "fsigma":
            return math.pi ** self.sigma
        return float(sum(self.coeffs))

    @property
    def holder_alpha(self) -> float:
        if self.kind == "fsigma":
            return min(1.0, self.sigma - 1)
        return 1.0

    def eval(self, t: float) -> float:
        t = t % 1.0
        if self.kind == "one":
            return 1.0
        if self.kind == "fsigma":
            return f_sigma(self.sigma, t)
        u = math.cos(math.pi * t) ** 2
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    __call__ = eval

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "one":
            return np.ones_like(t)
        if self.kind == "fsigma":
            return f_sigma_many(self.sigma, t)
        u = np.cos(np.pi * t) ** 2
        acc = np.zeros_like(u)
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    def eval_mp(self, t) -> mpmath.mpf:
        """Evaluate in the caller's mpmath context."""
        if self.kind == "one":
            return mpmath.mpf(1)
        if self.kind == "fsigma":
            z = hurwitz_zeta_mpf(
                self.sigma, t, mpmath.mp.prec
            ) + hurwitz_zeta_mpf(self.sigma, 1 - t, mpmath.mp.prec)
            return mpmath.sinpi(t) ** self.sigma * z
        u = mpmath.cospi(t) ** 2
        acc = mpmath.mpf(0)
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc


def kernel_one() -> Kernel:
    return Kernel("one")


def kernel_fsigma(sigma: float) -> Kernel:
    if sigma <= 1:
        raise ValueError(f"exponent must exceed 1, got {sigma}")
    return Kernel("fsigma", sigma=float(sigma))


def kernel_trig(coeffs) -> Kernel:
    coeffs = tuple(int(c) for c in coeffs)
    if not coeffs:
        raise ValueError("trig kernel needs at least one coefficient")
    return Kernel("trig", coeffs=coeffs)


def kernel_bernoulli_weight(two_s: int) -> Kernel:
    """The even-potential weight as a trig kernel; bern:2 is 1, bern:4 is
    2 + 4 cos^2, bern:6 is 16 + 88 cos^2 + 16 cos^4."""
    return Kernel("trig", coeffs=even_weight_coeffs(two_s), label=f"bern:{two_s}")


KERNEL_GRAMMAR = "one | fsigma | trig:a0,a1,... | bern:<even sigma>"


def parse_kernel(spec: str, *, sigma: float | None = None) -> Kernel:
    """Parse a kernel name: one, fsigma, trig:a0,a1,..., bern:<2s>.

    fsigma requires the caller's sigma; trig coefficients are integers
    giving sum a_j cos(pi t)**(2j).
    """
    spec = spec.strip()
    if spec == "one":
        return kernel_one()
    if spec == "fsigma":
        if sigma is None:
            raise ValueError("kernel fsigma requires a sigma value")
        return kernel_fsigma(sigma)
    if spec.startswith("trig:"):
        body = spec[len("trig:"):]
        try:
            coeffs = [int(x) for x in body.split(",") if x.strip() != ""]
        except ValueError:
            raise ValueError(f"bad trig coefficients {body!r}; grammar: {KERNEL_GRAMMAR}")
        return kernel_trig(coeffs)
    if spec.startswith("bern:"):
        body = spec[len("bern:"):]
        try:
            two_s = int(body)
        except ValueError:
            raise ValueError(f"bad even exponent {body!r}; grammar: {KERNEL_GRAMMAR}")
        return kernel_bernoulli_weight(two_s)
    raise ValueError(f"unknown kernel {spec!r}; grammar: {KERNEL_GRAMMAR}")


def potential_K(sigma: float, p, t, *, tol: float = 1e-12):
    """K_{sigma,p}(t) = 1 + p sum_{m != 0} e(mt)/|2 pi m|**sigma.

    For even integer sigma = 2s this is the exact polynomial path
    1 + p (-1)**(s-1) B_{2s}({t}) / (2s)!, returning a Fraction when both
    p and t are exact.  Otherwise the cosine series is summed until an
    Abel-bounded tail drops below tol.
    """
    if sigma <= 1:
        raise ValueError(f"exponent must exceed 1, got {sigma}")
    if isinstance(sigma, int) or (isinstance(sigma, float) and sigma.is_integer()):
        s2 = int(sigma)
        if s2 % 2 == 0:
            s = s2 // 2
            tt = t % 1 if isinstance(t, (Fraction, int)) else float(t) % 1.0
            b = bernoulli_poly(s2, tt)
            sign = 1 if s % 2 == 1 else -1
            val = 1 + p * sign * b / math.factorial(s2)
            if isinstance(b, Fraction) and isinstance(p, (int, Fraction)):
                return Fraction(val)
            return float(val)
    t = float(t) % 1.0
    pref = 2 * float(p) / _TWO_PI ** sigma
    if t == 0.0:
        return 1.0 + pref * zeta(sigma)
    tr = min(t, 1.0 - t)
    bound = 1.0 / math.sin(math.pi * tr)  # Abel bound on cosine partial sums
    M = max(32, math.ceil((pref * bound / tol) ** (1.0 / sigma)))
    m = np.arange(1, M + 1, dtype=np.float64)
    series = float(np.sum(np.cos(_TWO_PI * t * m) / m ** sigma))
    return 1.0 + pref * series


def dft_coeffs(sigma: float, p: float, N: int) -> np.ndarray:
    """Lattice DFT coefficients of K_{sigma,p} on Z/N: index 0 carries
    1 + 2 p zeta(sigma)/(2 pi N)**sigma, index m >= 1 carries
    p (zeta(sigma, m/N) + zeta(sigma, 1 - m/N)) / (2 pi N)**sigma.

    zeta(sigma) is the scalar mpmath value; the m >= 1 entries come from
    the vectorized Hurwitz pair table, relative error ~1e-15.  Raises
    ValueError where (2 pi N)**sigma overflows float64.
    """
    if N < 1:
        raise ValueError(f"modulus must be >= 1, got {N}")
    if sigma <= 1:
        raise ValueError(f"exponent must exceed 1, got {sigma}")
    scale = (_TWO_PI * N) ** -sigma
    out = np.empty(N, dtype=np.float64)
    out[0] = 1.0 + 2 * p * zeta(sigma) * scale
    if N > 1:
        out[1:] = p * scale * _hurwitz_pair_table(sigma, N)[1:]
    return out


def dft_coeffs_even(two_s: int, p: float, N: int) -> np.ndarray:
    """The even-sigma route to the same table: index 0 from B_{2s}, index
    m >= 1 from the (2s-1)-th cotangent derivative at m/N."""
    if two_s < 2 or two_s % 2 != 0:
        raise ValueError(f"even exponent required, got {two_s}")
    if N < 1:
        raise ValueError(f"modulus must be >= 1, got {N}")
    s = two_s // 2
    g = cot_derivative_poly(2 * s - 1)
    out = np.empty(N, dtype=np.float64)
    sign = 1 if s % 2 == 1 else -1
    out[0] = 1.0 + p * sign * float(bernoulli_number(two_s)) / (
        math.factorial(two_s) * float(N) ** two_s
    )
    scale = p / (math.factorial(2 * s - 1) * float(2 * N) ** two_s)
    for m in range(1, N):
        c = 1.0 / math.tan(math.pi * m / N) if 2 * m != N else 0.0
        acc = 0.0
        for q in reversed(g):
            acc = acc * c + q
        out[m] = scale * acc
    return out


def cot_power_sums(N: int, r_max: int) -> list[Fraction]:
    """[S_0, ..., S_r_max] with S_r = sum_{m=1}^{N-1} cot(pi m/N)**(2r),
    exact rationals via Newton's identities.

    The nonzero cot values are roots of the polynomial obtained from the
    expansion of sin(N theta) in powers of cot(theta).
    """
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    # P(c) = sum_{j odd} (-1)^((j-1)/2) C(N, j) c^(N-j) has roots
    # cot(pi m/N), m = 1..N-1; pair m with N-m and drop the zero root
    # (present when N is even) to get a polynomial R in y = c^2 of
    # degree d.  Newton's identities only consume the elementary
    # symmetric functions e_1..e_r_max, so only the leading r_max + 1
    # coefficients of R are ever materialized; the signs cancel to
    # e_k = C(N, 2k+1) / N.
    d = (N + 1) // 2 - 1
    e = [Fraction(0)] * (r_max + 1)
    e[0] = Fraction(1)
    for k in range(1, min(r_max, d) + 1):
        e[k] = Fraction(math.comb(N, 2 * k + 1), N)
    pw = [Fraction(d)] + [Fraction(0)] * r_max
    for k in range(1, r_max + 1):
        acc = Fraction(0)
        for j in range(1, k):
            acc += (-1) ** (j - 1) * e[j] * pw[k - j]
        acc += (-1) ** (k - 1) * k * e[k] if k <= min(r_max, d) else 0
        pw[k] = acc
    out = [Fraction(N - 1)]
    out.extend(2 * pw[r] for r in range(1, r_max + 1))
    return out


def dft_coeff_sum_exact(two_s: int, p, N: int) -> tuple[Fraction, Fraction]:
    """(sum of all N DFT coefficients, K_{2s,p}(0)), both exact.

    The two agree: the coefficient table inverse-transforms to the
    potential samples, and the k = 0 sample is K(0).
    """
    if two_s < 2 or two_s % 2 != 0:
        raise ValueError(f"even exponent required, got {two_s}")
    s = two_s // 2
    p = Fraction(p)
    sign = 1 if s % 2 == 1 else -1
    c0 = 1 + p * sign * bernoulli_number(two_s) / (
        math.factorial(two_s) * Fraction(N) ** two_s
    )
    g = cot_derivative_poly(2 * s - 1)
    if N == 1:
        total = c0
    else:
        sums = cot_power_sums(N, s)
        series = Fraction(0)
        for j in range(s + 1):
            q = g[2 * j] if 2 * j < len(g) else 0
            if q:
                series += q * sums[j]
        total = c0 + p * series / (math.factorial(2 * s - 1) * Fraction(2 * N) ** two_s)
    k0 = 1 + p * sign * bernoulli_number(two_s) / math.factorial(two_s)
    return total, k0
