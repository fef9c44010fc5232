"""Periodic potentials, their Fourier data, and weight functions.

The central potential is

    K_{sigma,p}(t) = 1 + p * sum_{m != 0} e(m t) / |2 pi m|**sigma,

whose lattice DFT coefficients come either from Hurwitz zeta values
(any sigma > 1) or, for even sigma = 2s, from derivatives of the
cotangent and Bernoulli polynomials.  Hurwitz zeta has one scalar path
and oracle, mpmath.zeta, and one float64 engine for the pair
zeta(sigma, a) + zeta(sigma, 1-a), _hurwitz_pair, behind the DFT tables
and f_sigma_many.  Weight functions f enter the energy sums as
f(t1) f(t2) / |sin sin|**sigma; each family is a Kernel class: Trig, the
even trigonometric polynomials sum_j a_j cos(pi t)**(2j); One, the
constant 1, trig:1 evaluated without arrays; and FSigma,

    f_sigma(a) = sin(pi a)**sigma * (zeta(sigma, a) + zeta(sigma, 1-a)).
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath
import numpy as np

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_coeffs",
    "hurwitz_zeta",
    "zeta",
    "f_sigma",
    "f_sigma_many",
    "cot_derivative_poly",
    "even_weight_coeffs",
    "Kernel",
    "One",
    "Trig",
    "FSigma",
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

_TWO_PI = 2 * math.pi
# pi to 39 digits: parsed by each float dtype, so extended-precision
# arrays get their own correctly rounded pi rather than the double one
_PI_STR = "3.14159265358979323846264338327950288420"
# largest N of the Hurwitz pair table (dft_coeffs, wce_e): either route adds
# ~35 bytes per N to the process, 721 MB peak RSS at the cap
_PAIR_TABLE_MAX_N = 2 * 10 ** 7
# most terms potential_K's cosine series may take (32 MB per work array)
_K_SERIES_MAX_TERMS = 1 << 22


def _check_exponent(sigma) -> None:
    """Raise ValueError unless 1 < sigma < inf; NaN is refused too."""
    if not 1 < sigma < math.inf:
        raise ValueError(f"exponent must be finite and exceed 1, got {sigma}")


def _as_int(name: str, value) -> int:
    """value as an int; anything not a numbers.Integral raises ValueError."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _horner(coeffs, x):
    """sum_j coeffs[j] * x**j in the arithmetic of x and the coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


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
        return _horner(coeffs, t)
    return _horner([float(c) for c in coeffs], t)


def hurwitz_zeta(sigma: float, a, *, tol: float = 1e-13) -> float:
    """zeta(sigma, a) = sum_{n >= 0} (n + a)**-sigma for sigma > 1, a > 0,
    by mpmath.zeta.

    Absolute error below tol; working precision is raised as needed so
    that tolerances far below the magnitude of the result are honored.
    Where a**-sigma / tol leaves float64 it raises ValueError.
    """
    _check_exponent(sigma)
    if a <= 0:
        raise ValueError(f"offset must be positive, got {a}")
    try:  # the power, or ceil of an infinite log, raises OverflowError
        mag = float(a) ** -sigma + 2.0
        prec = max(70, math.ceil(math.log2(mag / tol)) + 30)
    except OverflowError:
        raise ValueError(f"zeta({sigma:g}, {float(a):g})/tol overflows float64") from None
    with mpmath.workprec(prec):
        if isinstance(a, Fraction):
            a = mpmath.mpf(a.numerator) / a.denominator
        return float(mpmath.zeta(sigma, a))


def zeta(sigma: float) -> float:
    """Riemann zeta for sigma > 1, as the a = 1 Hurwitz value."""
    return hurwitz_zeta(sigma, 1)


def _pi_power(sigma: float) -> float:
    """pi**sigma, f_sigma at 0; ValueError where it leaves float64."""
    try:
        return math.pi ** sigma
    except OverflowError:
        raise ValueError(f"pi**sigma overflows float64 at sigma={sigma:g}") from None


def f_sigma(sigma: float, a: float) -> float:
    """sin(pi a)**sigma * (zeta(sigma, a) + zeta(sigma, 1 - a)) on [0, 1)
    by hurwitz_zeta: pi**sigma at 0, symmetric about 1/2, and ValueError
    where pi**sigma or a zeta value leaves float64."""
    a = a % 1.0
    if a == 0.0:
        return _pi_power(sigma)
    z = hurwitz_zeta(sigma, a) + hurwitz_zeta(sigma, 1 - a)
    # sin(pi a) near a = 1 would lose the rounding of pi*a; 1 - a is exact
    return math.sin(math.pi * min(a, 1.0 - a)) ** sigma * z


@functools.lru_cache(maxsize=None)
def _pair_coeffs(sigma: float) -> tuple[float, ...]:
    """c_j = 2 binom(sigma+2j-1, 2j) zeta(sigma+2j, 2) for j = 0, 1, ...
    until j > 2 and c_j 4**-j < 2**(sigma+1-64), 2**(sigma+1) being the
    least pair sum on (0, 1/2].  zeta(s, 2) is 2**-s above s = 100, where
    (2/3)**s is below rounding (mpmath.fp.zeta overflows from s ~ 227)."""
    out, binom = [], 1.0
    for j in itertools.count():
        s = sigma + 2 * j
        out.append(2.0 * binom * (2.0 ** -s if s > 100 else mpmath.fp.zeta(s, 2)))
        if j > 2 and out[-1] * 2.0 ** (63 - s) < 1.0:
            return tuple(out)
        binom *= s * (s + 1) / ((2 * j + 1) * (2 * j + 2))


def _hurwitz_pair(sigma: float, a: np.ndarray) -> np.ndarray:
    """zeta(sigma, a) + zeta(sigma, 1 - a) for a in (0, 1), float64.

    With b = min(a, 1 - a) it is b**-sigma + (1-b)**-sigma + (1+b)**-sigma
    + sum_j c_j b**2j: the even Taylor series about a = 1 (DLMF 25.11.10)
    of zeta(sigma, 2+b) + zeta(sigma, 2-b), by Horner in b**2 over the
    cached _pair_coeffs; at b <= 1/2 its terms shrink by 4 or more.  1 - b
    is carried as a double plus its exact rounding error.  Relative error
    below 5e-16 against zeta at the double a for 1 < sigma <= 40; a term
    past float64 is inf, without numpy's warning.
    """
    b = np.minimum(a, 1.0 - a)
    u = 1.0 - b
    du = (1.0 - u) - b  # 1 - b = u + du exactly (Fast2Sum)
    with np.errstate(over="ignore"):
        head = b ** -sigma + u ** -sigma * (1.0 - sigma * du / u) + (1.0 + b) ** -sigma
    return head + _horner(_pair_coeffs(sigma), b * b)


def _hurwitz_pair_table(sigma: float, N: int) -> np.ndarray:
    """A(m) = zeta(sigma, m/N) + zeta(sigma, 1 - m/N) for 1 <= m < N, at
    index m of a length-N array; index 0 is unused and left at 0.

    _hurwitz_pair evaluates it at the double m/N for m <= N/2 and
    A(m) = A(N - m) mirrors the rest; rounding m/N adds up to
    sigma * 2**-53 to the engine's error.  Every caller scales the table
    by (2 pi N)**-sigma, so sizes where that factor leaves the float64
    normal range raise ValueError; this also keeps the table, of order
    N**sigma, finite.  So do sizes above _PAIR_TABLE_MAX_N, for memory.
    """
    _check_exponent(sigma)
    if N > _PAIR_TABLE_MAX_N:
        raise ValueError(
            f"pair table is capped at N = {_PAIR_TABLE_MAX_N} (memory), got N = {N}"
        )
    if sigma * math.log10(_TWO_PI * N) > 307:
        raise ValueError(
            f"(2 pi N)**sigma overflows float64 at sigma={sigma:g}, N={N}"
        )
    m = np.arange(1, N // 2 + 1, dtype=np.int64)
    half = _hurwitz_pair(sigma, m / N)
    A = np.zeros(N, dtype=np.float64)
    A[m] = half
    A[N - m] = half
    return A


def f_sigma_many(sigma: float, a: np.ndarray) -> np.ndarray:
    """Vectorized f_sigma, float64: sin(pi b)**sigma * _hurwitz_pair with
    b = min(a, 1 - a), a reduced mod 1; a = 0 gives pi**sigma, as in
    f_sigma.  ValueError where pi**sigma or the pair leaves float64."""
    at_zero = _pi_power(sigma)
    a = np.mod(np.asarray(a, dtype=np.float64), 1.0)
    zero = a == 0.0
    b = np.minimum(a, 1.0 - a)
    pair = _hurwitz_pair(sigma, np.where(zero, 0.5, b))  # 0.5: replaced below
    if np.isinf(pair).any():
        a_min = b[np.isinf(pair)].min()
        raise ValueError(f"f_sigma leaves float64 at sigma={sigma:g}, a={a_min:g}")
    return np.where(zero, at_zero, np.sin(np.pi * b) ** sigma * pair)


@functools.lru_cache(maxsize=None)
def cot_derivative_poly(r: int) -> tuple[int, ...]:
    """Integer coefficients (ascending powers of c) of G_r(c), where
    G_r(cot(pi x)) = g^{(r)}(x) / pi**r and g(x) = -cot(pi x).

    G_0 = -c and G_{r+1} = -(1 + c^2) * G_r'(c).
    """
    if r < 0:
        raise ValueError(f"negative order: {r}")
    g = (0, -1)
    for _ in range(r):
        out = [0] * (len(g) + 1)
        for j in range(1, len(g)):
            out[j - 1] -= j * g[j]
            out[j + 1] -= j * g[j]
        g = tuple(out)
    return g


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


def _float_array(t) -> np.ndarray:
    """t as an array, kept in its float dtype; integers become float64."""
    t = np.asarray(t)
    return t if t.dtype.kind == "f" else t.astype(np.float64)


@dataclass(frozen=True)
class Kernel:
    """A weight function f on the torus, one subclass per family.  Each has
    name, value_at_zero, trig_coeffs, holder_alpha (assumed smoothness, as
    data) and the class constant kind, and gives f at t mod 1 by eval,
    eval_many (in t's float dtype) and eval_mp (in the caller's context).
    Each class checks its fields on construction and raises ValueError
    for a weight it cannot evaluate."""

    def pair(self, t1, t2):
        """The numerator f(t1) * f(t2) of a lattice-sum term, for arrays."""
        return self.eval_many(t1) * self.eval_many(t2)


@dataclass(frozen=True)
class Trig(Kernel):
    """sum_j coeffs[j] * cos(pi t)**(2j)."""

    kind = "trig"
    holder_alpha = 1.0
    sigma = None
    coeffs: tuple[int, ...]
    label: str | None = None

    def __post_init__(self):
        coeffs = tuple(_as_int("trig coefficient", c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("trig kernel needs at least one coefficient")
        # |f| <= sum |a_j| bounds the weight and every Horner partial sum
        if sum(map(abs, coeffs)) > sys.float_info.max:
            raise ValueError(
                f"weight {self.label or 'trig'} has coefficients too large for float64 "
                f"(sum of |a_j| exceeds {sys.float_info.max:g})"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def name(self) -> str:
        if self.label is not None:
            return self.label
        return "trig:" + ",".join(str(c) for c in self.coeffs)

    @property
    def value_at_zero(self) -> float:
        return float(sum(self.coeffs))

    @property
    def trig_coeffs(self) -> tuple[int, ...]:
        """The coefficients with trailing zeros dropped: equal for kernels
        that are the same function, whatever their name."""
        coeffs = self.coeffs
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        return coeffs

    def eval(self, t: float) -> float:
        return _horner(self.coeffs, math.cos(math.pi * (t % 1.0)) ** 2)

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        t = _float_array(t)
        return _horner(self.coeffs, np.cos(t.dtype.type(_PI_STR) * t) ** 2)

    def eval_mp(self, t) -> mpmath.mpf:
        return _horner(self.coeffs, mpmath.cospi(t) ** 2)


@dataclass(frozen=True)
class One(Trig):
    """The constant weight: trig:1 named "one", evaluated without arrays."""

    kind = "one"
    coeffs: tuple[int, ...] = field(default=(1,), init=False)
    label: str | None = field(default="one", init=False)

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        return np.ones_like(_float_array(t))

    def pair(self, t1, t2) -> float:
        return 1.0


@dataclass(frozen=True)
class FSigma(Kernel):
    """f_sigma, continued by pi**sigma at t = 0; eval_many runs at double."""

    kind = "fsigma"
    coeffs = label = trig_coeffs = None
    sigma: float

    def __post_init__(self):
        _check_exponent(self.sigma)

    @property
    def name(self) -> str:
        return f"fsigma:{self.sigma:g}"

    @property
    def value_at_zero(self) -> float:
        return _pi_power(self.sigma)

    @property
    def holder_alpha(self) -> float:
        return min(1.0, self.sigma - 1)

    def eval(self, t: float) -> float:
        return f_sigma(self.sigma, t)

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        t = _float_array(t)
        return f_sigma_many(self.sigma, t).astype(t.dtype, copy=False)

    def eval_mp(self, t) -> mpmath.mpf:
        t = mpmath.frac(t)
        if t == 0:
            return mpmath.pi ** self.sigma
        z = mpmath.zeta(self.sigma, t) + mpmath.zeta(self.sigma, 1 - t)
        return mpmath.sinpi(t) ** self.sigma * z


def kernel_one() -> Kernel:
    return One()


def kernel_fsigma(sigma: float) -> Kernel:
    return FSigma(float(sigma))


def kernel_trig(coeffs) -> Kernel:
    return Trig(tuple(coeffs))


def kernel_bernoulli_weight(two_s: int) -> Kernel:
    """The even-potential weight as a trig kernel; bern:2 is 1, bern:4 is
    2 + 4 cos^2, bern:6 is 16 + 88 cos^2 + 16 cos^4.  Raises ValueError
    from bern:172 on, whose coefficients leave float64."""
    # the weight's value at 0 is (2s-1)!, a lower bound of sum |a_j|:
    # refuse before building G_{2s-1} where that alone overflows
    if two_s >= 2 and math.lgamma(two_s) > math.log(sys.float_info.max):
        raise ValueError(f"weight bern:{two_s} has coefficients too large for float64")
    return Trig(even_weight_coeffs(two_s), f"bern:{two_s}")


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
    Abel-bounded tail drops below tol; where that takes more than
    _K_SERIES_MAX_TERMS terms (sigma near 1, t near 0) it raises
    ValueError, and the dft and wce routes of energy take the input.
    """
    _check_exponent(sigma)
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
    terms = (abs(pref) * bound / tol) ** (1.0 / sigma)
    if terms > _K_SERIES_MAX_TERMS:
        raise ValueError(
            f"cosine series of K needs {terms:.3g} terms at sigma={sigma:g}, "
            f"t={t:g} (cap {_K_SERIES_MAX_TERMS}); use dft or wce"
        )
    M = max(32, math.ceil(terms))
    m = np.arange(1, M + 1, dtype=np.float64)
    series = float(np.sum(np.cos(_TWO_PI * t * m) / m ** sigma))
    return 1.0 + pref * series


def dft_coeffs(sigma: float, p: float, N: int) -> np.ndarray:
    """Lattice DFT coefficients of K_{sigma,p} on Z/N: index 0 carries
    1 + 2 p zeta(sigma)/(2 pi N)**sigma, index m >= 1 carries
    p (zeta(sigma, m/N) + zeta(sigma, 1 - m/N)) / (2 pi N)**sigma.

    zeta(sigma) is the scalar mpmath value; the m >= 1 entries come from
    the vectorized Hurwitz pair table, relative error ~1e-15.  Raises
    ValueError where (2 pi N)**sigma overflows float64 and above
    N = _PAIR_TABLE_MAX_N (peak memory under 1 GB).
    """
    if N < 1:
        raise ValueError(f"modulus must be >= 1, got {N}")
    _check_exponent(sigma)
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
        out[m] = scale * _horner(g, c)
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
