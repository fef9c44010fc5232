"""Periodic potentials, their Fourier data, and weight functions.

The central potential is

    K_{sigma,p}(t) = 1 + p * sum_{m != 0} e(m t) / |2 pi m|**sigma,

whose lattice DFT coefficients come either from Hurwitz zeta values
(any sigma > 1) or, for even sigma = 2s <= 2000, from derivatives of
the cotangent and Bernoulli polynomials.  Exact Bernoulli numbers are
mpmath.bernfrac's.  Scalar zeta values are mpmath.zeta, which is also
the oracle; the pair
zeta(sigma, a) + zeta(sigma, 1-a) has one float64 engine, _hurwitz_pair,
behind dft_coeffs, energy.wce_e and the fsigma weight.  Weight functions
f enter the energy sums as f(t1) f(t2) / |sin sin|**sigma; each family
is a Kernel class: Trig, the even trigonometric polynomials
sum_j a_j cos(pi t)**(2j); One, the constant 1, trig:1 evaluated without
arrays; and FSigma, the zeta-family weight

    f(a) = sin(pi a)**sigma * (zeta(sigma, a) + zeta(sigma, 1-a)).

A weight's float values, scalar or array, come from its eval_many, and
its oracle is eval_mp.  The level sums form the numerator f(t1) f(t2) of
a term as eval_many(t1) * eval_many(t2) on slices of bounded size, so a
weight's temporaries stay the size of a slice; One's eval_many is a
NumPy scalar 1, which broadcasts, so the constant weight builds no
arrays.  FSigma.eval_many and _hurwitz_pair form their values in place,
bit for bit the values of the whole-array expressions.
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

from ._bounds import EVEN_EXPONENT, K_SERIES, MODULUS, PAIR_TABLE, SCALE

__all__ = [
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_coeffs",
    "zeta",
    "cot_derivative_poly",
    "even_weight_coeffs",
    "Kernel",
    "One",
    "Trig",
    "FSigma",
    "kernel_one",
    "kernel_bernoulli_weight",
    "parse_kernel",
    "KERNEL_GRAMMAR",
    "potential_K",
    "dft_coeffs",
    "dft_coeffs_even",
]

_TWO_PI = 2 * math.pi
# pi to 39 digits: parsed by each float dtype, so extended-precision
# arrays get their own correctly rounded pi rather than the double one
_PI_STR = "3.14159265358979323846264338327950288420"
# potential_K's cosine series stops at an Abel tail bound of this times max(1, |pref|)
_K_SERIES_TOL = 1e-13


def _check_exponent(sigma) -> float:
    """sigma as a Python float; ValueError unless 1 < sigma < inf (NaN is
    refused too)."""
    if not 1 < sigma < math.inf:
        raise ValueError(f"exponent must be finite and exceed 1, got {sigma}")
    return _as_float("exponent", sigma)


def _as_float(name: str, value) -> float:
    """value as a Python float, so that a NumPy scalar of another width (a
    float32 sigma, say) does not set the precision of the arithmetic it
    enters; ValueError where value is past float64 (a huge int)."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is past float64") from None


def _check_coefficient(p) -> None:
    """Raise ValueError unless the potential coefficient p is finite;
    exact rationals always are."""
    if not isinstance(p, numbers.Rational) and not math.isfinite(p):
        raise ValueError(f"potential coefficient must be finite, got {p}")


def _even_exponent(sigma) -> int:
    """2s for any real sigma (int, float, Fraction, NumPy scalar) equal to
    an even integer in [2, 2000] (_bounds.EVEN_EXPONENT); ValueError for
    anything else, inf and NaN too."""
    two_s = 0  # anything but an even integer: refused as below the range
    if isinstance(sigma, numbers.Rational) or (
            isinstance(sigma, numbers.Real) and math.isfinite(sigma)):
        floor = math.floor(sigma)
        two_s = floor if floor == sigma and floor % 2 == 0 else 0
    return EVEN_EXPONENT.check(two_s, repr(sigma))


def _bernoulli_coeff(two_s: int, p) -> Fraction:
    """c = p (-1)**(s-1) / (2s)! in K_{2s,p}(t) = 1 + c B_{2s}({t}), exact
    for any p that Fraction takes (a float as its binary value, a Decimal
    as written); a NumPy scalar p is the Python int or float it holds."""
    p = p.item() if isinstance(p, np.generic) else p
    return Fraction((-1) ** (two_s // 2 - 1), math.factorial(two_s)) * Fraction(p)


def _as_int(name: str, value) -> int:
    """value as an int; anything not a numbers.Integral raises ValueError."""
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _horner(coeffs, x):
    """sum_j coeffs[j] * x**j in the arithmetic of x and the coefficients.
    acc is updated in place, so an array x needs one work array."""
    acc = x * 0 + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc *= x
        acc += c
    return acc


@functools.lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """B_m with the B_1 = -1/2 convention, exact: mpmath.bernfrac, which
    rounds a numerical B_m to the denominator von Staudt-Clausen fixes.
    B_1000 takes about 0.3 s with the smaller indices."""
    if m < 0:
        raise ValueError(f"negative index: {m}")
    return Fraction(*mpmath.bernfrac(m))


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


def zeta(sigma: float) -> float:
    """Riemann zeta for sigma > 1: mpmath.zeta at 75 bits, rounded to a
    double."""
    _check_exponent(sigma)
    with mpmath.workprec(75):
        return float(mpmath.zeta(sigma))


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
        # not >=, so that a NaN (an inf binomial times a zero zeta, from
        # sigma ~ 1.5e51) stops the loop too
        if j > 2 and not out[-1] * 2.0 ** (63 - s) >= 1.0:
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
    past float64 is inf, without numpy's warning.  Every array is formed
    in place, a's own left as it is: the head
    b**-sigma + u**-sigma * (1 - sigma*du/u) + (1+b)**-sigma in that
    order, then the series, so it holds at most four arrays of a's size.
    """
    b = np.atleast_1d(np.subtract(1.0, a))
    np.minimum(a, b, out=b)
    u = np.subtract(1.0, b)
    du = np.subtract(1.0, u)
    du -= b  # 1 - b = u + du exactly (Fast2Sum)
    du *= sigma
    du /= u
    np.subtract(1.0, du, out=du)
    with np.errstate(over="ignore"):
        head = b ** -sigma
        np.power(u, -sigma, out=u)
        u *= du
        head += u
        np.add(1.0, b, out=du)
        np.power(du, -sigma, out=du)
        head += du
    del u, du
    b *= b
    head += _horner(_pair_coeffs(sigma), b)
    return head.reshape(np.shape(a))


def _check_scale(sigma: float, N: int) -> None:
    """ValueError where N > 1 and (2 pi N)**sigma, the scale of the
    Hurwitz pair sums over Z/N (dft_coeffs, energy.wce_e), leaves the
    float64 normal range; N = 1 has no pair to scale."""
    if N > 1:
        SCALE.check(sigma * math.log10(_TWO_PI * N), sigma, N)


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
    s = _even_exponent(two_s) // 2
    out = [0] * (s + 1)
    # G_{2s-1} has only even powers: its c^{2j} coefficient q multiplies
    # cos^{2j} sin^{2s-2j}, and sin^{2(s-j)} = (1 - u)^{s-j} with u = cos^2
    for j, q in enumerate(cot_derivative_poly(2 * s - 1)[::2]):
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
    data) and the class constant kind, and gives f at t mod 1 by
    eval_many (in t's float dtype), its one float path, and by eval_mp
    (in the caller's context), its oracle.  Each class checks its fields
    on construction and raises ValueError for a weight it cannot
    evaluate."""

    def eval(self, t: float) -> float:
        """f(t) as a Python float: eval_many at the double t."""
        return float(self.eval_many(np.float64(t)))


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

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        t = _float_array(t)
        x = np.cos(t.dtype.type(_PI_STR) * t)
        x **= 2
        return _horner(self.coeffs, x)

    def eval_mp(self, t) -> mpmath.mpf:
        return _horner(self.coeffs, mpmath.cospi(t) ** 2)


@dataclass(frozen=True)
class One(Trig):
    """The constant weight: trig:1 named "one", evaluated without arrays:
    eval_many is a NumPy scalar 1 of t's float dtype, which broadcasts."""

    kind = "one"
    coeffs: tuple[int, ...] = field(default=(1,), init=False)
    label: str | None = field(default="one", init=False)

    def eval_many(self, t: np.ndarray) -> np.generic:
        return _float_array(t).dtype.type(1)


@dataclass(frozen=True)
class FSigma(Kernel):
    """sin(pi t)**sigma * (zeta(sigma, t) + zeta(sigma, 1 - t)), continued
    by pi**sigma at t = 0; eval_many runs at double."""

    kind = "fsigma"
    coeffs = label = trig_coeffs = None
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sigma", _check_exponent(self.sigma))

    @property
    def name(self) -> str:
        return f"fsigma:{self.sigma:g}"

    @property
    def value_at_zero(self) -> float:
        """pi**sigma; ValueError where it leaves float64."""
        try:
            return math.pi ** self.sigma
        except OverflowError:
            raise ValueError(f"pi**sigma overflows float64 at sigma={self.sigma:g}") from None

    @property
    def holder_alpha(self) -> float:
        return min(1.0, self.sigma - 1)

    def eval_many(self, t: np.ndarray) -> np.ndarray:
        """sin(pi b)**sigma * _hurwitz_pair in float64, with b = min(a, 1 - a)
        and a = t mod 1, so the sine never carries the rounding of pi*a
        near a = 1; a = 0 gives the limit pi**sigma.  Returned in t's
        dtype.  ValueError where pi**sigma or the pair leaves float64.  The
        values are formed in place, in a's reduced copy and in b, so with
        the pair's own arrays at most six arrays of t's size are live."""
        t = _float_array(t)
        sigma, at_zero = self.sigma, self.value_at_zero
        a = np.atleast_1d(np.mod(np.asarray(t, dtype=np.float64), 1.0))
        zero = a == 0.0
        b = np.subtract(1.0, a)
        np.minimum(a, b, out=b)
        np.copyto(a, b)
        a[zero] = 0.5  # the pair's argument; replaced below
        pair = _hurwitz_pair(sigma, a)
        del a
        if np.isinf(pair).any():
            a_min = b[np.isinf(pair)].min()
            raise ValueError(f"the fsigma weight leaves float64 at sigma={sigma:g}, a={a_min:g}")
        b *= np.pi
        np.sin(b, out=b)
        b **= sigma
        b *= pair  # sin(pi b)**sigma * pair
        b[zero] = at_zero
        return b.reshape(t.shape).astype(t.dtype, copy=False)

    def eval_mp(self, t) -> mpmath.mpf:
        t = mpmath.frac(t)
        if t == 0:
            return mpmath.pi ** self.sigma
        z = mpmath.zeta(self.sigma, t) + mpmath.zeta(self.sigma, 1 - t)
        return mpmath.sinpi(t) ** self.sigma * z


def kernel_one() -> Kernel:
    return One()


def kernel_bernoulli_weight(two_s: int) -> Kernel:
    """The even-potential weight as a trig kernel; bern:2 is 1, bern:4 is
    2 + 4 cos^2, bern:6 is 16 + 88 cos^2 + 16 cos^4.  Raises ValueError
    from bern:172 on, whose coefficients leave float64."""
    two_s = _even_exponent(two_s)
    # the weight's value at 0 is (2s-1)!, a lower bound of sum |a_j|:
    # refuse before building G_{2s-1} where that alone overflows
    if math.lgamma(two_s) > math.log(sys.float_info.max):
        raise ValueError(f"weight bern:{two_s} has coefficients too large for float64")
    return Trig(even_weight_coeffs(two_s), f"bern:{two_s}")


KERNEL_GRAMMAR = "one | fsigma | trig:a0,a1,... | bern:<even sigma>"


def parse_kernel(spec: str, *, sigma: float | None = None) -> Kernel:
    """Parse a kernel name: one, fsigma, trig:a0,a1,..., bern:<2s>.

    fsigma requires the caller's sigma; trig coefficients are integers
    giving sum a_j cos(pi t)**(2j).  Every refusal is a ValueError that
    names the grammar (KERNEL_GRAMMAR).
    """
    try:
        return _parse_kernel(spec.strip(), sigma)
    except ValueError as exc:
        if "grammar" in str(exc):
            raise
        raise ValueError(f"{exc} (kernel grammar: {KERNEL_GRAMMAR})") from exc


def _parse_kernel(spec: str, sigma: float | None) -> Kernel:
    if spec == "one":
        return kernel_one()
    if spec == "fsigma":
        if sigma is None:
            raise ValueError("kernel fsigma requires a sigma value")
        return FSigma(sigma)
    if spec.startswith("trig:"):
        body = spec[len("trig:"):]
        try:
            coeffs = [int(x) for x in body.split(",") if x.strip() != ""]
        except ValueError:
            raise ValueError(f"bad trig coefficients {body!r}; grammar: {KERNEL_GRAMMAR}")
        return Trig(coeffs)
    if spec.startswith("bern:"):
        body = spec[len("bern:"):]
        try:
            two_s = int(body)
        except ValueError:
            raise ValueError(f"bad even exponent {body!r}; grammar: {KERNEL_GRAMMAR}")
        return kernel_bernoulli_weight(two_s)
    raise ValueError(f"unknown kernel {spec!r}; grammar: {KERNEL_GRAMMAR}")


def potential_K(sigma: float, p, t):
    """K_{sigma,p}(t) = 1 + p sum_{m != 0} e(mt)/|2 pi m|**sigma.

    For even integer sigma = 2s <= 2000 (_bounds.EVEN_EXPONENT) this is the
    polynomial path 1 + c B_{2s}({t}) with c = p (-1)**(s-1) / (2s)!,
    exact (a Fraction) when both p and t are, else p times Horner's rule
    on the float coefficients of c B_{2s} at p = 1.  Otherwise the
    cosine series is summed until an Abel-bounded tail drops below
    _K_SERIES_TOL times max(1, |2p/(2 pi)**sigma|); where that takes more
    than 2**22 terms (_bounds.K_SERIES; sigma near 1, t near 0) it raises
    ValueError, and the dft and wce routes of energy take the input.  A
    non-finite p or t, a (2 pi)**sigma past float64 and a float value
    past it raise ValueError.
    """
    sigma = _check_exponent(sigma)
    _check_coefficient(p)
    if not isinstance(t, numbers.Rational) and not math.isfinite(t):
        raise ValueError(f"argument must be finite, got {t}")
    try:
        val = _potential_K(sigma, p, t)
    except OverflowError:  # a float step past float64
        val = math.inf
    if not isinstance(val, Fraction) and not math.isfinite(val):
        raise ValueError(f"K overflows float64 in its evaluation at sigma={sigma:g}, p={p}, t={t}")
    return val


@functools.lru_cache(maxsize=None)
def _k_poly_coeffs(two_s: int) -> tuple[float, ...]:
    """Coefficients of c B_{2s}(t) at p = 1, ascending powers of t:
    (-1)**(s-1) C(2s, j) B_{2s-j} / (2s)!, exact Fractions below 1 in
    magnitude rounded once to float, so none leaves float64 (the
    coefficients of B_{2s} alone do from 2s near 260)."""
    c = _bernoulli_coeff(two_s, 1)
    return tuple(float(c * q) for q in bernoulli_poly_coeffs(two_s))


def _potential_K(sigma: float, p, t):
    """potential_K's value, before its check that a float one is finite."""
    try:
        two_s = _even_exponent(sigma)
    except ValueError:  # the cosine series below
        pass
    else:
        exact_t = isinstance(t, (Fraction, int))
        tt = t % 1 if exact_t else float(t) % 1.0
        if exact_t and isinstance(p, (Fraction, int)):
            return 1 + _bernoulli_coeff(two_s, p) * bernoulli_poly(two_s, tt)
        return 1.0 + float(p) * _horner(_k_poly_coeffs(two_s), float(tt))
    t = float(t) % 1.0
    try:
        pref = 2 * float(p) / _TWO_PI ** sigma
    except OverflowError:
        raise ValueError(f"(2 pi)**sigma overflows float64 at sigma={sigma:g}") from None
    tr = min(t, 1.0 - t)  # 0 also where a tiny negative t rounds to t = 1
    if tr == 0.0:
        return 1.0 + pref * zeta(sigma)
    bound = 1.0 / math.sin(math.pi * tr)  # Abel bound on cosine partial sums
    terms = (min(abs(pref), 1.0) * bound / _K_SERIES_TOL) ** (1.0 / sigma)
    K_SERIES.check(terms, terms, sigma, t)
    M = max(32, math.ceil(terms))
    m = np.arange(1, M + 1, dtype=np.float64)
    with np.errstate(over="ignore"):  # m**sigma = inf is a zero term
        series = float(np.sum(np.cos(_TWO_PI * t * m) / m ** sigma))
    return 1.0 + pref * series


def dft_coeffs(sigma: float, p: float, N: int) -> np.ndarray:
    """Lattice DFT coefficients of K_{sigma,p} on Z/N: index 0 carries
    1 + 2 p zeta(sigma)/(2 pi N)**sigma, index m >= 1 carries
    p (zeta(sigma, m/N) + zeta(sigma, 1 - m/N)) / (2 pi N)**sigma.

    zeta(sigma) is the scalar mpmath value.  The m >= 1 entries are
    _hurwitz_pair at the double m/N for m <= N/2, relative error ~1e-15
    plus up to sigma * 2**-53 from rounding m/N, mirrored to N - m.
    Raises ValueError where (2 pi N)**sigma or an entry overflows float64,
    above N = 2 * 10**7 (_bounds.PAIR_TABLE; peak memory under 1 GB) and
    for a non-finite p.
    """
    MODULUS.check(N)
    sigma = _check_exponent(sigma)
    _check_coefficient(p)
    p = _as_float("p", p)
    # first, so that the size checks come before N is a float
    PAIR_TABLE.check(N)
    _check_scale(sigma, N)
    scale = (_TWO_PI * N) ** -sigma
    out = np.empty(N, dtype=np.float64)
    out[0] = 1.0 + 2 * p * zeta(sigma) * scale
    if N > 1:  # N = 1 has no pair, and must not reach _pair_coeffs
        m = np.arange(1, N // 2 + 1, dtype=np.int64)
        with np.errstate(over="ignore"):
            out[m] = out[N - m] = p * scale * _hurwitz_pair(sigma, m / N)
    return _finite_table(out, sigma, p)


def dft_coeffs_even(two_s: int, p: float, N: int) -> np.ndarray:
    """The even-sigma route to the same table: 1 + c B_{2s} / N**(2s) rounded
    once at index 0, the (2s-1)-th cotangent derivative at m/N at m >= 1.
    Raises ValueError where (2N)**(2s) * (2s-1)!, the scale of the m >= 1
    entries, or an entry overflows float64, and for a non-finite p."""
    two_s = _even_exponent(two_s)
    MODULUS.check(N)
    _check_coefficient(p)
    if two_s * math.log(2 * N) + math.lgamma(two_s) >= math.log(sys.float_info.max):
        raise ValueError(f"(2N)**(2s) * (2s-1)! overflows float64 at 2s={two_s}, N={N}")
    g = cot_derivative_poly(two_s - 1)
    out = np.empty(N, dtype=np.float64)
    out[0] = float(1 + _bernoulli_coeff(two_s, p) * bernoulli_number(two_s)
                   / N ** two_s)
    scale = _as_float("p", p) / (math.factorial(two_s - 1) * float(2 * N) ** two_s)
    for m in range(1, N):
        c = 1.0 / math.tan(math.pi * m / N) if 2 * m != N else 0.0
        out[m] = scale * _horner(g, c)
    return _finite_table(out, two_s, p)


def _finite_table(out: np.ndarray, sigma, p) -> np.ndarray:
    """out, or ValueError where an entry has left float64."""
    if not np.isfinite(out).all():
        raise ValueError(
            f"DFT coefficients overflow float64 at sigma={sigma:g}, p={p:g}, N={len(out)}")
    return out
