"""Exact and high-precision reference values the benchmark checks against.

Every reference is returned as a Fraction.  Irrational references (the
closed forms of C carry a 1/sqrt 5, the zeta values a power of pi) are
rounded to 40 significant digits first, far below any error the
benchmark measures.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

# C at even sigma with constant weight, as coefficient / sqrt 5; the
# table the acceptance module pins.
C_TABLE = {
    2: Fraction(4, 15),
    4: Fraction(8, 675),
    6: Fraction(1072, 1771875),
    8: Fraction(5776, 186046875),
    10: Fraction(6604016, 4144194140625),
    12: Fraction(25449165152, 311125375107421875),
    14: Fraction(36389877952, 8667064020849609375),
    16: Fraction(1750445666277664, 8122122370538690185546875),
    18: Fraction(9141810707034331408, 826385340590459032928466796875),
}

# D at sigma = 2 with constant weight, from the exact level formula.
D_SIGMA2_ONE = Fraction(-17, 225)

_DIGITS = 40
_CHI5 = (0, 1, -1, -1, 1)


def to_fraction(x) -> Fraction:
    """An mpmath number, rounded to 40 significant digits."""
    import mpmath

    return Fraction(mpmath.nstr(x, _DIGITS, min_fixed=-mpmath.inf,
                                max_fixed=mpmath.inf))


def zeta_k(sigma) -> Fraction:
    """sum_i eta_i**-sigma = zeta(sigma) * L(sigma, chi_5), the L-series
    taken through Hurwitz zeta values: L = 5**-sigma sum_a chi(a) zeta(sigma, a/5)."""
    import mpmath

    with mpmath.workdps(_DIGITS + 20):
        s = mpmath.mpf(sigma)
        lval = mpmath.power(5, -s) * mpmath.fsum(
            _CHI5[a] * mpmath.zeta(s, mpmath.mpf(a) / 5) for a in range(1, 5))
        return to_fraction(mpmath.zeta(s) * lval)


def zeta_k_closed(two_s: int) -> Fraction:
    """The same zeta value at even sigma, from the closed form of C:
    C = 2 * 5**(sigma/2) / pi**(2 sigma) * zeta_K(sigma) at unit weight."""
    import mpmath

    with mpmath.workdps(_DIGITS + 20):
        c = (mpmath.mpf(C_TABLE[two_s].numerator) / C_TABLE[two_s].denominator
             / mpmath.sqrt(5))
        return to_fraction(c * mpmath.pi ** (2 * two_s) / (2 * mpmath.power(5, two_s / 2)))


def c_exact(sigma, kernel_spec: str) -> Fraction:
    """The untruncated C for one of the weights the benchmark uses.

    Even sigma with weight one or bern:sigma comes from C_TABLE (the
    weight only rescales by f(0)**2); fsigma has f(0) = pi**sigma, so C
    reduces to 2 * 5**(sigma/2) * zeta_K(sigma).
    """
    import mpmath

    if kernel_spec == "fsigma":
        with mpmath.workdps(_DIGITS + 20):
            scale = 2 * mpmath.power(5, mpmath.mpf(sigma) / 2)
            z = zeta_k(sigma)
            return to_fraction(scale * mpmath.mpf(z.numerator) / z.denominator)
    two_s = int(sigma)
    if two_s != sigma or two_s not in C_TABLE:
        raise ValueError(f"no closed form of C at sigma={sigma}")
    if kernel_spec == "one":
        f0 = 1
    elif kernel_spec == f"bern:{two_s}":
        f0 = {2: 1, 4: 6, 6: 120}[two_s]
    else:
        raise ValueError(f"no closed form of C for weight {kernel_spec!r}")
    with mpmath.workdps(_DIGITS + 20):
        coeff = C_TABLE[two_s] * f0 * f0
        return to_fraction(mpmath.mpf(coeff.numerator) / coeff.denominator / mpmath.sqrt(5))


@lru_cache(maxsize=None)
def phi() -> Fraction:
    import mpmath

    with mpmath.workdps(_DIGITS + 20):
        return to_fraction((1 + mpmath.sqrt(5)) / 2)


def golden_value(a: int, b: int) -> Fraction:
    """a + b*phi."""
    return a + b * phi()
