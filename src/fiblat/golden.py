"""Exact arithmetic in Z[phi], the ring of integers of Q(sqrt 5).

Elements are written a + b*phi with integer a, b, where phi is the golden
ratio (1 + sqrt 5)/2.  Since phi**2 = phi + 1, the ring is closed under
multiplication:

    (a + b*phi) * (c + d*phi) = (a*c + b*d) + (a*d + b*c + b*d)*phi

Everything here is integer-exact; no floats enter any comparison.
float() and _to_mpf round one exact fixed-point value (_fixed_point)
once, to a double or to the mpmath working precision.
"""
from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from math import isqrt

import mpmath

from ._bounds import INDEX, PHI_POWER, _shown

__all__ = [
    "GoldenInt",
    "fib",
    "lucas",
    "floor_phi_times",
    "phi_power",
]


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class GoldenInt:
    """a + b*phi with a, b arbitrary-precision integers."""

    a: int
    b: int

    def __add__(self, other: GoldenInt) -> GoldenInt:
        return GoldenInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: GoldenInt) -> GoldenInt:
        return GoldenInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> GoldenInt:
        return GoldenInt(-self.a, -self.b)

    def __mul__(self, other: GoldenInt | int) -> GoldenInt:
        if isinstance(other, int):
            return GoldenInt(self.a * other, self.b * other)
        return GoldenInt(self.a * other.a + self.b * other.b,
                         self.a * other.b + self.b * other.a + self.b * other.b)

    __rmul__ = __mul__

    def conjugate(self) -> GoldenInt:
        """Image under sqrt5 -> -sqrt5, i.e. phi -> 1 - phi."""
        return GoldenInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        """Field norm N(a + b*phi) = a**2 + a*b - b**2; multiplicative."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def sign(self) -> int:
        """Exact sign of the real value a + b*phi.

        Writes 2*(a + b*phi) = t + v*sqrt5 with t = 2a + b, v = b and
        compares t against -v*sqrt5 through squares, so the result never
        depends on floating point.
        """
        t = 2 * self.a + self.b
        v = self.b
        if t >= 0 and v >= 0:
            return 0 if t == 0 and v == 0 else 1
        if t <= 0 and v <= 0:
            return -1
        # mixed signs: t + v*sqrt5 > 0  iff  t > 0 and t*t > 5*v*v,
        #                               or   v > 0 and 5*v*v > t*t.
        # t*t == 5*v*v is impossible for nonzero integers (5 is squarefree).
        if t > 0:
            return 1 if t * t > 5 * v * v else -1
        return 1 if 5 * v * v > t * t else -1

    def __lt__(self, other: GoldenInt) -> bool:
        return (self - other).sign() < 0

    def __float__(self) -> float:
        m, e = _fixed_point(self, 53)
        return m / (1 << e)  # int / int rounds once, to nearest

    def __repr__(self) -> str:
        return f"GoldenInt({self.a}, {self.b})"


@functools.lru_cache(maxsize=1024)
def _fib_doubling(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) by binary doubling, memoized: the sweeps ask for the
    same few indices hundreds of thousands of times.  ValueError for an
    index past _bounds.INDEX (2**26 or more), checked on a cache miss.

    F_{2k}   = F_k * (2*F_{k+1} - F_k)
    F_{2k+1} = F_k**2 + F_{k+1}**2
    """
    INDEX.check(n)
    if n == 0:
        return 0, 1
    f, f1 = _fib_doubling(n >> 1)
    f2k = f * (2 * f1 - f)
    f2k1 = f * f + f1 * f1
    if n & 1:
        return f2k1, f2k + f2k1
    return f2k, f2k1


def _index(n) -> int:
    """n as an int; ValueError unless n is an integer >= 0 (NumPy ones
    too), so that the memo's keys are ints only."""
    if not isinstance(n, numbers.Integral) or n < 0:
        shown = _shown(n) if isinstance(n, numbers.Integral) else repr(n)
        raise ValueError(f"index must be an integer >= 0, got {shown}")
    return int(n)


def fib(n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1.  Requires an integer 0 <= n < 2**26."""
    if type(n) is not int or n < 0:  # an int n >= 0, the hot case, skips the call
        n = _index(n)
    return _fib_doubling(n)[0]


def lucas(n: int) -> int:
    """L_n with L_0 = 2, L_1 = 1.  Requires an integer 0 <= n < 2**26."""
    fn, fn1 = _fib_doubling(_index(n))
    return 2 * fn1 - fn


def floor_phi_times(i: int) -> int:
    """floor(phi * i) for i >= 1, exactly.

    phi*i = (i + sqrt(5*i*i))/2 and sqrt(5*i*i) is irrational, so the
    floor equals (i + isqrt(5*i*i)) // 2.
    """
    if i < 1:
        raise ValueError(f"index must be >= 1, got {_shown(i)}")
    return (i + isqrt(5 * i * i)) // 2


def phi_power(n: int) -> GoldenInt:
    """phi**n as an element of Z[phi], any integer |n| < 2**26.

    phi**n = F_{n-1} + F_n * phi; for n < 0 this uses
    F_{-m} = (-1)**(m+1) * F_m.  |n| >= 2**26 raises ValueError naming n.
    """
    PHI_POWER.check(abs(n), n)
    if n >= 1:
        fn, fn1 = _fib_doubling(n - 1)
        return GoldenInt(fn, fn1)
    if n == 0:
        return GoldenInt(1, 0)
    m = -n
    fm, fm1 = _fib_doubling(m)
    # phi**-m = (-1)**m * (F_{m+1} - F_m * phi)
    s = -1 if m & 1 else 1
    return GoldenInt(s * fm1, -s * fm)


def _fixed_point(x: GoldenInt, prec: int) -> tuple[int, int]:
    """(m, e) with m / 2**e within 2**-e of a + b*phi: the one route
    from the ring to the reals.

    Exact integers: 2*(a + b*phi) = (2a + b) + b*sqrt5, and
    isqrt(5*b*b * 4**p) is |b|*sqrt5*2**p rounded down.  The value
    cancels when tiny against its parts (w * phi**-k), but never below
    2**-(n+2), n the larger bit length of a and b: a nonzero x has a
    nonzero integer norm x * conj(x), and |conj(x)| < 2**(n+2).  So
    p = prec + n + 16 leaves a relative error below 2**-(prec+15).
    """
    n = max(x.a.bit_length(), x.b.bit_length())
    p = prec + n + 16
    r = isqrt(5 * x.b * x.b << 2 * p)
    return ((2 * x.a + x.b) << p) + (r if x.b >= 0 else -r), p + 1


def _to_mpf(x: GoldenInt) -> mpmath.mpf:
    """a + b*phi, rounded once to the current mpmath precision."""
    m, e = _fixed_point(x, mpmath.mp.prec)
    return mpmath.ldexp(mpmath.mpf(m), -e)
