"""Exact arithmetic in Z[phi], the ring of integers of Q(sqrt 5).

Elements are written a + b*phi with integer a, b, where phi is the golden
ratio (1 + sqrt 5)/2.  Since phi**2 = phi + 1, the ring is closed under
multiplication:

    (a + b*phi) * (c + d*phi) = (a*c + b*d) + (a*d + b*c + b*d)*phi

Everything here is integer-exact; no floats enter any comparison.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import isqrt

__all__ = [
    "GoldenInt",
    "FibPair",
    "fib",
    "fib_pair",
    "lucas",
    "golden_mul",
    "golden_norm",
    "golden_compare",
    "floor_phi_times",
    "phi_power",
]


@functools.total_ordering
@dataclass(frozen=True)
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
        return golden_mul(self, other)

    __rmul__ = __mul__

    def conjugate(self) -> GoldenInt:
        """Image under sqrt5 -> -sqrt5, i.e. phi -> 1 - phi."""
        return GoldenInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        return golden_norm(self)

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
        # a + b*phi cancels catastrophically when the value is tiny
        # against its parts (e.g. w * phi**-k).  The conjugate cannot be
        # tiny at the same time (|x * conj| = |norm| >= 1 for x != 0),
        # so small values go through norm / conjugate instead.
        phi = (1 + 5 ** 0.5) / 2
        direct = self.a + self.b * phi
        scale = abs(self.a) + abs(self.b) * phi
        if scale == 0.0 or abs(direct) > 1e-6 * scale:
            return direct
        conj = (self.a + self.b) - self.b * phi
        if abs(conj) > 1e-6 * scale:
            return self.norm() / conj
        import mpmath  # double cancellation: punt to big floats

        with mpmath.workprec(max(self.a.bit_length(), self.b.bit_length()) + 64):
            val = (2 * self.a + self.b + self.b * mpmath.sqrt(5)) / 2
            return float(val)

    def __repr__(self) -> str:
        return f"GoldenInt({self.a}, {self.b})"


@dataclass(frozen=True)
class FibPair:
    """Consecutive Fibonacci numbers (F_n, F_{n+1})."""

    n: int
    fn: int
    fn1: int

    def next(self) -> FibPair:
        return FibPair(self.n + 1, self.fn1, self.fn + self.fn1)


@functools.lru_cache(maxsize=1024)
def _fib_doubling(n: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) by binary doubling, memoized: the sweeps ask for the
    same few indices hundreds of thousands of times.

    F_{2k}   = F_k * (2*F_{k+1} - F_k)
    F_{2k+1} = F_k**2 + F_{k+1}**2
    """
    if n == 0:
        return 0, 1
    f, f1 = _fib_doubling(n >> 1)
    f2k = f * (2 * f1 - f)
    f2k1 = f * f + f1 * f1
    if n & 1:
        return f2k1, f2k + f2k1
    return f2k, f2k1


def fib(n: int) -> int:
    """F_n with F_0 = 0, F_1 = 1.  Requires n >= 0."""
    if n < 0:
        raise ValueError(f"negative index: {n}")
    return _fib_doubling(n)[0]


def fib_pair(n: int) -> FibPair:
    if n < 0:
        raise ValueError(f"negative index: {n}")
    fn, fn1 = _fib_doubling(n)
    return FibPair(n, fn, fn1)


def lucas(n: int) -> int:
    """L_n with L_0 = 2, L_1 = 1.  Requires n >= 0."""
    if n < 0:
        raise ValueError(f"negative index: {n}")
    fn, fn1 = _fib_doubling(n)
    return 2 * fn1 - fn


def golden_mul(x: GoldenInt, y: GoldenInt) -> GoldenInt:
    return GoldenInt(x.a * y.a + x.b * y.b, x.a * y.b + x.b * y.a + x.b * y.b)


def golden_norm(x: GoldenInt) -> int:
    """Field norm N(a + b*phi) = a**2 + a*b - b**2; multiplicative."""
    return x.a * x.a + x.a * x.b - x.b * x.b


def golden_compare(x: GoldenInt, y: GoldenInt) -> int:
    """-1, 0 or 1 as the real value of x is <, == or > that of y."""
    return (x - y).sign()


def floor_phi_times(i: int) -> int:
    """floor(phi * i) for i >= 1, exactly.

    phi*i = (i + sqrt(5*i*i))/2 and sqrt(5*i*i) is irrational, so the
    floor equals (i + isqrt(5*i*i)) // 2.
    """
    if i < 1:
        raise ValueError(f"index must be >= 1, got {i}")
    return (i + isqrt(5 * i * i)) // 2


def phi_power(n: int) -> GoldenInt:
    """phi**n as an element of Z[phi], any integer n.

    phi**n = F_{n-1} + F_n * phi; for n < 0 this uses
    F_{-m} = (-1)**(m+1) * F_m.
    """
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
