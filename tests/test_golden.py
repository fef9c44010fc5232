import math
import random

import mpmath
import pytest

from fiblat.golden import (
    GoldenInt,
    _fib_doubling,
    fib,
    floor_phi_times,
    lucas,
    phi_power,
)
from fiblat.wythoff import row

PHI = (1 + 5 ** 0.5) / 2


def test_ring_operations_match_floats():
    rng = random.Random(7)
    for _ in range(300):
        x = GoldenInt(rng.randint(-50, 50), rng.randint(-50, 50))
        y = GoldenInt(rng.randint(-50, 50), rng.randint(-50, 50))
        assert float(x + y) == pytest.approx(float(x) + float(y), abs=1e-9)
        assert float(x - y) == pytest.approx(float(x) - float(y), abs=1e-9)
        assert float(x * y) == pytest.approx(float(x) * float(y), rel=1e-12, abs=1e-9)
        assert float(-x) == -float(x)
        assert float(3 * x) == pytest.approx(3 * float(x))


def test_norm_is_multiplicative_and_conjugate_product():
    rng = random.Random(11)
    for _ in range(200):
        x = GoldenInt(rng.randint(-40, 40), rng.randint(-40, 40))
        y = GoldenInt(rng.randint(-40, 40), rng.randint(-40, 40))
        assert (x * y).norm() == x.norm() * y.norm()
        prod = x * x.conjugate()
        assert prod.b == 0 and prod.a == x.norm()


def test_nonzero_norm_is_at_least_one():
    rng = random.Random(13)
    for _ in range(500):
        x = GoldenInt(rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6))
        if x.a == 0 and x.b == 0:
            continue
        assert abs(x.norm()) >= 1


def test_sign_agrees_with_high_precision_value():
    rng = random.Random(17)
    with mpmath.workprec(200):
        sqrt5 = mpmath.sqrt(5)
        for _ in range(400):
            x = GoldenInt(rng.randint(-10 ** 9, 10 ** 9), rng.randint(-10 ** 9, 10 ** 9))
            val = (2 * x.a + x.b + x.b * sqrt5) / 2
            want = 0 if val == 0 else (1 if val > 0 else -1)
            assert x.sign() == want
    assert GoldenInt(0, 0).sign() == 0
    # near-cancellation pairs: a close to -b*phi
    with mpmath.workprec(200):
        for b in (10 ** 6, -10 ** 6, 12345678):
            a = -round(b * PHI)
            val = a + b * (1 + mpmath.sqrt(5)) / 2
            assert GoldenInt(a, b).sign() == (1 if val > 0 else -1)


def _within_one_ulp(x: GoldenInt, f: float) -> bool:
    """f - ulp(f) <= x <= f + ulp(f), decided by exact signs in Z[phi]."""
    u = math.ulp(f)
    for bound, side in ((f - u, 1), (f + u, -1)):
        num, den = bound.as_integer_ratio()
        if GoldenInt(x.a * den - num, x.b * den).sign() == -side:
            return False
    return True


def test_float_is_within_one_ulp_on_the_sweep_arguments():
    # row side -w_minus * phi**-k and dual side w_plus * phi**-k: the
    # arguments of the D series, tiny against their parts for large k
    rng = random.Random(20888)
    rows = [*range(1, 3001), *(rng.randint(3001, 10 ** 6) for _ in range(3000))]
    powers = [phi_power(-k) for k in range(1, 61)]
    for i in rows:
        r = row(i)
        for w in (-r.w_minus, r.w_plus):
            for p in powers:
                x = w * p
                assert _within_one_ulp(x, float(x)), (i, w, p)


def test_float_conversion_survives_catastrophic_cancellation():
    # phi**-k has huge opposite-sign components; the plain a + b*phi
    # evaluation loses every significant digit long before k = 80
    with mpmath.workprec(300):
        phi = (1 + mpmath.sqrt(5)) / 2
        for k in range(1, 81):
            x = phi_power(-k)
            want = float(phi ** -k)
            assert float(x) == pytest.approx(want, rel=1e-12)


def test_fibonacci_and_lucas_values():
    fs = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    for n, f in enumerate(fs):
        assert fib(n) == f
    ls = [2, 1, 3, 4, 7, 11, 18, 29, 47]
    for n, l in enumerate(ls):
        assert lucas(n) == l
    assert fib(100) == 354224848179261915075
    # doubling consistency at a large index
    assert fib(250) == fib(125) * (2 * fib(126) - fib(125))


def test_an_index_past_two_to_the_26_is_refused():
    # F at 2**26 has 14 million digits; 10**400 once ran out of stack
    for f, n in ((fib, 2 ** 26), (fib, 10 ** 400), (lucas, 10 ** 400),
                 (phi_power, 10 ** 400), (phi_power, -10 ** 400), (phi_power, 2 ** 26 + 1)):
        with pytest.raises(ValueError, match="below 2"):
            f(n)


def test_fib_pair_and_phi_power_binet():
    for n in range(0, 30):
        fn, fn1 = _fib_doubling(n)
        assert (fn, fn1) == (fib(n), fib(n + 1))
        assert _fib_doubling(n + 1) == (fn1, fn + fn1)
    for n in range(-20, 21):
        x = phi_power(n)
        # phi**n = F_{n-1} + F_n phi extends to negative n
        assert float(x) == pytest.approx(PHI ** n, rel=1e-12)
    assert phi_power(9) * phi_power(-9) == GoldenInt(1, 0)


def test_floor_phi_times_exact_even_for_huge_arguments():
    with mpmath.workprec(200):
        phi = (1 + mpmath.sqrt(5)) / 2
        for i in [1, 2, 3, 10, 999, 10 ** 6, 10 ** 12, 10 ** 15 + 7]:
            assert floor_phi_times(i) == int(mpmath.floor(phi * i))


def test_golden_int_orders_like_reals():
    rng = random.Random(23)
    pts = [GoldenInt(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(25)]
    ordered = sorted(pts, key=float)
    # exact comparisons agree with float ordering at this scale
    for a, b in zip(ordered, ordered[1:]):
        assert a <= b and not b < a
    assert sorted(pts) == ordered
