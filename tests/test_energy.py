import math
from fractions import Fraction

import numpy as np
import pytest

from fiblat.dedekind import sigma2_closed
from fiblat.energy import (
    RationalLattice,
    energy,
    energy_dft,
    energy_direct,
    fib_sum,
    fib_sum_grouped,
    lattice_points,
    wce_e,
)
from fiblat.golden import fib, lucas
from fiblat.kernels import (
    dft_coeffs,
    kernel_bernoulli_weight,
    kernel_fsigma,
    kernel_one,
    kernel_trig,
    potential_K,
)


def test_lattice_validation():
    with pytest.raises(ValueError):
        RationalLattice(10, 4)
    with pytest.raises(ValueError):
        RationalLattice(0, 1)
    with pytest.raises(ValueError):
        RationalLattice.fibonacci(1)
    lat = RationalLattice.fibonacci(7)
    assert (lat.N, lat.h) == (13, 8)


def test_lattice_points_exact_and_float():
    lat = RationalLattice(5, 3)
    pts = lattice_points(lat, exact=True)
    assert pts[0] == (Fraction(0), Fraction(0))
    assert pts[2] == (Fraction(2, 5), Fraction(1, 5))
    fl = lattice_points(lat)
    assert fl[2][0] == pytest.approx(0.4)


def test_direct_energy_exact_on_even_exponent():
    lat = RationalLattice(5, 2)
    pot = lambda t: potential_K(2, Fraction(1), t)
    val = energy_direct(pot, lattice_points(lat, exact=True))
    assert isinstance(val, Fraction)
    # diagonal alone contributes N * K(0)^2
    assert val > 5 * potential_K(2, Fraction(1), Fraction(0)) ** 2 - 5


def test_three_energy_routes_agree():
    for n in (5, 6, 7):
        lat = RationalLattice.fibonacci(n)
        for sigma in (2.0, 2.5, 4.0):
            for p in (1.0, 6.0):
                vals = [energy(lat, sigma, p, m).value for m in ("direct", "dft", "wce")]
                for v in vals[1:]:
                    assert v == pytest.approx(vals[0], rel=1e-9)
    with pytest.raises(ValueError):
        energy(RationalLattice(5, 2), 2.0, 1.0, "nope")


def test_direct_route_is_capped():
    # N**2 pairs in Python: F_40 would never return
    for lat in (RationalLattice(1001, 2), RationalLattice.fibonacci(40)):
        with pytest.raises(ValueError, match="capped at N = 1000"):
            energy(lat, 2.0, 1.0, "direct")


def test_dft_energy_definition():
    N, h = 8, 3
    c = dft_coeffs(2.0, 1.0, N)
    idx = (h * np.arange(N)) % N
    want = N ** 2 * float(np.sum(c * c[idx]))
    assert energy_dft(c, N, h) == want
    with pytest.raises(ValueError):
        energy_dft(c, 9, 2)


def test_wce_shift_identity():
    # energy = N^2 (1 + e) definitionally ties the two reports together
    for N, h in ((5, 3), (13, 8)):
        e = wce_e(2.0, 1.0, N, h)
        rep = energy(RationalLattice(N, h), 2.0, 1.0, "wce")
        assert rep.value == pytest.approx(N * N * (1 + e), rel=1e-14)


def test_wce_quadratic_closed_form():
    # at sigma=2 the shifted energy E/N^2 - 1 itself (not its square)
    # collapses to Fibonacci-Lucas terms
    for n in (6, 8, 10, 12):
        for p in (1.0, 6.0):
            fn = fib(n)
            got = wce_e(2.0, p, fn, fib(n - 1))
            want = (p / (6 * fn ** 2)
                    + p * p / (300 * fn ** 4)
                    * (n * fib(2 * n) - 17 / 60 * lucas(2 * n)
                       - (-1) ** n * 29 / 15))
            assert got == pytest.approx(want, rel=1e-10), (n, p)


def test_fib_sum_flat_equals_grouped():
    for n in (5, 8, 11, 14):
        for sigma in (2.0, 2.5, 4.0):
            for kernel in (kernel_one(), kernel_bernoulli_weight(4), kernel_trig([0, 1])):
                a = fib_sum(n, sigma, kernel)
                b = fib_sum_grouped(n, sigma, kernel)
                assert b == pytest.approx(a, rel=1e-11)


def test_fib_sum_grouped_covers_even_modulus_midpoint():
    # F_12 = 144 is even: the midpoint term appears exactly once
    n = 12
    a = fib_sum(n, 2.0, kernel_one(), normalized=False)
    b, rows = fib_sum_grouped(n, 2.0, kernel_one(), normalized=False,
                              collect_rows=True)
    assert b == pytest.approx(a, rel=1e-12)
    doubled = 2 * sum(float(np.sum(v)) for v in rows.values())
    assert b - doubled == pytest.approx(1.0, rel=1e-12)  # f(1/2)^2 = 1


def test_fib_sum_normalization_scale():
    n = 10
    raw = fib_sum(n, 2.0, kernel_one(), normalized=False)
    scaled = fib_sum(n, 2.0, kernel_one())
    assert raw == pytest.approx(scaled * fib(n) ** 2, rel=1e-13)


def test_fib_sum_with_singular_weight_runs():
    v = fib_sum(10, 2.5, kernel_fsigma(2.5))
    assert math.isfinite(v) and v > 0


def test_fib_sum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fib_sum(1, 2.0)
    with pytest.raises(ValueError):
        fib_sum(5, 0.0)
    with pytest.raises(ValueError):
        fib_sum_grouped(1, 2.0)
    # m * F_{n-1} exceeds 2**63 from n = 48 on
    assert fib(48) * fib(47) > 2 ** 63 > fib(47) * fib(46)
    with pytest.raises(ValueError):
        fib_sum(48, 2.0)
    for sigma in (0.0, -1.0):
        with pytest.raises(ValueError):
            fib_sum_grouped(8, sigma)


def test_fib_sum_streams_several_blocks():
    # F_27 - 1 = 196417 terms: four blocks of at most 2**16
    want = sigma2_closed(27) / Fraction(fib(27)) ** 2
    assert fib_sum(27, 2.0) == pytest.approx(float(want), rel=1e-12)


def test_fib_sum_single_block_levels_are_unchanged():
    # up to F_24 the sweep is one block, summed exactly as a flat array
    for n, sigma, kernel in ((24, 2.0, kernel_one()), (20, 2.5, kernel_fsigma(2.5))):
        fn, fn1 = fib(n), fib(n - 1)
        m = np.arange(1, fn, dtype=np.int64)
        r = (m * fn1) % fn
        t1 = np.minimum(m, fn - m) / fn
        t2 = np.minimum(r, fn - r) / fn
        vals = kernel.eval_many(t1) * kernel.eval_many(t2)
        vals /= (np.sin(np.pi * t1) * np.sin(np.pi * t2)) ** sigma
        assert fib_sum(n, sigma, kernel, normalized=False) == float(np.sum(vals))
