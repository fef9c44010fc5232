"""NumPy scalars and integral floats at the public float entry points.

NumPy 2 promotes a Python float combined with an np.float32 to float32
(NEP 50), so each float entry point takes sigma, and p where it has one,
as a Python float, and the exact routes take a float p as its binary
value and a Decimal p as written: a float32 argument that holds the same
value gives the same bits and types.  Indices and lattice sizes must be
integers (NumPy ones too); an integral float is refused with ValueError,
the same in any process, whatever is cached.
"""
import importlib
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fiblat.asymptotics import constant_C, prefactor
from fiblat.energy import (
    RationalLattice,
    energy,
    energy_exact,
    fib_sum,
    fib_sum_grouped,
    wce_e,
)
from fiblat.golden import fib, lucas
from fiblat.kernels import dft_coeffs, dft_coeffs_even, potential_K

energy_module = importlib.import_module("fiblat.energy")

# each entry point as a function of (sigma, p); p is unused where there is none
ENTRIES = {
    "fib_sum": lambda s, p: fib_sum(30, s),
    "fib_sum raw": lambda s, p: fib_sum(26, s, normalized=False),
    "fib_sum_grouped": lambda s, p: fib_sum_grouped(20, s),
    "wce_e": lambda s, p: wce_e(s, p, 987, 610),
    "energy dft": lambda s, p: energy(RationalLattice(987, 610), s, p, "dft"),
    "energy wce": lambda s, p: energy(RationalLattice(987, 610), s, p, "wce"),
    "energy direct": lambda s, p: energy(RationalLattice(21, 13), s, p, "direct"),
    "potential_K": lambda s, p: potential_K(s, p, 0.3),
    "dft_coeffs": lambda s, p: dft_coeffs(s, p, 55),
    "dft_coeffs_even": lambda s, p: dft_coeffs_even(4, p, 55),
    "energy_exact": lambda s, p: energy_exact(4, p, 987, 610),
    "prefactor": lambda s, p: prefactor(s, 1.5),
    "constant_C": lambda s, p: constant_C(s, None, 500),
}


def _same(a, b) -> bool:
    """Equal values of equal types, arrays and dataclass fields bit for bit."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            _same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    if isinstance(a, float) and math.isnan(a):
        return type(b) is float and math.isnan(b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_float32_arguments_give_the_float64_bits(name):
    entry = ENTRIES[name]
    want = entry(2.5, 0.5)
    assert _same(entry(np.float32(2.5), 0.5), want), name
    assert _same(entry(2.5, np.float32(0.5)), want), name
    assert _same(entry(np.float32(2.5), np.float32(0.5)), want), name


@pytest.mark.parametrize("index", [np.int64(30), np.int32(30), np.uint8(30)])
def test_numpy_integer_indices_are_ints(index):
    assert fib(index) == 832040 and type(fib(index)) is int
    assert lucas(index) == lucas(30)
    assert fib_sum(index, 2.0) == fib_sum(30, 2.0)


def test_integral_float_indices_are_refused_whatever_is_cached():
    fib(np.int64(30)), lucas(np.int64(30))  # an equal key in the memo must not answer
    for f in (fib, lucas):
        for bad in (30.0, np.float64(30), 2.5, "30"):
            with pytest.raises(ValueError, match="integer"):
                f(bad)
    for f in (fib, lucas):
        with pytest.raises(ValueError, match="integer >= 0"):
            f(-1)
    with pytest.raises(ValueError, match="integer"):
        fib_sum(30.0, 2.0)
    with pytest.raises(ValueError, match="integer"):
        fib_sum_grouped(20.0, 2.0)


def test_lattice_sizes_must_be_integers():
    for N, h in ((987.0, 610), (987, 610.0), (987.5, 610)):
        with pytest.raises(ValueError, match="must be an integer"):
            wce_e(2.5, 1.0, N, h)
        with pytest.raises(ValueError, match="must be an integer"):
            RationalLattice(N, h)
    with pytest.raises(ValueError, match="must be an integer"):
        energy_module.energy_dft(np.ones(5), 5.0, 3)
    assert wce_e(2.5, 1.0, np.int64(987), np.int32(610)) == wce_e(2.5, 1.0, 987, 610)
    RationalLattice(np.int64(5), np.int16(3))


def test_numpy_integers_in_the_exact_energy_are_python_ints():
    # int64 arithmetic would wrap inside the Fractions of the exact route
    want = energy_exact(4, 2, 987, 610)
    assert energy_exact(4, np.int64(2), np.int64(987), np.int32(610)) == want
    assert energy_exact(np.int64(4), 2, 987, 610) == want


def test_exact_routes_take_a_decimal_p_exactly():
    # Decimal("0.1") is 1/10, not the double nearest it
    assert energy_exact(4, Decimal("0.1"), 987, 610) == energy_exact(4, Fraction(1, 10), 987, 610)
    assert energy_exact(4, Decimal("0.1"), 987, 610) != energy_exact(4, 0.1, 987, 610)
    want = dft_coeffs_even(4, Fraction(1, 10), 55)
    assert _same(dft_coeffs_even(4, Decimal("0.1"), 55), want)
