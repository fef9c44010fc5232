import math
import random
from fractions import Fraction

import pytest

from fiblat.dedekind import (
    CLOSED_FAMILIES,
    _floor_sum_plan,
    apostol_check,
    gen_dedekind_sum,
    hwz_check,
    s13_closed,
    s22_closed,
    sigma2_closed,
    sigma2_closed_abstract,
    sigma4_closed,
)
from fiblat.energy import energy_exact
from fiblat.golden import fib
from fiblat.kernels import bernoulli_poly


def brute_sum(ell, m, a, b, c):
    total = Fraction(0)
    for k in range(c):
        total += bernoulli_poly(ell, Fraction(a * k % c, c)) * bernoulli_poly(
            m, Fraction(b * k % c, c)
        )
    return total


@pytest.mark.parametrize("ell,m", [(1, 1), (2, 2), (1, 3), (3, 1), (2, 4)])
def test_gen_sum_matches_definition(ell, m):
    for b, c in [(1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (7, 19), (13, 21), (11, 64)]:
        assert gen_dedekind_sum(ell, m, 1, b, c) == brute_sum(ell, m, 1, b, c)
    assert gen_dedekind_sum(ell, m, 3, 7, 11) == brute_sum(ell, m, 3, 7, 11)


# a = 0 and a = -c (a = 0 mod c), gcd(a, c) > 1 with and without
# gcd(b, gcd(a, c)) > 1, b = 0 mod c, negative multipliers, c = 1
_EDGE_CASES = [
    (2, 3, 0, 5, 12), (1, 1, -12, 7, 12), (3, 2, 36, -8, 12), (0, 0, 0, 0, 7),
    (2, 2, 6, 9, 15), (4, 1, -10, 4, 25), (2, 4, 14, 21, 28), (1, 3, 9, 6, 27),
    (3, 3, 5, -2, 1), (0, 6, 0, 0, 1), (6, 6, -3, 3, 1), (2, 2, 3, 0, 10),
    (5, 2, -7, -11, 13), (1, 5, 200, -600, 200), (6, 0, 45, 1, 60),
]


def _random_cases(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        c = rng.randint(1, 200)
        yield (rng.randint(0, 6), rng.randint(0, 6),
               rng.randint(-3 * c, 3 * c), rng.randint(-3 * c, 3 * c), c)


@pytest.mark.parametrize("ell,m,a,b,c", _EDGE_CASES + list(_random_cases(200, 20261018)))
def test_gen_sum_matches_definition_on_random_arguments(ell, m, a, b, c):
    got = gen_dedekind_sum(ell, m, a, b, c)
    assert isinstance(got, Fraction)
    assert got == brute_sum(ell, m, a, b, c)


def test_closed_forms_match_gen_sums_large_levels():
    for n in range(26, 101):
        b, c = fib(n - 1), fib(n)
        assert gen_dedekind_sum(2, 2, 1, b, c) == s22_closed(n), n
        s13 = gen_dedekind_sum(1, 3, 1, b, c)
        assert s13 == s13_closed(n), n
        assert gen_dedekind_sum(3, 1, 1, b, c) == (-1) ** n * s13, n


@pytest.mark.parametrize("pos,name", list(enumerate(["ell", "m", "a", "b", "c"])))
@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(3, 2), "3", None])
def test_non_integer_arguments_are_rejected(pos, name, bad):
    args = [1, 1, 1, 1, 3]
    args[pos] = bad
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        gen_dedekind_sum(*args)


def test_negative_degree_and_modulus_below_one_are_rejected():
    for ell, m in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match=r"^polynomial degrees must be >= 0, got"):
            gen_dedekind_sum(ell, m, 1, 1, 5)
    for c in (0, -3):
        with pytest.raises(ValueError, match=f"^modulus must be >= 1, got {c}$"):
            gen_dedekind_sum(1, 1, 1, 1, c)


def test_degrees_past_the_cap_are_refused_before_any_plan():
    # the floor-sum plan grows like (ell + m)**4 and stays cached, so
    # ell + m > 64 is refused before one is built; energy_exact's 2s = 34
    # is ell + m = 68
    assert gen_dedekind_sum(2, 62, 1, 2, 3) == brute_sum(2, 62, 1, 2, 3)
    assert gen_dedekind_sum(31, 33, 5, 3, 7) == brute_sum(31, 33, 5, 3, 7)
    _floor_sum_plan.cache_clear()
    for call in (lambda: gen_dedekind_sum(33, 32, 1, 2, 3),
                 lambda: gen_dedekind_sum(0, 65, 1, 1, 1),
                 lambda: energy_exact(34, 1, 5, 3)):
        with pytest.raises(ValueError, match=r"ell \+ m must be <= 64"):
            call()
    assert _floor_sum_plan.cache_info().currsize == 0


@pytest.mark.parametrize("b,c", [(0, 1), (1, 0), (0, 0), (-1, 2), (3, -5)])
def test_reciprocity_checks_reject_non_positive_arguments(b, c):
    with pytest.raises(ValueError, match=">= 1"):
        apostol_check(b, c)
    with pytest.raises(ValueError, match=">= 1"):
        hwz_check(b, c)


def test_first_order_sum_extends_the_classical_one():
    # the k = 0 term contributes B_1(0)^2 = 1/4 on top of the sawtooth
    # sum, whose textbook value is (c-1)(c-2)/(12c)
    for c in (2, 3, 5, 12, 31):
        assert gen_dedekind_sum(1, 1, 1, 1, c) - Fraction(1, 4) == Fraction(
            (c - 1) * (c - 2), 12 * c
        )
    # sawtooth reciprocity on a spot pair, same offset on both sums
    s = lambda b, c: gen_dedekind_sum(1, 1, 1, b, c) - Fraction(1, 4)
    b, c = 5, 8
    assert s(b, c) + s(c, b) == Fraction(-1, 4) + Fraction(
        b * b + c * c + 1, 12 * b * c
    )


def test_gen_sum_is_periodic_in_the_multiplier():
    for b, c in [(3, 5), (5, 8), (4, 9)]:
        assert gen_dedekind_sum(2, 2, 1, b + c, c) == gen_dedekind_sum(2, 2, 1, b, c)


def test_closed_forms_match_gen_sums_small_levels():
    for n in range(2, 13):
        b, c = fib(n - 1), fib(n)
        assert s22_closed(n) == gen_dedekind_sum(2, 2, 1, b, c)
        s13 = gen_dedekind_sum(1, 3, 1, b, c)
        assert s13_closed(n) == s13
        assert gen_dedekind_sum(3, 1, 1, b, c) == (-1) ** n * s13


def test_degenerate_level_value():
    # at n = 2 the modulus is 1: the sum has the single k = 0 term
    assert gen_dedekind_sum(2, 2, 1, 1, 1) == Fraction(1, 36)
    assert s22_closed(2) == Fraction(1, 36)


def test_quadratic_closed_forms_agree():
    for n in range(2, 30):
        assert sigma2_closed(n) == sigma2_closed_abstract(n)
    # the trigonometric bridge: the exact sigma = 2 energy of Phi_n is
    # F_n^2 + 1/6 + (T_n + 1/9)/(16 F_n^2), T_n the sigma2 lattice sum; at
    # n = 2 the sum is empty and the 1/9 alone gives the one-term energy
    for n in range(2, 40):
        N = fib(n)
        T = CLOSED_FAMILIES["sigma2"].value(n)
        want = N * N + Fraction(1, 6) + (T + Fraction(1, 9)) / (16 * N * N)
        assert energy_exact(2, 1, N, fib(n - 1)) == want, n


def test_trig_closed_forms_match_float_lattice_sums():
    from fiblat.energy import fib_sum
    from fiblat.kernels import Trig, kernel_bernoulli_weight, kernel_one

    for n in range(5, 13):
        pairs = [
            (sigma2_closed(n), fib_sum(n, 2, kernel_one(), normalized=False)),
            (sigma4_closed(n), fib_sum(n, 4, kernel_bernoulli_weight(4), normalized=False)),
            (CLOSED_FAMILIES["sigma6"].value(n),
             fib_sum(n, 6, kernel_bernoulli_weight(6), normalized=False)),
            (CLOSED_FAMILIES["sin4"].value(n), fib_sum(n, 4, kernel_one(), normalized=False)),
            (CLOSED_FAMILIES["cos2sin4"].value(n),
             fib_sum(n, 4, Trig([0, 1]), normalized=False)),
        ]
        for exact, approx in pairs:
            assert approx == pytest.approx(float(exact), rel=1e-10)


def test_reciprocity_checks_on_small_pairs():
    for b, c in [(1, 2), (2, 3), (3, 4), (5, 8), (8, 13), (7, 25)]:
        assert apostol_check(b, c)
        assert hwz_check(b, c)
    with pytest.raises(ValueError):
        apostol_check(2, 4)
    with pytest.raises(ValueError):
        hwz_check(6, 9)


def test_closed_family_table_shape():
    assert list(CLOSED_FAMILIES) == [
        "s22", "s13", "sigma2", "sigma4", "sigma6", "sin4", "cos2sin4"]
    for name, fam in CLOSED_FAMILIES.items():
        assert all(len(r) == 5 for r in fam.rows), name
        if fam.sigma is None:
            with pytest.raises(ValueError, match="lattice-sum"):
                fam.constants()
            continue
        # a lattice sum over F_n^sigma converges only if no row outgrows
        # k = sigma, and the top row carries no (-1)^n part
        assert fam.den == 0 and max(r[0] for r in fam.rows) == fam.sigma, name
        (top,) = [r for r in fam.rows if r[0] == fam.sigma]
        assert top[2] == top[4] == 0, name
        with pytest.raises(ValueError, match=">= 2"):
            fam.value(1)


def test_higher_closed_forms_bridge_to_gen_sums_exactly():
    # the even-potential weights turn each sigma = 2s lattice sum into a
    # multiple of s_{2s,2s}(1, F_{n-1}; F_n) minus the constant DFT term
    for n in range(2, 41):
        b, c = fib(n - 1), fib(n)
        assert sigma4_closed(n) == (
            16 * c ** 7 * gen_dedekind_sum(4, 4, 1, b, c) - Fraction(4, 225)), n
        assert CLOSED_FAMILIES["sigma6"].value(n) == (
            Fraction(1024, 9) * c ** 11 * gen_dedekind_sum(6, 6, 1, b, c)
            - Fraction(256, 3969)), n


def test_reciprocity_checks_build_two_floor_tables_per_pair():
    # apostol_check and hwz_check take six sums of one pair, from the
    # degree-4 tables of (b, c) and (c, b) only
    from fiblat.dedekind import _floor_power_sums

    for b, c in [(5, 8), (89, 144), (7, 25)]:
        _floor_power_sums.cache_clear()
        assert apostol_check(b, c) and hwz_check(b, c)
        assert _floor_power_sums.cache_info().misses == 2, (b, c)
