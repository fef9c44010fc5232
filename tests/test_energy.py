import functools
import importlib
import math
import random
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fiblat.dedekind import CLOSED_FAMILIES, sigma2_closed, sigma4_closed
from fiblat.energy import (
    _PAIR_SLICE,
    _SUM_CHUNK,
    RationalLattice,
    energy,
    energy_dft,
    energy_direct,
    energy_exact,
    fib_sum,
    fib_sum_grouped,
    lattice_points,
    wce_e,
)
from fiblat.golden import fib, lucas
from fiblat.kernels import (
    FSigma,
    Trig,
    _hurwitz_pair,
    bernoulli_number,
    dft_coeffs,
    kernel_bernoulli_weight,
    kernel_one,
    parse_kernel,
    potential_K,
    zeta,
)
from fiblat.wythoff import row, wythoff_row_entries

# the module, not the energy() function fiblat exports under its name
energy_module = importlib.import_module("fiblat.energy")


def _use_workers(monkeypatch, workers):
    """Run the level sums' pool on this many workers, whatever the CPUs."""
    monkeypatch.setattr(energy_module, "_workers",
                        lambda threads, tasks: min(threads or workers, tasks))


def test_lattice_validation():
    with pytest.raises(ValueError, match="generator 4 not coprime to 10"):
        RationalLattice(10, 4)
    with pytest.raises(ValueError, match="modulus must be >= 1, got 0"):
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
            for p in (1.0, 6.0, -1.0):
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


def test_energy_routes_need_a_lattice():
    # N < 1 or gcd(h, N) != 1 names no lattice Lambda_{N,h}
    for N, h in ((-5, 2), (0, 1), (-3, 1)):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            wce_e(2.5, 1.0, N, h)
    with pytest.raises(ValueError, match="generator 2 not coprime to 10"):
        wce_e(2.0, 1.0, 10, 2)
    with pytest.raises(ValueError, match="generator 2 not coprime to 10"):
        energy_dft(dft_coeffs(2.0, 1.0, 10), 10, 2)


def test_exact_energy_equals_direct_on_fractions():
    # every coprime (N, h) with N <= 13, and two Fibonacci lattices
    lattices = [(N, h) for N in range(1, 14) for h in range(N) if math.gcd(h, N) == 1]
    for N, h in lattices + [(21, 13), (34, 21)]:
        pts = lattice_points(RationalLattice(N, h), exact=True)
        for two_s in (2, 4, 6):
            want = energy_direct(lambda t: potential_K(two_s, Fraction(1), t), pts)
            assert energy_exact(two_s, 1, N, h) == want, (N, h, two_s)


def test_exact_energy_of_fibonacci_lattices_is_the_closed_family():
    # E/N^2 - 1 = 4pZ/N^2s + 4p^2 Z^2/N^4s + p^2 T_n/(4^2s ((2s-1)!)^2 N^4s)
    # with Z = (-1)^(s+1) B_2s/(2 (2s)!) and T_n the sigma2s lattice sum
    for two_s in (2, 4, 6):
        s = two_s // 2
        Z = (-1) ** (s + 1) * bernoulli_number(two_s) / (2 * math.factorial(two_s))
        family = CLOSED_FAMILIES[f"sigma{two_s}"]
        for n in range(3, 40):
            N = Fraction(fib(n))
            T = family.value(n)
            for p in (1, 6):
                want = (4 * p * Z / N ** two_s + 4 * p * p * Z * Z / N ** (2 * two_s)
                        + p * p * T / (4 ** two_s * math.factorial(two_s - 1) ** 2
                                       * N ** (2 * two_s)))
                got = energy_exact(two_s, p, fib(n), fib(n - 1)) / N ** 2 - 1
                assert got == want, (two_s, n, p)


def _float_route_lattices():
    # Fibonacci lattices F_5..F_30 and 20 seeded coprime pairs, N < 2e5
    rng = random.Random(20260)
    pairs = [(fib(n), fib(n - 1)) for n in range(5, 31)]
    while len(pairs) < 26 + 20:
        N = rng.randrange(2, 200000)
        h = rng.randrange(1, N)
        if math.gcd(h, N) == 1:
            pairs.append((N, h))
    return pairs


@pytest.mark.parametrize("two_s", [2, 4, 6])
def test_float_energy_routes_are_within_2e15_of_exact(two_s):
    for N, h in _float_route_lattices():
        for p in (1, 6):
            want = energy_exact(two_s, p, N, h)
            dft = energy_dft(dft_coeffs(float(two_s), float(p), N), N, h)
            wce = N * N * (1.0 + wce_e(float(two_s), float(p), N, h))
            for route, got in (("dft", dft), ("wce", wce)):
                assert abs(Fraction(got) - want) <= Fraction(2e-15) * want, (route, N, h, p)


def test_exact_energy_refusals():
    for sigma in (3, 2.5, 0, -2, math.nan, math.inf):
        with pytest.raises(ValueError, match="even integer exponent"):
            energy_exact(sigma, 1, 5, 3)
    with pytest.raises(ValueError, match="generator 4 not coprime to 10"):
        energy_exact(2, 1, 10, 4)
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        energy_exact(2, 1, 0, 1)
    # float exponents and coefficients are taken at their exact values
    assert energy_exact(4.0, 0.5, 13, 8) == energy_exact(4, Fraction(1, 2), 13, 8)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_non_finite_coefficient_is_refused(p):
    lat = RationalLattice.fibonacci(5)
    calls = [lambda m=m: energy(lat, 2.0, p, m) for m in ("direct", "dft", "wce")]
    calls += [lambda: wce_e(2.5, p, 5, 3), lambda: dft_coeffs(2.5, p, 5),
              lambda: potential_K(2.5, p, 0.3), lambda: potential_K(2, p, 0.3),
              lambda: energy_exact(2, p, 5, 3)]
    for call in calls:
        with pytest.raises(ValueError, match="coefficient must be finite"):
            call()


def test_energy_past_float64_raises_without_numpy_warnings():
    # |p| = 1e300 squares past float64 on every route (an overflow in
    # numpy on the dft route); only the finite check's ValueError gets
    # out, also from energy_dft and wce_e called directly.  At sigma = 2.5
    # direct's series tolerance is relative to |p|, so it does not take
    # more terms for a large p.
    lat = RationalLattice.fibonacci(5)
    calls = [lambda s=s, p=p, m=m: energy(lat, s, p, m)
             for s, p in ((2.0, 1e300), (2.5, -1e300)) for m in ("direct", "dft", "wce")]
    calls += [lambda: wce_e(2.0, 1e300, 5, 3),
              lambda: energy_dft(dft_coeffs(2.0, 1e300, 5), 5, 3)]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="energy leaves float64"):
                call()


def test_dft_energy_takes_the_generator_mod_n():
    # h * m would wrap int64 (or raise, for h past it) where h % N does not
    for N, h in ((997, 2 ** 62 + 1), (1, 10 ** 30), (13, 10 ** 30 + 8)):
        want = energy(RationalLattice(N, h % N), 2.0, 1.0, "dft").value
        assert energy(RationalLattice(N, h), 2.0, 1.0, "dft").value == want, (N, h)


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


def _wce_table_route(sigma, p, N, h):
    """wce_e's former route, the oracle of the pair-sum engine's: the
    whole-N Hurwitz pair table scaled by (2 pi N)**-sigma, gathered at
    h m mod N and added by np.sum in index order."""
    z = zeta(sigma)
    scale = (2 * math.pi * N) ** -sigma
    acc = 4 * p * z * scale + 4 * p * p * z * z * scale * scale
    m = np.arange(1, N // 2 + 1, dtype=np.int64)
    half = _hurwitz_pair(sigma, m / N)
    A = np.zeros(N)
    A[m] = half
    A[N - m] = half
    A = scale * A
    idx = ((h % N) * np.arange(1, N, dtype=np.int64)) % N
    return acc + p * p * float(np.sum(A[1:] * A[idx]))


def _coprime_lattices(rng, count, lo, hi):
    """count seeded (N, h) with lo <= N <= hi and 1 <= h < N coprime to N."""
    out = []
    while len(out) < count:
        N = rng.randint(lo, hi)
        h = rng.randrange(1, N)
        if math.gcd(h, N) == 1:
            out.append((N, h))
    return out


@pytest.mark.parametrize("sigma", [2.0, 2.5, 4.0, 6.0])
def test_wce_equals_the_table_route(sigma):
    # one flat block in index order while N - 1 <= 2**16: bit for bit,
    # for any h (2**62 + 1 is taken mod N); past it the block grid
    # brackets the sum otherwise, within 4e-16
    B = _SUM_CHUNK
    small = [(fib(n), fib(n - 1)) for n in range(2, 25)]
    small += [(2, 1), (3, 2), (B + 1, 2 ** 62 + 1), (B + 1, 1)]
    small += _coprime_lattices(random.Random(31), 16, 4, B + 1)
    for N, h in small:
        for p in (1.0, -0.5):
            assert wce_e(sigma, p, N, h) == _wce_table_route(sigma, p, N, h), (N, h, p)
    for n in range(27, 31):
        N, h = fib(n), fib(n - 1)
        want = _wce_table_route(sigma, 1.0, N, h)
        assert wce_e(sigma, 1.0, N, h) == pytest.approx(want, rel=4e-16, abs=0), n


def test_wce_is_the_same_on_any_worker_count(monkeypatch):
    # N > 2 * 2**16: two to five tasks.  With a thread switch every
    # microsecond, a pair of work arrays handed to two blocks at once
    # would show as a different sum
    lattices = [(fib(27), fib(26)), (fib(28), fib(27)), (300007, 2 ** 62 + 1)]
    lattices += _coprime_lattices(random.Random(8), 2, 2 * _SUM_CHUNK + 1, 300000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = {}
        for workers in (1, 2, 3):
            _use_workers(monkeypatch, workers)
            runs[workers] = [wce_e(sigma, 1.0, N, h)
                             for N, h in lattices for sigma in (2.0, 2.5)]
    finally:
        sys.setswitchinterval(interval)
    assert runs[2] == runs[1] and runs[3] == runs[1]


@pytest.mark.parametrize("sigma", [2.0, 2.5, 4.0])
def test_wce_is_the_affine_map_of_the_fsigma_level_sum(sigma):
    # the fsigma term f(t1) f(t2) / (sin sin)**sigma is A(t1) A(t2), so on
    # Phi_n the pairing sum of wce_e is the raw fsigma level sum
    z = zeta(sigma)
    for n in (10, 20, 25, 30):
        N = fib(n)
        s = (2 * math.pi * N) ** -sigma
        raw = fib_sum(n, sigma, FSigma(sigma), normalized=False)
        want = 4 * z * s + 4 * z * z * s * s + s * s * raw
        assert wce_e(sigma, 1.0, N, fib(n - 1)) == pytest.approx(want, rel=1e-15, abs=0), n


def test_wce_peak_memory(monkeypatch):
    # the engine's tables and work arrays and A on the engine's slices of
    # 2**14 terms: about 4 MiB at F_30 on 2 workers (25 MiB with the whole-N
    # table, 174 MiB at F_34), all of it freed when the call returns
    _use_workers(monkeypatch, 2)
    wce_e(2.5, 1.0, 13, 8)  # the series coefficients are cached per sigma
    tracemalloc.start()
    try:
        wce_e(2.5, 1.0, fib(30), fib(29))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2 ** 20, peak
    assert current < 2 ** 16, current


def test_fib_sum_flat_equals_grouped():
    for n in (5, 8, 11, 14):
        for sigma in (2.0, 2.5, 4.0):
            for kernel in (kernel_one(), kernel_bernoulli_weight(4), Trig([0, 1])):
                a = fib_sum(n, sigma, kernel)
                b = fib_sum_grouped(n, sigma, kernel)
                assert b == pytest.approx(a, rel=1e-11)


def test_fib_sum_grouped_covers_even_modulus_midpoint():
    # F_12 = 144 is even: the midpoint term appears exactly once
    n = 12
    a = fib_sum(n, 2.0, kernel_one(), normalized=False)
    b = fib_sum_grouped(n, 2.0, kernel_one(), normalized=False)
    assert b == pytest.approx(a, rel=1e-12)
    # a midpoint f(1/2)^2 = 1 missed or doubled would move the total by
    # 1/28109, far past the tolerance
    assert b == pytest.approx(float(sigma2_closed(n)), rel=1e-12)


@pytest.mark.parametrize("sigma", [1.5, 2.5])
def test_fib_sum_grouped_midpoint_is_the_flat_term(sigma):
    # F_3 = 2: the midpoint m = 1 is the only term, and both sums take
    # f(1/2) from the weight's one float path
    k = FSigma(sigma)
    for normalized in (True, False):
        assert (fib_sum_grouped(3, sigma, k, normalized=normalized)
                == fib_sum(3, sigma, k, normalized=normalized)), normalized


@functools.lru_cache(maxsize=None)
def _row_entries(n):
    """[([W[i, k]], [Wd[i, n - k]]) for k = 1..k_max] over the rows i with
    mu_i <= n - 2, from the scalar row objects."""
    out = []
    i = 1
    while (r := row(i)).mu <= n - 2:
        k_max = n - r.mu - 1
        w = np.array(wythoff_row_entries(i, k_max), dtype=np.int64)
        wd = np.array([r.dual(n - k) for k in range(1, k_max + 1)],
                      dtype=np.int64)
        out.append((w, wd))
        i += 1
    return out


def _grouped_row_loop(n, sigma, kernel, *, normalized=True):
    """The grouped sum as a loop over rows, each summed by np.sum: the
    oracle the vectorized fib_sum_grouped must equal bit for bit."""
    fn = fib(n)
    scale = float(fn) ** sigma if normalized else 1.0
    total = 0.0
    for w, wd in _row_entries(n):
        t1 = w / fn
        t2 = wd / fn
        vals = kernel.eval_many(t1) * kernel.eval_many(t2)
        vals /= (np.sin(np.pi * t1) * np.sin(np.pi * t2)) ** sigma
        vals /= scale
        total += 2.0 * float(np.sum(vals))
    if fn % 2 == 0:
        total += kernel.eval(0.5) ** 2 / scale
    return total


@pytest.mark.parametrize("spec,sigma,n_max", [
    ("one", 2.0, 24), ("bern:4", 4.0, 24), ("bern:6", 6.0, 24),
    ("trig:0,1", 2.5, 24), ("fsigma", 2.5, 20),
])
def test_fib_sum_grouped_equals_row_loop(spec, sigma, n_max):
    kernel = parse_kernel(spec, sigma=sigma)
    for n in range(3, n_max + 1):
        for normalized in (True, False):
            want = _grouped_row_loop(n, sigma, kernel, normalized=normalized)
            assert fib_sum_grouped(n, sigma, kernel, normalized=normalized) == want, (
                n, normalized)
    assert fib_sum_grouped(2, sigma, kernel) == 0.0


def test_fib_sum_grouped_streams_several_blocks():
    # F_29: ~98k rows in twelve row blocks, depth groups split into several
    # chunks of at most 2**14 terms
    want = sigma2_closed(29) / Fraction(fib(29)) ** 2
    assert fib_sum_grouped(29, 2.0) == pytest.approx(float(want), rel=1e-12)


def test_fib_sum_normalization_scale():
    n = 10
    raw = fib_sum(n, 2.0, kernel_one(), normalized=False)
    scaled = fib_sum(n, 2.0, kernel_one())
    assert raw == pytest.approx(scaled * fib(n) ** 2, rel=1e-13)


def test_fib_sum_with_singular_weight_runs():
    v = fib_sum(10, 2.5, FSigma(2.5))
    assert math.isfinite(v) and v > 0


def test_fib_sum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fib_sum(1, 2.0)
    with pytest.raises(ValueError):
        fib_sum(5, 0.0)
    with pytest.raises(ValueError):
        fib_sum_grouped(1, 2.0)
    # the residue table is exact while |r - F_n| < 2 F_n and k F_{n-1}
    # (k < 2**16) stay below 2**53: far past the cap, which is one of cost
    assert 2 * fib(47) < 2 ** 53 and _SUM_CHUNK * fib(46) < 2 ** 53
    with pytest.raises(ValueError, match="cost bound"):
        fib_sum(48, 2.0)
    for sigma in (0.0, -1.0):
        with pytest.raises(ValueError):
            fib_sum_grouped(8, sigma)
    # rows of level 44 pass floor(phi*i) < 2**27, the exact row columns
    for n in (44, 10 ** 400):
        with pytest.raises(ValueError, match="level must be < 44"):
            fib_sum_grouped(n, 2.0)


def test_fib_sum_streams_several_blocks():
    # F_27 - 1 = 196417 terms: three blocks of at most 2**16
    want = sigma2_closed(27) / Fraction(fib(27)) ** 2
    assert fib_sum(27, 2.0) == pytest.approx(float(want), rel=1e-12)


def test_fib_sum_single_block_levels_are_unchanged():
    # up to F_24 the sweep is one block, summed exactly as a flat array
    for n, sigma, kernel in ((24, 2.0, kernel_one()), (20, 2.5, FSigma(2.5))):
        fn, fn1 = fib(n), fib(n - 1)
        m = np.arange(1, fn, dtype=np.int64)
        r = (m * fn1) % fn
        t1 = np.minimum(m, fn - m) / fn
        t2 = np.minimum(r, fn - r) / fn
        vals = kernel.eval_many(t1) * kernel.eval_many(t2)
        vals /= (np.sin(np.pi * t1) * np.sin(np.pi * t2)) ** sigma
        assert fib_sum(n, sigma, kernel, normalized=False) == float(np.sum(vals))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_lattice_sums_reject_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="finite"):
        fib_sum(10, sigma)
    with pytest.raises(ValueError, match="finite"):
        fib_sum_grouped(10, sigma)


def test_lattice_sums_reject_float64_overflow():
    # F_30**60 ~ 1e355; the raw sum at sigma = 60 overflows as well
    for f in (fib_sum, fib_sum_grouped):
        with pytest.raises(ValueError, match="F_n"):
            f(30, 60.0)
        with pytest.raises(ValueError, match="leaves float64"):
            f(30, 60.0, normalized=False)


def test_lattice_sum_overflow_raises_without_numpy_warnings(monkeypatch):
    # the terms pass float64 (1/0 and overflow in numpy); only the
    # ValueError of the finite check on the total reaches the caller,
    # also from pool threads (the flat sweep at n = 30 and at n = 34,
    # with 7 and 44 tasks), which start with numpy's default error state
    _use_workers(monkeypatch, 2)
    for f, n in ((fib_sum, 30), (fib_sum_grouped, 30), (fib_sum, 34)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves float64"):
                f(n, 60.0, normalized=False)


def test_one_is_bit_equal_to_trig_1():
    one, trig1 = kernel_one(), parse_kernel("trig:1")
    for sigma in (2.0, 2.5):
        for n in range(2, 27):
            for normalized in (True, False):
                assert (fib_sum(n, sigma, one, normalized=normalized)
                        == fib_sum(n, sigma, trig1, normalized=normalized)), (n, sigma)
                assert (fib_sum_grouped(n, sigma, one, normalized=normalized)
                        == fib_sum_grouped(n, sigma, trig1, normalized=normalized)), (n, sigma)


# the four kernel kinds of the flat sweep
FLAT_KERNELS = [("one", 2.0), ("bern:4", 4.0), ("trig:0,1", 2.5), ("fsigma", 2.5)]


def _flat_terms(n, sigma, kernel):
    """Every term of the flat sum, m = 1 .. F_n - 1 in index order, with
    the arguments reduced to min(m, F_n - m) and min(r, F_n - r)."""
    fn, fn1 = fib(n), fib(n - 1)
    m = np.arange(1, fn, dtype=np.int64)
    r = (m * fn1) % fn
    t1 = np.minimum(m, fn - m) / fn
    t2 = np.minimum(r, fn - r) / fn
    vals = kernel.eval_many(t1) * kernel.eval_many(t2)
    vals /= (np.sin(np.pi * t1) * np.sin(np.pi * t2)) ** sigma
    return vals


def _flat_single_block(n, sigma, kernel, *, normalized=True):
    """The index-order single-block sweep: the oracle fib_sum must equal
    bit for bit while F_n - 1 <= _SUM_CHUNK."""
    total = float(np.sum(_flat_terms(n, sigma, kernel)))
    return total / float(fib(n)) ** sigma if normalized else total


def _flat_grid(n, sigma, kernel):
    """fib_sum's block grid over the index-order terms: pairs of outer
    blocks of _SUM_CHUNK terms at both ends around one middle block, each
    block summed by np.sum and the block sums added in ascending m."""
    vals = _flat_terms(n, sigma, kernel)
    T, B = len(vals), _SUM_CHUNK
    pairs = (T - 1) // (2 * B)
    edges = [j * B for j in range(pairs + 1)] + [T - j * B for j in range(pairs, -1, -1)]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        assert 0 < b - a <= 2 * B
        total += float(np.sum(vals[a:b]))
    return total


@pytest.mark.parametrize("n", [3, 4, 11, 12, 23, 26])
@pytest.mark.parametrize("spec,sigma", FLAT_KERNELS)
def test_flat_term_at_mirror_is_bit_equal(n, spec, sigma):
    # term(F_n - m) == term(m) exactly: the identity the half sweep rests on
    vals = _flat_terms(n, sigma, parse_kernel(spec, sigma=sigma))
    assert np.array_equal(vals, vals[::-1])


@pytest.mark.parametrize("spec,sigma", FLAT_KERNELS)
def test_fib_sum_equals_single_block_oracle(spec, sigma):
    kernel = parse_kernel(spec, sigma=sigma)
    for n in range(2, 25):
        assert fib(n) - 1 <= _SUM_CHUNK
        for normalized in (True, False):
            want = _flat_single_block(n, sigma, kernel, normalized=normalized)
            assert fib_sum(n, sigma, kernel, normalized=normalized) == want, (n, normalized)


@pytest.mark.parametrize("spec,sigma", [("one", 2.0), ("bern:4", 4.0)])
def test_fib_sum_equals_symmetric_grid_oracle(monkeypatch, spec, sigma):
    # n = 25, 26: one middle block of up to 2 * 2**16 terms; n = 27: one
    # outer pair; n = 28..31: 2, 3, 6 and 10 outer pairs, so each pair of
    # work arrays serves several blocks.  Three workers is more than the
    # CPUs of a small runner, and with a thread switch every microsecond
    # a pair handed to two blocks at once would show as a wrong sum
    kernel = parse_kernel(spec, sigma=sigma)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in range(25, 32):
            want = _flat_grid(n, sigma, kernel)
            for workers in (1, 2, 3):
                _use_workers(monkeypatch, workers)
                assert fib_sum(n, sigma, kernel, normalized=False) == want, (n, workers)
    finally:
        sys.setswitchinterval(interval)


def test_fib_sum_middle_block_fits_the_work_arrays():
    # the work arrays hold span = min(B, F_n // 2) terms; the middle
    # block computes its half, F_n // 2 - pairs * B terms, in them
    B = _SUM_CHUNK
    for n in range(3, 48):
        fn = fib(n)
        pairs = (fn - 2) // (2 * B)
        assert 1 <= fn // 2 - pairs * B <= min(B, fn // 2), n
        assert pairs == 0 or fn // 2 >= B, n  # outer blocks fill the arrays


def test_fib_sum_peak_memory(monkeypatch):
    # the k and residue tables and one pair of work arrays per worker:
    # 3.1 MiB at n = 34 on 2 workers, all of it freed when the call returns
    _use_workers(monkeypatch, 2)
    tracemalloc.start()
    try:
        fib_sum(34, 2.0)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * 2 ** 20, peak
    assert current < 2 ** 16, current


@pytest.mark.parametrize("n,workers,cap_mib", [(26, 1, 3.1), (30, 2, 5.5)])
def test_fib_sum_fsigma_peak_memory(monkeypatch, n, workers, cap_mib):
    # the engine hands the term a slice of 2**14 terms at a time, so the
    # weight's temporaries do not grow with the block: 2.75 and 4.8 MiB
    # (3.2 and 5.8 MiB when Kernel.pair filled a whole-block array, 6.1
    # and 11.2 MiB when each block formed its weight whole)
    _use_workers(monkeypatch, workers)
    tracemalloc.start()
    try:
        fib_sum(n, 2.5, FSigma(2.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cap_mib * 2 ** 20, peak


@pytest.mark.parametrize("N", [2, 3, _PAIR_SLICE - 1, _PAIR_SLICE + 1, _SUM_CHUNK - 1,
                               _SUM_CHUNK + 1, 2 * _SUM_CHUNK + 3])
def test_pair_sum_hands_its_term_slices_that_cover_each_block_once(N):
    # the engine computes the terms at m = 1 .. N // 2 (their mirrors are
    # the same values), in views of at most _PAIR_SLICE terms; a term of
    # ones then sums to N - 1 only if every term is written
    seen = []

    def ones(t1, t2):
        assert t1.base is not None and t2.base is not None  # views of the work arrays
        assert t1.shape == t2.shape and 1 <= t1.size <= _PAIR_SLICE
        seen.extend(np.rint(t1 * N).astype(int))  # the indices m of the slice
        t1[:] = 1.0

    assert energy_module._pair_sum(N, 1, ones) == N - 1
    assert sorted(seen) == list(range(1, N // 2 + 1))


def test_fib_sum_block_that_raises_hands_its_work_arrays_back(monkeypatch):
    # the fsigma weight leaves float64 in the blocks at sigma = 300; a
    # block that kept its arrays would leave later blocks waiting forever
    _use_workers(monkeypatch, 2)
    with pytest.raises(ValueError, match="leaves float64"):
        fib_sum(30, 300.0, FSigma(300.0), normalized=False)


@pytest.mark.parametrize("closed,sigma,spec", [(sigma2_closed, 2, "one"),
                                               (sigma4_closed, 4, "bern:4")])
def test_fib_sum_large_levels_within_roundoff_scale(closed, sigma, spec):
    # both parities of F_n, and across the 2 * 2**16 boundary at n = 26, 27
    kernel = parse_kernel(spec)
    for n in range(25, 35):
        value = fib_sum(n, float(sigma), kernel)
        terms = fib(n) - 1
        roundoff = 2.0 ** -52 * max(1, math.ceil(math.log2(terms))) * abs(value)
        err = abs(Fraction(value) - closed(n) / Fraction(fib(n)) ** sigma)
        assert err <= Fraction(roundoff), (n, float(err), roundoff)


@pytest.mark.parametrize("spec,sigma", FLAT_KERNELS)
def test_level_sums_are_the_same_on_any_worker_count(monkeypatch, spec, sigma):
    # n = 27, 28, 30: 2, 3 and 7 tasks (outer pairs and the middle block)
    kernel = parse_kernel(spec, sigma=sigma)
    pools = []

    class Spy(energy_module.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(energy_module, "ThreadPoolExecutor", Spy)
    runs = {}
    for workers in (1, 2, 3):
        _use_workers(monkeypatch, workers)
        pools.clear()
        runs[workers] = [fib_sum(n, sigma, kernel, normalized=normalized)
                         for n in (27, 28, 30) for normalized in (True, False)]
        assert max(pools, default=1) == workers, pools  # one worker starts no pool
    assert runs[2] == runs[1] and runs[3] == runs[1]


def test_one_block_levels_start_no_pool(monkeypatch):
    # F_n - 1 <= 2 * 2**16 up to n = 26: the flat sum runs inline, and
    # the grouped sum always does
    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} workers was started")

    _use_workers(monkeypatch, 3)
    monkeypatch.setattr(energy_module, "ThreadPoolExecutor", no_pool)
    for n in range(2, 27):
        assert math.isfinite(fib_sum(n, 2.0))
    assert math.isfinite(fib_sum_grouped(30, 2.0))
    # n = 27 has two blocks: a pool of two
    with pytest.raises(AssertionError, match="pool of 2 workers"):
        fib_sum(27, 2.0)


def test_level_sums_keep_the_callers_error_state():
    # each quiet call enters a fresh errstate and restores the caller's,
    # inline (n = 20) and with the flat sweep on the pool (n = 30)
    with np.errstate(all="raise"):
        before = np.geterr()
        for f, n in ((fib_sum, 20), (fib_sum_grouped, 20), (fib_sum, 30)):
            f(n, 2.0)
            assert np.geterr() == before, f


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_energy_routes_reject_non_finite_sigma(sigma):
    lat = RationalLattice.fibonacci(5)
    for method in ("direct", "dft", "wce"):
        with pytest.raises(ValueError, match="finite"):
            energy(lat, sigma, 1.0, method)
    with pytest.raises(ValueError, match="finite"):
        wce_e(sigma, 1.0, 5, 3)
