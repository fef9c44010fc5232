"""Generalized Dedekind sums and exact closed forms of Fibonacci sums.

The central object is

    s_{l,m}(a, b; c) = sum_{k=0}^{c-1} B_l({a k / c}) B_m({b k / c}),

an exact rational.  For consecutive Fibonacci moduli the (2,2) and
(1,3) sums have closed forms in Fibonacci and Lucas numbers, and via
the DFT identity for even potentials those closed forms lift to the
trigonometric sums over the Fibonacci lattice (sigma2/sigma4/sigma6 and
the 1/sin^4 and cos^2/sin^4 variants).  CLOSED_FAMILIES holds each form
as rows of rational coefficients; the same rows give the exact level
values and, for the lattice sums, the exact growth constants C and D.

`gen_dedekind_sum` runs in poly(l + m) * log c integer operations, not
O(c): the Bernoulli multiplication formula and a change of summation
index reduce any (a, b) to a = 1, and the a = 1 sum is a combination of
the power sums sum_{k<c} k^p floor(b k/c)^q, which a Euclid-like
generalized floor-sum recursion evaluates (see `floor_sum` in the
AtCoder Library for the q <= 1 case).  The recursion uses no
reciprocity law, so `apostol_check` and `hwz_check` test it
independently; the definition-level sum over k is the oracle of the
test suite.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, mul

from ._bounds import DEGREE, LEVEL, MODULUS, _shown
from .golden import fib, lucas
from .kernels import _as_int, bernoulli_poly_coeffs

__all__ = [
    "gen_dedekind_sum",
    "ClosedFamily",
    "CLOSED_FAMILIES",
    "s22_closed",
    "s13_closed",
    "sigma2_closed",
    "sigma2_closed_abstract",
    "sigma4_closed",
    "apostol_check",
    "hwz_check",
]


def _powers(x: int, k: int) -> list[int]:
    """[1, x, ..., x**k]."""
    out = [1]
    for _ in range(k):
        out.append(out[-1] * x)
    return out


def _over_common_denominator(coeffs) -> tuple[tuple[int, ...], int]:
    """Integer numerators and the least common denominator of Fractions."""
    d = math.lcm(*(q.denominator for q in coeffs))
    return tuple(q.numerator * (d // q.denominator) for q in coeffs), d


@functools.lru_cache(maxsize=None)
def _bernoulli_numerators(m: int) -> tuple[tuple[int, ...], int]:
    """Integers N (ascending powers) and d with B_m(x) = sum_j N[j] x^j / d."""
    return _over_common_denominator(bernoulli_poly_coeffs(m))


@functools.lru_cache(maxsize=None)
def _power_sum_poly(p: int) -> tuple[tuple[int, ...], int]:
    """Integers A (ascending powers) and d with
    sum_{x=0}^{g} x^p = sum_j A[j] g^j / d for every integer g >= 0.

    Faulhaber: the sum is (B_{p+1}(g) - B_{p+1}(0))/(p+1) + g^p.
    """
    r = [Fraction(0)] + [q / (p + 1) for q in bernoulli_poly_coeffs(p + 1)[1:]]
    r[p] += 1
    return _over_common_denominator(r)


def _offsets(deg: int) -> list[int]:
    """Where row p of a floor-sum table of total degree `deg` starts: the
    table holds T[p][q] for p + q <= deg in one flat list, row p (the
    entries q = 0..deg-p) from offset off[p] on."""
    return [p * (deg + 1) - p * (p - 1) // 2 for p in range(deg + 1)]


def _floor_sum_plan(deg: int):
    """_plan(deg), kept for the degrees up to 12 that the sums reuse (4, 8
    and 12: the dft, closedform and reciprocity suites); 0.85 ms to build
    at 12.  A plan grows like deg**4, 77 MiB at degree 64 (0.36 s), so a
    larger one is built per call and not kept."""
    return _kept_plan(deg) if deg <= 12 else _plan(deg)


def _plan(deg: int):
    """Row offsets (_offsets), and the gathers and integer coefficients of
    both steps of one level of the floor-sum recursion at total degree
    `deg`."""
    off = _offsets(deg)
    swap, reduce = [], []
    for p in range(deg + 1):
        A, d = _power_sum_poly(p)
        rows = []
        for q in range(1, deg - p + 1):
            pairs = [(i, j) for i in range(q) for j in range(p + 2)]
            coeffs = tuple(math.comb(q, i) * A[j] for i, j in pairs)
            rows.append((q, coeffs, itemgetter(*(off[i] + j for i, j in pairs))))
        swap.append((A, d, tuple(rows)))
        reduce.append((off[p], tuple(
            (q, itemgetter(*(off[p + i] + l for i, l in _multinomial_terms(q))))
            for q in range(1, deg - p + 1))))
    return tuple(off), tuple(swap), tuple(reduce)


_kept_plan = functools.lru_cache(maxsize=13)(_plan)  # degrees 0 to 12


def _multinomial_terms(q: int) -> list[tuple[int, int]]:
    """(i, l) of the terms (qa x)^i qb^(q-i-l) y'^l of (qa x + qb + y')^q."""
    return [(i, l) for i in range(q + 1) for l in range(q - i + 1)]


@functools.lru_cache(maxsize=256)
def _reduction_coeffs(deg: int, qa: int, qb: int) -> tuple[tuple[int, ...], ...]:
    """Coefficients of (qa x + qb + y')^q, q = 0..deg, in the order of
    `_multinomial_terms`."""
    ap, bp = _powers(qa, deg), _powers(qb, deg)
    return tuple(
        tuple(math.comb(q, i) * math.comb(q - i, l) * ap[i] * bp[q - i - l]
              for i, l in _multinomial_terms(q))
        for q in range(deg + 1))


@functools.lru_cache(maxsize=8)
def _floor_power_sums(n: int, a: int, b: int, c: int, deg: int) -> tuple[int, ...]:
    """T[p][q] = sum_{x=0}^{n-1} x^p * floor((a*x + b)/c)^q for p + q <= deg,
    as the flat table of `_floor_sum_plan`; n, c >= 1 and a, b >= 0.
    Cached: the sums of one reciprocity check share two tables.

    Each level of the Euclid-like descent first reduces a and b mod c
    (floor((a x + b)/c) = qa*x + qb + floor((a' x + b')/c), expanded
    multinomially) and then swaps the roles of x and y: with
    M = floor((a' (n-1) + b')/c) and y^q = sum_{t<y} ((t+1)^q - t^q),

        T[p][q] = P_p(n) M^q - sum_{t<M} ((t+1)^q - t^q) sum_{x<=g_t} x^p,

    where P_p is the Faulhaber sum and g_t = floor((c t + c - b' - 1)/a')
    is the floor sum one level down, of (M, c, c - b' - 1, a').  There
    are O(log c) levels of O(deg^3) integer operations each.
    """
    chain = []
    while True:
        qa, a = divmod(a, c)
        qb, b = divmod(b, c)
        top = (a * (n - 1) + b) // c
        chain.append((n, qa, qb, top))
        if top == 0:
            break
        n, a, b, c = top, c, c - b - 1, a
    _, swap, reduce = _floor_sum_plan(deg)
    table = None
    for n, qa, qb, top in reversed(chain):
        npow, mpow = _powers(n - 1, deg + 1), _powers(top, deg)
        nxt = []
        for A, d, rows in swap:
            pn = sum(map(mul, A, npow)) // d
            nxt.append(pn)
            if table is None:  # deepest level: floor((a' x + b')/c) = 0 for all x < n
                nxt.extend([0] * len(rows))
            else:
                nxt.extend([pn * mpow[q] - sum(map(mul, cf, get(table))) // d
                            for q, cf, get in rows])
        table = nxt
        if qa or qb:
            coeffs = _reduction_coeffs(deg, qa, qb)
            nxt = []
            for o, rows in reduce:
                nxt.append(table[o])
                nxt.extend([sum(map(mul, coeffs[q], get(table))) for q, get in rows])
            table = nxt
    return tuple(table)


@functools.lru_cache(maxsize=None)
def _unit_sum_terms(ell: int, m: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """Terms (flat index of (p, i), p, K) of

        d_ell d_m c^(ell+m) s_{ell,m}(1, b; c)
            = sum_{p,i} c^(ell+m-p) (sum_u K[u] b^u) sum_{k<c} k^p floor(b k/c)^i,

    from B_ell(k/c) and B_m({b k/c}) = B_m((b k - c floor(b k/c))/c)
    written over their integer numerators N (`_bernoulli_numerators`):
    K[u] = (-1)^i N_ell[p-u] N_m[u+i] C(u+i, i).
    """
    nl, nm = _bernoulli_numerators(ell)[0], _bernoulli_numerators(m)[0]
    off = _offsets(ell + m)
    terms = []
    for i in range(m + 1):
        for p in range(ell + m - i + 1):
            K = tuple((-1) ** i * nl[p - u] * nm[u + i] * math.comb(u + i, i)
                      if p - u <= ell else 0 for u in range(min(p, m - i) + 1))
            if any(K):
                terms.append((off[p] + i, p, K))
    return tuple(terms)


def _unit_sum(ell: int, m: int, b: int, c: int) -> Fraction:
    """s_{ell,m}(1, b; c) for 0 <= b < c."""
    deg = ell + m
    table = _floor_power_sums(c, b, 0, c, deg)
    bpow, cpow = _powers(b, m), _powers(c, deg)
    total = sum(cpow[deg - p] * sum(map(mul, K, bpow)) * table[idx]
                for idx, p, K in _unit_sum_terms(ell, m))
    den = _bernoulli_numerators(ell)[1] * _bernoulli_numerators(m)[1] * cpow[deg]
    return Fraction(total, den)


def gen_dedekind_sum(ell: int, m: int, a: int, b: int, c: int) -> Fraction:
    """s_{ell,m}(a, b; c), exact, in poly(ell + m) * log c integer operations,
    for ell + m <= 64 (_bounds.DEGREE); larger degrees raise ValueError.

    General a and b reduce exactly to a = 1.  With d = gcd(a, c) and
    e = gcd(b, d), the Bernoulli multiplication formula
    sum_{j<N} B_m({x + j/N}) = N^{1-m} B_m({N x}) gives

        s_{ell,m}(a, b; c) = e (d/e)^{1-m} s_{ell,m}(a/d, b/e; c/d),

    and k -> (a/d)^{-1} k mod c/d turns the multiplier a/d into 1.  The
    a = 1 sum expands both Bernoulli factors over k and floor(b k/c) and
    evaluates the resulting power sums by the Euclid-like floor-sum
    recursion of `_floor_power_sums`, which uses no reciprocity law, so
    `apostol_check` and `hwz_check` stay independent checks of it.  The
    definition-level oracle lives in the tests.
    """
    ell, m = _as_int("ell", ell), _as_int("m", m)
    a, b, c = _as_int("a", a), _as_int("b", b), _as_int("c", c)
    if ell < 0 or m < 0:
        raise ValueError(f"polynomial degrees must be >= 0, got ({_shown(ell)}, {_shown(m)})")
    DEGREE.check(ell + m, ell, m)
    MODULUS.check(c)
    d = math.gcd(a, c)
    e = math.gcd(b, d)
    c //= d
    s = _unit_sum(ell, m, (b // e) * pow(a // d, -1, c) % c, c)
    return s if d == 1 else e * Fraction(d // e) ** (1 - m) * s


@dataclass(frozen=True)
class ClosedFamily:
    """A closed level formula as data: at level n >= 2 its value is
    (e + f(-1)^n + sum over rows (k, a, b, c, d) of (a + b(-1)^n) n F_{kn}
    + (c + d(-1)^n) L_{kn}) / F_n^den, with (e, f) = const.  A lattice-sum
    family (den = 0) also names the exponent sigma and the weight (a
    kernel name) of the sum it closes."""

    rows: tuple[tuple, ...]
    const: tuple = (0, 0)
    den: int = 0
    sigma: int | None = None
    weight: str | None = None

    def value(self, n: int) -> Fraction:
        """The level-n value, exact, n >= 2."""
        LEVEL.check(n)
        (total, *coeffs), q = self._over_q[n % 2]
        for (k, *_), x, y in zip(self.rows, coeffs[::2], coeffs[1::2]):
            total += x * n * fib(k * n) + y * lucas(k * n)
        return Fraction(total, q * fib(n) ** self.den)

    @functools.cached_property
    def _over_q(self):
        """By n % 2: the constant and each row's coefficients of n F_{kn} and
        L_{kn} at that parity, as integers over one common denominator."""
        e, f = self.const
        return [_over_common_denominator([e + f * s] + [
            x + y * s for _, a, b, c, d in self.rows for x, y in ((a, b), (c, d))])
            for s in (1, -1)]

    def constants(self) -> tuple[Fraction, Fraction]:
        """(C*sqrt5, D) of a lattice-sum family: value(n)/F_n^sigma grows like
        C*n + D.  Over F_n^sigma only the top row k = sigma survives, with
        F_{sigma n} -> 5^(sigma/2)/sqrt5 and L_{sigma n} -> 5^(sigma/2)."""
        if self.sigma is None:
            raise ValueError("not a lattice-sum family: it has no exponent")
        (_, a, _, c, _), = (r for r in self.rows if r[0] == self.sigma)
        scale = 5 ** (self.sigma // 2)
        return Fraction(a * scale), Fraction(c * scale)


_Q = Fraction
CLOSED_FAMILIES = {
    "s22": ClosedFamily(((2, _Q(1, 75), 0, _Q(-17, 4500), 0),), (0, _Q(-29, 1125)), den=3),
    "s13": ClosedFamily(((3, 0, 0, _Q(1, 1500), 0), (1, 0, _Q(1, 50), 0, _Q(-13, 750))),
                        den=3),
    "sigma2": ClosedFamily(((2, _Q(4, 75), 0, _Q(-17, 1125), 0),),
                           (_Q(-1, 9), _Q(-116, 1125)), sigma=2, weight="one"),
    "sigma4": ClosedFamily(((4, _Q(32, 1875), 0, _Q(-196, 28125), 0),
                            (2, 0, _Q(256, 1875), 0, _Q(-3776, 28125))),
                           (_Q(-7556, 28125), 0), sigma=4, weight="bern:4"),
    "sigma6": ClosedFamily(((6, _Q(68608, 984375), 0, _Q(59606528, 20155078125), 0),
                            (4, 0, _Q(548864, 328125), 0, _Q(-2876091392, 2239453125)),
                            (2, _Q(68608, 13125), 0, _Q(-128925952, 17915625), 0)),
                           (_Q(-256, 3969), _Q(-1909649408, 161240625)),
                           sigma=6, weight="bern:6"),
    "sin4": ClosedFamily(((4, _Q(8, 16875), 0, _Q(2357, 1771875), 0),
                          (2, _Q(16, 675), _Q(64, 16875), _Q(-676, 70875),
                           _Q(-7408, 1771875))),
                         (_Q(-147023, 1771875), _Q(-1616, 23625)), sigma=4, weight="one"),
    "cos2sin4": ClosedFamily(((4, _Q(8, 16875), 0, _Q(-1693, 1771875), 0),
                              (2, _Q(4, 675), _Q(64, 16875), _Q(-19, 70875),
                               _Q(-6208, 1771875))),
                             (_Q(-11948, 1771875), _Q(-4, 23625)),
                             sigma=4, weight="trig:0,1"),
}


def s22_closed(n: int) -> Fraction:
    """s_{2,2}(1, F_{n-1}; F_n) in closed form, n >= 2.

    Equals n*F_{2n}/(75*F_n^3) - 17*L_{2n}/(4500*F_n^3)
    - (-1)^n * 29/(1125*F_n^3).
    """
    return CLOSED_FAMILIES["s22"].value(n)


def s13_closed(n: int) -> Fraction:
    """s_{1,3}(1, F_{n-1}; F_n) in closed form, n >= 2.

    Equals L_{3n}/(1500*F_n^3) + (-1)^n*n/(50*F_n^2)
    - (-1)^n*13*L_n/(750*F_n^3); also (-1)^n times the (3,1) sum.
    """
    return CLOSED_FAMILIES["s13"].value(n)


def sigma2_closed(n: int) -> Fraction:
    """sum_{m=1}^{F_n - 1} 1/(sin(pi m/F_n)^2 sin(pi F_{n-1} m/F_n)^2)
    in closed form, n >= 2 (the n = 2 sum is empty and the value 0)."""
    return CLOSED_FAMILIES["sigma2"].value(n)


def sigma2_closed_abstract(n: int) -> Fraction:
    """The same sum written with F_n^2 in place of L_{2n}:
    4n/75 * F_{2n} - 17/225 * F_n^2 - (-1)^n * 2/15 - 1/9."""
    LEVEL.check(n)
    sgn = (-1) ** n
    return (
        Fraction(4 * n * fib(2 * n), 75)
        - Fraction(17 * fib(n) ** 2, 225)
        - Fraction(sgn * 2, 15)
        - Fraction(1, 9)
    )


def sigma4_closed(n: int) -> Fraction:
    """Closed form of the sum with (2 + 4cos^2)/sin^4 factors on both
    arguments of the Fibonacci lattice, n >= 2."""
    return CLOSED_FAMILIES["sigma4"].value(n)


def _coprime_pair(b: int, c: int) -> tuple[int, int]:
    b, c = _as_int("b", b), _as_int("c", c)
    if b < 1 or c < 1:
        raise ValueError(f"arguments must be >= 1, got ({b}, {c})")
    if math.gcd(b, c) != 1:
        raise ValueError(f"arguments must be coprime, got ({b}, {c})")
    return b, c


def apostol_check(b: int, c: int) -> bool:
    """Reciprocity for the (1,3) sums, exact:

    4*(b*c^3*s_{1,3}(1,b;c) + b^3*c*s_{1,3}(1,c;b))
        = -1/10 - (b^4 - 5 b^2 c^2 + c^4)/30.

    Requires b, c >= 1 and gcd(b, c) = 1.
    """
    b, c = _coprime_pair(b, c)
    lhs = 4 * (
        b * c ** 3 * gen_dedekind_sum(1, 3, 1, b, c)
        + b ** 3 * c * gen_dedekind_sum(1, 3, 1, c, b)
    )
    rhs = Fraction(-1, 10) - Fraction(b ** 4 - 5 * b * b * c * c + c ** 4, 30)
    return lhs == rhs


def hwz_check(b: int, c: int) -> bool:
    """The (2,2)-to-(3,1)/(1,3) reciprocity, exact:

    s_{2,2}(1,b;c)/(4b) = (s_{3,1}(1,b;c) + s_{3,1}(1,c;b))/6
        + s_{1,3}(1,b;c)/(6 b^2) + 1/(720 b^3 c^3) + b/(720 c^3)
        + c/(240 b^3).

    Requires b, c >= 1 and gcd(b, c) = 1.
    """
    b, c = _coprime_pair(b, c)
    lhs = gen_dedekind_sum(2, 2, 1, b, c) / (4 * b)
    rhs = (
        (gen_dedekind_sum(3, 1, 1, b, c) + gen_dedekind_sum(3, 1, 1, c, b))
        / 6
        + gen_dedekind_sum(1, 3, 1, b, c) / (6 * b * b)
        + Fraction(1, 720 * b ** 3 * c ** 3)
        + Fraction(b, 720 * c ** 3)
        + Fraction(c, 240 * b ** 3)
    )
    return lhs == rhs
