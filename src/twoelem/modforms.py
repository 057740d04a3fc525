"""Concrete modular building blocks as exact q-expansions.

Dedekind eta powers at scaled arguments, the rank-one theta series
theta(tau) = sum q^{(n+s)^2} (s in {0, 1/2}), the weight -4+k/2 blocks

    f0(k) = eta(2t)^8 * theta_0^k / (eta(t)^8 eta(4t)^8)     = q^{-1} + 8+2k + ...
    f1(k) = -16 eta(4t)^8 * theta_{1/2}^k / eta(2t)^16       = -2^{k+4} q^{k/4} (1 + ...)

their quarter-exponent slices g_i(k), and the Eisenstein series E4, as exact
integer series (see `series`) with explicit truncation orders.

By Jacobi's identities theta_0 = eta(2t)^5 / (eta(t)^2 eta(4t)^2) and
theta_{1/2} = 2 eta(4t)^2 / eta(2t) (G. Koehler, Eta Products and Theta
Series Identities, 2011), both blocks are eta quotients:

    f0(k) = eta(2t)^{8+5k} eta(t)^{-8-2k} eta(4t)^{-8-2k},
    f1(k) = -2^{k+4} eta(4t)^{8+2k} eta(2t)^{-16-k}.

An eta quotient prod_m eta(m t)^{e_m} is q^{sum e_m m/24} P, P = prod_m
E(q^m)^{e_m} with E(q) = prod_{n>=1} (1 - q^n); the logarithmic derivative
q P'/P = sum_j h_j q^j, h_j = -sum_{m|j} e_m m sigma(j/m), gives n P_n =
sum_{j=1..n} h_j P_{n-j} (Knuth, TAOCP Vol. 2, sec. 4.7).  E and 1/E have
integer coefficients and constant term 1, so P has too: the division by n
is exact.

f0, f1 and the g_i are built once per k, to the highest order asked for so
far; a lower order is that build truncated, which is the same series
(coefficients, grid, start and truncation order) as a build to it.
"""
from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd
from operator import mul

from .lattices import _integer
from .series import QSeries, _num


def theta_a1(shift, order) -> QSeries:
    """sum_{n in Z} q^{(n+shift)^2}; shift in {0, 1/2}."""
    shift = Fraction(shift)
    if shift not in (0, Fraction(1, 2)):
        raise ValueError("shift must be 0 or 1/2")
    terms = {}
    n = 0
    while (n + shift) ** 2 < order:
        terms[(n + shift) ** 2] = 2 if n + shift else 1   # from n + shift and -(n + shift)
        n += 1
    return QSeries(terms, order)


def _divisor_sums(n: int, p: int = 1) -> list:
    """[sigma_p(j) for j < n] (0 at j = 0), by one sieve."""
    sigma = [0] * n
    for d in range(1, n):
        sigma[d::d] = [s + d ** p for s in sigma[d::d]]
    return sigma


def _eta_quotient(exps: dict, order: Fraction, grid: int) -> QSeries:
    """prod eta(m t)^e over m: e in exps, below `order`, on the grid 1/grid.

    It is q^lead P(q^g), lead = sum e m/24 and g the gcd of the m; P runs
    through the log-derivative recurrence in the variable q^g."""
    lead = sum(Fraction(e * m, 24) for m, e in exps.items())
    g = gcd(*exps)
    n = max(ceil((order - lead) / g), 1)
    sigma, h = _divisor_sums(n), [0] * n
    for m, e in exps.items():
        m //= g
        h[m::m] = [x - e * m * s for x, s in zip(h[m::m], sigma[1:])]
    h, P = h[1:], [1]
    for i in range(1, n):
        P.append(sum(map(mul, h, reversed(P))) // i)
    out = [0] * (n * g * grid)
    out[::g * grid] = P
    return QSeries._grid(grid, int(lead * grid), out, order)


def eta_power(m: int, e: int, order) -> QSeries:
    """eta(m t)^e = q^{e*m/24} * prod_{n>=1} (1 - q^{mn})^e, valid below `order`;
    m a positive integer, e an integer."""
    m, e = _integer(m, "m", positive=True), _integer(e, "e")
    return _eta_quotient({m: e}, Fraction(order), Fraction(e * m, 24).denominator)


# (builder, k) -> (order, value): the highest-order build made so far
_BUILDS = {}


def _served(build, cut, k: int, order):
    """build(k, order), cut by `cut` from the stored build of (build, k) when
    that one reaches `order`; otherwise built, stored in its place, returned."""
    order = Fraction(order)
    top = _BUILDS.get((build, k))
    if top is None or top[0] < order:
        top = _BUILDS[(build, k)] = (order, build(k, order))
    return top[1] if top[0] == order else cut(top[1], order)


def _build_f0(k: int, order: Fraction) -> QSeries:
    return _eta_quotient({2: 8 + 5 * k, 1: -8 - 2 * k, 4: -8 - 2 * k}, order, 3)


def _build_f1(k: int, order: Fraction) -> QSeries:
    # theta_{1/2}^k carries q^{k/4}, so the grid is 1/12 (1/3 at k = 0)
    return (_eta_quotient({4: 8 + 2 * k, 2: -16 - k}, order, 12 if k else 3)
            * -_num(Fraction(2) ** (k + 4)))


def f0(k: int, order) -> QSeries:
    """The weight -4+k/2 block with principal part q^{-1}; constant term 8+2k."""
    return _served(_build_f0, QSeries.truncate, k, order)


def f1(k: int, order) -> QSeries:
    """-16 eta(4t)^8 theta_{1/2}^k / eta(2t)^16 = -2^{k+4} q^{k/4}(1 + ...)."""
    return _served(_build_f1, QSeries.truncate, k, order)


def _slice(f: QSeries, order: Fraction) -> tuple:
    """The four g_i below `order`, cut by stride from f = f0(k, 4 order): the
    coefficient at the integer exponent l goes to g_{l mod 4} at q^{l/4}."""
    first = -f.start % f.denom
    ints, l0 = f.coeffs[first::f.denom], (f.start + first) // f.denom
    slices = []
    for i, d in enumerate((1, 4, 2, 4)):       # g_i lies on the grid 1/d
        j = (i - l0) % 4
        out = [0] * (d * len(ints[j::4]))
        out[::d] = ints[j::4]
        slices.append(QSeries._grid(d, (l0 + j) * d // 4, out, order))
    return _cut_slices(slices, order)


def _build_slices(k: int, order: Fraction) -> tuple:
    return _slice(f0(k, 4 * order), order)


def _cut_slices(slices: tuple, order: Fraction) -> tuple:
    # a slice with no term left is QSeries({}, order): zero, on the integer grid
    cut = (g.truncate(order) for g in slices)
    return tuple(g if g.coeffs else QSeries.zero(order) for g in cut)


def g_slices(k: int, order) -> tuple:
    """(g_0, g_1, g_2, g_3) below `order`, from one fetch of the stored slices."""
    return _served(_build_slices, _cut_slices, k, order)


def g_i(k: int, i: int, order) -> QSeries:
    """Quarter-exponent slice: sum over l = i mod 4 of c_k(l) q^{l/4}.

    c_k(l) are the (integer-exponent) coefficients of f0(k).
    """
    if i not in (0, 1, 2, 3):
        raise ValueError("slice index must be 0..3")
    return g_slices(k, order)[i]


def eisenstein_e4(order) -> QSeries:
    """E4 = 1 + 240 sum sigma_3(n) q^n."""
    sigma3 = _divisor_sums(max(ceil(order), 1), 3)
    return QSeries._grid(1, 0, [1] + [240 * s for s in sigma3[1:]], Fraction(order))
