"""Concrete modular building blocks as exact q-expansions.

Dedekind eta powers at scaled arguments, the rank-one theta series
theta(tau) = sum q^{(n+s)^2} (s in {0, 1/2}), the weight -4+k/2 blocks

    f0(k) = eta(2t)^8 * theta_0^k / (eta(t)^8 eta(4t)^8)     = q^{-1} + 8+2k + ...
    f1(k) = -16 eta(4t)^8 * theta_{1/2}^k / eta(2t)^16       = -2^{k+4} q^{k/4} (1 + ...)

their quarter-exponent slices g_i(k), and the Eisenstein series E4.  All
expansions are exact integer series (see `series`) with explicit truncation
orders.  Each factor of a product is built to exactly the order the product
needs: a factor with leading exponent l, in a product with leading exponent L
that must hold below `order`, is needed below l + (order - L).

f0, f1 and the g_i are built once per k, to the highest order asked for so
far; a request at a lower order is that build truncated, which is the same
series (coefficients, grid, start and truncation order) as a build to the
lower order.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .series import QSeries


def _euler_product(scale: int, order) -> QSeries:
    """prod_{n>=1} (1 - q^{scale*n}) to exponents < order, by Euler's
    pentagonal-number theorem."""
    terms = {}
    k = 0
    while scale * k * (3 * k - 1) // 2 < order:
        # generalized pentagonal numbers kk*(3*kk - 1)/2, kk = k and -k
        for kk in {k, -k}:
            terms[scale * kk * (3 * kk - 1) // 2] = (-1) ** k
        k += 1
    return QSeries(terms, order)


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


def _eta_theta(factors, shift, k: int, order: Fraction) -> QSeries:
    """prod eta(m t)^e over (m, e) in factors, times theta_shift^k, below order.

    Every factor is multiplied without its offset q^{e m/24} or q^{shift^2},
    so on the integer grid, and the product is shifted once by their sum onto
    the grid the offsets span."""
    offsets = [Fraction(e * m, 24) for m, e in factors]
    lead = sum(offsets) + k * shift * shift
    # every factor keeps its leading term, so the product's order holds
    rel = max(order - lead, 1)
    acc = theta_a1(shift, shift * shift + rel).shift(-shift * shift) ** k
    for m, e in factors:
        acc = acc * _euler_product(m, rel) ** e
    grid = lcm(*(x.denominator for x in offsets), Fraction(shift * shift if k else 0).denominator)
    return QSeries({x + lead: c for x, c in acc.items()}, min(order, acc.trunc + lead), grid)


def eta_power(m: int, e: int, order) -> QSeries:
    """eta(m t)^e = q^{e*m/24} * prod_{n>=1} (1 - q^{mn})^e, valid below `order`."""
    return _eta_theta([(m, e)], 0, 0, order)


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
    return _eta_theta([(2, 8), (1, -8), (4, -8)], 0, k, order)


def _build_f1(k: int, order: Fraction) -> QSeries:
    return _eta_theta([(4, 8), (2, -16)], Fraction(1, 2), k, order) * -16


def f0(k: int, order) -> QSeries:
    """The weight -4+k/2 block with principal part q^{-1}; constant term 8+2k."""
    return _served(_build_f0, QSeries.truncate, k, order)


def f1(k: int, order) -> QSeries:
    """-16 eta(4t)^8 theta_{1/2}^k / eta(2t)^16 = -2^{k+4} q^{k/4}(1 + ...)."""
    return _served(_build_f1, QSeries.truncate, k, order)


def _slice(f: QSeries, order: Fraction) -> tuple:
    """The four g_i below `order`, from one pass over the grid of f = f0(k, 4 order)."""
    terms = ({}, {}, {}, {})
    for n, c in enumerate(f.coeffs, f.start):
        if c and n % f.denom == 0:   # the integer exponent l = n / denom goes to g_{l mod 4}
            l = n // f.denom
            terms[l % 4][Fraction(l, 4)] = c
    return tuple(QSeries(t, order) for t in terms)


def _build_slices(k: int, order: Fraction) -> tuple:
    return _slice(f0(k, 4 * order), order)


def _cut_slices(slices: tuple, order: Fraction) -> tuple:
    # a slice with no term left is the zero series on the integer grid, as
    # QSeries({}, order) builds it
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
    terms = {0: 1}
    n = 1
    while n < order:
        terms[n] = 240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
        n += 1
    return QSeries(terms, order)
