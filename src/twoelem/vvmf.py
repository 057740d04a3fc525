"""The distinguished vector-valued modular form of a 2-elementary lattice.

For a 2-elementary lattice L with invariants (sigma, l, delta) and k = 8 +
sigma, the form has weight sigma/2 and components

    F = f0(k) e_0  +  2^{(4-sigma-l)/2} sum_g g^{(2 q(g) mod 4)}(k) e_g
        +  f1(k) e_{char}

where `char` is the characteristic element of the discriminant form.  A
form's components are a list in the order of the classes of
`lattices.discriminant_group`, so a class is its index.  The module also
provides the independent numeric oracle that rebuilds F as a sum
over the six cosets of the theta group, the restriction along a split
U(N) + L, and the Borcherds-lift bookkeeping (weight two ways, Heegner
divisor ledger).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lattices import Lattice, _dot, _integer, discriminant_group, hyperbolic_split, signature
from .modforms import f0, f1, g_slices
from .mp2 import evaluate_word, mp2_word
from .series import QSeries, _upper_half, qseries_eval
from .weil import weil_column

# coset representatives of the theta group in Mp2(Z), as words in S, T
COSET_WORDS = {
    "1": [],
    "S": [("S", 1)],
    "ST": [("S", 1), ("T", 1)],
    "ST2": [("S", 1), ("T", 2)],
    "ST3": [("S", 1), ("T", 3)],
    "V": [("S", 7), ("T", 2), ("S", 1)],
}


@dataclass
class VVForm:
    """A finite family of q-series indexed by the discriminant group."""

    lattice: Lattice
    weight: Fraction
    components: list  # QSeries per class index


def _components(data, order: Fraction):
    """The component series of F below `order`, as a function of the class index.

    Classes with equal q share one series object: the form only depends on
    q(g) and membership in {0, char}.  The l <= 12 cap of the class tables
    is read first.
    """
    two_q = data.two_q
    s, l = data.sigma, data.l
    if s < -12:
        raise ValueError("construction requires sigma >= -12")
    k = 8 + s
    s_exp2 = 4 - s - l
    if s_exp2 % 2:
        raise AssertionError("sigma + l must be even for a 2-elementary lattice")
    s_exp = s_exp2 // 2
    if s_exp < 0:
        raise ValueError("construction requires (4 - sigma - l)/2 >= 0")
    # the slices some class reads; every series here is already cut at `order`
    slices = g_slices(k, order)
    scaled = {t: slices[t] * 2 ** s_exp for t in set(two_q)}

    def component(i: int) -> QSeries:
        ser = scaled[two_q[i]]
        if i == 0:
            ser = ser + f0(k, order)
        if i == data.one_index:
            ser = ser + f1(k, order)
        return ser
    return component


def construct_F(L: Lattice, order=10) -> VVForm:
    """Assemble the distinguished form of weight sigma/2 (valid below `order`)."""
    data = discriminant_group(L)
    component = _components(data, Fraction(order))
    return VVForm(L, Fraction(data.sigma, 2), [component(i) for i in range(len(data))])


# ---------------------------------------------------------------------------
# restriction along a split  Lambda = U(N) + L
# ---------------------------------------------------------------------------

def restrict(F: VVForm, N: int, L_small: Lattice) -> VVForm:
    """Eq.-style restriction: f_{L+x} = sum_{n mod N} f_{(n/N, 0, x)}.

    F must live on the block direct sum U(N) + L_small, with the hyperbolic
    block first.
    """
    N = _integer(N, "N", positive=True)
    if F.lattice.gram != hyperbolic_split(N, L_small).gram:
        raise ValueError("form does not live on the stated split U(N) + L")
    data_big = discriminant_group(F.lattice)
    data_small, comps = discriminant_group(L_small), []
    for i in range(len(data_small)):
        rep = data_small.rep(i)
        x_small = [_dot(row, rep) for row in L_small.gram]
        acc = None
        for n in range(N):
            # (n/N, 0) in U(N) has integer coordinates (0, n)
            ser = F.components[data_big.index_of([0, n] + x_small)]
            acc = ser if acc is None else acc + ser
        comps.append(acc)
    return VVForm(L_small, F.weight, comps)


# ---------------------------------------------------------------------------
# Borcherds lift bookkeeping
# ---------------------------------------------------------------------------

def borcherds_divisor(F: VVForm) -> dict:
    """The Heegner divisor read off the principal part of F: (class index, n)
    -> multiplicity for the n < 0 terms of its components, the first -start
    entries of each."""
    divisor, parts = {}, {}
    for k, ser in enumerate(F.components):
        part = parts.get(id(ser))
        if part is None:   # classes with equal q share one series object
            part = parts[id(ser)] = []
            for n, c in enumerate(ser.coeffs[:max(-ser.start, 0)], ser.start):
                if c:
                    if c.denominator != 1:
                        raise AssertionError(f"non-integral divisor multiplicity {c}")
                    part.append((Fraction(n, ser.denom), int(c)))
        for e, m in part:
            divisor[(k, e)] = m
    return divisor


def delta_ledger(L: Lattice, divisor: dict) -> dict:
    """Interpret the Heegner divisor of a form on L as multiplicities on D', D''.

    The class (0, -1) puts weight m0 on every (-2)-hyperplane (both D' and
    D''); the classes with q = 3/2 at n = -1/4 add to D'' only, with one
    generic multiplicity over the classes other than the characteristic one
    (its own when it is the only such class).  A deviating multiplicity on
    the characteristic class is reported separately ('extra_char', as in the
    rank-13 signed divisor).
    """
    data = discriminant_group(L)
    m0 = divisor.get((0, Fraction(-1)), 0)
    char, quarter = data.one_index, Fraction(-1, 4)
    half = {i: divisor.get((i, quarter), 0) for i, t in enumerate(data.two_q) if t == 3}
    generic = {m for i, m in half.items() if i != char} or set(half.values())
    if len(generic) > 1:
        raise AssertionError("non-uniform D'' multiplicities")
    if not generic:
        return {"dprime": m0, "dsecond": None, "extra_char": 0}
    (generic,) = generic
    extra_char = half[char] - generic if char in half else 0
    return {"dprime": m0, "dsecond": m0 + generic, "extra_char": extra_char}


def divisor_ledger(L: Lattice) -> dict:
    """The D', D'' multiplicities of the lift's divisor, from the principal
    parts of the components alone (F cut at order 0)."""
    return delta_ledger(L, borcherds_divisor(construct_F(L, 0)))


def borcherds_weight(L: Lattice):
    """The lift's weight, computed two ways and checked equal.

    Closed form (signature (2, r-2)):  (12+sigma) * (2^{(4-sigma-l)/2} + 1),
    minus 8 when delta = 0 and sigma = -8 (the constant term of the
    characteristic-class block lands on e_0 exactly in that case).
    Series form: half the constant term of the e_0 component.
    """
    if signature(L)[0] != 2:
        raise ValueError("weight formula applies to signature (2, r-2) lattices")
    data = discriminant_group(L)
    s, l = data.sigma, data.l
    closed = (12 + s) * (2 ** ((4 - s - l) // 2) + 1)
    if data.one_index == 0 and s == -8:
        closed -= 8
    series = Fraction(_components(data, Fraction(2))(0).coeff(0), 2)
    if series != closed:
        raise ArithmeticError((closed, series))
    return Fraction(closed), series


# ---------------------------------------------------------------------------
# the coset-sum numeric oracle
# ---------------------------------------------------------------------------

_MIN_ORDER = 40     # the least series order a coset is evaluated to
_MAX_ORDER = 1600   # refuse a coset whose point needs more


def adaptive_order(imag: float, target: float = 1e-26) -> int:
    """Series order n with c(n) |q|^n < target at Im tau = imag, for a form
    with principal part q^{-1}, whose coefficients grow like exp(4 pi sqrt n).

    Solves n*a - b*sqrt(n) >= ln(1/target) + margin; an order above
    _MIN_ORDER is rounded up to a multiple of 64, so that nearby points share
    one cached expansion.
    """
    a = 2 * math.pi * imag
    b = 4 * math.pi
    cc = -math.log(target) + 10
    sqrt_n = (b + math.sqrt(b * b + 4 * a * cc)) / (2 * a)
    order = max(_MIN_ORDER, math.ceil(sqrt_n * sqrt_n) + 8)
    return -(-order // 64) * 64 if order > _MIN_ORDER else _MIN_ORDER


def lift_oracle_numeric(L: Lattice, tau, prec: int = 128, target: float = 1e-26):
    """Rebuild F(tau) as  sum_g  phi|_g(tau) * rho(g^{-1}) e_0  over the six
    coset representatives, with phi = f0(8 + sigma).

    Entirely independent of construct_F: the slash factors come from the
    q-expansion of phi composed with the Moebius action and the metaplectic
    automorphy factor j(g, tau) of each word's element g.  Returns (values,
    group) with values a list of mpmath complex numbers, one per class index
    of the group.
    """
    import mpmath

    data = discriminant_group(L)
    k = 8 + data.sigma
    with mpmath.workprec(prec):
        tau = _upper_half(tau, prec)
        values = [mpmath.mpc(0)] * len(data)
        zeta = mpmath.expjpi(mpmath.mpf(1) / 4)
        zeta_pows = [zeta ** j for j in range(4)]
        for name, word in COSET_WORDS.items():
            g = evaluate_word(word)
            jfac, gtau = g.j(tau), g.apply(tau)
            imag = float(mpmath.im(gtau))
            if imag <= 0:
                raise ValueError(f"transformed point left the upper half-plane ({name})")
            order = adaptive_order(imag, target)
            if order > _MAX_ORDER:
                raise ValueError(
                    f"coset {name}: required series order {order} exceeds cap {_MAX_ORDER}"
                )
            phi_val, _tail = qseries_eval(f0(k, order), gtau, prec)
            # weight sigma/2, so the slash factor is j(g, tau)^{-sigma}
            slash = phi_val * jfac ** (-data.sigma)
            col = weil_column(L, mp2_word(g.inverse()))
            factor = slash * mpmath.mpf(col.scale.numerator) / col.scale.denominator
            for i, coeffs in enumerate(zip(*col.comp)):
                if any(coeffs):
                    values[i] += factor * _dot(coeffs, zeta_pows)
        return values, data


def eval_vvform(F: VVForm, tau, prec: int = 128):
    """Evaluate every component of F at tau (shared series evaluated once),
    as a dict keyed by class coordinates."""
    import mpmath

    data = discriminant_group(F.lattice)
    with mpmath.workprec(prec):
        cache = {}
        out = {}
        for i, ser in enumerate(F.components):
            key = id(ser)
            if key not in cache:
                cache[key] = qseries_eval(ser, tau, prec)[0]
            out[data.coords(i)] = cache[key]
        return out
