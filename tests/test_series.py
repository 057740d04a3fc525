"""Truncated q-series with fractional exponents: the grid kernel against
a schoolbook Cauchy product and exact modular identities."""
import math
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from twoelem import QSeries, eta_power, qseries_eval
from twoelem.lattices import parse_lattice_expr
from twoelem.vvmf import construct_F, eval_vvform

from oracles import from_text

exponents = st.fractions(min_value=-3, max_value=6, max_denominator=4)
coeffs = st.integers(min_value=-9, max_value=9)


@st.composite
def small_series(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n):
        terms[draw(exponents)] = draw(coeffs)
    trunc = draw(st.fractions(min_value=4, max_value=8, max_denominator=2))
    return QSeries(terms, trunc)


def test_monomial_basics():
    q = QSeries.monomial(1)
    assert (q * q).coeff(2) == 1
    s = QSeries.monomial(Fraction(-1, 4), 3) + QSeries.one()
    assert s.coeff(Fraction(-1, 4)) == 3
    assert s.min_exp() == Fraction(-1, 4)


def test_truncation_propagation():
    a = QSeries({Fraction(2): 1}, trunc=5)   # lowest exponent 2, valid < 5
    b = QSeries({Fraction(1): 1}, trunc=4)   # lowest exponent 1, valid < 4
    prod = a * b
    # min(trunc_a + low_b, trunc_b + low_a) = min(5+1, 4+2) = 6
    assert prod.trunc == 6
    assert prod.coeff(3) == 1


def test_inverse_of_one_minus_q():
    s = QSeries.one(trunc=10) - QSeries.monomial(1, trunc=10)
    inv = s.inverse()
    for n in range(10):
        assert inv.coeff(n) == 1
    assert (s * inv).eq_below(QSeries.one(), 10)


def test_pow_matches_repeated_product():
    s = QSeries({Fraction(0): 2, Fraction(1, 2): -1, Fraction(2): 3}, trunc=6)
    assert (s ** 3).eq_below(s * s * s)
    assert (s ** 0).eq_below(QSeries.one())
    assert (s ** 2.0).eq_below(s * s)
    with pytest.raises(ValueError, match="alpha must be an integer"):
        s ** 0.5


@settings(deadline=None, max_examples=50)
@given(small_series(), small_series(), small_series())
def test_multiplication_properties(a, b, c):
    assert (a * b).eq_below(b * a)
    assert ((a * b) * c).eq_below(a * (b * c))
    assert (a * (b + c)).eq_below(a * b + a * c)


@settings(deadline=None, max_examples=50)
@given(small_series())
def test_text_roundtrip(s):
    assert from_text(s.to_text()) == s


def test_eval_geometric_series():
    # sum q^n below 40 at tau = i against 1/(1-q)
    s = QSeries({Fraction(n): 1 for n in range(40)}, trunc=40)
    tau = mpmath.mpc(0, 1)
    val, tail = qseries_eval(s, tau, 64)
    q = mpmath.exp(2j * mpmath.pi * tau)
    assert abs(val - 1 / (1 - q)) < 1e-15
    assert tail >= 0


def test_eval_respects_fractional_exponents():
    s = QSeries.monomial(Fraction(1, 4), 1, trunc=4)
    tau = mpmath.mpc(0.3, 1.1)
    val, _ = qseries_eval(s, tau, 64)
    with mpmath.workprec(64):
        want = mpmath.exp(2j * mpmath.pi * tau / 4)
    assert abs(val - want) < 1e-17


@pytest.mark.parametrize("name", ["f0", "f1", "g1", "g3"])
def test_eval_on_the_coarse_grid(name):
    # f0 lies on the 1/3 grid, f1 on 1/12 and g_i on 1/4 grids, with terms
    # only on a coarser one: the value matches the same series rebuilt with
    # denom 1 and the sum of its terms one by one
    from twoelem.modforms import f0, f1, g_i
    s = {"f0": f0, "f1": f1}[name](8, 12) if name[0] == "f" else g_i(8, int(name[1]), 12)
    rebuilt = QSeries(dict(s.items()), trunc=s.trunc, denom=1)
    tau = mpmath.mpc(0.3, 1.1)
    val, tail = qseries_eval(s, tau, 128)
    with mpmath.workprec(128):
        terms = mpmath.fsum(c * mpmath.exp(2j * mpmath.pi * e * tau) for e, c in s.items())
        for want in (qseries_eval(rebuilt, tau, 128)[0], terms):
            assert abs(val - want) <= 1e-28 * abs(want)
    assert tail == qseries_eval(rebuilt, tau, 128)[1]


def test_inverse_requires_invertible_lead():
    with pytest.raises(ZeroDivisionError):
        QSeries.zero(trunc=4).inverse()


big_or_rational = st.one_of(
    st.integers(min_value=-2 ** 80, max_value=2 ** 80),
    st.fractions(min_value=-50, max_value=50, max_denominator=9),
)


@st.composite
def grid_series(draw):
    """Up to 12 terms on a grid of denominator 2, 3 or 4, with negative,
    above-2^64 and non-integral coefficients."""
    d = draw(st.sampled_from([2, 3, 4]))
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        terms[Fraction(draw(st.integers(min_value=-8, max_value=24)), d)] = draw(big_or_rational)
    trunc = Fraction(draw(st.integers(min_value=0, max_value=30)), draw(st.sampled_from([1, 2, 3])))
    return QSeries(terms, trunc)


def _schoolbook(a, b, bound):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb < bound:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _low(s):
    return s.trunc if s.is_zero() else min(e for e, _c in s.items())


@settings(deadline=None, max_examples=100)
@given(grid_series(), grid_series())
def test_mul_matches_schoolbook(a, b):
    prod = a * b
    assert prod.trunc == min(a.trunc + _low(b), b.trunc + _low(a))
    assert dict(prod.items()) == _schoolbook(a, b, prod.trunc)


@settings(deadline=None, max_examples=50)
@given(grid_series(), st.integers(min_value=1, max_value=4))
def test_power_recurrence_matches_products(s, n):
    if s.is_zero():
        return
    rep = s
    for _ in range(n - 1):
        rep = rep * s
    assert (s ** n).eq_below(rep)
    assert (s ** n).trunc == rep.trunc
    one = s ** -n * rep
    assert one.eq_below(QSeries.one(), one.trunc)


def test_eta24_times_inverse_is_one():
    prod = eta_power(1, 24, 400) * eta_power(1, -24, 400)
    assert prod.trunc == 399   # min(400 + (-1), 400 + 1): leads q and q^-1
    assert prod.eq_below(QSeries.one())
    prod = eta_power(1, 24, 401) * eta_power(1, -24, 400)
    assert prod.trunc == 400
    assert prod.eq_below(QSeries.one())


def test_ramanujan_tau_identities():
    delta = eta_power(1, 24, 400)
    tau = [delta.coeff(n) for n in range(400)]
    assert tau[:4] == [0, 1, -24, 252]
    for m in range(2, 400):
        for n in range(m + 1, 400 // m + 1):
            if m * n < 400 and gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n]
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        assert tau[p * p] == tau[p] ** 2 - p ** 11


def test_from_text_rejects_zeta_column():
    good = "N=1 trunc=3\n0/1  1 0 0 0\n1/1  -2 0 0 0\n"
    assert from_text(good).coeff(1) == -2
    with pytest.raises(ValueError):
        from_text("N=1 trunc=3\n0/1  1 0 0 0\n1/1  -2 0 1 0\n")


@pytest.mark.parametrize("tau", [complex("nan+1j"), complex(0, math.inf), complex(math.inf, 1),
                                 mpmath.mpc("nan", 2)])
def test_eval_refuses_non_finite_tau(tau):
    with pytest.raises(ValueError, match="finite"):
        qseries_eval(QSeries({0: 1, 1: 2}, trunc=3), tau)


@pytest.mark.parametrize("prec", [-40, 0, "64"])
def test_eval_precision_must_be_a_positive_integer(prec):
    # -40 failed with "negative shift count", 0 returned a value and "64"
    # raised a TypeError
    F = construct_F(parse_lattice_expr("U+U+E8"), order=2)
    for fn in (lambda: qseries_eval(F.components[0], 0.1 + 1.2j, prec),
               lambda: eval_vvform(F, 0.1 + 1.2j, prec)):
        with pytest.raises(ValueError, match="prec must be a positive integer"):
            fn()


def test_eval_precision_takes_an_integral_float():
    # 64.0 raised a TypeError from an int >> float shift
    F = construct_F(parse_lattice_expr("U+U+E8"), order=2)
    assert qseries_eval(F.components[0], 0.1 + 1.2j, 64.0) == qseries_eval(F.components[0], 0.1 + 1.2j, 64)
    assert eval_vvform(F, 0.1 + 1.2j, 64.0) == eval_vvform(F, 0.1 + 1.2j, 64)


def test_eval_tail_at_deep_points():
    # |q| = exp(-400 pi) underflows a double: the tail is formed in logs
    deep = mpmath.mpc(0, 200)
    val, tail = qseries_eval(QSeries({-2: 1}, trunc=-1), deep, 64)
    with mpmath.workprec(128):
        assert abs(val - mpmath.exp(800 * mpmath.pi)) <= 2 ** -62 * abs(val)
    assert tail == math.inf   # |q|^-1 is beyond the doubles
    for c in (3, Fraction(10 ** 400, 3)):   # the second is beyond the doubles too
        val, tail = qseries_eval(QSeries({1: c}, trunc=2), deep, 64)
        assert 0 <= tail < 1e-300
    assert qseries_eval(QSeries({1: 3}), deep, 64)[1] == 0.0
    # Im tau beyond the doubles: q = 0 in effect
    assert qseries_eval(QSeries({0: 5, 1: 3}, trunc=2), mpmath.mpc(0, "1e400"), 64) == (5, 0.0)


def _horner_reference(s, tau, bits):
    """The series at tau by Horner's rule in mpmath at `bits` bits."""
    step = gcd(*(i for i, c in enumerate(s.coeffs) if c)) or 1
    with mpmath.workprec(bits):
        x = mpmath.exp(2j * mpmath.pi * tau * step / s.denom)
        acc = mpmath.mpc(0)
        for c in reversed(s.coeffs[::step]):
            acc = acc * x + mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator
        return acc * mpmath.exp(2j * mpmath.pi * tau * s.start / s.denom)


@pytest.mark.parametrize("prec", [53, 64, 128])
def test_eval_within_its_stated_rounding_bound(prec):
    # |v - S(tau)| <= 2^-prec (3|v| + |q^(start/denom)|/d) at the six coset
    # images of the criterion-02 point, against a 4*prec Horner reference;
    # the bound is under 2^-(prec-8) times the series' largest term
    from twoelem.modforms import f0, f1, g_i
    from oracles import word_j
    from twoelem.vvmf import COSET_WORDS
    from twoelem.lattices import _clear
    series = [f0(8, 384), f1(8, 96)] + [g_i(8, i, 96) for i in range(4)]
    with mpmath.workprec(128):
        images = [word_j(w, mpmath.mpc("-0.2", "1.4"))[1] for w in COSET_WORDS.values()]
    for gtau in images:
        with mpmath.workprec(prec):
            tau = mpmath.mpc(gtau)    # the point qseries_eval evaluates at
        for s in series:
            val, _ = qseries_eval(s, tau, prec)
            with mpmath.workprec(4 * prec):
                ref = _horner_reference(s, tau, 4 * prec)
                q0 = mpmath.exp(-2 * mpmath.pi * tau.imag * s.start / s.denom)
                bound = mpmath.ldexp(3 * abs(val) + q0 / _clear(s.coeffs)[1], -prec)
                largest = max(abs(mpmath.mpf(Fraction(c).numerator) / Fraction(c).denominator)
                              * mpmath.exp(-2 * mpmath.pi * tau.imag * e) for e, c in s.items())
                assert abs(val - ref) <= bound
                assert bound < mpmath.ldexp(largest, 8 - prec)
