"""Eta quotients, rank-one thetas, the f/g blocks, and E4.

Numeric oracles: every named expansion is checked against a direct mpmath
evaluation of the defining product/sum, which never touches the series code.
"""
import os
from fractions import Fraction

import mpmath
import pytest

from twoelem import QSeries, eisenstein_e4, eta_power, f0, f1, g_i, modforms, qseries_eval
from twoelem.modforms import theta_a1

import oracles
from oracles import scale_exponents

TAU = mpmath.mpc("-0.13", "1.05")


def _eta(tau, prec=80, terms=200):
    with mpmath.workprec(prec):
        q = mpmath.exp(2j * mpmath.pi * tau)
        acc = mpmath.exp(1j * mpmath.pi * tau / 12)
        for n in range(1, terms):
            acc *= 1 - q ** n
        return acc


def _theta(shift, tau, prec=80, terms=60):
    with mpmath.workprec(prec):
        q = mpmath.exp(2j * mpmath.pi * tau)
        s = mpmath.mpf(shift.numerator if hasattr(shift, "numerator") else shift)
        if hasattr(shift, "denominator"):
            s /= shift.denominator
        return sum(q ** ((n + s) ** 2) for n in range(-terms, terms + 1))


def test_eta_power_against_product():
    ser = eta_power(2, 8, 30)
    val, _ = qseries_eval(ser, TAU, 80)
    with mpmath.workprec(80):
        want = _eta(2 * TAU) ** 8
        assert abs(val - want) < 1e-22


def test_eta_power_gates_its_arguments():
    # m = 0 divided by zero, m = -1 failed in a slice assignment, and a float
    # m or e raised a TypeError, each from inside the recurrence
    for m, e in ((0, 1), (-1, 1), (1.5, 1), ("2", 1)):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            eta_power(m, e, 5)
    with pytest.raises(ValueError, match="e must be an integer, got 1.5"):
        eta_power(1, 1.5, 5)
    assert eta_power(2.0, 8, 30) == eta_power(2, 8, 30)
    assert eta_power(3, -2.0, 12) == eta_power(3, -2, 12)


def test_theta_series_against_sum():
    for shift in (0, Fraction(1, 2)):
        ser = theta_a1(shift, 30)
        val, _ = qseries_eval(ser, TAU, 80)
        with mpmath.workprec(80):
            want = _theta(shift, TAU)
            assert abs(val - want) < 1e-22


def test_f0_head_and_oracle():
    ser = f0(8, 30)
    assert ser.coeff(-1) == 1
    assert ser.coeff(0) == 8 + 2 * 8
    val, _ = qseries_eval(ser, TAU, 80)
    with mpmath.workprec(80):
        want = (_eta(2 * TAU) ** 8 * _theta(0, TAU) ** 8
                / (_eta(TAU) ** 8 * _eta(4 * TAU) ** 8))
        assert abs(val - want) < 1e-18


def test_f1_head_and_oracle():
    for k in (0, 8):
        ser = f1(k, 30)
        lead = Fraction(k, 4)
        assert ser.min_exp() == lead
        assert ser.coeff(lead) == -(2 ** (k + 4))
        val, _ = qseries_eval(ser, TAU, 80)
        with mpmath.workprec(80):
            want = (-16 * _eta(4 * TAU) ** 8
                    * _theta(Fraction(1, 2), TAU) ** k / _eta(2 * TAU) ** 16)
            assert abs(val - want) < 1e-18


def test_slices_reassemble_f0():
    order = Fraction(8)
    total = QSeries.zero()
    for i in range(4):
        total = total + g_i(8, i, order)
    want = scale_exponents(f0(8, 4 * order), Fraction(1, 4))
    assert total.eq_below(want, order)


def test_slice_supports():
    for i in range(4):
        ser = g_i(8, i, 6)
        for e, _c in ser.items():
            assert (4 * e) % 4 == i


def test_eisenstein_oracle():
    ser = eisenstein_e4(20)
    assert ser.coeff(0) == 1
    assert ser.coeff(1) == 240
    val, _ = qseries_eval(ser, TAU, 80)
    with mpmath.workprec(80):
        nome = mpmath.exp(1j * mpmath.pi * TAU)
        want = (mpmath.jtheta(2, 0, nome) ** 8 + mpmath.jtheta(3, 0, nome) ** 8
                + mpmath.jtheta(4, 0, nome) ** 8) / 2
    assert abs(val - want) < 1e-22


def _fields(s):
    return s.coeffs, s.denom, s.start, s.trunc


def test_blocks_on_the_integer_grid_match_the_offset_products(monkeypatch):
    # f0, f1, the g_i and eta powers come from the eta-quotient recurrence;
    # the product route (pentagonal eta factors with their own offsets, theta
    # powers, Kronecker products) gives the same coefficients, grid, start
    # and truncation order
    monkeypatch.setattr(modforms, "_BUILDS", {})
    orders = [Fraction(1, 3), Fraction(5, 2), Fraction(37, 3), Fraction(60)]
    for k in range(-8, 30):
        for order in orders + [Fraction(384)] * (k in (0, 8)):
            pairs = [(f0(k, order), oracles.f0(k, order)), (f1(k, order), oracles.f1(k, order))]
            pairs += zip(modforms.g_slices(k, order), oracles.g_slices(k, order))
            for got, want in pairs:
                assert _fields(got) == _fields(want), (k, order)
    for m in (1, 2, 3, 4, 8):
        for e in (1, -1, 5, 8, -8, 24, -24):
            for order in orders:
                assert _fields(eta_power(m, e, order)) == \
                    _fields(oracles.eta_power(m, e, order)), (m, e, order)


def test_served_blocks_equal_direct_builds(monkeypatch):
    # f0, f1 and the g_i keep one build per k: a request below it is that
    # build truncated, one above it rebuilds; both equal a direct build
    monkeypatch.setattr(modforms, "_BUILDS", {})
    orders = [Fraction(1, 2), Fraction(2), Fraction(17, 3), Fraction(40), Fraction(96)]
    for k in (0, 4, 8, 12):
        f0(k, 60), f1(k, 60), g_i(k, 0, 60)      # the top build sits between 40 and 96
        for order in orders + orders[::-1]:       # up past the top, then down below it
            assert _fields(f0(k, order)) == _fields(modforms._build_f0(k, order))
            assert _fields(f1(k, order)) == _fields(modforms._build_f1(k, order))
            direct = modforms._slice(modforms._build_f0(k, 4 * order), order)
            for i in range(4):
                assert _fields(g_i(k, i, order)) == _fields(direct[i]), (k, order, i)
        tops = {b.__name__: o for (b, kk), (o, _v) in modforms._BUILDS.items() if kk == k}
        assert tops == {"_build_f0": 384, "_build_f1": 96, "_build_slices": 96}


def test_coset_oracle_builds_each_block_once(monkeypatch):
    # construct_F at order 96 and the coset oracle at the criterion-02 point,
    # for two lattices with k = 8, then the CLI's f0 text: f0 is built once
    # (to order 384, for the slices) and f1 once
    from twoelem.cli import main
    from twoelem.lattices import parse_lattice_expr
    from twoelem.vvmf import construct_F, eval_vvform, lift_oracle_numeric
    monkeypatch.setattr(modforms, "_BUILDS", {})
    builds = []
    eta_quotient = modforms._eta_quotient
    monkeypatch.setattr(modforms, "_eta_quotient",
                        lambda *args: builds.append(args[0]) or eta_quotient(*args))
    tau = mpmath.mpc("-0.2", "1.4")
    for expr in ("U+U(2)", "U(2)+U(2)"):
        L = parse_lattice_expr(expr)
        eval_vvform(construct_F(L, order=96), tau, 128)
        lift_oracle_numeric(L, tau, prec=128, target=1e-26)
    main(["qseries", "f0", "-k", "8", "--order", "384", "--out", os.devnull])
    assert len(builds) == 2
