"""The distinguished vector-valued form: support, symmetry, weight, divisor."""
import math
from fractions import Fraction

import mpmath
import pytest

from twoelem import (
    borcherds_divisor,
    borcherds_weight,
    construct_F,
    delta_ledger,
    discriminant_group,
    eisenstein_e4,
    eta_power,
    lift_oracle_numeric,
    parse_lattice_expr,
    restrict,
    table1,
)
from twoelem import vvmf
from twoelem.vvmf import eval_vvform

from oracles import check_support


def test_support_and_symmetry():
    for expr in ["A1", "U+A1+", "U(2)+A1", "U+U+E8(2)+A1"]:
        F = construct_F(parse_lattice_expr(expr), order=4)
        assert check_support(F)


def test_weight_guard_needs_signature_two():
    with pytest.raises(ValueError):
        borcherds_weight(parse_lattice_expr("A1"))


def test_weight_mismatch_raises(monkeypatch):
    real = vvmf._components

    def wrong_e0(data, order):
        component = real(data, order)
        # the weight is half the constant term of e_0
        return lambda i: component(i) + 2 if i == 0 else component(i)

    monkeypatch.setattr(vvmf, "_components", wrong_e0)
    with pytest.raises(ArithmeticError):
        borcherds_weight(parse_lattice_expr("U+U+E8(2)"))


@pytest.mark.parametrize("expr, want", [
    ("U+U(2)+E8(2)", 4),
    ("U+U+E8(2)", 12),
    ("U(2)+U(2)+E8(2)", 0),
    ("U+U(2)+D4+D4", 28),
    ("U+U+E8", 252),
    ("U+U+D4", 72),
    ("U+U+E8(2)+A1", 15),
])
def test_weight_spot_values(expr, want):
    closed, series = borcherds_weight(parse_lattice_expr(expr))
    assert closed == want
    assert series == want


def test_scalar_form_is_e4sq_over_eta24():
    F = construct_F(parse_lattice_expr("U+U+E8"), order=8)
    e0 = F.components[0]
    want = eisenstein_e4(12) ** 2 * eta_power(1, -24, 12)
    assert e0.eq_below(want, 8)


def test_restriction_recovers_small_form():
    small = parse_lattice_expr("A1+")
    big = parse_lattice_expr("U(2)+A1+")
    Fb = construct_F(big, order=6)
    Fr = restrict(Fb, 2, small)
    Fs = construct_F(small, order=6)
    for got, ser in zip(Fr.components, Fs.components):
        assert got.eq_below(ser, got.trunc)


def test_restriction_takes_an_integral_N():
    small = parse_lattice_expr("A1+")
    F = construct_F(parse_lattice_expr("U(2)+A1+"), order=4)
    assert restrict(F, 2.0, small) == restrict(F, 2, small)
    with pytest.raises(ValueError, match="N must be a positive integer"):
        restrict(F, 2.5, small)


def test_restriction_rejects_wrong_split():
    F = construct_F(parse_lattice_expr("U+A1+"), order=4)
    with pytest.raises(ValueError):
        restrict(F, 2, parse_lattice_expr("A1+"))


def test_divisor_ledger_plain():
    L = parse_lattice_expr("U+U+A1")
    ledger = delta_ledger(L, borcherds_divisor(construct_F(L, order=2)))
    # r = 5, l = 1: D'' multiplicity 2^((r-l)/2) + 1 = 5
    assert ledger == {"dprime": 1, "dsecond": 5, "extra_char": 0}


def test_divisor_ledger_signed_rank13():
    L = parse_lattice_expr("U+U+E8(2)+A1")
    div = borcherds_divisor(construct_F(L, order=2))
    ledger = delta_ledger(L, div)
    assert ledger == {"dprime": 1, "dsecond": 5, "extra_char": -8}
    # raw multiplicities: 1 on the zero class at q^-1, 4 on the generic
    # norm -1/4 classes, -4 on the characteristic class
    char = discriminant_group(L).one_index
    assert div[(char, Fraction(-1, 4))] == -4
    mults = {m for (i, e), m in div.items()
             if e == Fraction(-1, 4) and i != char}
    assert mults == {4}


def test_divisor_ledger_without_F():
    # the ledger read from the principal parts alone equals the one read off F
    exprs = [row.perp_expr for row in table1()] + ["U+U+A1", "U+A1++A1", "U+U+E8(2)+A1"]
    for expr in exprs:
        L = parse_lattice_expr(expr)
        assert vvmf.divisor_ledger(L) == delta_ledger(L, borcherds_divisor(construct_F(L, order=2))), expr


def test_divisor_multiplicities_integral():
    for expr in ["U+A1++A1", "U+U(2)+D4"]:
        div = borcherds_divisor(construct_F(parse_lattice_expr(expr), order=2))
        assert all(isinstance(m, int) for m in div.values())


def test_oracle_matches_exact_form_small():
    # one lattice, one point; the full four-lattice sweep is an acceptance run
    L = parse_lattice_expr("U+A1+")
    tau = mpmath.mpc("-0.2", "1.4")
    values, data = lift_oracle_numeric(L, tau, prec=128, target=1e-26)
    # at Im tau = 1.4 the direct expansion is already < 1e-26 beyond n ~ 13
    F = construct_F(L, order=64)
    direct = eval_vvform(F, tau, 128)
    for i, el in enumerate(data.elements):
        assert abs(values[i] - direct[el.coords]) < 1e-20


@pytest.mark.parametrize("tau, message", [
    (complex("nan+1j"), "tau must be finite"),
    (complex(0.1, math.inf), "tau must be finite"),
    (complex(math.inf, 1), "tau must be finite"),
    (0.1 - 1j, "tau must lie in the upper half-plane"),
    (0.5, "tau must lie in the upper half-plane"),
])
def test_oracle_gates_tau_like_qseries_eval(tau, message):
    # a non-finite tau reached adaptive_order and failed there with
    # "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=message):
        lift_oracle_numeric(parse_lattice_expr("U+U+A1"), tau)
