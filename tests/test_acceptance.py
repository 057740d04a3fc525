"""End-to-end acceptance checks, one per headline capability.

Each test prints a single `criterion NN ... PASS/FAIL` line (visible with
`pytest -s`; the test outcome itself carries the same information).
"""
import math
import time
from fractions import Fraction

import mpmath
import pytest

from twoelem import (
    SiegelPoint,
    TubePoint,
    borcherds_divisor,
    borcherds_weight,
    chi_g,
    chi_g8_petersson,
    construct_F,
    delta_ledger,
    eisenstein_e4,
    eta_power,
    even_characteristics,
    f0,
    f1,
    fay_family,
    lift_oracle_numeric,
    parse_lattice_expr,
    product_eval,
    qseries_eval,
    restrict,
    table1,
    thm91_consistency,
    vanishing_order_fit,
)
from twoelem.k3graph import build_graph, m_triple_of_row, thm93_check, validate_row
from twoelem.mp2 import evaluate_word, mp2_word
from twoelem.vvmf import adaptive_order, eval_vvform
from twoelem.weil import (
    closed_form_st_l_inverse_column,
    closed_form_v_inverse_column,
    weil_column,
)

from oracles import word_j


def _report(num, label, ok):
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {label}"


def test_criterion_01_weight_table():
    t0 = time.monotonic()
    spots = [("U+U(2)+E8(2)", 4), ("U+U+E8(2)", 12), ("U(2)+U(2)+E8(2)", 0),
             ("U+U(2)+D4+D4", 28), ("U+U+E8", 252), ("U+U+D4", 72),
             ("U+U+E8(2)+A1", 15)]
    ok = True
    for expr, want in spots:
        closed, series = borcherds_weight(parse_lattice_expr(expr))
        ok = ok and closed == want == series
    for row in table1():
        closed, series = borcherds_weight(parse_lattice_expr(row.perp_expr))
        ok = ok and closed == series  # both routes agree on every row
    elapsed = time.monotonic() - t0
    _report(1, f"lift weights closed form == series ({elapsed:.1f}s)",
            ok and elapsed < 60)


def test_criterion_02_coset_sum_oracle():
    t0 = time.monotonic()
    lattices = ["U+A1+", "U+U(2)", "A1+^2+A1", "U+U(2)+E8(2)"]
    taus = [mpmath.mpc("-0.2", "1.4"), mpmath.mpc("-0.16", "1.45"),
            mpmath.mpc("-0.25", "1.35")]
    worst = 0.0
    for expr in lattices:
        L = parse_lattice_expr(expr)
        F = construct_F(L, order=64)
        for tau in taus:
            values, data = lift_oracle_numeric(L, tau, prec=128, target=1e-26)
            direct = eval_vvform(F, tau, 128)
            for i, el in enumerate(data.elements):
                worst = max(worst, float(abs(values[i] - direct[el.coords])))
    elapsed = time.monotonic() - t0
    _report(2, f"coset-sum oracle, worst |diff| = {worst:.2e} ({elapsed:.0f}s)",
            worst < 1e-20 and elapsed < 120)


def test_criterion_03_slash_identities():
    with mpmath.workprec(128):
        tau = mpmath.mpc("-0.2", "1.4")
        worst = 0.0
        for k in (0, 8):
            w2 = k - 8  # twice the weight -4 + k/2
            # V-transform sends the 0-block to the characteristic block
            jfac, gtau = word_j([("S", 7), ("T", 2), ("S", 1)], tau)
            order = adaptive_order(float(mpmath.im(gtau)))
            lhs = qseries_eval(f0(k, order), gtau, 128)[0] * jfac ** (-w2)
            rhs = qseries_eval(f1(k, 128), tau, 128)[0]
            worst = max(worst, float(abs(lhs - rhs)))
            # S T^l rescales the argument by 4 and multiplies by a constant
            const = mpmath.mpc(2 ** ((8 - k) // 2)) * mpmath.mpc(1j) ** (-k // 2)
            for l_exp in range(4):
                jfac, gtau = word_j([("S", 1), ("T", l_exp)], tau)
                order = adaptive_order(float(mpmath.im(gtau)))
                lhs = qseries_eval(f0(k, order), gtau, 128)[0] * jfac ** (-w2)
                arg = (tau + l_exp) / 4
                order = adaptive_order(float(mpmath.im(arg)))
                rhs = const * qseries_eval(f0(k, order), arg, 128)[0]
                worst = max(worst, float(abs(lhs - rhs)))
    # exact closed forms for the same coset columns
    exact_ok = True
    for expr in ["A1", "U+A1+", "U(2)"]:
        L = parse_lattice_expr(expr)
        for l_exp in range(4):
            g = evaluate_word([("S", 1), ("T", l_exp)]).inverse()
            exact_ok = exact_ok and (
                weil_column(L, mp2_word(g)) == closed_form_st_l_inverse_column(L, l_exp))
        gV = evaluate_word([("S", 7), ("T", 2), ("S", 1)]).inverse()
        exact_ok = exact_ok and weil_column(L, mp2_word(gV)) == closed_form_v_inverse_column(L)
    _report(3, f"slash identities, worst |diff| = {worst:.2e}, exact columns",
            worst < 1e-20 and exact_ok)


def test_criterion_04_restriction():
    ok = True
    for N in (1, 2):
        for expr in ["A1+", "A1++A1", "A1++A1^2"]:
            small = parse_lattice_expr(expr)
            from twoelem import direct_sum, rescale, standard_lattice
            big = direct_sum(rescale(standard_lattice("U"), N), small)
            Fr = restrict(construct_F(big, order=10), N, small)
            Fs = construct_F(small, order=10)
            for got, ser in zip(Fr.components, Fs.components):
                ok = ok and got.eq_below(ser, got.trunc)
    _report(4, "restriction along U(N) splits recovers the small form", ok)


def test_criterion_05_scalar_form():
    F = construct_F(parse_lattice_expr("U+U+E8"), order=10)
    e0 = F.components[0]
    want = eisenstein_e4(14) ** 2 * eta_power(1, -24, 14)
    _report(5, "scalar form equals E4^2/eta^24 to order 10",
            e0.eq_below(want, 10))


def test_criterion_06_divisor_ledger():
    ok = True
    for expr in ["U+U+A1", "U+A1++A1", "U+U+D4+A1"]:
        L = parse_lattice_expr(expr)
        from twoelem import two_elementary_invariants
        t = two_elementary_invariants(L)
        ledger = delta_ledger(L, borcherds_divisor(construct_F(L, order=2)))
        ok = ok and ledger == {
            "dprime": 1,
            "dsecond": 2 ** ((t.r - t.l) // 2) + 1,
            "extra_char": 0,
        }
    L13 = parse_lattice_expr("U+U+E8(2)+A1")
    signed = delta_ledger(L13, borcherds_divisor(construct_F(L13, order=2)))
    ok = ok and signed == {"dprime": 1, "dsecond": 5, "extra_char": -8}
    _report(6, "Heegner divisor ledgers (generic and rank-13 signed)", ok)


def test_criterion_07_siegel_slopes():
    t0 = time.monotonic()
    grid = [10 ** (-(3 + 0.5 * j)) for j in range(11)]
    # a Fay family's slope is the number of even theta characteristics with
    # a_1 = 1/2, whose theta vanish along the pinched first handle
    pinched = [sum(ch.a[0] == Fraction(1, 2) for ch in even_characteristics(g))
               for g in (1, 2)]
    fams = [
        (pinched[0], lambda t: fay_family(1, [[0.1 + 0.2j]], t)),
        (pinched[1], lambda t: fay_family(
            2, [[0.1 + 0.3j, 0.15 + 0.05j], [0.15 + 0.05j, 0.2 + 1.1j]], t)),
        (8, lambda t: SiegelPoint(((0.1 + 1.5j, t), (t, -0.2 + 1.2j)))),
    ]
    ok = True
    slopes = []
    for want, fam in fams:
        slope, _ = vanishing_order_fit(fam, grid, prec=64)
        slopes.append(slope)
        ok = ok and abs(slope - want) < 0.05
    elapsed = time.monotonic() - t0
    _report(7, "degeneration slopes "
            + ", ".join(f"{s:.4f}" for s in slopes) + f" ({elapsed:.1f}s)",
            ok and elapsed < 60)


def test_criterion_08_chi_invariances():
    block = SiegelPoint(((0.4 + 1.1j, 0.0), (0.0, -0.3 + 0.8j)))
    v53 = chi_g(block, 53)
    v100 = chi_g(block, 100)
    null_ok = abs(v53) < 1e-12 and abs(v100) < 1e-24
    ok = null_ok
    for g, sig in [
        (1, ((0.21 + 1.17j,),)),
        (2, ((0.23 + 1.12j, -0.41 + 0.37j), (-0.41 + 0.37j, 0.11 + 0.95j))),
        (3, ((0.2 + 1.1j, 0.1 + 0.2j, -0.1 + 0.15j),
             (0.1 + 0.2j, -0.3 + 1.3j, 0.2 + 0.1j),
             (-0.1 + 0.15j, 0.2 + 0.1j, 0.15 + 1.05j))),
    ]:
        base = chi_g8_petersson(SiegelPoint(sig), 53)
        B = [[1 - (i + j) for j in range(g)] for i in range(g)]
        shifted = tuple(tuple(sig[i][j] + B[i][j] for j in range(g))
                        for i in range(g))
        A = [[int(i == j) for j in range(g)] for i in range(g)]
        if g >= 2:
            A[0][1] = 1  # unipotent GL_g(Z) rotation
        rotated = tuple(
            tuple(sum(A[k][i] * sig[k][m] * A[m][j]
                      for k in range(g) for m in range(g))
                  for j in range(g)) for i in range(g))
        v1 = chi_g8_petersson(SiegelPoint(shifted), 53)
        v2 = chi_g8_petersson(SiegelPoint(rotated), 53)
        ok = ok and abs(v1 / base - 1) < 1e-12 and abs(v2 / base - 1) < 1e-12
    _report(8, "chi_2 split-locus vanishing and ||chi^8|| invariance (g <= 3)",
            ok)


def test_criterion_09_graph_bookkeeping():
    rows = table1()
    ok = len(rows) == 43
    for row in rows:
        try:
            validate_row(row)
        except AssertionError:
            ok = False
        ok = ok and thm91_consistency(row)["ok"]
    seeds = []
    for row in rows:
        t = m_triple_of_row(row)
        if t not in seeds:
            seeds.append(t)
    edges = build_graph(seeds).edges
    ok = ok and len({(e.source, e.target) for e in edges}) == len(edges)
    ok = ok and thm93_check()["ok"]
    _report(9, "43 rows validate; no multiple edges; exact balance identities",
            ok)


def test_criterion_10_wall_vanishing():
    t0 = time.monotonic()
    from twoelem import direct_sum, rescale, standard_lattice
    L = parse_lattice_expr("U+E8(2)")
    amb = direct_sum(rescale(standard_lattice("U"), 2), L)
    F = construct_F(amb, order=2)
    a = 2.5
    xs, ys = [], []
    for t in [0.01 * 2 ** (-j) for j in range(5)]:
        z = [1j * (a + t), 1j * (a - t)] + [0j] * 8
        point = TubePoint(2, L, tuple(z))
        val, _ = product_eval(F, point, order=2, min_margin=0.0)
        xs.append(math.log(t))
        ys.append(math.log(abs(val)))
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    elapsed = time.monotonic() - t0
    _report(10, f"wall approach log-slope {slope:.3f} ({elapsed:.0f}s)",
            abs(slope - 1.0) <= 0.1)
