"""Self-check suites wired into the `verify` command.

Each suite returns a list of check dicts {"name", "ok", "detail"} and is
deterministic; `run_suite("all")` concatenates every suite in `SUITES`.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .lattices import genus_k, hyperbolic_split, parse_lattice_expr, two_elementary_invariants
from .modforms import eisenstein_e4, eta_power
from .mp2 import MP2_S, MP2_T, evaluate_word, mp2_word
from .vvmf import borcherds_weight, construct_F, divisor_ledger, restrict
from .weil import (
    closed_form_st_l_inverse_column,
    closed_form_v_inverse_column,
    is_unitary,
    weil_column,
    weil_rep,
)


def _check(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


# ---------------------------------------------------------------------------

def suite_series():
    checks = []
    order = Fraction(8)
    L = parse_lattice_expr("U+U+E8")
    F = construct_F(L, order=order)
    e0 = F.components[0]
    want = (eisenstein_e4(order + 1) ** 2 * eta_power(1, -24, order + 1)).truncate(order)
    checks.append(_check(
        "scalar form on the unimodular rank-12 lattice equals E4^2/eta^24",
        e0.eq_below(want, order),
        f"compared below exponent {order}",
    ))

    for N, expr in [(1, "A1+"), (1, "A1++A1"), (2, "A1+"), (2, "A1++A1")]:
        L_small = parse_lattice_expr(expr)
        Fb = construct_F(hyperbolic_split(N, L_small), order=10)
        Fr = restrict(Fb, N, L_small)
        Fs = construct_F(L_small, order=10)
        ok = all(r.eq_below(s, r.trunc) for r, s in zip(Fr.components, Fs.components))
        checks.append(_check(
            f"restriction along U({N}) + ({expr}) recovers the small form",
            ok, "coefficientwise to order 10",
        ))
    return checks


def suite_weil():
    checks = []
    lattices = ["A1", "A1+", "U+A1+", "U(2)"]
    for expr in lattices:
        L = parse_lattice_expr(expr)
        for l_exp in range(4):
            g = evaluate_word([("S", 1), ("T", l_exp)]).inverse()
            word_col = weil_column(L, mp2_word(g))
            closed = closed_form_st_l_inverse_column(L, l_exp)
            checks.append(_check(
                f"rho((S T^{l_exp})^-1) e_0 closed form on {expr}",
                word_col == closed,
                "exact cyclotomic equality",
            ))
        gV = evaluate_word([("S", 7), ("T", 2), ("S", 1)]).inverse()
        word_col = weil_column(L, mp2_word(gV))
        closed = closed_form_v_inverse_column(L)
        checks.append(_check(
            f"rho(V^-1) e_0 = e_char on {expr}",
            word_col == closed,
            "exact cyclotomic equality",
        ))
        for gen, g in (("S", MP2_S), ("T", MP2_T)):
            checks.append(_check(
                f"rho({gen}) unitary on {expr}",
                is_unitary(weil_rep(L, g)),
                "exact",
            ))
    return checks


def suite_borcherds():
    checks = []
    spots = [
        ("U+U(2)+E8(2)", 4),
        ("U+U+E8(2)", 12),
        ("U(2)+U(2)+E8(2)", 0),
        ("U+U(2)+D4+D4", 28),
        ("U+U+E8", 252),
        ("U+U+D4", 72),
        ("U+U+E8(2)+A1", 15),
    ]
    for expr, want in spots:
        w, series = borcherds_weight(parse_lattice_expr(expr))
        checks.append(_check(
            f"lift weight of {expr} = {want} (closed form and series)",
            w == want and series == want, f"got {w}",
        ))

    for expr in ["U+U+A1", "U+A1++A1", "U+U+D4+A1"]:
        L = parse_lattice_expr(expr)
        ledger = divisor_ledger(L)
        t = two_elementary_invariants(L)
        want_second = 2 ** genus_k(t) + 1
        ok = (ledger["dprime"] == 1 and ledger["extra_char"] == 0
              and ledger["dsecond"] == want_second)
        checks.append(_check(
            f"divisor ledger D' + (2^((r-l)/2)+1) D'' on {expr}",
            ok, str(ledger),
        ))

    L13 = parse_lattice_expr("U+U+E8(2)+A1")
    ledger = divisor_ledger(L13)
    checks.append(_check(
        "rank-13 signed divisor ledger (1, 5, -8)",
        ledger == {"dprime": 1, "dsecond": 5, "extra_char": -8},
        str(ledger),
    ))
    return checks


def suite_siegel():
    import mpmath

    from .characteristics import ThetaChar, even_characteristics, pinched_count
    from .siegel import SiegelPoint, chi_g, fay_family, theta_constant, vanishing_order_fit

    checks = []
    counts = [len(even_characteristics(g)) for g in range(6)]
    checks.append(_check(
        "even characteristic counts 1,3,10,36,136,528",
        counts == [1, 3, 10, 36, 136, 528], str(counts),
    ))

    point_i = SiegelPoint(((1j,),))
    th3 = theta_constant(ThetaChar((0,), (0,)), point_i, prec=64)
    with mpmath.workprec(96):   # the reference and the difference above 64 bits
        diff = abs(th3 - mpmath.pi ** mpmath.mpf("0.25") / mpmath.gamma(mpmath.mpf("0.75")))
    checks.append(_check(
        "theta_{0,0}(i) = pi^(1/4)/Gamma(3/4)",
        diff < 1e-17, f"diff {diff}",
    ))

    tau = 0.13 + 0.9j
    pt = SiegelPoint(((tau,),))
    chi1 = chi_g(pt, prec=64)
    with mpmath.workprec(64):
        q = mpmath.exp(2j * mpmath.pi * mpmath.mpc(tau))
        eta = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau) / 12)
        for n in range(1, 80):
            eta *= 1 - q ** n
    ratio = (chi1 ** 8) / eta ** 24
    checks.append(_check(
        "chi_1^8 = 256 eta^24",
        abs(ratio - 256) < 1e-12, f"ratio {ratio}",
    ))

    block = SiegelPoint(((0.1 + 1.2j, 0.0), (0.0, -0.2 + 0.9j)))
    chi2 = chi_g(block, prec=64)
    checks.append(_check(
        "chi_2 vanishes on block-diagonal matrices",
        abs(chi2) < 1e-14, f"|chi_2| = {abs(chi2)}",
    ))

    grid = [10 ** (-(3 + 0.5 * j)) for j in range(11)]
    fam1 = lambda t: fay_family(1, [[0.1 + 0.2j]], t)
    psi2 = [[0.1 + 0.3j, 0.15 + 0.05j], [0.15 + 0.05j, 0.2 + 1.1j]]
    fam2 = lambda t: fay_family(2, psi2, t)
    fam_split = lambda t: SiegelPoint(((0.1 + 1.5j, t), (t, -0.2 + 1.2j)))
    for name, fam, want in [("pinched handle, genus 1", fam1, pinched_count(1)),
                            ("pinched handle, genus 2", fam2, pinched_count(2)),
                            ("separating pinch, genus 2", fam_split, 8)]:
        slope, resid = vanishing_order_fit(fam, grid, prec=64)
        checks.append(_check(
            f"vanishing slope {want} ({name})",
            abs(slope - want) < 0.05 and math.isfinite(resid),
            f"slope {slope:.6f}, residual {resid:.2e}",
        ))
    return checks


def suite_graph():
    from .k3graph import (
        build_graph,
        table1,
        table1_m_triples,
        thm91_consistency,
        thm93_check,
        validate_row,
    )

    checks = []
    rows = table1()
    ok = True
    for row in rows:
        try:
            validate_row(row)
        except AssertionError:
            ok = False
    checks.append(_check("all 43 reference rows validate", ok and len(rows) == 43,
                         f"{len(rows)} rows"))

    bad = [row for row in rows if not thm91_consistency(row)["ok"]]
    checks.append(_check("weight/divisor balance identities on every row",
                         not bad, f"{len(bad)} failures"))
    checks.append(_check("rank-13 exponent pattern (40; 4; 16), weight 15",
                         thm93_check()["ok"], ""))

    graph = build_graph(table1_m_triples())
    pairs = {(e.source, e.target) for e in graph.edges}
    checks.append(_check(
        "transition graph closes with no multiple edges",
        len(graph.vertices) >= 43 and len(pairs) == len(graph.edges),
        f"{len(graph.vertices)} vertices, {len(graph.edges)} edges",
    ))
    return checks


# ---------------------------------------------------------------------------

SUITES = {"series": suite_series, "weil": suite_weil, "borcherds": suite_borcherds,
          "siegel": suite_siegel, "graph": suite_graph}


def run_suite(name: str):
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES) + ('all',)}")
    return [check for key, suite in SUITES.items() if name in (key, "all") for check in suite()]
