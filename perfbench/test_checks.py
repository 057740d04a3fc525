"""Each correctness check accepts a right result and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""
import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
from checks import CheckFailed  # noqa: E402


def _report(closed, series, ledger):
    return (f"lattice          X\nweight (closed)  {closed}\nweight (series)  {series}\n"
            f"divisor classes  (class coords, exponent) -> multiplicity\n"
            f"ledger           {ledger}\ne_0 expansion    ...\n")


# -- reference ---------------------------------------------------------------

def test_summand_table():
    assert reference.split_summands("A1++A1++A1+A1") == ["A1+", "A1+", "A1", "A1"]
    assert reference.invariants("U+U+E8(2)+A1") == (13, 9, -9)
    assert reference.invariants("U(2)+U(2)+D4") == (8, 6, -4)
    assert reference.invariants("A1+^2+A1") == (3, 3, 1)
    assert not reference.has_three_halves_class("A1++A1+")
    assert reference.has_three_halves_class("A1++A1++A1")
    with pytest.raises(ValueError):
        reference.split_summands("U+B7")


def test_box_enumeration_a2():
    roots = {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}
    assert reference.box_short_vectors([[2, 1], [1, 2]], 2) == roots


def test_eta_and_theta_references():
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    with mpmath.workprec(80):
        want = mpmath.gamma(0.25) / (2 * mpmath.pi ** 0.75)
        assert abs(reference.eta(1j, 64) / want - 1) < 1e-18
        # theta_00(i) = sum exp(-pi n^2)
        direct = mpmath.nsum(lambda n: mpmath.exp(-mpmath.pi * n * n), [-mpmath.inf, mpmath.inf])
        assert abs(reference.theta00_at_i(64) / direct - 1) < 1e-18


# -- table-reports -------------------------------------------------------------

def test_report_weight():
    # U+U+A1: rank 5, l 1, genus 2 -> weight 5 * 11 = 55, D'' multiplicity 5
    good = {"dprime": 1, "dsecond": 5, "extra_char": 0}
    checks.check_report("U+U+A1", 2, _report(55, 55, good))
    with pytest.raises(CheckFailed):
        checks.check_report("U+U+A1", 2, _report(56, 56, good))
    with pytest.raises(CheckFailed):
        checks.check_report("U+U+A1", 2, _report(55, 54, good))
    with pytest.raises(CheckFailed):
        checks.check_report("U+U+A1", 3, _report(55, 55, good))


def test_report_ledger():
    checks.check_report("U+U", 2, _report(60, 60, {"dprime": 1, "dsecond": None, "extra_char": 0}))
    with pytest.raises(CheckFailed):
        checks.check_report("U+U+A1", 2, _report(55, 55, {"dprime": 1, "dsecond": 4, "extra_char": 0}))
    with pytest.raises(CheckFailed):
        checks.check_report("U+U+A1", 2, _report(55, 55, {"dprime": 2, "dsecond": 5, "extra_char": 0}))
    with pytest.raises(CheckFailed):
        checks.check_report("U+U+A1", 2, _report(55, 55, {"dprime": 1, "dsecond": None, "extra_char": 0}))
    with pytest.raises(CheckFailed):
        checks.check_report("U+U", 2, _report(60, 60, {"dprime": 1, "dsecond": 5, "extra_char": 0}))


def test_graph():
    rows = [(0, "A1++A1+", 1), (1, "U+A1+", 1)]
    data = {"table1": [{"g": g, "perp": p, "delta": d} for g, p, d in rows],
            "edges": [{"source": [10, 8, 1], "target": [11, 9, 1], "kind": "odd"},
                      {"source": [10, 8, 1], "target": [11, 7, 0], "kind": "even_wu"}]}
    checks.check_graph(json.dumps(data), rows)
    with pytest.raises(CheckFailed):
        checks.check_graph(json.dumps(data), rows + [(2, "U+U", 0)])
    data["edges"].append(dict(data["edges"][0], kind="even_nonwu"))
    with pytest.raises(CheckFailed):
        checks.check_graph(json.dumps(data), rows)


# -- coset-oracle --------------------------------------------------------------

def test_oracle():
    with mpmath.workprec(128):
        direct = [mpmath.mpc("6587.1234567", "-12.5"), mpmath.mpc("-3.25", "0.125")]
        close = [v + mpmath.mpf("1e-25") for v in direct]
        checks.check_oracle(list(zip(close, direct)))
        moved = [direct[0] * (1 + mpmath.mpf("1e-15")), direct[1]]
        with pytest.raises(CheckFailed):
            checks.check_oracle(list(zip(moved, direct)))


def test_f0_head():
    k = 8
    good = "N=1 trunc=2\n-1/1  1 0 0 0\n0/1  24 0 0 0\n1/1  276 0 0 0\n"
    checks.check_f0(good, k)
    with pytest.raises(CheckFailed):          # constant term off by one
        checks.check_f0(good.replace("0/1  24", "0/1  25"), k)
    with pytest.raises(CheckFailed):          # extra pole
        checks.check_f0("N=1 trunc=2\n-2/1  1 0 0 0\n" + good.split("\n", 1)[1], k)
    with pytest.raises(CheckFailed):          # wrong leading coefficient
        checks.check_f0(good.replace("-1/1  1", "-1/1  2"), k)
    with pytest.raises(CheckFailed):          # coefficient outside Q
        checks.check_f0(good.replace("1/1  276 0 0 0", "1/1  276 0 1 0"), k)


# -- siegel-theta ----------------------------------------------------------------

def test_slope():
    checks.check_slope(1.0003, 1)
    with pytest.raises(CheckFailed):
        checks.check_slope(0.9, 1)
    with pytest.raises(CheckFailed):
        checks.check_slope(4.06, 4)


def test_invariance_and_vanishing():
    checks.check_invariant(mpmath.mpf("2.5e-300"), mpmath.mpf("2.5e-300") * (1 + 1e-14))
    with pytest.raises(CheckFailed):
        checks.check_invariant(2.5, 2.5 * (1 + 1e-10))
    checks.check_vanishes(1e-17, 1e-12)
    with pytest.raises(CheckFailed):
        checks.check_vanishes(1e-9, 1e-12)
    checks.check_paths_agree(1.0, 1.0 + 1e-13)
    with pytest.raises(CheckFailed):
        checks.check_paths_agree(1.0, 1.0 + 1e-8)


def test_chi1_and_theta00():
    tau = -0.3 + 1.3j
    for prec in (53, 64):
        with mpmath.workprec(prec + 20):
            chi1 = 2 * reference.eta(tau, prec) ** 3   # theta_00 theta_01 theta_10 = 2 eta^3
            checks.check_chi1_eta(chi1, tau, prec)
            with pytest.raises(CheckFailed):
                checks.check_chi1_eta(chi1 * (1 + mpmath.mpf("1e-9")), tau, prec)
            t00 = reference.theta00_at_i(prec)
            checks.check_theta00_at_i(t00, prec)
            with pytest.raises(CheckFailed):
                checks.check_theta00_at_i(t00 * (1 + mpmath.mpf(2) ** (20 - prec)), prec)


# -- tube-product ------------------------------------------------------------------

def test_wall_slope():
    ts = [0.01 * 2 ** -j for j in range(5)]
    checks.check_wall_slope(ts, [3.7 * t * (1 + 0.1 * t) for t in ts])
    with pytest.raises(CheckFailed):
        checks.check_wall_slope(ts, [3.7 * t ** 0.85 for t in ts])


def test_cut_step():
    checks.check_cut_step(100 + 1j, 1e-3, 100.05 + 1j)
    with pytest.raises(CheckFailed):
        checks.check_cut_step(100 + 1j, 1e-5, 100.05 + 1j)


U = ((0, 1), (1, 0))


def test_walls_hand_case():
    # in U, lam^2 = 2 m1 m2: the only norm -2 walls are +-(1, -1), and
    # (1, -1) pairs 2 with (3, 1) and -2 with (1, 3)
    v1, v2 = [3, 1], [1, 3]
    norms = (-2, Fraction(-1, 2))
    wall = ((1, -1), Fraction(-2), Fraction(2), Fraction(-2))
    checks.check_walls(U, v1, v2, norms, 3, [wall])
    with pytest.raises(CheckFailed):          # missing wall
        checks.check_walls(U, v1, v2, norms, 3, [])
    with pytest.raises(CheckFailed):          # wrong pairing
        checks.check_walls(U, v1, v2, norms, 3, [wall[:2] + (Fraction(3), wall[3])])
    with pytest.raises(CheckFailed):          # wrong sign: does not read as separating
        checks.check_walls(U, v1, v2, norms, 3,
                           [((-1, 1), Fraction(-2), Fraction(-2), Fraction(2))])
    with pytest.raises(CheckFailed):          # listed twice
        checks.check_walls(U, v1, v2, norms, 3, [wall, wall])


def test_walls_rank_four():
    gram = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2))
    v1 = [Fraction(3), Fraction(1), Fraction(1, 7), Fraction(2, 11)]
    v2 = [Fraction(1), Fraction(3), Fraction(-1, 5), Fraction(1, 9)]
    norms = (-2, Fraction(-1, 2))
    walls = sorted(reference.slab_walls(gram, v1, v2, norms, 3))
    assert len(walls) >= 2
    checks.check_walls(gram, v1, v2, norms, 3, walls)
    with pytest.raises(CheckFailed):
        checks.check_walls(gram, v1, v2, norms, 3, walls[1:])


def test_short_vectors():
    A = [[2, 1], [1, 2]]
    roots = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
    checks.check_short_vectors(A, 2, roots)
    with pytest.raises(CheckFailed):
        checks.check_short_vectors(A, 2, roots[:-1])
    with pytest.raises(CheckFailed):
        checks.check_short_vectors(A, 2, roots + [(1, 0)])
    with pytest.raises(CheckFailed):
        checks.check_short_vectors(A, 2, roots + [(1, 1)])


# -- the benchmark's declaration and tracer ------------------------------------------

def test_benchmark_json_lists_the_traced_metrics():
    from tracing import LAYER_METRICS
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == dict(LAYER_METRICS, **{"trace.solve_s": "s"})
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "solve_s", "peak_rss_mb"]
    from workloads import WORKLOADS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tracer_spans_named_layers_inside_their_module():
    sys.path.insert(0, str(HERE.parent / "src"))
    import twoelem  # noqa: F401
    from twoelem import siegel
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    siegel.chi_g(siegel.SiegelPoint(((0.1 + 1.2j,),)), 53)
    names = [s[0] for s in tracer.spans]
    assert names == ["siegel.chi_g"] + ["siegel.theta_constant.float"] * 3
    assert all(s[3] == 0 for s in tracer.spans[1:])
    metrics = tracer.layer_metrics()
    assert metrics["siegel.theta_constant.float.calls"] == 3
    total = tracer.spans[0][2] - tracer.spans[0][1]
    parts = metrics["siegel.chi_g.self_s"] + metrics["siegel.theta_constant.float.self_s"]
    assert abs(parts - total) < 1e-9
    # even_characteristics is called from inside siegel and is no named layer
    assert "siegel.even_characteristics" not in names
