"""The Lorentzian triple graph, its reference rows, and exact bookkeeping."""
from collections import Counter
from fractions import Fraction

import pytest

from twoelem import LatticeTriple, build_graph, table1, thm91_consistency
from twoelem.k3graph import (
    export_dot,
    export_json,
    m_triple_of_row,
    prop92_obstruction,
    thm93_check,
    validate_row,
)

from oracles import import_json


def _seeds():
    seeds = []
    for row in table1():
        t = m_triple_of_row(row)
        if t not in seeds:
            seeds.append(t)
    return seeds


def test_reference_rows_validate():
    rows = table1()
    assert len(rows) == 43
    assert Counter(r.g for r in rows) == {0: 11, 1: 12, 2: 10, 3: 5, 4: 3, 5: 2}
    for row in rows:
        info = validate_row(row)
        assert all(info["checks"].values())


def test_row_genus_matches_complement():
    for row in table1():
        m = m_triple_of_row(row)
        # genus of the complement triple: (22 - r - l)/2 computed on M
        assert (22 - m.r - m.l) // 2 == row.g


def test_weight_divisor_balance_all_rows():
    for row in table1():
        res = thm91_consistency(row)
        assert res["ok"], (row, res["checks"])
        assert res["nu"] == Fraction(2) ** (res["g"] - 1) * (2 ** res["g"] + 1)


def test_balance_scales_with_multiplier():
    row = table1()[25]
    for ell in (1, 2, 5):
        assert thm91_consistency(row, ell)["ok"]
    for ell in (0, 1.5):
        with pytest.raises(ValueError, match="ell must be a positive integer"):
            thm91_consistency(row, ell)


def test_rank13_exponent_pattern():
    res = thm93_check()
    assert res["ok"]
    assert res["weight"] == 15
    assert res["g"] == 2


def test_obstruction_certificates():
    for expr, g in [("U+D8", 5), ("U+D4+D4", 4),
                    ("U(2)+D4+D4", 3), ("U+E8(2)", 2)]:
        cert = prop92_obstruction(expr)
        assert cert["g"] == g
        assert cert["nonzero_effective"]
        assert cert["dprime_min"] == 2 ** g >= 4


def test_obstruction_scope():
    with pytest.raises(ValueError):
        prop92_obstruction("U(2)+E8(2)")   # exceptional class
    with pytest.raises(ValueError):
        prop92_obstruction("U+E8")         # genus out of the verified range
    with pytest.raises(ValueError):
        prop92_obstruction("U+U+D4")       # not rank 10 / delta 0


def test_graph_closure():
    graph = build_graph(_seeds())
    assert len(graph.vertices) >= 43
    # every edge respects the transition table
    for e in graph.edges:
        assert e.target.r == e.source.r + 1
        if e.kind == "odd":
            assert e.target.l == e.source.l + 1 and e.target.delta == 1
        else:
            assert e.target.l == e.source.l - 1
            assert e.target.delta == (0 if e.kind == "even_wu" else 1)
    # no duplicate (source, target) pairs
    pairs = [(e.source, e.target) for e in graph.edges]
    assert len(pairs) == len(set(pairs))
    # seeds are marked verified, generated vertices are flagged
    for t in _seeds():
        assert not graph.vertices[t].unverified_existence


def test_graph_exports_roundtrip(tmp_path):
    graph = build_graph([LatticeTriple(10, 10, 0), LatticeTriple(10, 8, 0)])
    dot = export_dot(graph)
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("->") == len(graph.edges)
    back = import_json(export_json(graph))
    assert set(back.vertices) == set(graph.vertices)
    assert ([(e.source, e.target, e.kind) for e in back.edges]
            == [(e.source, e.target, e.kind) for e in graph.edges])


def test_repeated_seeds_count_once():
    seeds = _seeds()
    assert export_json(build_graph(seeds + seeds[::-1] + seeds[:5])) == \
        export_json(build_graph(seeds))


def test_exports_deterministic():
    g1 = build_graph(_seeds())
    g2 = build_graph(list(reversed(_seeds())))
    assert export_json(g1).split('"edges"')[0] == \
        export_json(g2).split('"edges"')[0]  # vertex blocks sorted identically
    # byte-identical on repeated runs with identical seeds
    assert export_dot(g1) == export_dot(build_graph(_seeds()))
    assert export_json(g1) == export_json(build_graph(_seeds()))
