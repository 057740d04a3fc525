"""The metaplectic double cover and the Weil representation on (Z/2)^l."""
import cmath
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twoelem import (
    MP2_S,
    MP2_T,
    MP2_Z,
    WeilColumn,
    discriminant_group,
    mp2_word,
    parse_lattice_expr,
    sigma,
    weil_column,
    weil_rep,
)
from twoelem import lattices
from twoelem.mp2 import MP2_ONE, Mp2Element, evaluate_word
from twoelem.weil import (
    _s_step,
    _zeta_shift,
    closed_form_st_l_inverse_column,
    closed_form_v_inverse_column,
    is_unitary,
)

from oracles import b, invariant_vector_check, matrix, q, word_j

LATTICES = ["A1", "A1+", "U(2)", "U+A1+", "A1++A1"]
ZETA_POWS = np.exp(1j * np.pi * np.arange(4) / 4)


def _embed(col):
    """The column as complex numbers, one per class."""
    return float(col.scale) * (ZETA_POWS @ np.array(col.comp))


def test_group_relations():
    # S^2 = Z, (ST)^3 = Z, Z^4 = 1 in the double cover
    Z = MP2_S * MP2_S
    assert Z == MP2_Z
    st3 = (MP2_S * MP2_T) ** 3
    assert st3 == MP2_Z
    z4 = MP2_Z ** 4
    assert (z4.a, z4.b, z4.c, z4.d, z4.branch) == (1, 0, 0, 1, 0)
    assert matrix(MP2_S * MP2_S.inverse()) == ((1, 0), (0, 1))


def test_automorphy_cocycle():
    with mpmath.workprec(100):
        tau = mpmath.mpc("0.3", "1.7")
        for word in ([("S", 1)], [("T", 3)], [("S", 1), ("T", 2), ("S", 3)]):
            j, gtau = word_j(word, tau)
            g = evaluate_word(word)
            # j^2 = c tau + d and gtau is the Moebius image
            assert abs(j ** 2 - (g.c * tau + g.d)) < 1e-24
            assert abs(gtau - (g.a * tau + g.b) / (g.c * tau + g.d)) < 1e-24
            # j agrees with the branch-bit evaluation at double precision
            assert abs(complex(j) - g.j(complex(tau))) < 1e-12


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(st.sampled_from("ST"),
                          st.integers(min_value=1, max_value=3)),
                min_size=0, max_size=5))
def test_word_decomposition_roundtrip(word):
    g = evaluate_word(list(word))
    again = evaluate_word(mp2_word(g))
    assert g == again


# words whose products reach c = 0, d = -1 (S^2, S^4 and negative powers)
TOKENS = st.one_of(
    st.tuples(st.sampled_from("ST"), st.integers(min_value=-4, max_value=4)),
    st.tuples(st.just("S"), st.sampled_from([2, 4, -2])),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(TOKENS, min_size=0, max_size=7))
def test_branch_rule_matches_factorwise_j(word):
    word = list(word)
    g = evaluate_word(word)
    with mpmath.workprec(100):
        tau = mpmath.mpc("0.2718281828", "0.9141592653")
        j, _ = word_j(word, tau)
        # a wrong branch is off by 2|j|, far above the rounding error
        assert abs(g.j(tau) - j) < 1e-20
    assert g * g.inverse() == MP2_ONE
    assert g.inverse() * g == MP2_ONE
    assert evaluate_word(mp2_word(g)) == g


@pytest.mark.parametrize("expr", LATTICES)
def test_generators_unitary(expr):
    L = parse_lattice_expr(expr)
    for g in (MP2_S, MP2_T):
        assert is_unitary(weil_rep(L, g))


@pytest.mark.parametrize("g", [MP2_S, MP2_T], ids=["S", "T"])
def test_generators_unitary_at_dense_cap(g):
    # l = 8: 256 columns, the largest dense matrix
    assert is_unitary(weil_rep(parse_lattice_expr("E8(2)"), g))


@pytest.mark.parametrize("expr", ["A1", "A1+", "U+A1+", "U(2)", "U(2)+U(2)", "U+A1+^3"])
def test_generators_match_fraction_scan(expr):
    # rho(S) and rho(T) rebuilt numerically from the Fraction scan of b and q
    L = parse_lattice_expr(expr)
    A = discriminant_group(L)
    elements = [el.coords for el in A.elements]
    s_scalar = cmath.exp(-1j * cmath.pi * sigma(L) / 4) / len(elements) ** 0.5
    rho_s, rho_t = weil_rep(L, MP2_S), weil_rep(L, MP2_T)
    for j, g in enumerate(elements):
        want_s = [s_scalar * cmath.exp(-2j * cmath.pi * float(b(A, g, d))) for d in elements]
        want_t = [cmath.exp(1j * cmath.pi * float(q(A, g))) * (i == j)
                  for i in range(len(elements))]
        assert np.abs(_embed(rho_s[j]) - want_s).max() < 1e-12
        assert np.abs(_embed(rho_t[j]) - want_t).max() < 1e-12


@pytest.mark.parametrize("expr", LATTICES)
def test_representation_relations(expr):
    L = parse_lattice_expr(expr)
    # rho(S) rho(S) (two Walsh-Hadamard steps) commutes with rho(T), equals
    # rho((ST)^3), and equals the central shortcut rho(S^2) = rho(Z)
    S, T = ("S", 1), ("T", 1)
    for j in range(len(discriminant_group(L).elements)):
        ss = weil_column(L, [S, S], j)
        assert weil_column(L, [S, S, T], j) == weil_column(L, [T, S, S], j)
        assert weil_column(L, [S, T] * 3, j) == ss
        assert ss == weil_column(L, [("S", 2)], j)


@pytest.mark.parametrize("expr", ["U(2)", "U+A1+"])
@pytest.mark.parametrize("word", [[], [("S", 1)], [("T", 1), ("S", 1)]])
def test_weil_column_refuses_start_out_of_range(expr, word):
    # -1 and 2^l are no class indices, with or without an S step in the word
    L = parse_lattice_expr(expr)
    n = len(discriminant_group(L).two_q)
    for start in (-1, n):
        with pytest.raises(ValueError,
                           match=f"class index {start} out of range for {n} classes"):
            weil_column(L, word, start)


@pytest.mark.parametrize("word, message", [
    ([("X", 1)], "unknown generator 'X'"),
    ([("S", 1), ("t", 2)], "unknown generator 't'"),
    ([("T", 1.5)], "exponent must be an integer, got 1.5"),
    ([("S", 1), ("S", "1")], "exponent must be an integer, got '1'"),
])
def test_word_evaluators_refuse_bad_words(word, message):
    # evaluate_word read every generator but "S" as T, and a float exponent
    # ended in a bare TypeError in both evaluators
    with pytest.raises(ValueError, match=message):
        evaluate_word(word)
    with pytest.raises(ValueError, match=message):
        weil_column(parse_lattice_expr("U+A1+"), word)


def test_word_evaluators_read_integral_exponents():
    word = [("S", 1.0), ("T", Fraction(3)), ("S", 3)]
    exact = [("S", 1), ("T", 3), ("S", 3)]
    assert evaluate_word(word) == evaluate_word(exact)
    L = parse_lattice_expr("U+A1+")
    assert weil_column(L, word, 1) == weil_column(L, exact, 1)


def test_mp2_element_reads_integers():
    # integral floats were kept as floats, and mp2_word then raised a TypeError
    g = Mp2Element(2.0, 1, 1, 1.0, branch=Fraction(1))
    assert (g.a, g.b, g.c, g.d, g.branch) == (2, 1, 1, 1, 1)
    assert all(type(x) is int for x in (g.a, g.d, g.branch))
    assert evaluate_word(mp2_word(g)) == g
    for args, name in [((1.5, 0, 0, 1), "a"), ((1, 0, 0, 1, 0.5), "branch"),
                       ((1, "0", 0, 1), "b")]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            Mp2Element(*args)


@pytest.mark.parametrize("expr", ["A1+^2+A1^4", "A1+^2+A1^8"])
@pytest.mark.parametrize("r", [6, 10])
def test_long_words_stay_exact(expr, r):
    # (ST)^3 = S^2 in Mp2(Z); without renormalisation 3r S steps wrap int64
    L = parse_lattice_expr(expr)
    long_word = [("S", 1), ("T", 1)] * (3 * r)
    assert weil_column(L, long_word, 0) == weil_column(L, [("S", 2 * r % 8)], 0)


def test_s_step_exact_beyond_int64():
    # Python ints do not wrap: an entry of 2^100 gives the same block, with
    # the scale times 2^100 (l = 3 also takes the sqrt(2) map)
    for expr in ["A1^2", "A1^3", "U(2)+U(2)"]:
        data = discriminant_group(parse_lattice_expr(expr))
        n = len(data.two_q)
        for j in (0, n - 1):
            e_j = [[int(x == j) for x in range(n)]] + [[0] * n for _ in range(3)]
            big = [[c * 2 ** 100 for c in row] for row in e_j]
            col = _s_step(Fraction(1), e_j, data)
            assert _s_step(Fraction(1), big, data) == WeilColumn(col.scale * 2 ** 100, col.comp)


def test_class_tables_make_no_square_table(monkeypatch):
    # at l = 12 one 2^l x 2^l int64 table alone would take 128 MiB
    monkeypatch.setattr(lattices, "_GROUPS", {})   # build the form afresh
    L = parse_lattice_expr("A1+^2+A1^10")
    tracemalloc.start()
    try:
        A = discriminant_group(L)
        assert len(A.elements) == len(A.two_q) == len(A.packed_by) == 2 ** 12
        assert A.one_index == 2 ** 12 - 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("expr", LATTICES)
def test_closed_form_columns(expr):
    L = parse_lattice_expr(expr)
    for l_exp in range(4):
        g = evaluate_word([("S", 1), ("T", l_exp)]).inverse()
        word_col = weil_column(L, mp2_word(g))
        assert word_col == closed_form_st_l_inverse_column(L, l_exp)
    gV = evaluate_word([("S", 7), ("T", 2), ("S", 1)]).inverse()
    assert weil_column(L, mp2_word(gV)) == closed_form_v_inverse_column(L)


def _mul(a, b):
    """Product in Q(zeta_8) of coefficient 4-tuples, with zeta^4 = -1."""
    out = [Fraction(0)] * 4
    for k in range(4):
        for m in range(4):
            sign = 1 if k + m < 4 else -1
            out[(k + m) % 4] += sign * a[k] * b[m]
    return out


def _entries(col):
    """The column as exact coefficient 4-tuples, one per class."""
    return [[col.scale * c for c in coeffs] for coeffs in zip(*col.comp)]


def test_word_product_matches_matrix_route():
    L = parse_lattice_expr("U(2)")
    word = [("T", 2), ("S", 1), ("T", 1), ("S", 3)]
    mats = {"S": [_entries(c) for c in weil_rep(L, MP2_S)],
            "T": [_entries(c) for c in weil_rep(L, MP2_T)]}
    # rho(word) e_0 by dense matrix-vector products, right to left
    n = len(mats["S"])
    vec = [[Fraction(int(i == 0)), 0, 0, 0] for i in range(n)]
    for gen, exp in reversed(word):
        for _ in range(exp):
            cols = mats[gen]
            vec = [[sum(x) for x in zip(*(_mul(cols[k][i], vec[k]) for k in range(n)))]
                   for i in range(n)]
    assert _entries(weil_column(L, mp2_word(evaluate_word(word)))) == vec


def test_invariant_vector_eigenvalue():
    L = parse_lattice_expr("A1")
    g = evaluate_word([("T", 1), ("S", 1), ("T", 4), ("S", 7)])
    assert g.c % 4 == 0
    k = invariant_vector_check(L, g)
    assert 0 <= k < 8
    e0 = [[1, 0], [0, 0], [0, 0], [0, 0]]
    assert weil_column(L, mp2_word(g)) == WeilColumn(Fraction(1), _zeta_shift(e0, k))
    # numeric check against the dense matrices
    mats = {"S": np.array([_embed(c) for c in weil_rep(L, MP2_S)]).T,
            "T": np.array([_embed(c) for c in weil_rep(L, MP2_T)]).T}
    vec = np.array([1, 0], dtype=complex)
    for gen, exp in reversed([("T", 1), ("S", 1), ("T", 4), ("S", 7)]):
        vec = np.linalg.matrix_power(mats[gen], exp) @ vec
    assert abs(vec[0] - cmath.exp(1j * cmath.pi * k / 4)) < 1e-12 and abs(vec[1]) < 1e-12
