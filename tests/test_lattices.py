"""Even lattices, discriminant forms, and the (r, l, delta) triple calculus."""
import cmath
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twoelem import (
    Lattice,
    LatticeTriple,
    characteristic_element,
    direct_sum,
    discriminant_group,
    genus_g,
    genus_k,
    parse_lattice_expr,
    perp_transition,
    rescale,
    signature,
    sigma,
    standard_lattice,
    two_elementary_invariants,
)
from twoelem import lattices
from twoelem.k3graph import table1
from twoelem.lattices import _clear, _eliminate, _positive_definite
from twoelem.weil import weil_column

from oracles import b, class_of, q, rep


def test_standard_grams():
    assert standard_lattice("U").det() == -1
    assert standard_lattice("E8").det() == 1
    assert standard_lattice("D4").det() == 4
    assert standard_lattice("A1").gram == ((-2,),)
    assert standard_lattice("A1plus").gram == ((2,),)


def test_signatures():
    assert signature(standard_lattice("U")) == (1, 1)
    assert signature(standard_lattice("E8")) == (0, 8)
    assert signature(parse_lattice_expr("U+U+E8")) == (2, 10)
    assert sigma(parse_lattice_expr("U+U+E8")) == -8


@st.composite
def symmetric_matrices(draw, diagonal):
    """Small symmetric integer matrices with diagonal entries from `diagonal`."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(diagonal)
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.integers(min_value=-3, max_value=3))
    return m


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


@settings(deadline=None, max_examples=150)
@given(symmetric_matrices(st.just(0)))
def test_elimination_det_and_adjugate(m):
    # zero diagonals force the x_i += x_j congruence at every pivot search
    det, adj, minors, _ = _eliminate(m)
    assert det == _leibniz_det(m)
    if det == 0:
        assert adj is None
    else:
        n = len(m)
        assert len(minors) == n and minors[-1] == det
        assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in adj] \
            == [[det * int(i == j) for j in range(n)] for i in range(n)]


@settings(deadline=None, max_examples=100)
@given(symmetric_matrices(st.sampled_from([-4, -2, 0, 0, 2, 4])))
def test_signature_matches_eigenvalues(m):
    eig = np.linalg.eigvalsh(np.array(m, dtype=float))
    assume(np.abs(eig).min() >= 1e-6)
    assert signature(Lattice(tuple(map(tuple, m)))) == (int((eig > 0).sum()),
                                                        int((eig < 0).sum()))
    assert _positive_definite(_eliminate(m)) == bool((eig > 0).all())


@pytest.mark.parametrize("expr, want", [
    ("A1", (1, 1, 1)),
    ("A1+", (1, 1, 1)),
    ("U", (2, 0, 0)),
    ("U(2)", (2, 2, 0)),
    ("U+U+E8(2)", (12, 8, 0)),
    ("U+U(2)+D4+D4", (12, 6, 0)),
    ("U+U+E8(2)+A1", (13, 9, 1)),
    ("U+U(2)+E8(2)", (12, 10, 0)),
])
def test_triples(expr, want):
    t = two_elementary_invariants(parse_lattice_expr(expr))
    assert (t.r, t.l, t.delta) == want


def test_parse_expressions():
    L = parse_lattice_expr("A1+^2+A1^3")
    assert L.rank == 5
    assert signature(L) == (2, 3)
    with pytest.raises(ValueError):
        parse_lattice_expr("U+Q7")


def test_discriminant_group_sizes():
    assert len(discriminant_group(standard_lattice("U"))) == 1
    assert len(discriminant_group(rescale(standard_lattice("U"), 2))) == 4
    assert len(discriminant_group(standard_lattice("D4"))) == 4


def test_discriminant_group_refuses_other_orders():
    # the one support gate: an elementary divisor 3 is refused at construction
    with pytest.raises(ValueError, match="lattice is not 2-elementary: orders"):
        discriminant_group(parse_lattice_expr("U(3)+A1"))


@pytest.mark.parametrize("expr", ["U(2)+U+D4", "U+U(2)+A1^3", "A1+^2+A1^6"])
def test_class_of_inverts_rep(expr):
    # index_of is the position of class_of in `elements`, on the coset
    # representatives of every class and on random integer vectors
    L = parse_lattice_expr(expr)
    A = discriminant_group(L)
    for el in A.elements:
        x = [sum(g * r for g, r in zip(row, rep(A, el.coords))) for row in L.gram]
        assert class_of(A, x) == el.coords
        assert A.elements[A.index_of(x)] == el
    rng = random.Random(7)
    for _ in range(200):
        x = [rng.randint(-9, 9) for _ in range(L.rank)]
        assert A.elements[A.index_of(x)].coords == class_of(A, x)


def test_class_of_rejects_non_dual_vectors():
    A = discriminant_group(parse_lattice_expr("U+U(2)+A1^3"))
    with pytest.raises(ValueError):
        class_of(A, [0, 0, 0, 0, Fraction(1, 2), 0, 0])
    with pytest.raises(ValueError):
        class_of(A, [0, 0, 0, 0, 1, 0])


def test_characteristic_element_property():
    # b(char, x) = q(x) mod 1 for every class x
    for expr in ["A1", "A1++A1", "U+U+E8(2)+A1", "U(2)+A1", "U+U", "U+E8"]:
        L = parse_lattice_expr(expr)
        A = discriminant_group(L)
        char = characteristic_element(L)
        for x in A.elements:
            assert (b(A, char, x.coords) - q(A, x.coords)) % 1 == 0
    # delta = 0 forces the zero class
    assert characteristic_element(parse_lattice_expr("U(2)")) == (0, 0)


# 2-ranks of the summands drawn below
_SUMMAND_L = {"U": 0, "U(2)": 2, "A1": 1, "A1+": 1, "D4": 2, "E8(2)": 8}


@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from(sorted(_SUMMAND_L)), min_size=1, max_size=6)
       .filter(lambda names: sum(_SUMMAND_L[n] for n in names) <= 8))
def test_tables_match_exhaustive_scan(names):
    # the generator tables against the Fraction scan over every class
    L = parse_lattice_expr("+".join(names))
    A = discriminant_group(L)
    data = discriminant_group(L)
    elements = A.elements
    assert [el.coords for el in data.elements] == [el.coords for el in elements]
    qvals = [q(A, el.coords) for el in elements]
    assert data.two_q == [2 * q for q in qvals]
    assert two_elementary_invariants(L).delta == int(any(q % 1 for q in qvals))
    char = elements[data.one_index].coords
    assert all((b(A, char, x.coords) - q(A, x.coords)) % 1 == 0 for x in elements)
    # 4b(x, y) of every pair of class representatives, from the Gram matrix
    reps = np.array([[int(2 * c) for c in rep(A, el.coords)] for el in elements], dtype=np.int64)
    four_b = reps @ np.array(L.gram, dtype=np.int64) @ reps.T
    # rho(S) e_j is i^{-sigma/2} 2^{-l/2} times the signs (-1)^{2b(x_j, y)} over all y
    scalar = cmath.exp(-1j * cmath.pi * data.sigma / 4) / 2 ** (data.l / 2)
    zeta_pows = np.exp(1j * np.pi * np.arange(4) / 4)
    for j in range(len(elements)):
        col = weil_column(L, [("S", 1)], j)
        signs = (1 - 2 * (four_b[j] // 2 % 2)).tolist()
        assert all(row == [row[0] * s for s in signs] for row in col.comp)
        assert abs(float(col.scale) * sum(z * row[0] for z, row in zip(zeta_pows, col.comp))
                   - scalar) < 1e-12


@pytest.mark.parametrize("expr, delta, char", [
    ("A1+^2+A1^10", 1, (1,) * 12),
    ("U(2)+D4+A1+^2+A1^6", 1, (0, 0, 0, 0) + (1,) * 8),
    ("U+D4+E8(2)+A1+^2", 1, (0,) * 8 + (1, 1, 0, 0)),
])
def test_invariants_at_two_rank_12(expr, delta, char):
    # values computed by the exhaustive scan before the tables replaced it
    L = parse_lattice_expr(expr)
    t = two_elementary_invariants(L)
    assert (t.l, t.delta) == (12, delta)
    assert characteristic_element(L) == char


@pytest.mark.parametrize("expr, l", [("A1^18", 18), ("U+A1^20", 20)])
def test_invariants_read_no_class_table(expr, l, monkeypatch):
    # delta and the characteristic class come from the l generators; at
    # l = 18 a bit table over the 2^l classes alone would take 36 MiB
    monkeypatch.setattr(lattices, "_GROUPS", {})   # build the form afresh
    L = parse_lattice_expr(expr)
    tracemalloc.start()
    try:
        t = two_elementary_invariants(L)
        char = characteristic_element(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert (t.l, t.delta) == (l, 1)
    assert char == (1,) * l


def _adjugate_characteristic(A):
    """The characteristic class by the integer route: gamma = adj(B) Q mod 2,
    with the adjugate of the 0/1 matrix B from `_eliminate` (det B is odd)."""
    Q, B = A._tables
    bits = [[row >> (A.l - 1 - j) & 1 for j in range(A.l)] for row in B]
    return tuple(sum(a * q for a, q in zip(row, Q)) % 2 for row in _eliminate(bits).adj)


def test_f2_characteristic_matches_adjugate_on_table_rows():
    for row in table1():
        A = discriminant_group(parse_lattice_expr(row.perp_expr))
        assert A.characteristic == _adjugate_characteristic(A), row.perp_expr


@settings(deadline=None, max_examples=40)
@given(st.lists(st.sampled_from(["U", "U(2)", "A1", "A1+", "D4", "E7", "E8", "E8(2)"]),
                min_size=1, max_size=5))
def test_f2_characteristic_matches_adjugate(names):
    A = discriminant_group(parse_lattice_expr("+".join(names)))
    assert A.characteristic == _adjugate_characteristic(A)


def test_coords_read_the_index_bits():
    # every class of the 43 rows' groups, 2-ranks up to 11
    for row in table1():
        A = discriminant_group(parse_lattice_expr(row.perp_expr))
        assert [A.coords(i) for i in range(len(A))] == [el.coords for el in A.elements]


def test_rep_matches_the_coset_representative_of_the_coords():
    # `DiscGroup.rep` on each index against the representative of the
    # class's coordinates, for every class of the 43 rows' groups
    for row in table1():
        A = discriminant_group(parse_lattice_expr(row.perp_expr))
        assert [A.rep(i) for i in range(len(A))] == [rep(A, el.coords) for el in A.elements]


@pytest.mark.parametrize("index", [-1, 4, 99])
def test_class_index_out_of_range_is_refused(index):
    # U + U(2) has 4 classes; an index past them has no class, whatever its low bits
    A = discriminant_group(parse_lattice_expr("U+U(2)"))
    with pytest.raises(ValueError, match=f"class index {index} out of range for 4 classes"):
        A.coords(index)
    with pytest.raises(ValueError, match=f"class index {index} out of range for 4 classes"):
        A.rep(index)


def test_parse_is_memoised():
    expr = "U+U(2)+D4"
    assert parse_lattice_expr(expr) is parse_lattice_expr("+".join(expr.split("+")))
    for _ in range(2):   # a failed parse is not stored
        with pytest.raises(ValueError, match="Q7"):
            parse_lattice_expr("U+Q7")


def test_clear_keeps_integer_lists():
    xs = [3, -2, 0]
    assert _clear(xs) == (xs, 1)
    ints, d = _clear([Fraction(4, 2), 5])
    assert (ints, d) == ([2, 5], 1) and all(type(x) is int for x in ints)
    assert _clear([Fraction(1, 2), Fraction(-1, 3), 1]) == ([3, -2, 6], 6)


def test_pairing_and_norm():
    U = standard_lattice("U")
    assert U.pairing((1, 0), (0, 1)) == 1
    assert U.norm((1, 1)) == 2
    for x, y in [((1, 0, 1), (0, 1)), ((1,), (1,))]:
        with pytest.raises(ValueError, match="vectors must have 2 entries"):
            U.pairing(x, y)
    assert direct_sum(U, U).rank == 4


def test_genus_invariants():
    t = two_elementary_invariants(parse_lattice_expr("U+U+E8(2)+A1"))
    assert genus_g(t) == 0
    assert genus_k(t) == 2
    t10 = LatticeTriple(10, 10, 0)
    assert genus_g(t10) == 1


def test_transitions():
    t = LatticeTriple(2, 2, 0)
    assert perp_transition(t, "odd") == LatticeTriple(3, 3, 1)
    assert perp_transition(t, "even_wu") == LatticeTriple(3, 1, 0)
    assert perp_transition(t, "even_nonwu") == LatticeTriple(3, 1, 1)
    with pytest.raises(ValueError):
        perp_transition(LatticeTriple(2, 0, 0), "even_wu")  # needs l >= 1
    with pytest.raises(ValueError):
        perp_transition(t, "sideways")


@st.composite
def triples(draw):
    r = draw(st.integers(min_value=2, max_value=18))
    k = draw(st.integers(min_value=0, max_value=min(4, r // 2)))
    d = draw(st.integers(min_value=0, max_value=1))
    return LatticeTriple(r, r - 2 * k, d)


@settings(deadline=None, max_examples=60)
@given(triples())
def test_transition_preserves_parity(t):
    for kind in ("odd", "even_wu", "even_nonwu"):
        try:
            nt = perp_transition(t, kind)
        except ValueError:
            continue
        assert nt.r == t.r + 1
        assert (nt.r - nt.l) % 2 == 0
        assert nt.l >= 0


def test_triple_validation():
    with pytest.raises(ValueError):
        LatticeTriple(3, 2, 0)  # parity violation
    with pytest.raises(ValueError):
        LatticeTriple(2, 3, 0)  # l > r


def test_rescale_doubles_gram():
    U2 = rescale(standard_lattice("U"), 2)
    assert U2.gram == ((0, 2), (2, 0))
    t = two_elementary_invariants(U2)
    assert (t.l, t.delta) == (2, 0)


def test_lattice_refuses_non_integral_entries():
    for x in (2.5, Fraction(5, 2), float("nan"), float("inf"), "2"):
        with pytest.raises(ValueError, match="gram entry must be an integer"):
            Lattice(((x,),))
    for x in (2.0, Fraction(2)):
        assert Lattice(((x,),)).gram == ((2,),)


def test_rescale_refuses_all_but_positive_integers():
    U = standard_lattice("U")
    for k in (1.5, Fraction(3, 2), 0, -2, float("inf")):
        with pytest.raises(ValueError, match="rescale factor must be a positive integer"):
            rescale(U, k)
    for k in (2, 2.0, Fraction(2)):
        assert rescale(U, k) == Lattice(((0, 2), (2, 0)), "U(2)")


@st.composite
def integer_matrices(draw):
    """n x m integer matrices, n, m <= 6 and |entries| <= 6, some rows and columns zero."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    mat = [[draw(st.integers(-6, 6)) for _ in range(m)] for _ in range(n)]
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        mat[i] = [0] * m
    for j in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        for row in mat:
            row[j] = 0
    return mat


@settings(deadline=None, max_examples=200)
@given(integer_matrices())
def test_smith_normal_form(mat):
    d, U, V = lattices.smith_normal_form(mat)
    n, m = len(mat), len(mat[0])
    UMV = [[sum(U[i][k] * mat[k][l] * V[l][j] for k in range(n) for l in range(m))
            for j in range(m)] for i in range(n)]
    assert UMV == [[d[i] if i == j else 0 for j in range(m)] for i in range(n)]
    assert _leibniz_det(U) in (1, -1) and _leibniz_det(V) in (1, -1)
    nonzero = [x for x in d if x]
    assert d == nonzero + [0] * (len(d) - len(nonzero))
    assert all(x > 0 for x in nonzero)
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def test_standard_lattices_and_hyperbolic_split():
    E8 = standard_lattice("E8")
    assert [E8.gram[i][j] for i, j in [(0, 2), (1, 3), (2, 3), (6, 7), (0, 1)]] == [1, 1, 1, 1, 0]
    assert (standard_lattice("D6").label, standard_lattice("D6").det()) == ("D6", 4)
    L = parse_lattice_expr("U+A1")
    split = lattices.hyperbolic_split(2, L)
    assert split is lattices.hyperbolic_split(2, L)
    assert split == direct_sum(rescale(standard_lattice("U"), 2), L)
    assert split.label == "U(2)+U+A1"


def test_gram_must_be_even_symmetric():
    with pytest.raises(ValueError):
        Lattice(((1,),))
    with pytest.raises(ValueError):
        Lattice(((2, 1), (0, 2)))
