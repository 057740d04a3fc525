"""Short-vector enumeration, tube points, truncated products, wall queries."""
import math
from fractions import Fraction

import pytest

from twoelem import (
    TubePoint,
    construct_F,
    direct_sum,
    parse_lattice_expr,
    petersson_norm_point,
    product_eval,
    rescale,
    separating_walls,
    standard_lattice,
)
from twoelem.borcherds import short_vectors
from twoelem.lattices import _inverse_and_det
from twoelem.weil import disc_data


def test_short_vectors_identity_form():
    # m1^2 + m2^2 <= 4: 12 nonzero integer points
    A = [[1, 0], [0, 1]]
    vecs = short_vectors(A, 4)
    assert len(vecs) == 12
    assert all(0 < m[0] ** 2 + m[1] ** 2 <= 4 for m in vecs)
    assert short_vectors(A, Fraction(1, 2)) == []


def test_short_vectors_exactness_near_boundary():
    # boundary exactly attained: q = bound must be included
    A = [[2, 1], [1, 2]]
    vecs = short_vectors(A, 2)
    assert set(vecs) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)}


def test_short_vectors_needs_positive_definite():
    with pytest.raises(ValueError):
        short_vectors([[0, 1], [1, 0]], 4)


def test_tube_point_validation():
    L = standard_lattice("U")
    p = TubePoint(1, L, (1j, 2j))   # (Im z)^2 = 2*1*2 = 4 > 0
    assert p.y_norm2() == 4
    with pytest.raises(ValueError):
        TubePoint(1, L, (1j, -2j))  # negative norm imaginary part
    with pytest.raises(ValueError):
        TubePoint(1, L, (1j,))      # wrong length


def test_period_vector_isotropy():
    L = parse_lattice_expr("U+A1")
    p = TubePoint(2, L, (0.3 + 1.5j, -0.2 + 1.2j, 0.1 + 0.4j))
    eta = p.period_vector()
    amb = p.ambient()
    n = amb.rank
    G = amb.gram
    val = sum(G[i][j] * eta[i] * eta[j] for i in range(n) for j in range(n))
    assert abs(val) < 1e-12
    # <eta, conj(eta)> = 2 (Im z)^2
    h = sum(G[i][j] * eta[i] * eta[j].conjugate()
            for i in range(n) for j in range(n))
    assert abs(h.real - 2 * float(p.y_norm2())) < 1e-9
    assert abs(h.imag) < 1e-12


def test_product_eval_order_consistency():
    # doubling the index cut moves the value by less than the tail bound
    L = parse_lattice_expr("U")
    amb_order = 16
    p = TubePoint(1, L, (4.5j, 4.4j))
    F = construct_F(p.ambient(), order=amb_order)
    v1, tail1 = product_eval(F, p, order=2, min_margin=0.0)
    v2, _ = product_eval(F, p, order=4, min_margin=0.0)
    assert abs(v1 - v2) <= max(tail1, 1e-12) * (1 + abs(v1))
    assert tail1 < 1e-3


def test_product_eval_rejects_shallow_points():
    L = parse_lattice_expr("U")
    p = TubePoint(1, L, (0.9j, 0.7j))
    F = construct_F(p.ambient(), order=8)
    with pytest.raises(ValueError):
        product_eval(F, p, order=4, min_margin=0.25)


def test_product_eval_checks_ambient():
    L = parse_lattice_expr("U")
    p = TubePoint(2, L, (3j, 3j))
    F = construct_F(parse_lattice_expr("U+U"), order=8)  # wrong split (N=1)
    with pytest.raises(ValueError):
        product_eval(F, p, order=2)


def test_petersson_scale_invariance():
    L = parse_lattice_expr("U+U+A1")
    p = TubePoint(1, parse_lattice_expr("U+A1"), (1.8j, 1.7j, 0.2j))
    eta = p.period_vector()
    l_ref = [1, 0, 0, 0, 0]
    base = petersson_norm_point(L, eta, l_ref, 3, value=2.0)
    scaled = petersson_norm_point(L, [2.5 * x for x in eta], l_ref, 3, value=2.0)
    assert math.isclose(base, scaled, rel_tol=1e-9)


def test_petersson_rejects_nonisotropic():
    L = parse_lattice_expr("U")
    with pytest.raises(ValueError):
        petersson_norm_point(L, [1.0, 1.0], [1, 0], 1)


def test_separating_walls_hyperbolic_plus_root():
    L = parse_lattice_expr("U+A1")
    v1 = [1, 2, Fraction(1, 3)]
    v2 = [1, 2, Fraction(-1, 3)]
    walls, realized = separating_walls(L, v1, v2, pairing_bound=10)
    assert realized <= 10
    # only the A1-coordinate walls separate the endpoints
    norms = sorted(w.norm for w in walls)
    assert norms == [Fraction(-2), Fraction(-1, 2)]
    for w in walls:
        assert w.pairing_v1 > 0 > w.pairing_v2


def test_separating_walls_empty_for_equal_points():
    L = parse_lattice_expr("U+A1")
    v = [1, 2, Fraction(1, 3)]
    walls, _ = separating_walls(L, v, v, pairing_bound=6)
    assert walls == []


def test_separating_walls_degenerate_endpoint():
    L = parse_lattice_expr("U+A1")
    with pytest.raises(ValueError):
        separating_walls(L, [1, 1, 0], [1, 2, Fraction(-1, 3)], pairing_bound=6)


def test_separating_walls_checks_lattice_of_F():
    L = parse_lattice_expr("U+A1")
    F = construct_F(parse_lattice_expr("U+U+A1+"), order=4)
    with pytest.raises(ValueError):
        separating_walls(L, [1, 2, Fraction(1, 3)], [1, 2, Fraction(-1, 3)],
                         pairing_bound=10, F=F)


def test_separating_walls_filtered_by_F():
    # kept walls are exactly those whose class has c_lam(lam^2/2) != 0; the
    # class is found by scanning the coset representatives
    L = parse_lattice_expr("U+U(2)+A1")
    F = construct_F(L, 2)
    v1 = [1, 2, Fraction(1, 7), Fraction(1, 11), Fraction(1, 3)]
    v2 = [Fraction(1, 5), Fraction(1, 13), Fraction(3, 2), Fraction(5, 3), Fraction(-1, 3)]
    walls, _ = separating_walls(L, v1, v2, pairing_bound=3)
    kept, _ = separating_walls(L, v1, v2, pairing_bound=3, F=F)
    Ginv = _inverse_and_det(L.gram)[0]
    reps = [(el, el.rep()) for el in disc_data(L).elements]

    def coeff(w):
        lam = [sum(a * m for a, m in zip(row, w.dual_coords)) for row in Ginv]
        el = next(el for el, r in reps if all((a - b).denominator == 1
                                               for a, b in zip(lam, r)))
        return F.components[el.coords].coeff(w.norm / 2)

    want = [w for w in walls if coeff(w)]
    assert 0 < len(want) < len(walls)
    assert [w.dual_coords for w in kept] == [w.dual_coords for w in want]


def test_product_cut_is_exact():
    # <lam, Im z> = 2 + 1e-9 for m = (1, 0): outside the cut 2, inside 2 + 2e-9
    L = parse_lattice_expr("U")
    F = construct_F(parse_lattice_expr("U+U"), order=8)
    p = TubePoint(1, L, (1j * (2 + 1e-9), 2.1j))
    below, _ = product_eval(F, p, order=2, min_margin=0.0)
    above, _ = product_eval(F, p, order=Fraction(2) + Fraction(2, 10 ** 9),
                            min_margin=0.0)
    assert abs(below - above) > 1e-5


def test_product_eval_pinned_at_wall_approach():
    # criterion-10 point at t = 0.01; the acceptance test checks only a slope
    L = parse_lattice_expr("U+E8(2)")
    amb = direct_sum(rescale(standard_lattice("U"), 2), L)
    F = construct_F(amb, order=2)
    p = TubePoint(2, L, tuple([1j * (2.5 + 0.01), 1j * (2.5 - 0.01)] + [0j] * 8))
    val, _ = product_eval(F, p, order=2, min_margin=0.0)
    want = 7739.0559118505635 - 7.582088040696155e-12j
    assert abs(val - want) <= 1e-15 * abs(want)
