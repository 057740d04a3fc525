"""Short-vector enumeration, tube points, truncated products, wall queries."""
import cmath
import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from twoelem import (
    QSeries,
    SiegelPoint,
    TubePoint,
    VVForm,
    construct_F,
    direct_sum,
    discriminant_group,
    parse_lattice_expr,
    product_eval,
    rescale,
    rhs_invariant,
    separating_walls,
    standard_lattice,
)
from twoelem.borcherds import _lines, _slab_majorant, short_vectors
from twoelem.vvmf import borcherds_weight
from twoelem.lattices import _eliminate, ellipsoid_lines

from oracles import (class_of, inverse, period_vector, petersson_norm_point, rep, slab_majorant,
                     slab_walls)


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


def test_short_vectors_keeps_ill_conditioned_boundary():
    # Q(m) = (m1 + p m2 / 7)^2 + m2^2 / 3 reaches the bound 49/3 at (-p, 7)
    p = 8611121951947
    A = [[1, Fraction(p, 7)], [Fraction(p, 7), Fraction(p * p, 49) + Fraction(1, 3)]]
    vecs = short_vectors(A, Fraction(49, 3))
    assert (-p, 7) in vecs and (p, -7) in vecs


@st.composite
def diagonalized_forms(draw):
    """(A, bound, D, Uinv) with A = U^t diag(D) U and U = W T unimodular.

    T is upper unitriangular with entries up to 10^12, which makes A
    ill-conditioned but keeps every search layer narrow; W is a product of
    small shears in any direction.
    """
    n = draw(st.integers(min_value=1, max_value=3))
    D = [Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 3))) for _ in range(n)]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    Uinv = [row[:] for row in U]

    def shear(i, j, c):  # U <- (1 + c E_ij) U
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        for row in Uinv:
            row[j] -= c * row[i]

    if n > 1:
        for _ in range(draw(st.integers(0, 3))):
            i, j = sorted(draw(st.permutations(range(n)))[:2])
            shear(i, j, draw(st.integers(-10 ** 12, 10 ** 12)))
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.permutations(range(n)))[:2]
            shear(i, j, draw(st.integers(-2, 2)))
    A = [[sum(U[k][a] * D[k] * U[k][b] for k in range(n)) for b in range(n)]
         for a in range(n)]
    # a bound attained by some lattice vector, so the boundary is always hit
    x = [draw(st.integers(-3, 3)) for _ in range(n)]
    bound = sum(d * xi * xi for d, xi in zip(D, x))
    return A, bound, D, Uinv


@settings(deadline=None, max_examples=80)
@given(diagonalized_forms())
def test_short_vectors_match_box_scan(form):
    # the reference scans the box |x_k| <= sqrt(bound / D_k) in x = U m
    A, bound, D, Uinv = form
    boxes = [range(-math.isqrt(math.floor(bound / d)), math.isqrt(math.floor(bound / d)) + 1)
             for d in D]
    want = set()
    for x in itertools.product(*boxes):
        if any(x) and sum(d * xi * xi for d, xi in zip(D, x)) <= bound:
            want.add(tuple(sum(a * xi for a, xi in zip(row, x)) for row in Uinv))
    got = short_vectors(A, bound)
    assert len(got) == len(set(got))
    assert set(got) == want


@settings(deadline=None, max_examples=80)
@given(diagonalized_forms(), st.lists(st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 2), 1]),
                                      min_size=3, max_size=3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_ellipsoid_lines_match_box_scan(form, centre, x):
    # centre c = U^-1 c_x for a centre c_x in diagonal coordinates with
    # entries in {0, +-1/2, +-1}, and a bound attained at U^-1 x
    A, _, D, Uinv = form
    n = len(D)
    c_x, x = centre[:n], x[:n]
    c = [sum(a * ci for a, ci in zip(row, c_x)) for row in Uinv]
    bound = sum(d * (xi - ci) ** 2 for d, xi, ci in zip(D, x, c_x))
    boxes = []
    for d, ci in zip(D, c_x):
        s = math.isqrt(math.floor(bound / d)) + 1
        boxes.append(range(math.floor(ci) - s, math.ceil(ci) + s + 1))
    want = set()
    for y in itertools.product(*boxes):
        if sum(d * (yi - ci) ** 2 for d, yi, ci in zip(D, y, c_x)) <= bound:
            want.add(tuple(sum(a * yi for a, yi in zip(row, y)) for row in Uinv))
    den = math.lcm(*(v.denominator for row in A for v in row))
    elim = _eliminate([[int(v * den) for v in row] for row in A])
    got = []
    for lo, hi, rest in ellipsoid_lines(elim, bound * den, c):
        assert lo <= hi
        got.extend((m0,) + rest for m0 in range(lo, hi + 1))
    assert len(got) == len(set(got))
    assert set(got) == want


@st.composite
def definite_forms(draw):
    """B^t B + s I: a positive definite integer form of rank 1 to 6."""
    n = draw(st.integers(1, 6))
    B = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    s = draw(st.integers(1, 3))
    return [[sum(B[k][i] * B[k][j] for k in range(n)) + s * (i == j) for j in range(n)]
            for i in range(n)]


@settings(deadline=None, max_examples=60)
@given(definite_forms(), st.fractions(0, 10, max_denominator=4))
def test_half_space_search_walks_each_pair_once(M, bound):
    # the half-space lines hold one of each pair +-x of the full search, the
    # origin once: rest has its last nonzero coordinate > 0, or rest = 0 and m_0 >= 0
    elim = _eliminate(M)
    full = {(m0,) + rest for lo, hi, rest in ellipsoid_lines(elim, bound)
            for m0 in range(lo, hi + 1)}
    half = []
    for lo, hi, rest in ellipsoid_lines(elim, bound, half=True):
        assert lo <= hi
        assert next((r > 0 for r in reversed(rest) if r), lo >= 0)
        half.extend((m0,) + rest for m0 in range(lo, hi + 1))
    seen = Counter(half)
    assert set(seen) <= full
    for x in full:
        assert seen[x] + seen[tuple(-t for t in x)] == (1 if any(x) else 2)
    with pytest.raises(ValueError, match="takes no centre"):
        list(ellipsoid_lines(elim, bound, [0] * len(M), half=True))


def test_short_vectors_needs_positive_definite():
    with pytest.raises(ValueError):
        short_vectors([[0, 1], [1, 0]], 4)


def test_short_vectors_refuse_a_non_symmetric_matrix():
    # m^t A m <= 4 for A = [[2, 3], [0, 2]] has 12 solutions m != 0 in a box
    # scan, as the symmetric part has; an elimination on A itself finds 6
    A = [[2, 3], [0, 2]]
    box = {m for m in itertools.product(range(-3, 4), repeat=2)
           if any(m) and sum(m[i] * A[i][j] * m[j] for i in range(2) for j in range(2)) <= 4}
    assert len(box) == 12
    assert set(short_vectors([[2, Fraction(3, 2)], [Fraction(3, 2), 2]], 4)) == box
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        short_vectors(A, 4)
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        list(_lines(A, Fraction(4)))


def test_short_vectors_refuse_a_non_square_matrix():
    for A in ([[2, 1], [1]], [[2, 1]], [[2], [1, 2]]):
        with pytest.raises(ValueError, match="matrix must be square"):
            short_vectors(A, 4)
        with pytest.raises(ValueError, match="matrix must be square"):
            list(_lines(A, Fraction(4)))


def test_tube_point_validation():
    L = standard_lattice("U")
    p = TubePoint(1, L, (1j, 2j))   # (Im z)^2 = 2*1*2 = 4 > 0
    assert p.y_norm2() == 4
    with pytest.raises(ValueError):
        TubePoint(1, L, (1j, -2j))  # negative norm imaginary part
    with pytest.raises(ValueError):
        TubePoint(1, L, (1j,))      # wrong length


def test_tube_point_refuses_non_finite_coordinates():
    # a NaN real part made product_eval return nan + nanj, an infinite
    # imaginary part an OverflowError from Fraction
    L = standard_lattice("U")
    nan, inf = float("nan"), float("inf")
    for z in ((complex(nan, 1), 2j), (1j, complex(0, inf)), (complex(inf, 1), 2j),
              (1j, complex(0, nan))):
        with pytest.raises(ValueError, match="tube coordinates must be finite"):
            TubePoint(1, L, z)


def test_tube_point_refuses_non_integral_level():
    L = standard_lattice("U")
    for N in (2.5, Fraction(5, 2), 0, -1):
        with pytest.raises(ValueError, match="N must be a positive integer"):
            TubePoint(N, L, (1j, 2j))
    p = TubePoint(2.0, L, (1j, 2j))
    assert type(p.N) is int and p.ambient().gram == parse_lattice_expr("U(2)+U").gram


def test_split_is_built_once(monkeypatch):
    # ten products at one point run one elimination each, the majorant's;
    # two restrictions along U(1) + A1+ build their split once
    from twoelem import borcherds, lattices, vvmf
    calls = []
    eliminate = lattices._eliminate

    def counted(mat):
        calls.append(len(mat))
        return eliminate(mat)

    p = TubePoint(1, standard_lattice("U"), (0.1 + 1.5j, 0.2 + 1.4j))
    F = construct_F(p.ambient(), order=4)
    monkeypatch.setattr(lattices, "_eliminate", counted)
    monkeypatch.setattr(borcherds, "_eliminate", counted)
    values = [product_eval(F, p, order=1, min_margin=0.0) for _ in range(10)]
    assert len(calls) == 10 and len(set(values)) == 1
    assert p.ambient() is p.ambient()
    L = parse_lattice_expr("A1+")
    F = construct_F(direct_sum(standard_lattice("U"), L), order=4)
    lattices.hyperbolic_split.cache_clear()
    vvmf.restrict(F, 1, L)
    vvmf.restrict(F, 1, L)
    info = lattices.hyperbolic_split.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_borcherds_bounds_fail_clearly():
    L = parse_lattice_expr("U+A1")
    v1, v2 = [1, 2, Fraction(1, 3)], [1, 2, Fraction(-1, 3)]
    with pytest.raises(ValueError, match="norm_set"):
        separating_walls(L, v1, v2, norm_set=())
    for bound in (-1, 0, math.inf, math.nan):
        with pytest.raises(ValueError, match="pairing_bound"):
            separating_walls(L, v1, v2, pairing_bound=bound)
    with pytest.raises(ValueError, match="norm_set entry"):
        separating_walls(L, v1, v2, norm_set=(-2, math.nan))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="v1 must be a finite rational"):
            separating_walls(L, [1, 2, bad], v2)
        with pytest.raises(ValueError, match="v2 must be a finite rational"):
            separating_walls(L, v1, [bad, 2, Fraction(-1, 3)])
    # an endpoint of the wrong length is refused, not cut or padded
    with pytest.raises(ValueError, match="v1 must have 3 entries"):
        separating_walls(L, v1 + [1], v2)
    with pytest.raises(ValueError, match="v2 must have 3 entries"):
        separating_walls(L, v1, v2[:2])
    for bound in (math.inf, math.nan, "x"):
        with pytest.raises(ValueError, match="bound must be a finite rational"):
            short_vectors([[1, 0], [0, 1]], bound)
    p = TubePoint(1, standard_lattice("U"), (400j, 399.9j))
    F = construct_F(p.ambient(), order=4)
    for order in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="order must be a finite rational"):
            product_eval(F, p, order=order)


def test_period_vector_isotropy():
    L = parse_lattice_expr("U+A1")
    p = TubePoint(2, L, (0.3 + 1.5j, -0.2 + 1.2j, 0.1 + 0.4j))
    eta = period_vector(p)
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


def test_product_eval_majorant_follows_principal_part():
    # F = q^{-2} e_0: the two indices with lam^2 = -4 and 0 < <lam, y> <= 2
    # have dual coordinates (-1, 2) and (2, -1)
    L = standard_lattice("U")
    p = TubePoint(1, L, (0.1 + 1.5j, 0.2 + 1.4j))
    F = VVForm(p.ambient(), Fraction(0), [QSeries({-2: 1}, trunc=40)])
    value, _ = product_eval(F, p, order=2, min_margin=0.0)
    z1, z2 = p.z
    want = (1 - cmath.exp(2j * cmath.pi * (-z1 + 2 * z2))) \
        * (1 - cmath.exp(2j * cmath.pi * (2 * z1 - z2)))
    assert abs(value - want) < 1e-12
    assert abs(value - 1) > 1e-4


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
    eta = period_vector(p)
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
    det, adj, _, _ = _eliminate(L.gram)
    A = discriminant_group(L)
    reps = [(i, rep(A, el.coords)) for i, el in enumerate(A.elements)]

    def coeff(w):
        lam = [Fraction(sum(a * m for a, m in zip(row, w.dual_coords)), det) for row in adj]
        i = next(i for i, r in reps if all((a - b).denominator == 1
                                           for a, b in zip(lam, r)))
        return F.components[i].coeff(w.norm / 2)

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


def test_rhs_invariant_powers():
    # ||Psi||^(2^g ell) ||chi_g^8||^(2 ell): ell = 2 squares ell = 1, and at
    # g = 0 (chi_0 = 1) ell = 1 leaves (||Psi||^2)^(1/2)
    p = TubePoint(1, standard_lattice("U"), (0.1 + 4.5j, -0.2 + 4.4j))
    F = construct_F(p.ambient(), order=16)
    value, _ = product_eval(F, p, order=2, min_margin=0.05)
    w, _ = borcherds_weight(p.ambient())
    psi_norm2 = petersson_norm_point(p.ambient(), period_vector(p), [1, 0, 0, 0], w, value=value)
    assert math.isclose(rhs_invariant(p, F, SiegelPoint(())), math.sqrt(psi_norm2), rel_tol=1e-12)
    sig = SiegelPoint(((0.1 + 1.2j,),))
    one, two = rhs_invariant(p, F, sig), rhs_invariant(p, F, sig, ell=2)
    assert one > 0 and math.isclose(two, one ** 2, rel_tol=1e-12)
    for ell in (0, 1.5):
        with pytest.raises(ValueError, match="ell must be a positive integer"):
            rhs_invariant(p, F, sig, ell=ell)


def _product_eval_pointwise(F, point, order, min_margin):
    """The per-index product: every short vector of the majorant in turn,
    with lam^2 a Fraction, its class from `class_of` and its coefficient
    from `QSeries.coeff`."""
    L, N, n = point.L, point.N, point.L.rank
    data = discriminant_group(point.ambient())
    index = {el.coords: i for i, el in enumerate(data.elements)}
    det, adj, _, _ = _eliminate(L.gram)
    Ginv = [[Fraction(a, det) for a in row] for row in adj]
    y, y2, cut = point.y(), point.y_norm2(), Fraction(order)
    A = [[2 * y[i] * y[j] / y2 - Ginv[i][j] for j in range(n)] for i in range(n)]
    low = min([0] + [ser.min_exp() for ser in F.components if ser.coeffs])

    def coeff(nn, m, exponent):
        ser = F.components[index[class_of(data, (0, nn) + m)]]
        if exponent >= ser.trunc:
            raise ValueError(f"product needs coefficient at exponent {exponent} beyond series "
                             f"truncation {ser.trunc}; rebuild F with a larger order")
        return float(ser.coeff(exponent))

    factors, worst = [], None
    for m in short_vectors(A, 2 * cut ** 2 / y2 - 2 * low):
        pair = sum(mi * yi for mi, yi in zip(m, y))
        if not 0 < pair <= cut:
            continue
        lam2 = sum(mi * sum(g * mj for g, mj in zip(row, m)) for mi, row in zip(m, Ginv))
        pair_z = sum(mi * zi for mi, zi in zip(m, point.z))
        hit = False
        for nn in range(N):
            c = coeff(nn, m, lam2 / 2)
            if c:
                hit = True
                factors.append((pair, pair_z, Fraction(nn, N), c))
        if hit:
            margin = float(pair) - 2 * math.sqrt(max(float(lam2), 0.0) / 2)
            worst = margin if worst is None else min(worst, margin)
    if worst is not None and worst < min_margin:
        raise ValueError(
            "tube point too shallow for convergence: worst direction margin "
            f"{worst:.4f} < {min_margin} (deepen Im z accordingly)")
    for nn in range(1, N):
        c = coeff(nn, (0,) * n, Fraction(0))
        if c:
            factors.append((0, 0j, Fraction(nn, N), c))
    factors.sort(key=lambda f: (f[0], f[2], f[1].real, f[1].imag))
    log_acc = 0j
    for _, pair_z, shift, c in factors:
        log_acc += c * cmath.log(1 - cmath.exp(2j * cmath.pi * (pair_z + float(shift))))
    tail_exp = -2 * math.pi * float(cut) + 4 * math.pi * math.sqrt(float(cut ** 2 / y2))
    return cmath.exp(log_acc), (math.exp(tail_exp) if tail_exp < 0 else float("inf"))


def _outcome(f, *args):
    """f(*args), or the message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("expr, z", [
    ("U+A1", (0.25 + 1.5j, -0.125 + 1.25j, 0.1 + 0.375j)),   # first Im coordinate > 0
    ("A1+U", (0.05 - 0.25j, 0.1 + 1.5j, -0.2 + 1.25j)),       # < 0
    ("A1+A1+", (0.1 + 0j, -0.03 + 1.25j)),                    # = 0
    ("U+A1", (0.1 + 2.5j, -0.05 + 2.3j, 0.013 + 0.37j)),      # not dyadic
    # (Im z)^2 = 2.19 at |Im z| ~ 300: the grid 2^-10 puts the rounded Im z
    # below half its norm, so the majorant needs 11 bits
    ("A1+A1+A1+", (0.01 + 195.9j, 0.02 + 186.9j, 270.7573j)),
    ("A1+", (0.1 + 1.3j,)),                                    # rank 1
])
@pytest.mark.parametrize("N", [1, 2])
def test_product_eval_matches_pointwise_reference(expr, z, N):
    # the line walk on the slab-centred majorant clips each line to the cut
    # slab and reads lam^2, class and coefficient in integers; the per-index
    # loop on the origin-centred majorant is the reference, also where it raises
    p = TubePoint(N, parse_lattice_expr(expr), z)
    F = construct_F(p.ambient(), order=8)
    for cut, margin in [(1, 0.0), (2, 0.0), (Fraction(5, 2), 0.0), (3, 0.0), (2, 0.05)]:
        want = _outcome(_product_eval_pointwise, F, p, cut, margin)
        assert _outcome(product_eval, F, p, cut, margin) == want
    if all(Fraction(w.imag).denominator <= 8 for w in z):
        # only <lam, Im z> = 5/2 lies in (5/2 - 1/16, 5/2]: some index with a
        # nonzero coefficient is on the cut
        below = _product_eval_pointwise(F, p, Fraction(5, 2) - Fraction(1, 16), 0.0)
        assert below != _product_eval_pointwise(F, p, Fraction(5, 2), 0.0)


# the Lorentzian lattices drawn below, each with a vector of positive norm
_TIMELIKE = {"U": (1, 1), "U+A1": (1, 1, 0), "A1+A1+": (0, 1), "A1+": (1,),
             "U(2)+A1": (1, 1, 0), "U+A1+A1": (1, 1, 0, 0)}


@st.composite
def slab_cases(draw):
    """(L, y, cut, low): a Lorentzian L, y of norm >= 1/4, cut in (0, 3].

    y is a draw plus the least multiple of a timelike t that gives it norm
    >= 1/4, which exists since norm(y + m t) grows like m^2 norm(t)."""
    expr = draw(st.sampled_from(list(_TIMELIKE)))
    L = parse_lattice_expr(expr)
    y = [Fraction(draw(st.floats(-3, 3))) for _ in range(L.rank)]
    while L.norm(y) < Fraction(1, 4):
        y = [yi + ti for yi, ti in zip(y, _TIMELIKE[expr])]
    cut = draw(st.fractions(Fraction(1, 16), 3, max_denominator=16))
    low = draw(st.sampled_from([0, Fraction(-1, 4), Fraction(-1, 2), -1, -2]))
    return L, y, cut, low


@settings(deadline=None, max_examples=60)
@given(slab_cases())
@example((parse_lattice_expr("A1+A1+A1+"), [Fraction(x) for x in (195.9, 186.9, 270.7573)],
          Fraction(3), -1))   # y~ on the grid 2^-11
def test_slab_majorant_premise(case):
    # every index of the slab 0 < <lam, y> <= cut with lam^2 >= 2 low, taken
    # from the origin-centred majorant, satisfies the centred inequality
    # exactly, and the search on the centred majorant finds it
    L, y, cut, low = case
    n = L.rank
    det, adj, _, _ = _eliminate(L.gram)
    Ginv = [[Fraction(a, det) for a in row] for row in adj]
    y2 = L.norm(y)
    A_old = [[2 * y[i] * y[j] / y2 - Ginv[i][j] for j in range(n)] for i in range(n)]
    M, bound, c = _slab_majorant(L, y, cut, low)
    found = {(v,) + rest for lo, hi, rest in _lines(M, bound, c) for v in range(lo, hi + 1)}
    for m in short_vectors(A_old, 2 * cut ** 2 / y2 - 2 * low):
        lam2 = sum(mi * sum(g * mj for g, mj in zip(row, m)) for mi, row in zip(m, Ginv))
        if 0 < sum(mi * yi for mi, yi in zip(m, y)) <= cut and lam2 >= 2 * low:
            x = [mi - ci for mi, ci in zip(m, c)]
            assert sum(xi * sum(a * xj for a, xj in zip(row, x)) for xi, row in zip(x, M)) <= bound
            assert m in found


@functools.lru_cache(maxsize=None)
def _bench_points():
    """(F, generic, walls): the benchmark's U(2)+U+D4 form at order 6, its
    generic point and its five points approaching a wall (t = 0.01 / 2^j)."""
    L = parse_lattice_expr("U+D4")
    det, adj, _, _ = _eliminate([row[2:] for row in L.gram[2:]])
    y_d4 = [-0.07 * float(sum(Fraction(a, det) for a in row)) for row in adj]
    z_d4 = [complex(0.013 * (i + 1), y) for i, y in enumerate(y_d4)]
    generic = TubePoint(2, L, tuple([0.1 + 2.5j, -0.05 + 2.3j] + z_d4))
    walls = [TubePoint(2, L, tuple([1j * (2.5 + t), 1j * (2.5 - t)] + z_d4))
             for t in (0.01 * 2 ** -j for j in range(5))]
    return construct_F(generic.ambient(), order=6), generic, walls


@functools.lru_cache(maxsize=None)
def _rounding_cases():
    """(F, point, cut, min_margin) where the rounded majorant must act as the
    exact one: the benchmark's generic point at cuts 1/64 .. 6 and its first
    wall point, criterion 10's first wall point, and ranks 1 and 2; two of
    them raise, one too shallow and one beyond F's truncation."""
    F, generic, walls = _bench_points()
    cases = [(F, generic, cut, 0.05) for cut in (Fraction(1, 64), Fraction(1, 8), 1, 2, 3, 4, 5, 6)]
    cases += [(F, generic, 6, 0.5), (F, walls[0], 2, 0.0)]
    p = TubePoint(1, standard_lattice("U"), (0.1 + 1.5j, 0.2 + 1.25j))
    cases.append((construct_F(p.ambient(), order=2), p, 4, 0.0))
    L = parse_lattice_expr("U+E8(2)")
    F10 = construct_F(direct_sum(rescale(standard_lattice("U"), 2), L), order=2)
    cases.append((F10, TubePoint(2, L, tuple([2.51j, 2.49j] + [0j] * 8)), 2, 0.0))
    for expr, z in (("A1+", (0.1 + 1.3j,)), ("A1+A1+", (0.1 + 0j, -0.03 + 1.25j))):
        p = TubePoint(2, parse_lattice_expr(expr), z)
        Fp = construct_F(p.ambient(), order=8)
        cases += [(Fp, p, cut, margin) for cut, margin in
                  ((1, 0.0), (2, 0.0), (Fraction(5, 2), 0.0), (3, 0.0), (2, 0.05))]
    return cases


def _low(F):
    return min([0] + [ser.min_exp() for ser in F.components if ser.coeffs])


def test_slab_majorant_search_is_small():
    # cut 6 at the generic point of the benchmark's U(2)+U+D4: the
    # origin-centred majorant on the exact Im z searched 2,183 lines and
    # 6,157 points
    F, p, _ = _bench_points()
    lines = list(_lines(*_slab_majorant(p.L, p.y(), Fraction(6), _low(F))))
    assert len(lines) <= 1100
    assert sum(hi - lo + 1 for lo, hi, _ in lines) <= 2500


def test_rounded_majorant_gives_the_exact_products(monkeypatch):
    # the search meets the exact majorant's points in the same order on the
    # rounded superset, so value, tail and error message are all ==
    from twoelem import borcherds
    got = [_outcome(product_eval, F, p, cut, margin) for F, p, cut, margin in _rounding_cases()]
    monkeypatch.setattr(borcherds, "_slab_majorant", slab_majorant)
    want = [_outcome(product_eval, F, p, cut, margin) for F, p, cut, margin in _rounding_cases()]
    assert got == want
    assert any(isinstance(x, str) for x in want) and any(isinstance(x, tuple) for x in want)


def test_rounded_majorant_is_tight_and_short():
    # the rounded form searches at most 1.25x the exact form's lines (floor
    # division to 16-bit entries keyed on the largest one is not positive
    # definite at cut 1/64 and takes cut 1/8 from 17 lines to 32), and at the
    # benchmark's points its entries have at most 20 bits (the exact form's
    # have about 47)
    for F, p, cut, _ in _rounding_cases():
        args = (p.L, p.y(), Fraction(cut), _low(F))
        rounded, exact = (sum(1 for _ in _lines(*maj(*args))) for maj in (_slab_majorant, slab_majorant))
        assert rounded <= 1.25 * exact, (p.L.label, cut, rounded, exact)
    F, generic, walls = _bench_points()
    for p, cut in [(generic, cut) for cut in range(1, 7)] + [(p, 2) for p in walls]:
        M, _, _ = _slab_majorant(p.L, p.y(), Fraction(cut), _low(F))
        assert max(abs(x) for row in M for x in row).bit_length() <= 20


@settings(deadline=None, max_examples=60)
@given(slab_cases())
@example((parse_lattice_expr("A1+A1+"), [Fraction(821502375098295, 2 ** 51),
                                         Fraction(2460011326299437, 2 ** 51)],
          Fraction(23, 16), Fraction(-1, 4)))
@example((parse_lattice_expr("U+A1"), [Fraction(832281850372487, 2 ** 48),
                                       Fraction(483657097488759, 2 ** 51),
                                       Fraction(-157644238872133, 2 ** 49)],
          Fraction(17, 16), Fraction(-1, 2)))
def test_rounded_majorant_contains_the_exact_ellipsoid(case):
    # M <= M0 / 2^b, and the bound pays the centre's move by the triangle
    # inequality: every integer point of the exact majorant's ellipsoid is in
    # the rounded one's (at the examples, the moved centre alone drops one)
    found = {(v,) + rest for lo, hi, rest in _lines(*_slab_majorant(*case)) for v in range(lo, hi + 1)}
    for lo, hi, rest in _lines(*slab_majorant(*case)):
        assert all((v,) + rest in found for v in range(lo, hi + 1))


@st.composite
def cone_segments(draw):
    """(L, v1, v2, norm_set, pairing_bound) on U+A1 or U+A1+A1: v1, v2 of norm
    >= 1/4 pairing positively with the timelike t, so in its cone component,
    and a norm set that may hold 0."""
    expr = draw(st.sampled_from(["U+A1", "U+A1+A1"]))
    L, t = parse_lattice_expr(expr), _TIMELIKE[expr]
    vs = []
    for _ in range(2):
        v = [draw(st.fractions(-2, 2, max_denominator=6)) for _ in t]
        while L.norm(v) < Fraction(1, 4) or L.pairing(v, t) <= 0:
            v = [vi + ti for vi, ti in zip(v, t)]
        vs.append(v)
    norms = draw(st.sets(st.sampled_from([0, -2, Fraction(-1, 2), -1, -4]), min_size=1))
    bound = draw(st.sampled_from([1, Fraction(3, 2), 2, 3]))
    return L, vs[0], vs[1], norms, bound


@settings(deadline=None, max_examples=60)
@given(cone_segments())
def test_separating_walls_match_box_scan(case):
    # the half-space walk lists each wall once, by its sign with p1 > 0, and
    # agrees with the box scan on the walls, on `realized` and on raising
    L, v1, v2, norms, bound = case
    try:
        want = slab_walls(L, v1, v2, norms, bound)
    except ValueError:
        with pytest.raises(ValueError, match="endpoint lies on the wall"):
            separating_walls(L, v1, v2, norm_set=norms, pairing_bound=bound)
        return
    walls, realized = separating_walls(L, v1, v2, norm_set=norms, pairing_bound=bound)
    got = [(w.dual_coords, w.norm, w.pairing_v1, w.pairing_v2) for w in walls]
    assert len({w.dual_coords for w in walls}) == len(walls)
    assert all(w.pairing_v1 > 0 for w in walls)
    assert (got, realized) == want
    # v1 moved onto the first wall lam^perp of negative norm keeps its pairing
    # with v2, and stays in the cone (lam^2 < 0), so lam is a candidate at 0
    m, lam2, p1, _ = next((w for w in want[0] if w[1] < 0), (None, 0, 0, 0))
    if m is not None:
        Ginv = inverse(L.gram)
        on = [x - p1 / lam2 * sum(g * mj for g, mj in zip(row, m)) for x, row in zip(v1, Ginv)]
        with pytest.raises(ValueError, match="endpoint lies on the wall"):
            separating_walls(L, on, v2, norm_set=norms, pairing_bound=bound)


def test_product_eval_refuses_nonpositive_cut():
    p = TubePoint(1, standard_lattice("U"), (400j, 399.9j))
    F = construct_F(p.ambient(), order=4)
    for order in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="must be positive"):
            product_eval(F, p, order=order)


def test_product_eval_refuses_a_non_finite_margin():
    # a NaN margin let the shallow point U at cut 1 (worst margin -2.03)
    # through to cmath.exp, which overflowed
    p = TubePoint(1, standard_lattice("U"), (0.1 + 0.3j, 0.2 + 0.25j))
    F = construct_F(p.ambient(), order=4)
    for margin in (math.nan, math.inf, -math.inf, 1j, None):
        with pytest.raises(ValueError, match="min_margin must be a finite rational number"):
            product_eval(F, p, order=1, min_margin=margin)
    with pytest.raises(ValueError, match=r"worst direction margin -2\.0284 < 0 "):
        product_eval(F, p, order=1, min_margin=0)


def test_rhs_invariant_at_large_im_z():
    # at Im z = (400, 399.9) the Petersson factor (2 (Im z)^2)^60 is about
    # 1e347, beyond the double range; at g = 0 and ell = 2 the invariant is
    # ||Psi||^2 = (2 (Im z)^2)^60 |Psi|^2 itself
    p = TubePoint(1, standard_lattice("U"), (400j, 399.9j))
    F = construct_F(p.ambient(), order=16)
    value, _ = product_eval(F, p, order=2)
    got = rhs_invariant(p, F, SiegelPoint(()), ell=2)
    y2 = 2 * p.y_norm2()
    want = 60 * mpmath.log(mpmath.mpf(y2.numerator) / y2.denominator) + 2 * mpmath.log(abs(value))
    assert mpmath.isfinite(got) and got > 1e300
    assert abs(mpmath.log(got) - want) <= 1e-13 * abs(want)


def test_product_eval_beyond_truncation():
    # m = (1, 2) has <lam, Im z> = 4 and lam^2 / 2 = 2, the truncation of F
    p = TubePoint(1, standard_lattice("U"), (0.1 + 1.5j, 0.2 + 1.25j))
    F = construct_F(p.ambient(), order=2)
    with pytest.raises(ValueError, match="beyond series truncation 2;"):
        product_eval(F, p, order=4, min_margin=0.0)
    with pytest.raises(ValueError, match="beyond series truncation 2;"):
        _product_eval_pointwise(F, p, 4, 0.0)
