"""Reference routes the tests check twoelem against.

Each function here is a second, plainer way to something the package
computes, or a helper that only the tests read; none of it is package API.
A discriminant class is passed as its coordinates tuple, as
`DiscGroup.coords` gives it.
"""
import itertools
import json
import math
from fractions import Fraction

from twoelem.k3graph import K3Edge, K3Graph, K3Vertex
from twoelem.lattices import LatticeTriple, _clear, _dot, _quad, discriminant_group
from twoelem.modforms import theta_a1
from twoelem.mp2 import MP2_S, MP2_T, mp2_word
from twoelem.series import QSeries
from twoelem.weil import weil_column


# ---------------------------------------------------------------------------
# discriminant forms, by Fractions on coset representatives
# ---------------------------------------------------------------------------

def rep(A, coords):
    """Canonical coset representative in L^dual of the class, coordinates in [0,1)."""
    picked = [(c, g) for c, g in zip(coords, A.generators) if c]
    if not picked:
        return [Fraction(0)] * A.parent.rank
    cs, gens = zip(*picked)
    return [_dot(cs, col) % 1 for col in zip(*gens)]


def class_of(A, x):
    """Coordinates of the class of the dual vector v with integer coordinates x = G v.

    With U G V = diag(d), v = sum_p (U x)_p g_p, so the class is
    (U x)[positions] mod 2.  Raises ValueError unless x has the lattice's
    rank and integral entries (v in L^dual).
    """
    if len(x) != A.parent.rank:
        raise ValueError("vector length must match lattice rank")
    if any(xi != int(xi) for xi in x):
        raise ValueError("vector is not in the dual lattice")
    x = [int(xi) for xi in x]
    return tuple(_dot(A._u[p], x) % 2 for p in A._positions)


def q(A, coords) -> Fraction:
    """q_L of the class in Q/2Z, represented in [0, 2)."""
    return A.parent.norm(rep(A, coords)) % 2


def b(A, c1, c2) -> Fraction:
    """b_L of the two classes in Q/Z, represented in [0, 1)."""
    return A.parent.pairing(rep(A, c1), rep(A, c2)) % 1


# ---------------------------------------------------------------------------
# tube points and the Petersson norm
# ---------------------------------------------------------------------------

def period_vector(point):
    """The isotropic vector (-z^2/2, 1/N, z) of a `TubePoint` in ambient coordinates."""
    G = point.L.gram
    n = point.L.rank
    z2 = sum(G[i][j] * point.z[i] * point.z[j] for i in range(n) for j in range(n))
    return [-z2 / 2, 1.0 / point.N] + list(point.z)


def petersson_norm_point(L, eta, l_ref, p, value=1.0):
    """K^p |value|^2 with K = <eta, conj(eta)> / |<eta, l_ref>|^2.

    eta must be isotropic with <eta, conj(eta)> > 0 and pair nontrivially
    with the reference vector; the result is invariant under rescaling eta.
    """
    G = L.gram
    n = L.rank
    tol = 1e-9   # relative slack of the float isotropy and positivity tests
    eta = [complex(x) for x in eta]
    if len(eta) != n or len(l_ref) != n:
        raise ValueError("vector length must match lattice rank")

    def pair(u, v):
        return sum(G[i][j] * u[i] * v[j] for i in range(n) for j in range(n))

    norm_sq = pair(eta, eta)
    h = pair(eta, [x.conjugate() for x in eta])
    ref = pair(eta, [complex(x) for x in l_ref])
    scale = max(abs(h), 1.0)
    if abs(norm_sq) > tol * scale:
        raise ValueError(f"eta is not isotropic: <eta,eta> = {norm_sq}")
    if h.real <= 0 or abs(h.imag) > tol * scale:
        raise ValueError("<eta, conj(eta)> must be positive")
    if abs(ref) <= tol:
        raise ValueError("eta pairs trivially with the reference vector")
    K = h.real / abs(ref) ** 2
    return K ** float(p) * abs(complex(value)) ** 2


def inverse(A):
    """The inverse of a nonsingular rational matrix, by Gauss-Jordan on Fractions."""
    n = len(A)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(A)]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                rows[i] = [x - rows[i][k] * y for x, y in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def slab_majorant(L, y, cut, low):
    """The exact slab majorant (M0, bound, c) of `borcherds._slab_majorant`,
    before its rounding: M0 the primitive integer multiple of
    (a + 1/y~^2) y~ y~^t - G^-1 (entries of 40 bits and more), c = mid G y~/y~^2
    with its full denominator.  The derivation is in that docstring."""
    n, G, det, adj = L.rank, L.gram, L._elim.det, L._elim.adj
    Y, den = _clear(y)
    qy, s = _quad(Y, G, Y), 2 ** 10
    while True:
        T = [(2 * s * x + den) // (2 * den) for x in Y]
        q, p = _quad(T, G, T), _quad(Y, G, T)
        if 2 * q * den * den >= qy * s * s and p > 0:
            break
        s *= 2
    e2 = (cut ** 2 * den * den / qy - 2 * low) * Fraction(p * p - qy * q, qy)
    e = Fraction(math.isqrt(math.ceil(e2) - 1) + 1 if e2 > 0 else 0, s)
    t_hi = Fraction(math.ceil(cut * p * den / qy), s) + e
    mid, h, rest = (t_hi - e) / 2, (t_hi + e) / 2, t_hi ** 2 * s * s / q - 2 * low
    r = rest / ((n - 1) * h * h) if n > 1 else Fraction(1)
    a = Fraction(2) ** (r.numerator.bit_length() - r.denominator.bit_length())
    w, D = a.numerator * q + a.denominator * s * s, a.denominator * q * s * s * det
    M = [[w * det * ti * tj - D // det * aij for tj, aij in zip(T, row)]
         for ti, row in zip(T, adj)]
    g = math.gcd(*(x for row in M for x in row)) * (1 if det > 0 else -1)
    return ([[x // g for x in row] for row in M], (a * h * h + rest) * D / g,
            [mid * s * _dot(row, T) / q for row in G])


def slab_walls(L, v1, v2, norm_set, pairing_bound):
    """The walls of `borcherds.separating_walls`, by a box scan of the slab.

    lam = G^-1 m runs over the dual lattice in dual coordinates m.  The slab
    |<lam, v_i>| <= pairing_bound lies in {Q(m) <= bound} for the positive
    definite Q = <lam, v1>^2 + <lam, v2>^2 - lam^2 and bound = 2 pairing_bound^2
    - min(norm_set), hence in the box |m_i| <= sqrt(bound (Q^-1)_ii).  Returns
    (walls, realized): the (m, lam^2, <lam, v1>, <lam, v2>) with lam^2 in
    norm_set and <lam, v1> > 0 > <lam, v2>, sorted by (lam^2, m), and the
    largest |<lam, v_i>| among them (0 if none).  Raises a ValueError if an
    m != 0 of the slab with lam^2 in norm_set pairs to 0 with v1 or v2.
    """
    n, Ginv = L.rank, inverse(L.gram)
    Q = [[v1[i] * v1[j] + v2[i] * v2[j] - Ginv[i][j] for j in range(n)] for i in range(n)]
    bound = 2 * Fraction(pairing_bound) ** 2 - min(norm_set)
    box = [math.isqrt(math.floor(bound * d[i])) for i, d in enumerate(inverse(Q))]
    walls = []
    for m in itertools.product(*(range(-k, k + 1) for k in box)):
        p1, p2 = _dot(m, v1), _dot(m, v2)
        if not any(m) or max(abs(p1), abs(p2)) > pairing_bound:
            continue
        lam2 = sum(m[i] * Ginv[i][j] * m[j] for i in range(n) for j in range(n))
        if lam2 not in norm_set:
            continue
        if p1 == 0 or p2 == 0:
            raise ValueError(f"endpoint lies on the wall {m}")
        if p1 > 0 > p2:
            walls.append((m, lam2, p1, p2))
    walls.sort(key=lambda w: (w[1], w[0]))
    return walls, max([Fraction(0)] + [max(p1, -p2) for _, _, p1, p2 in walls])


# ---------------------------------------------------------------------------
# Weil representation, metaplectic group, forms
# ---------------------------------------------------------------------------

def invariant_vector_check(L, g) -> int:
    """The k with rho(g) e_0 = zeta_8^k e_0, for g with c = 0 mod 4.

    Errors if e_0 is not an eigenvector or if the eigenvalue is no power of
    zeta_8.
    """
    if g.c % 4:
        raise ValueError("invariant_vector_check needs lower-left entry = 0 mod 4")
    col = weil_column(L, mp2_word(g))
    others = [i for i, coeffs in enumerate(zip(*col.comp)) if i and any(coeffs)]
    if others:
        raise AssertionError(
            f"e_0 is not an eigenvector of rho(g): component {others[0]} is nonzero"
        )
    lam = [row[0] for row in col.comp]
    rows = [k for k in range(4) if lam[k]]
    if col.scale != 1 or len(rows) != 1 or abs(lam[rows[0]]) != 1:
        raise ArithmeticError(f"eigenvalue {col.scale} * {lam} is not an 8th root of unity")
    return rows[0] + 4 * (lam[rows[0]] < 0)


def word_j(word, tau):
    """(j(g, tau), g tau) for g = product of the word, composed factor by factor.

    j(g1 g2, tau) = j(g1, g2 tau) * j(g2, tau), accumulated right-to-left over
    the single letters S^{+-1}, T^{+-1}: a reference for the branch bit that
    `Mp2Element` keeps by its integer sign rule.
    """
    j, point = tau ** 0, tau
    for gen, exp in reversed(word):
        base = MP2_S if gen == "S" else MP2_T
        letter = base ** (1 if exp >= 0 else -1)
        for _ in range(abs(exp)):
            j, point = j * letter.j(point), letter.apply(point)
    return j, point


def matrix(g):
    """The SL_2(Z) part of an `Mp2Element` as nested tuples."""
    return ((g.a, g.b), (g.c, g.d))


def check_support(F):
    """Exponent support in q(g)/2 + Z.  (c_g = c_{-g} holds trivially:
    -g = g in a 2-elementary group.)"""
    data = discriminant_group(F.lattice)
    for i, ser in enumerate(F.components):
        want = Fraction(data.two_q[i], 4)
        for e, _c in ser.items():
            if (e - want) % 1 != 0:
                raise AssertionError(f"support violation at {data.coords(i)}: "
                                     f"exponent {e}, q/2 = {want}")
    return True


# ---------------------------------------------------------------------------
# q-series
# ---------------------------------------------------------------------------

def scale_exponents(s, factor):
    """Substitute q -> q^factor (exponent map e -> e*factor), factor > 0."""
    factor = Fraction(factor)
    if factor <= 0:
        raise ValueError("exponent scale factor must be positive")
    trunc = None if s.trunc is None else s.trunc * factor
    return QSeries({e * factor: c for e, c in s.items()}, trunc)



def euler_product(scale: int, order) -> QSeries:
    """prod_{n>=1} (1 - q^{scale*n}) to exponents < order, by Euler's
    pentagonal-number theorem."""
    terms = {}
    k = 0
    while scale * k * (3 * k - 1) // 2 < order:
        # generalized pentagonal numbers kk*(3*kk - 1)/2, kk = k and -k
        for kk in {k, -k}:
            terms[scale * kk * (3 * kk - 1) // 2] = (-1) ** k
        k += 1
    return QSeries(terms, order)


def eta_power(m: int, e: int, order) -> QSeries:
    """eta(m t)^e below `order`: the pentagonal product to the power e,
    shifted by its offset q^{e m/24}."""
    lead = Fraction(e * m, 24)
    return (euler_product(m, max(order - lead, 1)) ** e).shift(lead).truncate(order)


def eta_theta(factors, shift, k: int, order) -> QSeries:
    """prod eta(m t)^e over (m, e) in factors, times theta_shift^k, below
    `order`: each factor carries its own offset, and the factors are
    multiplied by `QSeries.__mul__` on the grid their offsets span."""
    lead = sum(Fraction(e * m, 24) for m, e in factors) + k * shift * shift
    rel = max(order - lead, 1)
    acc = theta_a1(shift, shift * shift + rel) ** k
    for m, e in factors:
        acc = acc * eta_power(m, e, Fraction(e * m, 24) + rel)
    return acc.truncate(order)


def f0(k: int, order) -> QSeries:
    """eta(2t)^8 theta_0^k / (eta(t)^8 eta(4t)^8) by the product route."""
    return eta_theta([(2, 8), (1, -8), (4, -8)], 0, k, order)


def f1(k: int, order) -> QSeries:
    """-16 eta(4t)^8 theta_{1/2}^k / eta(2t)^16 by the product route."""
    return -16 * eta_theta([(4, 8), (2, -16)], Fraction(1, 2), k, order)


def g_slices(k: int, order) -> tuple:
    """(g_0, .., g_3) below `order`: the terms c q^l of f0(k, 4 order) with
    integer l, as c q^{l/4} in g_{l mod 4}."""
    terms = ({}, {}, {}, {})
    for e, c in f0(k, 4 * order).items():
        if e.denominator == 1:
            terms[e.numerator % 4][e / 4] = c
    return tuple(QSeries(t, order) for t in terms)

def from_text(text: str):
    """The `QSeries` of `QSeries.to_text`'s format; refuses a nonzero zeta_8 column."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    header = lines[0].split()
    denom = int(header[0].split("=")[1])
    trunc = header[1].split("=")[1]
    terms = {}
    for ln in lines[1:]:
        e, c, *zeta = ln.split()
        if any(Fraction(z) for z in zeta):
            raise ValueError(f"coefficient at q^{e} is not rational: {ln.strip()!r}")
        terms[Fraction(e)] = Fraction(c)
    return QSeries(terms, None if trunc == "inf" else trunc, denom)


# ---------------------------------------------------------------------------
# the transition graph
# ---------------------------------------------------------------------------

def import_json(text: str):
    """The `K3Graph` of `k3graph.export_json`'s text."""
    data = json.loads(text)
    vertices = {}
    for v in data["vertices"]:
        t = LatticeTriple(v["r"], v["l"], v["delta"])
        vertices[t] = K3Vertex(t, unverified_existence=v["unverified_existence"])
    edges = [
        K3Edge(
            LatticeTriple(*e["source"]),
            LatticeTriple(*e["target"]),
            e["kind"],
        )
        for e in data["edges"]
    ]
    return K3Graph(vertices, edges)
