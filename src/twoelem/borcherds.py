"""Tube-domain evaluation of the Borcherds product and wall queries.

For a split Lambda = U(N) + L with L Lorentzian of signature (1, rank-1),
points of the symmetric domain are tube coordinates z in L (x) C with
(Im z)^2 > 0, corresponding to the isotropic period vector
(-z^2/2, 1/N, z).  The product attached to a vector-valued form F on Lambda
is, up to the Weyl-vector prefactor,

    prod_{n mod N} prod_{lam in L^v, <lam, Im z> > 0}
        (1 - e(<lam, z> + n/N)) ^ c_{(n/N, 0, lam)}(lam^2 / 2).

Index enumeration is exact: the positive-definite majorant
Q(x) = 2<x,y>^2/y^2 - x^2 (y = Im z) is decomposed by a rational LDL^t
factorization and short vectors are listed Fincke-Pohst style, with floats
used only to round the layer bounds outward.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .lattices import Lattice, _inverse_and_det, direct_sum, rescale, standard_lattice
from .vvmf import VVForm
from .weil import disc_data


# ---------------------------------------------------------------------------
# exact short-vector enumeration
# ---------------------------------------------------------------------------

def _ldlt(A):
    """A = R^t D R with R unit upper triangular, exact over Q; A pos def."""
    n = len(A)
    R = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    D = []
    for i in range(n):
        d = A[i][i] - sum(D[j] * R[j][i] ** 2 for j in range(i))
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        D.append(d)
        for k in range(i + 1, n):
            off = A[i][k] - sum(D[j] * R[j][i] * R[j][k] for j in range(i))
            R[i][k] = off / d
    return D, R


def short_vectors(A, bound):
    """All integer m != 0 with m^t A m <= bound (A rational pos def).

    The LDL^t pivoting is exact; the layer intervals of the search use
    floating point rounded outward (with slack), and every candidate is
    accepted or rejected by an exact integer comparison, so the result is
    exact.
    """
    n = len(A)
    A = [[Fraction(x) for x in row] for row in A]
    bound = Fraction(bound)
    if bound < 0:
        return []
    D, R = _ldlt(A)
    Df = [float(d) for d in D]
    Rf = [[float(x) for x in row] for row in R]
    # integer form of A for the exact final test
    den = 1
    for row in A:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    Aint = [[int(x * den) for x in row] for row in A]
    Bint_num = (bound * den).numerator
    Bint_den = (bound * den).denominator
    out = []
    m = [0] * n
    slack = 1e-7

    def descend(i, rem):
        if i < 0:
            if any(m):
                q = sum(Aint[a][b] * m[a] * m[b] for a in range(n) for b in range(n))
                if q * Bint_den <= Bint_num:
                    out.append(tuple(m))
            return
        c = sum(Rf[i][k] * m[k] for k in range(i + 1, n))
        half = math.sqrt(max(rem, 0.0) / Df[i]) * (1 + slack) + slack
        lo = math.ceil(-c - half)
        hi = math.floor(-c + half)
        for v in range(lo, hi + 1):
            m[i] = v
            used = Df[i] * (v + c) ** 2
            if used <= rem * (1 + slack) + slack:
                descend(i - 1, rem - used)
        m[i] = 0

    descend(n - 1, float(bound))
    return out


# ---------------------------------------------------------------------------
# tube coordinates
# ---------------------------------------------------------------------------

@dataclass
class TubePoint:
    """z in L (x) C with (Im z)^2 > 0, for the split U(N) + L."""

    N: int
    L: Lattice
    z: tuple  # complex numbers, length rank(L)

    def __post_init__(self):
        self.z = tuple(complex(w) for w in self.z)
        if len(self.z) != self.L.rank:
            raise ValueError("tube coordinate length must match rank of L")
        if self.y_norm2() <= 0:
            raise ValueError("(Im z)^2 must be positive")

    def y(self):
        # small-denominator rationals: keeps the exact slab pivoting cheap;
        # the search bound is inflated to cover the rounding (see product_eval)
        return [Fraction(w.imag).limit_denominator(10 ** 6) for w in self.z]

    def y_norm2(self) -> Fraction:
        y = self.y()
        G = self.L.gram
        n = self.L.rank
        return sum(G[i][j] * y[i] * y[j] for i in range(n) for j in range(n))

    def ambient(self) -> Lattice:
        return direct_sum(rescale(standard_lattice("U"), self.N), self.L)

    def period_vector(self):
        """The isotropic vector (-z^2/2, 1/N, z) in ambient coordinates."""
        G = self.L.gram
        n = self.L.rank
        z2 = sum(G[i][j] * self.z[i] * self.z[j] for i in range(n) for j in range(n))
        return [-z2 / 2, 1.0 / self.N] + list(self.z)


# ---------------------------------------------------------------------------
# truncated product
# ---------------------------------------------------------------------------

def product_eval(F: VVForm, point: TubePoint, weyl_vector=None, order=6,
                 min_margin: float = 0.05):
    """Evaluate the truncated product at the tube point.

    `order` bounds <lam, Im z> for the enumerated indices.  Returns
    (value, tail_bound): with `weyl_vector` (rational vector in ambient tube
    coordinates, paired against z) the full local expansion; without it only
    the product part, which is enough for vanishing-slope and ratio tests.
    The tail bound is the documented heuristic geometric estimate for the
    dropped log-factors.

    Raises if the point is too shallow: every enumerated direction must
    satisfy <lam, y> - 2 sqrt(max(lam^2, 0)/2) >= min_margin, otherwise the
    product cannot converge along that ray (coefficients grow like
    exp(4 pi sqrt(m))); the required extra depth is reported.
    """
    L, N = point.L, point.N
    ambient = point.ambient()
    if F.lattice.gram != ambient.gram:
        raise ValueError("form does not live on the ambient split U(N) + L")
    data = disc_data(ambient)
    n = L.rank
    Ginv = _inverse_and_det(L.gram)[0]
    y = point.y()
    y2 = point.y_norm2()
    cut = Fraction(order)
    # majorant in dual coordinates m (lam = G^{-1} m): <lam,y> = m.y,
    # lam^2 = m^t G^{-1} m
    A = [[2 * y[i] * y[j] / y2 - Ginv[i][j] for j in range(n)] for i in range(n)]
    # 1/8 headroom: y is a rounded rational, so search a slightly larger slab
    B = (2 * cut ** 2 / y2 + 2) * Fraction(9, 8)
    log_acc = 0.0 + 0.0j
    factors = []
    worst_margin = None
    for m in short_vectors(A, B):
        pair_y = sum(mi * yi for mi, yi in zip(m, y))
        if pair_y <= 0 or pair_y > cut:
            continue
        lam2 = sum(m[i] * Ginv[i][j] * m[j] for i in range(n) for j in range(n))
        pair_z = sum(mi * zi for mi, zi in zip(m, point.z))
        hit = False
        for nn in range(N):
            coeff = _component_coeff(F, data, nn, N, m, Fraction(lam2, 2))
            if coeff:
                hit = True
                factors.append((pair_y, pair_z, Fraction(nn, N), coeff))
        if hit:
            margin = float(pair_y) - 2 * math.sqrt(max(float(lam2), 0.0) / 2)
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
    if worst_margin is not None and worst_margin < min_margin:
        raise ValueError(
            "tube point too shallow for convergence: worst direction margin "
            f"{worst_margin:.4f} < {min_margin} (deepen Im z accordingly)"
        )
    # constant factors from lam = 0, n != 0
    for nn in range(1, N):
        coeff = _component_coeff(F, data, nn, N, (0,) * n, Fraction(0))
        if coeff:
            factors.append((Fraction(0), 0.0 + 0.0j, Fraction(nn, N), coeff))
    factors.sort(key=lambda f: (f[0], f[2], f[1].real, f[1].imag))
    for _, pair_z, shift, coeff in factors:
        w = cmath.exp(2j * cmath.pi * (pair_z + float(shift)))
        log_acc += coeff * cmath.log(1 - w)
    # heuristic tail: coefficients ~ exp(4 pi sqrt(m)) against e^{-2 pi <lam,y>}
    tail_exp = -2 * math.pi * float(cut) + 4 * math.pi * math.sqrt(
        float(cut ** 2 / y2))
    tail = math.exp(min(tail_exp, 0.0)) if tail_exp < 0 else float("inf")
    value = cmath.exp(log_acc)
    if weyl_vector is not None:
        rho_z = sum(float(r) * w for r, w in zip(weyl_vector, point.z))
        value *= cmath.exp(2j * cmath.pi * rho_z)
    return value, tail


def _component_coeff(F: VVForm, data, nn: int, N: int, m, exponent: Fraction):
    """Fourier coefficient c_{(n/N, 0, lam)}(exponent) of F, as a float."""
    # dual vector of the class (n/N, 0, lam): primal coordinates of any
    # representative; lam in dual coordinates m -> primal G^{-1} m of L
    key = (F.lattice.gram, nn, N, m)
    coords = _CLASS_CACHE.get(key)
    if coords is None:
        nL = len(m)
        GL = _rational_inverse_cached(F.lattice.gram, nL)
        lam_primal = [sum(GL[i][j] * m[j] for j in range(nL)) for i in range(nL)]
        v = [Fraction(nn, N), Fraction(0)] + lam_primal
        coords = data.group.element_from_dual_vector(v).coords
        _CLASS_CACHE[key] = coords
    ser = F.components[coords]
    if exponent >= ser.trunc:
        raise ValueError(
            f"product needs coefficient at exponent {exponent} beyond series "
            f"truncation {ser.trunc}; rebuild F with a larger order"
        )
    return float(ser.coeff(exponent))


_GINV_CACHE = {}
_CLASS_CACHE = {}


def _rational_inverse_cached(ambient_gram, nL):
    key = (ambient_gram, nL)
    if key not in _GINV_CACHE:
        sub = [row[-nL:] for row in ambient_gram[-nL:]]
        _GINV_CACHE[key] = _inverse_and_det(sub)[0]
    return _GINV_CACHE[key]


# ---------------------------------------------------------------------------
# Petersson norm at a period point
# ---------------------------------------------------------------------------

def petersson_norm_point(L: Lattice, eta, l_ref, p, value=1.0,
                         tol: float = 1e-9):
    """K^p |value|^2 with K = <eta, conj(eta)> / |<eta, l_ref>|^2.

    eta must be isotropic with <eta, conj(eta)> > 0 and pair nontrivially
    with the reference vector; the result is invariant under rescaling eta.
    """
    G = L.gram
    n = L.rank
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


# ---------------------------------------------------------------------------
# wall queries in the positive cone of a Lorentzian lattice
# ---------------------------------------------------------------------------

@dataclass
class Wall:
    dual_coords: tuple       # lam in dual coordinates (pairs integrally)
    norm: Fraction           # lam^2
    pairing_v1: Fraction
    pairing_v2: Fraction


def separating_walls(L: Lattice, v1, v2, norm_set=(-2, Fraction(-1, 2)),
                     pairing_bound=10, F: VVForm = None):
    """Walls lam^perp with lam^2 in norm_set strictly separating v1, v2.

    v1, v2: rational vectors of positive norm in the same cone component.
    Enumerates the compact slab {lam : |<lam, v_i>| <= pairing_bound}
    exactly; completeness for the segment [v1, v2] holds once pairing_bound
    is at least the largest realized |<lam, v_i>|, which is reported in the
    result.  With F given, only walls whose principal-part coefficient
    c_{lam}(lam^2/2) is nonzero are kept.  Returns (walls, realized_bound).
    Raises if either endpoint lies on a candidate wall.
    """
    n = L.rank
    G = L.gram
    Ginv = _inverse_and_det(G)[0]
    v1 = [Fraction(x) for x in v1]
    v2 = [Fraction(x) for x in v2]
    for v in (v1, v2):
        nrm = sum(G[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        if nrm <= 0:
            raise ValueError("endpoints must have positive norm")
    norm_set = {Fraction(x) for x in norm_set}
    worst = -min(norm_set)
    Pb = Fraction(pairing_bound)
    # positive-definite slab form: <lam,v1>^2 + <lam,v2>^2 - lam^2
    A = [[v1[i] * v1[j] + v2[i] * v2[j] - Ginv[i][j] for j in range(n)]
         for i in range(n)]
    B = 2 * Pb ** 2 + worst
    data = disc_data(L) if F is not None else None
    walls = []
    realized = Fraction(0)
    seen = set()
    for m in short_vectors(A, B):
        lam2 = sum(m[i] * Ginv[i][j] * m[j] for i in range(n) for j in range(n))
        if lam2 not in norm_set:
            continue
        p1 = sum(mi * x for mi, x in zip(m, v1))
        p2 = sum(mi * x for mi, x in zip(m, v2))
        if abs(p1) > Pb or abs(p2) > Pb:
            continue
        if F is not None:
            lam_primal = [sum(Ginv[i][j] * m[j] for j in range(n))
                          for i in range(n)]
            cls = data.group.element_from_dual_vector(lam_primal)
            ser = F.components[cls.coords]
            if not ser.coeff(Fraction(lam2, 2)):
                continue
        if p1 == 0 or p2 == 0:
            raise ValueError(f"endpoint lies on the wall {m} (degenerate case)")
        if p1 * p2 > 0:
            continue
        canonical = m if p1 > 0 else tuple(-x for x in m)
        if canonical in seen:
            continue
        seen.add(canonical)
        q1, q2 = (p1, p2) if p1 > 0 else (-p1, -p2)
        walls.append(Wall(canonical, lam2, q1, q2))
        realized = max(realized, abs(p1), abs(p2))
    walls.sort(key=lambda w: (w.norm, w.dual_coords))
    return walls, realized
