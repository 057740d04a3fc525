"""Tube-domain evaluation of the Borcherds product and wall queries.

For a split Lambda = U(N) + L with L Lorentzian of signature (1, rank-1),
points of the symmetric domain are tube coordinates z in L (x) C with
(Im z)^2 > 0, corresponding to the isotropic period vector
(-z^2/2, 1/N, z).  The product attached to a vector-valued form F on Lambda
is taken without the Weyl-vector prefactor e(<rho, z>):

    prod_{n mod N} prod_{lam in L^v, <lam, Im z> > 0}
        (1 - e(<lam, z> + n/N)) ^ c_{(n/N, 0, lam)}(lam^2 / 2).

Index enumeration is exact and float-free: with y the exact binary value of
Im z, the integer Fincke-Pohst search `lattices.ellipsoid_lines` runs on an
ellipsoid centred in the cut slab 0 < <lam, y> <= cut, built on a short
dyadic rounding of y.  Indices stay in their integer dual coordinates
m = G lam; the product walks the search's lines m = (v, *rest) clipped to the
slab, reading lam^2 det G, the class index and the coefficient index as ints.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .lattices import (Lattice, _clear, _dot, _eliminate, _integer, _positive_definite, _quad,
                       discriminant_group, ellipsoid_lines, hyperbolic_split)
from .vvmf import VVForm


# ---------------------------------------------------------------------------
# exact short-vector enumeration
# ---------------------------------------------------------------------------

def _rational(x, name: str) -> Fraction:
    """x as a Fraction, or a ValueError naming the argument unless x is a finite number."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be a finite rational number, got {x!r}") from None


def _lines(A, bound: Fraction, centre=None, half=False):
    """Lines (lo, hi, rest) of `lattices.ellipsoid_lines` on den*A: the integer m with
    (m - c)^t A (m - c) <= bound, A rational symmetric positive definite, c rational
    (0 if None); with `half`, one of each pair +-m and the origin once (no centre)."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix must be square")
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    ints, den = _clear([Fraction(x) for row in A for x in row])
    elim = _eliminate([ints[i * n:(i + 1) * n] for i in range(n)])
    if not _positive_definite(elim):
        raise ValueError("matrix is not positive definite")
    return ellipsoid_lines(elim, bound * den, centre, half)


def short_vectors(A, bound):
    """All integer m != 0 with m^t A m <= bound (A rational symmetric pos def)."""
    return [(v,) + rest for lo, hi, rest in _lines(A, _rational(bound, "bound"))
            for v in range(lo, hi + 1) if v or any(rest)]


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
        self.N = _integer(self.N, "N", positive=True)
        self.z = tuple(complex(w) for w in self.z)
        if not all(cmath.isfinite(w) for w in self.z):
            raise ValueError("tube coordinates must be finite")
        if len(self.z) != self.L.rank:
            raise ValueError("tube coordinate length must match rank of L")
        if self.y_norm2() <= 0:
            raise ValueError("(Im z)^2 must be positive")

    def y(self):
        """Im z exactly: the binary value of each float as a Fraction."""
        return [Fraction(w.imag) for w in self.z]

    def y_norm2(self) -> Fraction:
        return self.L.norm(self.y())

    def ambient(self) -> Lattice:
        return hyperbolic_split(self.N, self.L)


# ---------------------------------------------------------------------------
# truncated product
# ---------------------------------------------------------------------------

def _slab_majorant(L, y, cut, low):
    """(M, bound, c), M an integer positive definite matrix, bound and c
    rational: every m = G lam of the slab 0 < <lam, y> <= cut (cut > 0) with
    lam^2 >= 2 low has (m - c)^t M (m - c) <= bound.

    y~ is y rounded to the grid 2^-k, k = 10, 11, ... until 2 y~^2 >= y^2 and
    <y, y~> > 0 (y~ = y at the latest).  With t = <lam, y>, split lam = (t/y^2) y
    + lam' and y~ = (<y, y~>/y^2) y + y~' along the negative-definite y^perp:
    -lam'^2 = t^2/y^2 - lam^2 <= cut^2/y^2 - 2 low, -y~'^2 = <y, y~>^2/y^2 - y~^2,
    and Cauchy-Schwarz puts t~ = <lam, y~> = t <y, y~>/y^2 + <lam', y~'> in
    [t_lo, t_hi] = [-e, cut <y, y~>/y^2 + e] for e^2 >= the product of those two
    bounds; e and t_hi are rounded up on the grid 2^-k with `isqrt`.  With mid,
    h the midpoint and half-width, mu = lam - mid y~/y~^2 (m - c for
    c = mid G y~/y~^2) and a > 0, as |t~ - mid| <= h and |t~| <= t_hi:

        (a + 1/y~^2) <mu, y~>^2 - mu^2 = a (t~ - mid)^2 + t~^2/y~^2 - lam^2
                                       <= a h^2 + t_hi^2/y~^2 - 2 low,

    a positive definite form (a <mu, y~>^2 plus minus mu's part in y~^perp
    squared).  Its ellipsoid's volume goes as bound^(n/2) / sqrt(a), least at
    a = (t_hi^2/y~^2 - 2 low) / ((n - 1) h^2), rounded to a power of 2; a = 1
    at rank 1.
    """
    n, G, det, adj = L.rank, L.gram, L._elim.det, L._elim.adj
    Y, den = _clear(y)
    qy, s = _quad(Y, G, Y), 2 ** 10   # y = Y/den, y~ = T/s: y^2 = qy/den^2, y~^2 = q/s^2
    while True:
        T = [(2 * s * x + den) // (2 * den) for x in Y]
        q, p = _quad(T, G, T), _quad(Y, G, T)   # <y, y~> = p/(den s)
        if 2 * q * den * den >= qy * s * s and p > 0:
            break
        s *= 2
    e2 = (cut ** 2 * den * den / qy - 2 * low) * Fraction(p * p - qy * q, qy)
    e = Fraction(math.isqrt(math.ceil(e2) - 1) + 1 if e2 > 0 else 0, s)
    t_hi = Fraction(math.ceil(cut * p * den / qy), s) + e
    mid, h, rest = (t_hi - e) / 2, (t_hi + e) / 2, t_hi ** 2 * s * s / q - 2 * low
    r = rest / ((n - 1) * h * h) if n > 1 else Fraction(1)
    a = Fraction(2) ** (r.numerator.bit_length() - r.denominator.bit_length())
    # D A = D (a + s^2/q) T T^t / s^2 - D adj / det, divided by g, sign(g) = sign(det)
    w, D = a.numerator * q + a.denominator * s * s, a.denominator * q * s * s * det
    M = [[w * det * ti * tj - D // det * aij for tj, aij in zip(T, row)]
         for ti, row in zip(T, adj)]
    g = math.gcd(*(x for row in M for x in row)) * (1 if det > 0 else -1)
    return ([[x // g for x in row] for row in M], (a * h * h + rest) * D / g,
            [mid * s * _dot(row, T) / q for row in G])


def product_eval(F: VVForm, point: TubePoint, order=6, min_margin: float = 0.05):
    """Evaluate the truncated product at the tube point.

    `order` > 0 bounds <lam, Im z> exactly: an index is taken in iff
    0 < <lam, y> <= order for the exact binary value y of Im z.  Returns
    (value, tail_bound): the product without the Weyl-vector prefactor, and
    the documented heuristic geometric estimate for the dropped log-factors.

    The search runs on `_slab_majorant` (indices with lam^2 < 2 low, which it
    may leave out, have no coefficient); each line (lo, hi, rest) is clipped
    by floor division to the slab 0 < Y.m <= cut den (Y = den y integral).
    Along it num = m^t adj(G) m is an integer quadratic in v, the class index
    that of rest XOR the mask of v's parity, and c(num / 2det) an integer
    division on the component's flat tuple.

    Raises if the point is too shallow: every enumerated direction must
    satisfy <lam, y> - 2 sqrt(max(lam^2, 0)/2) >= min_margin, otherwise the
    product cannot converge along that ray (coefficients grow like
    exp(4 pi sqrt(m))); the required extra depth is reported.
    """
    L, N, n = point.L, point.N, point.L.rank
    ambient = point.ambient()
    if F.lattice.gram != ambient.gram:
        raise ValueError("form does not live on the ambient split U(N) + L")
    cut = _rational(order, "order")
    if cut <= 0:
        raise ValueError(f"product cut on <lam, Im z> must be positive, got order={order}")
    data = discriminant_group(ambient)
    det, adj = L._elim.det, L._elim.adj
    if det < 0:   # so that c(num / 2det) compares with the truncation in integers
        det, adj = -det, [[-a for a in row] for row in adj]
    y = point.y()
    Y, den = _clear(y)   # y = Y / den: 0 < <lam, y> <= cut iff 1 <= m.Y <= top
    top = math.floor(cut * den)
    # c(lam^2/2) != 0 needs lam^2 >= 2 min(0, lowest exponent of F)
    low = min([0] + [ser.min_exp() for ser in F.components if ser.coeffs])
    A, B, centre = _slab_majorant(L, y, cut, low)
    # (n/N, 0, lam) has dual coordinates (0, n, m), class nn_part[n] XOR that of m
    nn_part = [data.index_of((0, nn) + (0,) * n) for nn in range(N)]
    mask0 = data.index_of((0, 0, 1) + (0,) * (n - 1))
    two_det = 2 * det
    # c_k(num / 2det) is cfs[i] for num denom - start = 2det i; num >= lim is beyond trunc
    comps = [(s.denom, s.start * two_det, [float(c) for c in s.coeffs],
              math.inf if s.trunc is None else math.ceil(s.trunc * two_det), s.trunc)
             for s in F.components]
    rows = [[(nn, comps[k ^ part]) for nn, part in enumerate(nn_part)] for k in range(len(comps))]

    def hits_at(num, row):   # the (nn, c_{k ^ nn_part[nn]}(num / 2det)) that are nonzero
        out = []
        for nn, (denom, start, cfs, lim, t) in row:
            if num >= lim:
                raise ValueError(f"product needs coefficient at exponent {Fraction(num, two_det)} "
                                 f"beyond series truncation {t}; rebuild F with a larger order")
            i, r = divmod(num * denom - start, two_det)
            if not r and 0 <= i < len(cfs) and cfs[i]:
                out.append((nn, cfs[i]))
        return out

    Y0, Y_rest = Y[0], Y[1:]
    factors, worst_margin = [], math.inf
    for lo, hi, rest in _lines(A, B, centre):
        cy = _dot(Y_rest, rest)
        # clip [lo, hi] to 1 <= Y0 v + cy <= top
        if Y0 > 0:
            lo, hi = max(lo, -((cy - 1) // Y0)), min(hi, (top - cy) // Y0)
        elif Y0 < 0:
            lo, hi = max(lo, -((cy - top) // Y0)), min(hi, (1 - cy) // Y0)
        elif not 1 <= cy <= top:
            continue
        if lo > hi:
            continue
        # num(v) = m^t adj(G) m = adj_00 v^2 + 2 b v + c
        m0 = (0,) + rest
        b, c = _dot(adj[0], m0), _quad(m0, adj, m0)
        k_rest = data.index_of((0, 0) + m0)
        for v in range(lo, hi + 1):
            num = (adj[0][0] * v + 2 * b) * v + c
            hits = hits_at(num, rows[k_rest ^ mask0 if v & 1 else k_rest])
            if hits:
                pair_y = Y0 * v + cy
                pair_z = _dot((v,) + rest, point.z)
                factors += [(pair_y, pair_z, nn, cf) for nn, cf in hits]
                margin = pair_y / den - 2 * math.sqrt(max(num / det, 0.0) / 2)
                worst_margin = min(worst_margin, margin)
    if worst_margin < min_margin:
        raise ValueError(
            "tube point too shallow for convergence: worst direction margin "
            f"{worst_margin:.4f} < {min_margin} (deepen Im z accordingly)")
    # constant factors from lam = 0, n != 0
    factors += [(0, 0.0 + 0.0j, nn, cf) for nn, cf in hits_at(0, rows[0][1:])]
    factors.sort(key=lambda f: (f[0], f[2], f[1].real, f[1].imag))
    log_acc = 0.0 + 0.0j
    for _, pair_z, nn, cf in factors:
        log_acc += cf * cmath.log(1 - cmath.exp(2j * cmath.pi * (pair_z + nn / N)))
    # heuristic tail: coefficients ~ exp(4 pi sqrt(m)) against e^{-2 pi <lam,y>}
    tail_exp = -2 * math.pi * float(cut) + 4 * math.pi * math.sqrt(float(cut ** 2 / point.y_norm2()))
    tail = math.exp(tail_exp) if tail_exp < 0 else float("inf")
    return cmath.exp(log_acc), tail


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
    exactly on the half-space lines, one of each pair +-lam, and lists a
    wall by its sign with <lam, v1> > 0; completeness for the segment
    [v1, v2] holds once pairing_bound is at least the largest realized
    |<lam, v_i>|, which is reported in the result.  With F given, only walls
    whose principal-part coefficient c_{lam}(lam^2/2) is nonzero are kept; F
    must live on L itself.  Returns (walls, realized_bound).  Raises if
    either endpoint lies on a candidate wall, naming the last one met.
    """
    n, G = L.rank, L.gram
    if F is not None and F.lattice.gram != G:
        raise ValueError("form does not live on the lattice L")
    det, adj = L._elim.det, L._elim.adj   # lam^2 = m^t adj m / det for lam = G^{-1} m
    v1, v2 = [_rational(x, "v1") for x in v1], [_rational(x, "v2") for x in v2]
    for name, v in (("v1", v1), ("v2", v2)):
        if len(v) != n:
            raise ValueError(f"{name} must have {n} entries, got {len(v)}")
    if L.norm(v1) <= 0 or L.norm(v2) <= 0:
        raise ValueError("endpoints must have positive norm")
    norm_set = {_rational(x, "norm_set entry") for x in norm_set}
    if not norm_set:
        raise ValueError("norm_set must hold at least one norm")
    Pb = _rational(pairing_bound, "pairing_bound")
    if Pb <= 0:
        raise ValueError(f"pairing_bound must be positive, got {pairing_bound!r}")
    # positive-definite slab form: <lam,v1>^2 + <lam,v2>^2 - lam^2
    A = [[v1[i] * v1[j] + v2[i] * v2[j] - Fraction(adj[i][j], det) for j in range(n)]
         for i in range(n)]
    B = 2 * Pb ** 2 - min(norm_set)
    data = discriminant_group(L) if F is not None else None
    # in integers: <lam, v_i> = m.V_i / dv, lam^2 det = m^t adj m
    V, dv = _clear(v1 + v2)
    V1, V2, top = V[:n], V[n:], math.floor(Pb * dv)
    norms = {x * det for x in norm_set}
    walls, on_wall = [], None
    for m in ((v,) + r for lo, hi, r in _lines(A, B, half=True) for v in range(lo, hi + 1)):
        num = _quad(m, adj, m)
        if num not in norms or not any(m):
            continue
        p1, p2 = _dot(m, V1), _dot(m, V2)
        if abs(p1) > top or abs(p2) > top:
            continue
        lam2 = Fraction(num, det)
        if F is not None and not F.components[data.index_of(m)].coeff(lam2 / 2):
            continue
        if p1 == 0 or p2 == 0:
            on_wall = m
        elif p1 * p2 < 0:
            walls.append(Wall(m if p1 > 0 else tuple(-x for x in m), lam2,
                              Fraction(abs(p1), dv), Fraction(-abs(p2), dv)))
    if on_wall:   # the last met, the greatest in the search's order: -(short_vectors' first)
        raise ValueError(f"endpoint lies on the wall {on_wall} (degenerate case)")
    walls.sort(key=lambda w: (w.norm, w.dual_coords))
    return walls, max([Fraction(0)] + [max(w.pairing_v1, -w.pairing_v2) for w in walls])
