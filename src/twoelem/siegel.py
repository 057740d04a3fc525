"""Numerics on the Siegel upper half-space: theta constants with
half-integer characteristics, the product chi_g over the even ones, its
Petersson norm, and one-parameter degeneration families with vanishing-order
slope fits.

Truncation: the lattice sum over Z^g is cut at radius
R = ceil(sqrt((prec+16) ln 2 / (pi lambda_min))) + g with lambda_min the
smallest eigenvalue of Im Sigma, which dominates the Gaussian tail by a
geometric series in exp(-pi lambda_min).

One grid pass per a serves every b: since exp(2 pi i (n+a).b) =
i^{popcount(2a & 2b)} (-1)^{n.2b}, theta_{a,b} is i^{popcount(2a & 2b)} times
entry 2b of the Walsh-Hadamard transform of the sums of exp(pi i (n+a)^t
Sigma (n+a)) over the 2^g classes of n mod 2, each added by |term| ascending.
Only the term evaluation depends on the precision (numpy to 53 bits, mpmath
above).  Bit vectors put the first coordinate in the most significant bit.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .weil import _fwht

_G_CAP = 5  # 528 even characteristics at g = 5; enough for every genus here


@dataclass(frozen=True)
class ThetaChar:
    """Half-integer characteristic (a, b), entries in {0, 1/2}."""

    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(Fraction(x) for x in self.a))
        object.__setattr__(self, "b", tuple(Fraction(x) for x in self.b))
        for x in self.a + self.b:
            if x not in (Fraction(0), Fraction(1, 2)):
                raise ValueError("characteristic entries must be 0 or 1/2")
        if len(self.a) != len(self.b):
            raise ValueError("characteristic a and b must have the same length")

    @property
    def is_even(self) -> bool:
        return (4 * sum(x * y for x, y in zip(self.a, self.b))) % 2 == 0


def even_characteristics(g: int):
    """All even (a, b); 2^{g-1}(2^g + 1) of them for g >= 1, one for g = 0."""
    if g < 0 or g > _G_CAP:
        raise ValueError(f"genus must be between 0 and {_G_CAP}")
    halves = (Fraction(0), Fraction(1, 2))
    out = []
    for a in itertools.product(halves, repeat=g):
        for b in itertools.product(halves, repeat=g):
            ch = ThetaChar(a, b)
            if ch.is_even:
                out.append(ch)
    return out


@dataclass
class SiegelPoint:
    """Complex symmetric g x g matrix with positive definite imaginary part."""

    sigma: tuple  # tuple of tuples of complex

    def __post_init__(self):
        mat = tuple(tuple(complex(x) for x in row) for row in self.sigma)
        g = len(mat)
        for row in mat:
            if len(row) != g:
                raise ValueError("matrix must be square")
        for i in range(g):
            for j in range(g):
                if abs(mat[i][j] - mat[j][i]) > 1e-12 * (1 + abs(mat[i][j])):
                    raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "sigma", mat)
        if self.min_imag_eigenvalue() <= 0:
            raise ValueError("Im Sigma must be positive definite")

    @property
    def g(self) -> int:
        return len(self.sigma)

    def imag_part(self):
        return np.array([[x.imag for x in row] for row in self.sigma])

    def min_imag_eigenvalue(self) -> float:
        if self.g == 0:
            return 1.0
        return float(np.linalg.eigvalsh(self.imag_part()).min())


def _radius(point: SiegelPoint, prec: int) -> int:
    lam = point.min_imag_eigenvalue()
    return math.ceil(math.sqrt((prec + 16) * math.log(2) / (math.pi * lam))) + point.g


def _packed(halves) -> int:
    return sum(int(2 * x) << k for k, x in enumerate(reversed(halves)))


def _theta_row(a, point: SiegelPoint, prec: int) -> list:
    """[theta_{a,b}(Sigma) for 2b = 0 .. 2^g - 1], from one pass over the grid."""
    g = point.g
    if g == 0:
        return [mpmath.mpc(1) if prec > 53 else complex(1)]
    R = _radius(point, prec)
    n = np.indices((2 * R + 1,) * g).reshape(g, -1).T - R
    cls = (n % 2) @ (1 << np.arange(g - 1, -1, -1))
    v = n + np.array([float(x) for x in a])  # exact: half-integers
    with mpmath.workprec(prec):
        if prec <= 53:
            S = np.array(point.sigma, dtype=complex)
            terms = np.exp(1j * np.pi * np.einsum("ki,ij,kj->k", v, S, v))
        else:
            S = [[mpmath.mpc(x) for x in row] for row in point.sigma]
            ws = ([mpmath.mpf(x) for x in row] for row in v.tolist())
            quads = (sum(w[i] * S[i][j] * w[j] for i in range(g) for j in range(g)) for w in ws)
            terms = np.array([mpmath.exp(1j * mpmath.pi * q) for q in quads], dtype=object)
        order = np.lexsort((np.abs(terms), cls))  # class, then |term| ascending
        sums = np.add.reduceat(terms[order], np.searchsorted(cls[order], np.arange(2 ** g)))
        return [z * (1, 1j, -1, -1j)[bin(_packed(a) & beta).count("1") % 4]
                for beta, z in enumerate(_fwht(sums).tolist())]


def theta_constant(ch: ThetaChar, point: SiegelPoint, prec: int = 53):
    """theta_{a,b}(Sigma) = sum over n in Z^g of
    exp(pi i (n+a)^t Sigma (n+a) + 2 pi i (n+a).b)."""
    if len(ch.a) != point.g:
        raise ValueError("characteristic size must match the matrix")
    return _theta_row(ch.a, point, prec)[_packed(ch.b)]


def chi_g(point: SiegelPoint, prec: int = 53):
    """Product of the even theta constants at Sigma, taken at `prec` bits."""
    acc = mpmath.mpc(1) if prec > 53 else complex(1)
    with mpmath.workprec(prec):
        for a, same_a in itertools.groupby(even_characteristics(point.g), lambda ch: ch.a):
            row = _theta_row(a, point, prec)
            for ch in same_a:
                acc *= row[_packed(ch.b)]
    return acc


def chi8_weight(g: int) -> int:
    """Weight of chi_g^8 as a Siegel modular form."""
    return 2 ** (g + 1) * (2 ** g + 1)


def chi_g8_petersson(point: SiegelPoint, prec: int = 53):
    """(det Im Sigma)^{2^{g+1}(2^g+1)} |chi_g^8|^2 as an mpmath real.

    Returned as mpmath.mpf: the 16th power of a product of up to 528 theta
    constants under- or overflows double floats routinely.
    """
    g = point.g
    if g == 0:
        return mpmath.mpf(1)
    det = float(np.linalg.det(point.imag_part()))
    val = chi_g(point, prec)
    with mpmath.workprec(max(prec, 53)):
        return mpmath.mpf(det) ** chi8_weight(g) * abs(mpmath.mpc(val)) ** 16


def fay_family(g: int, psi, t):
    """Sigma(t) = (log t / 2 pi i) E_11 + psi (degeneration with pinched
    first handle); psi a constant symmetric complex matrix."""
    if g < 1:
        raise ValueError("family needs g >= 1")
    t = complex(t)
    if not 0 < abs(t) < 1:
        raise ValueError("t must satisfy 0 < |t| < 1")
    lead = cmath.log(t) / (2j * cmath.pi)
    mat = [[complex(psi[i][j]) + (lead if i == 0 and j == 0 else 0)
            for j in range(g)] for i in range(g)]
    return SiegelPoint(tuple(tuple(row) for row in mat))


def vanishing_order_fit(family, t_grid, prec: int = 53):
    """Least-squares slope of log|chi^8|^2 against log|t|^2 on the grid.

    The two largest-|t| points are dropped (they carry the slowly-decaying
    log log correction).  Returns (slope, max_residual).
    """
    pts = sorted(t_grid, key=abs)
    if len(pts) < 6:
        raise ValueError("need at least 6 grid points")
    pts = pts[:-2]
    xs, ys = [], []
    for t in pts:
        point = family(t)
        val = chi_g(point, prec)
        aval = float(abs(val))
        if aval == 0.0 or not math.isfinite(math.log(aval)):
            raise ValueError(f"chi vanished to numerical zero at t = {t}")
        xs.append(2 * math.log(abs(t)))
        ys.append(16 * math.log(aval))
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
             / sum((x - mean_x) ** 2 for x in xs))
    intercept = mean_y - slope * mean_x
    resid = max(abs(y - slope * x - intercept) for x, y in zip(xs, ys))
    return slope, resid
