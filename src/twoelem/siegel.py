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
The grid is built once in the smallest integer type that holds it, and the
class of n is read off its low bits.  Bit vectors put the first coordinate in
the most significant bit.

Only the terms depend on the precision.  Up to 53 bits they are one numpy
einsum and exp, sorted by their float modulus.  Above, the grid is walked
line by line in the last coordinate k: with v = n + a,
exp(pi i (v+e_k)^t Sigma (v+e_k)) = exp(pi i v^t Sigma v) r,
r = exp(2 pi i (Sigma v)_k + pi i Sigma_kk), and r then steps by
exp(2 pi i Sigma_kk).  That is two mpmath exp calls per line of 2R+1 terms
and two complex products per term.  Each product adds one rounding at the
working precision, and the j-th term of a line inherits the roundings of all
j ratios before it, about j^2/2 <= (2R+1)^2/2 in all; the rounded exponent
pi i v^t Sigma v of a line's first term adds a relative error that also grows
like |v|^2.  So the walk runs 2 bitlen(2R+1) + 8 bits above `prec` and rounds
each term back to `prec` before the class sums.  Those terms are sorted by
the float exponent -v^t (Im Sigma) v, which is log|term| / pi, so no modulus
is taken of an mpmath number.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath.libmp import mpc_mul, mpc_pos

from .lattices import _eliminate
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
        if not all(cmath.isfinite(x) for row in mat for x in row):
            raise ValueError("matrix entries must be finite")
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


def _line_terms(starts, point: SiegelPoint, prec: int, m: int) -> list:
    """exp(pi i v^t Sigma v) rounded to `prec` bits, for v = w, w + e_k, ...,
    w + (m-1) e_k (k the last coordinate) and each line start w in turn: the
    line walk of the module docstring, on raw libmp values in the inner loop.
    """
    g = point.g
    wp = prec + 2 * m.bit_length() + 8  # guard bits: see the module docstring
    make = mpmath.mp.make_mpc
    out = []
    with mpmath.workprec(wp):
        S = [[mpmath.mpc(x) for x in row] for row in point.sigma]
        pi_i = mpmath.mpc(0, mpmath.pi)
        step = mpmath.exp(2 * pi_i * S[-1][-1])._mpc_
        for w in starts:
            w = [mpmath.mpf(x) for x in w]
            Sw = [sum(S[i][j] * w[j] for j in range(g)) for i in range(g)]
            z = mpmath.exp(pi_i * sum(x * y for x, y in zip(w, Sw)))._mpc_
            r = mpmath.exp(pi_i * (2 * Sw[-1] + S[-1][-1]))._mpc_
            for _ in range(m):
                out.append(make(mpc_pos(z, prec, "n")))
                z = mpc_mul(z, r, wp, "n")
                r = mpc_mul(r, step, wp, "n")
    return out


def _theta_row(a, point: SiegelPoint, prec: int) -> list:
    """[theta_{a,b}(Sigma) for 2b = 0 .. 2^g - 1], from one pass over the grid."""
    g = point.g
    if g == 0:
        return [mpmath.mpc(1) if prec > 53 else complex(1)]
    R = _radius(point, prec)
    m = 2 * R + 1
    n = np.indices((m,) * g, dtype=np.min_scalar_type(-max(m, 2 ** g))).reshape(g, -1)
    n -= R
    cls = np.zeros_like(n[0])
    for row in n:
        cls <<= 1
        cls |= row & 1
    v = n.T + np.array([float(x) for x in a])  # exact: half-integers
    del n
    if prec <= 53:
        S = np.array(point.sigma, dtype=complex)
        terms = np.exp(1j * np.pi * np.einsum("ki,ij,kj->k", v, S, v))
        key = np.abs(terms)
    else:
        key = -np.einsum("ki,ij,kj->k", v, point.imag_part(), v)  # log|term| / pi
        terms = np.array(_line_terms(v[::m].tolist(), point, prec, m), dtype=object)
    del v
    with mpmath.workprec(prec):
        order = np.lexsort((key, cls))  # class, then |term| ascending
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
    constants under- or overflows double floats routinely.  det Im Sigma is
    exact: `_eliminate` of the integer matrix den Im Sigma, den a power of 2.
    """
    g = point.g
    if g == 0:
        return mpmath.mpf(1)
    Y = [[Fraction(x.imag) for x in row] for row in point.sigma]
    den = math.lcm(*(y.denominator for row in Y for y in row))
    det, w = _eliminate([[int(y * den) for y in row] for row in Y])[0], chi8_weight(g)
    val = chi_g(point, prec)
    with mpmath.workprec(max(prec, 53)):
        return mpmath.mpf(det ** w) / mpmath.mpf(den) ** (g * w) * abs(mpmath.mpc(val)) ** 16


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
