"""Numerics on the Siegel upper half-space: theta constants with
half-integer characteristics, the product chi_g over the even ones, its
Petersson norm, and one-parameter degeneration families with vanishing-order
slope fits.

Truncation: theta_{a,b} sums over the ellipsoid pi v^t (Im Sigma) v <= R^2,
v in Z^g + a, with the tail bound of Deconinck, Heil, Bobenko, van Hoeij and
Schmies (Math. Comp. 73, 2004, Theorem 2): the dropped terms add up to at
most eps(R) = (g/2) (2/rho)^g Gamma(g/2, (R - rho/2)^2) in modulus, with
rho^2 = pi min_{n != 0} n^t (Im Sigma) n, once R >= (sqrt(2g) + rho)/2.  R is
the least radius with eps(R) <= 2^-(prec+16) exp(-pi mu_a), mu_a the least
v^t (Im Sigma) v over Z^g + a: the bound is relative to the row's largest
term, since for a != 0 the whole row can lie far below 1.  Gamma(s, x) at
half-integer s is erfc or exp plus the recursion Gamma(s+1, x) = s Gamma(s, x)
+ x^s e^{-x}, in the log domain.  The points are the lines of the integer
Fincke-Pohst search `lattices.ellipsoid_lines` around the centre -a on
den Im Sigma, den the power of two that makes it integral, so membership is
decided exactly; `_theta_row` returns eps(R) with each row.

One pass per a serves every b: since exp(2 pi i (n+a).b) =
i^{popcount(2a & 2b)} (-1)^{n.2b}, theta_{a,b} is i^{popcount(2a & 2b)} times
entry 2b of the Walsh-Hadamard transform of the sums of exp(pi i (n+a)^t
Sigma (n+a)) over the 2^g classes of n mod 2, each added by |term| ascending.
The class of n is read off its low bits.  Bit vectors put the first
coordinate in the most significant bit.

Only the terms depend on the precision.  Up to 53 bits they are one numpy
einsum and exp over the enumerated points, sorted by their float modulus.
Above, each line is walked in the first coordinate: with v = n + a,
exp(pi i (v+e_0)^t Sigma (v+e_0)) = exp(pi i v^t Sigma v) r,
r = exp(2 pi i (Sigma v)_0 + pi i Sigma_00), and r then steps by
exp(2 pi i Sigma_00).  That is two mpmath exp calls per line and two complex
products per term.  Each product adds one rounding at the working precision,
and the j-th term of a line inherits the roundings of all j ratios before
it, about j^2/2 <= m^2/2 in all for lines of at most m points; the rounded
exponent pi i v^t Sigma v of a line's first term adds a relative error that
grows like |v|^2.  So the walk runs 2 bitlen(m) + 8 bits above `prec`, with m
also at least 2 max|v_i| + 1, and rounds each term back to `prec` before the
class sums.  Those terms are sorted by the float exponent -v^t (Im Sigma) v,
which is log|term| / pi, so no modulus is taken of an mpmath number.
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

from .lattices import _eliminate, ellipsoid_lines
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
    """Complex symmetric g x g matrix with positive definite imaginary part.

    Positive definiteness is decided exactly: the entries of Im Sigma are
    binary floats, so den Im Sigma is an integer matrix for a power of two
    den, and `_eliminate` gives its leading minors.
    """

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
        Y = [[(Fraction(x.imag) + Fraction(y.imag)) / 2 for x, y in zip(row, col)]
             for row, col in zip(mat, zip(*mat))]
        self._den = math.lcm(*(y.denominator for row in Y for y in row))
        self._imag = [[int(y * self._den) for y in row] for row in Y]
        self._elim = _eliminate(self._imag)
        if len(self._elim[2]) < g or any(d <= 0 for d in self._elim[2]):
            raise ValueError("Im Sigma must be positive definite")
        self._shortest = None   # min of n^t (Im Sigma) n over n != 0, on first use

    @property
    def g(self) -> int:
        return len(self.sigma)

    def imag_part(self):
        return np.array([[x.imag for x in row] for row in self.sigma])

    def min_imag_eigenvalue(self) -> float:
        if self.g == 0:
            return 1.0
        return float(np.linalg.eigvalsh(self.imag_part()).min())

    def _lines(self, bound: Fraction, a):
        """Lines of the n in Z^g with (n+a)^t (Im Sigma) (n+a) <= bound."""
        return ellipsoid_lines(*self._elim[2:], bound * self._den, [-x for x in a])

    def _least(self, a) -> Fraction:
        """min of v^t (Im Sigma) v over v != 0 in Z^g + a, exactly."""
        M = self._imag
        q = math.lcm(*(Fraction(x).denominator for x in a))
        shift = [int(q * x) for x in a]

        def norm(x):   # den q^2 v^t (Im Sigma) v for x = q v
            return sum(xi * sum(m * y for m, y in zip(row, x)) for row, xi in zip(M, x))

        # v = a, or a unit vector when a = 0, bounds the search
        best = norm(shift) if any(shift) else q * q * min(M[i][i] for i in range(self.g))
        for lo, hi, rest in self._lines(Fraction(best, q * q * self._den), a):
            tail = [q * r + s for r, s in zip(rest, shift[1:])]
            for n0 in range(lo, hi + 1):
                x = [q * n0 + shift[0]] + tail
                if any(x):
                    best = min(best, norm(x))
        return Fraction(best, q * q * self._den)


def _log_tail(g: int, rho: float, R: float) -> float:
    """log of (g/2) (2/rho)^g Gamma(g/2, (R - rho/2)^2).

    Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)), bounded above by
    2 e^{-x} / (sqrt(x) + sqrt(x + 4/pi)) where erfc underflows (Abramowitz
    and Stegun 7.1.13); Gamma(1, x) = e^{-x}; then the recursion.
    """
    x = (R - rho / 2) ** 2
    if g % 2:
        y = math.sqrt(x)
        log_gam = (0.5 * math.log(math.pi) + math.log(math.erfc(y)) if y < 20
                   else math.log(2 / (y + math.sqrt(x + 4 / math.pi))) - x)
        s = 0.5
    else:
        log_gam, s = -x, 1.0
    while s < g / 2:
        u, w = math.log(s) + log_gam, s * math.log(x) - x
        log_gam = max(u, w) + math.log1p(math.exp(-abs(u - w)))
        s += 1
    return math.log(g / 2) + g * math.log(2 / rho) + log_gam


def _truncation(a, point: SiegelPoint, prec: int):
    """(bound, eps): keep the v in Z^g + a with v^t (Im Sigma) v <= bound, and
    the dropped terms add up to at most eps (see the module docstring)."""
    g = point.g
    if point._shortest is None:
        point._shortest = point._least([0] * g)
    # a radius rho' <= rho keeps the balls disjoint, so the bound stays valid
    rho = math.sqrt(math.pi * point._shortest) * (1 - 1e-12)
    target = -(prec + 16) * math.log(2) - math.pi * float(point._least(a) if any(a) else 0)
    lo = hi = (math.sqrt(2 * g) + rho) / 2
    while _log_tail(g, rho, hi) > target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-9 * hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _log_tail(g, rho, mid) > target else (lo, mid)
    return Fraction(hi * hi / math.pi * (1 + 1e-12)), mpmath.exp(_log_tail(g, rho, hi))


def _packed(halves) -> int:
    return sum(int(2 * x) << k for k, x in enumerate(reversed(halves)))


def _line_terms(lines, a, point: SiegelPoint, prec: int) -> list:
    """exp(pi i v^t Sigma v) rounded to `prec` bits for v = n + a over the
    points n = (lo, *rest), ..., (hi, *rest) of each line in turn: the line
    walk of the module docstring, on raw libmp values in the inner loop.
    """
    g = point.g
    m = max(max(hi - lo + 1, 2 * max(map(abs, (lo, hi) + rest)) + 1)
            for lo, hi, rest in lines)
    wp = prec + 2 * m.bit_length() + 8  # guard bits: see the module docstring
    make = mpmath.mp.make_mpc
    out = []
    with mpmath.workprec(wp):
        S = [[mpmath.mpc(x) for x in row] for row in point.sigma]
        pi_i = mpmath.mpc(0, mpmath.pi)
        step = mpmath.exp(2 * pi_i * S[0][0])._mpc_
        for lo, hi, rest in lines:
            w = [mpmath.mpf(float(n + x)) for n, x in zip((lo,) + rest, a)]  # exact
            Sw = [sum(S[i][j] * w[j] for j in range(g)) for i in range(g)]
            z = mpmath.exp(pi_i * sum(x * y for x, y in zip(w, Sw)))._mpc_
            r = mpmath.exp(pi_i * (2 * Sw[0] + S[0][0]))._mpc_
            for _ in range(hi - lo + 1):
                out.append(make(mpc_pos(z, prec, "n")))
                z = mpc_mul(z, r, wp, "n")
                r = mpc_mul(r, step, wp, "n")
    return out


def _theta_row(a, point: SiegelPoint, prec: int):
    """([theta_{a,b}(Sigma) for 2b = 0 .. 2^g - 1], eps) from one pass over
    the ellipsoid; eps bounds the truncation error of every entry."""
    g = point.g
    if g == 0:
        return [mpmath.mpc(1) if prec > 53 else complex(1)], mpmath.mpf(0)
    a = [Fraction(x) for x in a]
    bound, eps = _truncation(a, point, prec)
    lines = list(point._lines(bound, a))
    count = np.array([hi - lo + 1 for lo, hi, _ in lines])
    n = np.repeat(np.array([(lo,) + rest for lo, _, rest in lines], dtype=np.int64), count, axis=0)
    n[:, 0] += np.arange(len(n)) - np.repeat(np.cumsum(count) - count, count)
    cls = np.zeros(len(n), dtype=np.int64)
    for col in n.T:
        cls <<= 1
        cls |= col & 1
    v = n + np.array([float(x) for x in a])  # exact: half-integers
    if prec <= 53:
        S = np.array(point.sigma, dtype=complex)
        terms = np.exp(1j * np.pi * np.einsum("ki,ij,kj->k", v, S, v))
        key = np.abs(terms)
        sums = np.zeros(2 ** g, dtype=complex)
    else:
        key = -np.einsum("ki,ij,kj->k", v, point.imag_part(), v)  # log|term| / pi
        terms = np.array(_line_terms(lines, a, point, prec), dtype=object)
        sums = np.array([mpmath.mpc(0)] * 2 ** g, dtype=object)
    with mpmath.workprec(prec):
        order = np.lexsort((key, cls))  # class, then |term| ascending
        cls = cls[order]
        first = np.flatnonzero(np.diff(cls, prepend=-1))
        sums[cls[first]] = np.add.reduceat(terms[order], first)
        alpha = _packed(a)
        return [z * (1, 1j, -1, -1j)[bin(alpha & beta).count("1") % 4]
                for beta, z in enumerate(_fwht(sums).tolist())], eps


def theta_constant(ch: ThetaChar, point: SiegelPoint, prec: int = 53):
    """theta_{a,b}(Sigma) = sum over n in Z^g of
    exp(pi i (n+a)^t Sigma (n+a) + 2 pi i (n+a).b)."""
    if len(ch.a) != point.g:
        raise ValueError("characteristic size must match the matrix")
    return _theta_row(ch.a, point, prec)[0][_packed(ch.b)]


def chi_g(point: SiegelPoint, prec: int = 53):
    """Product of the even theta constants at Sigma, taken at `prec` bits."""
    acc = mpmath.mpc(1) if prec > 53 else complex(1)
    with mpmath.workprec(prec):
        for a, same_a in itertools.groupby(even_characteristics(point.g), lambda ch: ch.a):
            row = _theta_row(a, point, prec)[0]
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
    exact: the `_eliminate` run of the integer matrix den Im Sigma that
    `SiegelPoint` keeps, den a power of 2.
    """
    g = point.g
    if g == 0:
        return mpmath.mpf(1)
    det, den, w = point._elim[0], point._den, chi8_weight(g)
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
