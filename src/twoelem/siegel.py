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
Sigma (n+a)) over the 2^g classes of n mod 2.  The class of n is read off its
low bits.  Bit vectors put the first coordinate in the most significant bit.

Only the terms depend on the precision; both paths walk the same lines.  A
line (n_1, ..., n_{g-1} fixed) is walked in n_0 from its peak p, the integer
nearest the exact minimiser of v^t (Im Sigma) v on the line, which is the
line's Fincke-Pohst centre, outward both ways: forward by
r = exp(pi i (Sigma_00 + 2 (Sigma v)_0)), backward by
exp(pi i (Sigma_00 - 2 (Sigma v)_0)), each ratio then stepping by
s = exp(2 pi i Sigma_00).  From the peak on, every ratio has modulus at most
1.  With 2^K Sigma = A a Gaussian integer matrix (its entries are binary
floats) and X = 2v, Q = X^t A X and B_0 = (A X)_0 are exact Gaussian
integers, built from the split of X into x_0 and the rest, so v^t Sigma v is
exact over 4 2^K and both ratio exponents over 2^K.  Each term goes into one
of the two parity sums of its line and these into the 2^g class sums; then
the Walsh-Hadamard transform and the power of i.

Up to 53 bits `_float_row` walks in complex doubles.  Its seeds come from
`_cis`, exp(pi i y / 2^e) for a Gaussian integer y = re + i im: with
im / 2^e = n + f, n an integer, the modulus is exp(-n pi_hi) exp(-(n pi_lo +
pi f)), pi_hi = pi to 32 bits so that n pi_hi is exact, and the angle is
pi ((re mod 2^(e+1)) / 2^e); f and that quotient are each one correctly
rounded int/int division.  `_cis` also returns exp(-pi i y / 2^e), from the
reciprocal modulus and the same angle.  Lines with the same n_2, ...,
n_{g-1} form a chain in n_1, and only each chain's central line is seeded:
its peak term, its forward ratio and R_d = exp(pi i (d^t Sigma d +
2 d^t Sigma v)), d = (delta, 1, 0, ..., 0) with delta the integer nearest
-Im Sigma_01 / Im Sigma_00; the backward ratios are s and exp(2 pi i d^t
Sigma d) times the reciprocals of the forward ones.  From there the peak
term and the ratios are carried to the other lines of the chain, outward
both ways, so that the carried error grows away from the largest terms: a
step by +-d, which lands within 3/2 of the next line's minimiser, then at
most one step in n_0 to that line's peak; each step multiplies the term by a
carried ratio and every carried ratio by exp(2 pi i u^t Sigma w), u and w in
{e_0, d}, five factors seeded once per point.  The terms in the ellipsoid
are at least exp(-pi bound), a point a step by d lands on at least
exp(-pi (bound + 9/4 Im Sigma_00)), and the ratios and factors used lie
within exp(+-4 pi Im Sigma_00) and exp(+-2 pi (Im Sigma_11 + Im Sigma_00 / 4)).
So a row with pi max(bound + 3 Im Sigma_00, 5 max_i Im Sigma_ii) >= 700,
whose values could leave the normal double range, takes the integer walk at
53 bits instead.

Above 53 bits `_fixed_row` computes the row in Python integers from start
to finish, each term the Gaussian integer z = floor(2^(wp+k) exp(pi i v^t
Sigma v)), taken partwise, with 2^k <= exp(pi mu_a): every term is at most
2^wp, and the row's largest one is near it even when the row lies far below
1.  A line start is one libmp `mpf_exp` and one `mpf_cos_sin_pi` on the
exact argument, its angle reduced mod 2, at 10 bits above the fixed-point
width, floored to an integer.  Ratios and s carry wp + x bits, 2^x > L, the
longest walk from a peak.  The class sums, their transform and the power of
i are exact, and each theta is rounded once to `prec` bits.

Fixed-point rounding bound.  In units of 2^-(wp+k) a line start is within
c_s = 3/2 of its exact value (under 1/16 from the libmp calls at a few ulps
each, under sqrt 2 from the floors), and so are r and s in units of
2^-(wp+x); every product floors by less than sqrt 2.  The ratio after i
steps is then within c_s + i (c_s + sqrt 2) of its value, in units of
2^-(wp+x), and since every exact term and ratio has modulus at most 1 in its
units, the j-th term from a peak is within E_j <= c_s + sqrt 2 j + 2^-x
sum_{i<j} (c_s + i (c_s + sqrt 2)) <= 1.55 + 2.88 j <= c (j + 1), c = 3,
using j <= L < 2^x.  So every theta is within c W 2^-(wp+k) of the exact sum
over the ellipsoid, W the sum over the terms of (steps from the peak + 1).
With wp = prec + bitlen(c W) + 4 that is at most 2^-(prec+4) 2^-k, within a
factor 2 of 2^-(prec+4) times the row's largest term.  The last rounding
adds at most 2^-prec |theta|; `_theta_row` returns the tail bound plus both.

Float rounding bound, to first order in u = 2^-53.  A `_cis` value is within
35 u of its modulus: the modulus within 16.6 u (1 ulp from each exp, 7.4 u
from pi f, 3.2 u from the sum, u from the product and u from the
reciprocal), the direction within 14.8 u from the angle and 2 u from cos
and sin, and u from the products with the modulus.  A complex product adds
at most sqrt 5 u (Brent, Percival and Zimmermann, Math. Comp. 76, 2007).
With e = 38 u every seed is within e, the backward ratios at a chain's
centre within 2 e, and each step multiplies every carried value by a factor
within 35 u.  Let D be 1 plus the number of carry steps from the chain's
seeds to a line.  Then every carried ratio is within (D + 1) e, and the
term j steps from the line's peak within e (m + 1)(m + 2)/2, m = D + j;
summed over a line walked f steps forward and b back, that is at most
e (tet(D + f) + tet(D + b)), tet(k) = (k+1)(k+2)(k+3)/6.  A line of n terms
adds them within u n^2 T, T its peak term, the largest on the line, with
n^2 <= 2 (D+f+1)^2 + 2 (D+b+1)^2.  The class sums add at most u (N - 1) and
the transform u g times the sum of n T over the lines, N the most lines in
one class.  With every value in the normal range, `_float_row` returns the
tail bound plus (1 + 2^-10) u times the sum over lines of T (38 tet(D + f)
+ 38 tet(D + b) + 2 (D+f+1)^2 + 2 (D+b+1)^2 + (N + g) n), T read off the
computed peak term.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import (from_man_exp, mpf_cos_sin_pi, mpf_exp, mpf_mul, mpf_pi,
                          round_nearest, to_fixed)

from .characteristics import ThetaChar, chi8_weight, even_characteristics
from .lattices import _eliminate, ellipsoid_lines
from .weil import _fwht

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
        # 2^K (Sigma + Sigma^t)/2 = _real + i _imag, integer matrices
        X, Y = ([[(Fraction(getattr(x, part)) + Fraction(getattr(y, part))) / 2
                  for x, y in zip(row, col)] for row, col in zip(mat, zip(*mat))]
                for part in ("real", "imag"))
        self._den = math.lcm(*(x.denominator for m in (X, Y) for row in m for x in row))
        self._K = self._den.bit_length() - 1
        self._real, self._imag = ([[int(x * self._den) for x in row] for row in m]
                                  for m in (X, Y))
        self._elim = _eliminate(self._imag)
        if len(self._elim[2]) < g or any(d <= 0 for d in self._elim[2]):
            raise ValueError("Im Sigma must be positive definite")
        self._mins = {}   # a -> least v^t (Im Sigma) v over v != 0 in Z^g + a

    @functools.cached_property
    def _float_steps(self):
        """The float walk's data at this point, see `_float_steps`."""
        return _float_steps(self)

    @property
    def g(self) -> int:
        return len(self.sigma)

    def _lines(self, bound: Fraction, a):
        """Lines of the n in Z^g with (n+a)^t (Im Sigma) (n+a) <= bound."""
        return ellipsoid_lines(*self._elim[2:], bound * self._den, [-x for x in a])

    def _least(self, a) -> Fraction:
        """min of v^t (Im Sigma) v over v != 0 in Z^g + a, exactly; kept per a."""
        a = tuple(Fraction(x) for x in a)
        if a in self._mins:
            return self._mins[a]
        M = self._imag
        q = math.lcm(*(x.denominator for x in a))
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
        self._mins[a] = Fraction(best, q * q * self._den)
        return self._mins[a]


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
    # a radius rho' <= rho keeps the balls disjoint, so the bound stays valid
    rho = math.sqrt(math.pi * point._least([0] * g)) * (1 - 1e-12)
    target = -(prec + 16) * math.log(2) - math.pi * float(point._least(a) if any(a) else 0)
    lo = hi = (math.sqrt(2 * g) + rho) / 2
    while _log_tail(g, rho, hi) > target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-3 * hi:   # hi meets the bound at every step
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _log_tail(g, rho, mid) > target else (lo, mid)
    return Fraction(hi * hi / math.pi * (1 + 1e-12)), mpmath.exp(_log_tail(g, rho, hi))


def _packed(halves) -> int:
    return sum(int(2 * x) << k for k, x in enumerate(reversed(halves)))


def _fixed_exp(re: int, im: int, e: int, bits: int, p: int):
    """The Gaussian integer floor(2^bits exp(pi i (re + i im) / 2^e)), partwise,
    from libmp calls at p bits on the exact argument (angle reduced mod 2)."""
    pt = p + max(0, im.bit_length() - e + 3)   # pi im / 2^e to within 2^-p
    mod = mpf_exp(mpf_mul(mpf_pi(pt), from_man_exp(-im, -e), pt), p)
    c, s = mpf_cos_sin_pi(from_man_exp(re % (2 << e), -e), p)
    return to_fixed(mpf_mul(mod, c, p), bits), to_fixed(mpf_mul(mod, s, p), bits)


def _walk(zr: int, zi: int, rr: int, ri: int, sr: int, si: int, steps: int, x: int):
    """Re and im of the sums of the terms z, z r, z r (r s), ... (steps + 1 of
    them) with even index, then with odd index; r and s carry x bits."""
    re, im = [zr], [zi]
    for _ in range(steps):
        zr, zi = (zr * rr - zi * ri) >> x, (zr * ri + zi * rr) >> x
        rr, ri = (rr * sr - ri * si) >> x, (rr * si + ri * sr) >> x
        re.append(zr)
        im.append(zi)
    return sum(re[::2]), sum(im[::2]), sum(re[1::2]), sum(im[1::2])


def _fixed_row(lines, a, point: SiegelPoint, prec: int, eps):
    """The multiprecision `_theta_row`: the fixed-point walk of the module
    docstring, in Python integers from the line starts to the class sums."""
    g = point.g
    K, Are, Aim = point._K, point._real, point._imag
    M = point._imag
    alpha = [int(2 * x) for x in a]
    mu = point._least(a) if any(a) else 0
    k = max(0, math.floor(math.pi * float(mu) / math.log(2) * (1 - 1e-9)))
    peaks, W, L = [], 0, 0
    for lo, hi, rest in lines:
        X = [2 * r + al for r, al in zip(rest, alpha[1:])]
        p = (M[0][0] * (1 - alpha[0]) - sum(m * y for m, y in zip(M[0][1:], X))) // (2 * M[0][0])
        f, b = hi - p, p - lo
        peaks.append((p, f, b, [2 * p + alpha[0]] + X, rest))
        W += (f + 1) * (f + 2) // 2 + b * (b + 3) // 2
        L = max(L, f, b)
    c = 3
    wp = prec + (c * W).bit_length() + 4
    rbits = wp + L.bit_length()
    lib = rbits + 10   # libmp precision: 10 bits above every fixed-point value
    a00r, a00i = Are[0][0], Aim[0][0]
    sr, si = _fixed_exp(2 * a00r, 2 * a00i, K, rbits, lib)
    sums_re, sums_im = [0] * 2 ** g, [0] * 2 ** g
    for p, f, b, X, rest in peaks:
        Br = [sum(m * y for m, y in zip(row, X)) for row in Are]
        Bi = [sum(m * y for m, y in zip(row, X)) for row in Aim]
        zr, zi = _fixed_exp(sum(map(int.__mul__, X, Br)), sum(map(int.__mul__, X, Bi)),
                            K + 2, wp + k, lib)
        er, ei, odr, odi = _walk(zr, zi, *_fixed_exp(a00r + Br[0], a00i + Bi[0], K, rbits, lib),
                                 sr, si, f, rbits)
        ber, bei, bor, boi = _walk(zr, zi, *_fixed_exp(a00r - Br[0], a00i - Bi[0], K, rbits, lib),
                                   sr, si, b, rbits)
        er, ei, odr, odi = er + ber - zr, ei + bei - zi, odr + bor, odi + boi
        cls = 0
        for r in rest:
            cls = cls << 1 | r & 1
        odd = cls | 1 << (g - 1)
        if p % 2:
            cls, odd = odd, cls
        sums_re[cls] += er
        sums_im[cls] += ei
        sums_re[odd] += odr
        sums_im[odd] += odi
    shift, packed, out, largest = wp + k, _packed(a), [], 0
    for beta, (re, im) in enumerate(zip(_fwht(sums_re), _fwht(sums_im))):
        for _ in range(bin(packed & beta).count("1") % 4):
            re, im = -im, re
        largest = max(largest, abs(re) + abs(im))
        out.append(mpmath.mp.make_mpc((from_man_exp(re, -shift, prec, round_nearest),
                                       from_man_exp(im, -shift, prec, round_nearest))))
    rounding = mpmath.mp.make_mpf(from_man_exp((c * W << prec) + largest, -(shift + prec)))
    return out, eps + rounding


_PI_HI = math.ldexp(round(math.ldexp(math.pi, 30)), -30)   # pi to 32 bits: n _PI_HI is exact
with mpmath.workprec(120):
    _PI_LO = float(mpmath.pi - _PI_HI)


def _cis(x: int, e: int, w: int):
    """exp(pi i y / 2^e) and exp(-pi i y / 2^e), y = re + i im given as
    x = re 2^w + im with |im| < 2^(w-1), each within 35 u of its modulus
    (module docstring).  With im / 2^e = n + f, n an integer, the modulus is
    exp(-n _PI_HI) exp(-(n _PI_LO + pi f)), the first argument exact; f and
    the angle, reduced mod 2, each come from one correctly rounded int/int
    division.  The second value takes the reciprocal modulus and the
    conjugate direction."""
    im = (x + (1 << w - 1) & (1 << w) - 1) - (1 << w - 1)
    n = im >> e
    f = (im & (1 << e) - 1) / (1 << e)
    mod = math.exp(-n * _PI_HI) * math.exp(-(n * _PI_LO + math.pi * f))
    angle = math.pi * ((((x - im) >> w) % (2 << e)) / (1 << e))
    return cmath.rect(mod, angle), cmath.rect(1 / mod, -angle)


_ULP = 2.0 ** -53 * (1 + 2.0 ** -10)   # u, with room for the bound's own rounding
_DEEP = 700   # float rows keep their values within exp(+-_DEEP), module docstring


@functools.cache
def _weight(m: int) -> int:
    """38 tet(m) + 2 (m+1)^2, tet(m) = (m+1)(m+2)(m+3)/6 the sum of
    (j+1)(j+2)/2 over 0 <= j <= m (module docstring)."""
    return 38 * ((m + 1) * (m + 2) * (m + 3) // 6) + 2 * (m + 1) ** 2


def _float_line(z: complex, rf: complex, rb: complex, s: complex, f: int, b: int):
    """`_walk` in complex doubles, both ways: the sums of the terms of a line
    an even, then an odd number of steps from its peak term z, walked f steps
    forward by rf and b back by rb, each ratio stepping by s."""
    even, odd = z, 0j
    for r, steps in ((rf, f), (rb, b)):
        t = z
        for _ in range(steps >> 1):
            t *= r
            r *= s
            odd += t
            t *= r
            r *= s
            even += t
        if steps & 1:
            odd += t * r
    return even, odd


def _float_steps(point: SiegelPoint):
    """(w, P, delta, dad, steps): A = 2^K Sigma as the Gaussian integers
    P_ij = re 2^w + im, w wide enough that every value `_float_row` unpacks
    has |im| < 2^(w-1); delta the integer nearest -Im Sigma_01 / Im Sigma_00,
    so d = (delta, 1, 0, ...); d^t A d packed the same way; and the step
    factors E, 1/E, F, 1/F, G, the exp(2 pi i u^t Sigma v) for u^t v =
    e_0^t e_0, e_0^t d and d^t d."""
    g, K, Aim = point.g, point._K, point._imag
    diag = [Aim[i][i] for i in range(g)]
    delta = (diag[0] - 2 * Aim[0][1]) // (2 * diag[0]) if g > 1 else 0
    # |X_i|^2 <= 4 bound 2^K tr^(g-1) / det, tr and det those of 2^K Im Sigma, and on the
    # float path pi bound < _DEEP, so |X_i|^2 < xmax
    xmax = 4 * _DEEP * point._den * sum(diag) ** (g - 1) // point._elim[0] + 1
    w = max(diag).bit_length() + xmax.bit_length() + 2 * (g * (abs(delta) + 2)).bit_length() + 4
    P = [[(x << w) + y for x, y in zip(rr, ri)] for rr, ri in zip(point._real, Aim)]
    steps, dad = _cis(2 * P[0][0], K, w), 0
    if g > 1:
        ad0 = delta * P[0][0] + P[0][1]                             # (A d)_0
        dad = delta * (delta * P[0][0] + 2 * P[0][1]) + P[1][1]     # d^t A d
        steps += _cis(2 * ad0, K, w) + _cis(2 * dad, K, w)[:1]
    return w, P, delta, dad, steps


def _float_row(lines, a, point: SiegelPoint, eps):
    """The 53-bit `_theta_row`: the float walk of the module docstring, the
    peaks carried along each chain from its central line."""
    g, K, Aim = point.g, point._K, point._imag
    w, P, delta, dad, (E, Einv, *FG) = point._float_steps
    mul = int.__mul__
    alpha = [int(2 * x) for x in a]
    al0, alr, p00 = alpha[0], alpha[1:], P[0][0]
    row0, rows = P[0][1:], [r[1:] for r in P[1:]]
    top, den = Aim[0][0] * (1 - al0), 2 * Aim[0][0]   # a line's peak is (top - Im C) // den
    if g > 1:
        F, Finv, G = FG
        cstep, p10 = 2 * Aim[0][1], P[1][0]
    else:   # the one line, as a chain with m_1 = 0
        lines = [(lo, hi, (0,)) for lo, hi, _ in lines]
    bit1, bit0 = (1 << g - 2 if g > 1 else 0), 1 << g - 1
    half, mask = 1 << w - 1, (1 << w) - 1
    sums = [[] for _ in range(2 ** g)]
    weight = mass = 0.0
    for _, chain in itertools.groupby(lines, key=lambda ln: ln[2][1:]):
        chain = list(chain)
        c = len(chain) // 2
        rest = chain[c][2]
        # the seeds at the peak of the central line, from exact Gaussian integers:
        # C = (A X)_0 - A_00 x_0, B_0 = (A X)_0, Q = X^t A X, (A X)_1
        Xr = [2 * r + al for r, al in zip(rest, alr)]
        C = sum(map(mul, row0, Xr))
        ci = (C + half & mask) - half
        p0 = (top - ci) // den
        x0 = 2 * p0 + al0
        Y = [sum(map(mul, r, Xr)) for r in rows]
        B0 = p00 * x0 + C
        z0 = _cis(x0 * (B0 + C) + sum(map(mul, Xr, Y)), K + 2, w)[0]
        rf0, rb0 = _cis(p00 + B0, K, w)
        rb0 *= E   # exp(pi i (A_00 - B_0) / 2^K): one step from a seed
        base = 0
        for r in rest[1:]:
            base = base << 1 | r & 1
        for part, sgn in ((chain[c:], 1), (chain[c - 1::-1] if c else [], -1)):
            # D = 1 + the carry steps: rb0 and the backward rd are a step from a seed
            z, rf, rb, p, m1, cim, D = z0, rf0, rb0, p0, rest[0], ci, 1
            if len(part) > (sgn > 0):   # d^t A X = delta B_0 + (A X)_1
                rd = _cis(dad + delta * B0 + p10 * x0 + Y[0], K, w)
                rd = rd[0] if sgn > 0 else rd[1] * G
                Fs, Fi = (F, Finv) if sgn > 0 else (Finv, F)
            for lo, hi, mr in part:
                while m1 != mr[0]:   # a step by sgn d, then the shift to that line's peak
                    z, rd, rf, rb = z * rd, rd * G, rf * Fs, rb * Fi
                    p, m1, cim, D = p + sgn * delta, m1 + sgn, cim + sgn * cstep, D + 1
                    peak = (top - cim) // den
                    while peak > p:
                        z, rf, rb, rd, p, D = z * rf, rf * E, rb * Einv, rd * Fs, p + 1, D + 1
                    while peak < p:
                        z, rb, rf, rd, p, D = z * rb, rb * E, rf * Einv, rd * Fi, p - 1, D + 1
                # the line's terms outward from its peak, summed by the parity of n_0 - p
                even, odd = _float_line(z, rf, rb, E, hi - p, p - lo)
                cls = base | (m1 & 1) * bit1 | (p & 1) * bit0
                sums[cls].append(even)
                sums[cls ^ bit0].append(odd)
                t = abs(z)
                weight += t * (_weight(D + hi - p) + _weight(D + p - lo))
                mass += t * (hi - lo + 1)
    weight += mass * (max(map(len, sums)) + g)
    packed = _packed(a)
    row = _fwht([sum(zs, 0j) for zs in sums])
    return [z * (1, 1j, -1, -1j)[bin(packed & beta).count("1") % 4]
            for beta, z in enumerate(row)], eps + weight * _ULP


def _theta_row(a, point: SiegelPoint, prec: int):
    """([theta_{a,b}(Sigma) for 2b = 0 .. 2^g - 1], eps) from one pass over
    the ellipsoid; eps bounds the error of every entry: the tail bound plus
    the stated rounding bound."""
    g = point.g
    if g == 0:
        return [mpmath.mpc(1) if prec > 53 else complex(1)], mpmath.mpf(0)
    a = [Fraction(x) for x in a]
    bound, eps = _truncation(a, point, prec)
    lines = list(point._lines(bound, a))
    diag = [point._imag[i][i] / point._den for i in range(g)]
    if prec > 53 or math.pi * max(float(bound) + 3 * diag[0], 5 * max(diag)) >= _DEEP:
        return _fixed_row(lines, a, point, max(prec, 53), eps)
    return _float_row(lines, a, point, eps)


def theta_constant(ch: ThetaChar, point: SiegelPoint, prec: int = 53):
    """theta_{a,b}(Sigma) = sum over n in Z^g of
    exp(pi i (n+a)^t Sigma (n+a) + 2 pi i (n+a).b)."""
    if len(ch.a) != point.g:
        raise ValueError("characteristic size must match the matrix")
    return _theta_row(ch.a, point, prec)[0][_packed(ch.b)]


def _even_thetas(point: SiegelPoint, prec: int) -> list:
    """The even theta constants at Sigma in `even_characteristics` order,
    from one `_theta_row` per a."""
    out = []
    for a, same_a in itertools.groupby(even_characteristics(point.g), lambda ch: ch.a):
        row = _theta_row(a, point, prec)[0]
        out.extend(row[_packed(ch.b)] for ch in same_a)
    return out


def _chi(thetas, prec: int):
    """chi_g from its theta factors, an mpmath complex multiplied at
    max(prec, 53) + 10 bits.  Its exponent range is unbounded: a product of up
    to 528 theta constants leaves the double range routinely."""
    with mpmath.workprec(max(prec, 53) + 10):
        acc = mpmath.mpc(1)
        for z in thetas:
            acc *= z
    return acc


def _petersson(point: SiegelPoint, chi, prec: int):
    """`chi_g8_petersson` from chi_g at the point (`_chi`)."""
    g = point.g
    if g == 0:
        return mpmath.mpf(1)
    det, den, w = point._elim[0], point._den, chi8_weight(g)
    with mpmath.workprec(max(prec, 53) + 10):
        modulus = abs(chi)
    with mpmath.workprec(max(prec, 53)):
        return mpmath.mpf(det ** w) / mpmath.mpf(den) ** (g * w) * modulus ** 16


def chi_g(point: SiegelPoint, prec: int = 53):
    """Product of the even theta constants at Sigma, as an mpmath complex."""
    return _chi(_even_thetas(point, prec), prec)


def chi_g8_petersson(point: SiegelPoint, prec: int = 53):
    """(det Im Sigma)^{2^{g+1}(2^g+1)} |chi_g^8|^2 as an mpmath real.

    chi_g is the product of the even theta constants as an mpmath complex
    (`_chi`), so neither it nor the 16th power of its modulus leaves the
    exponent range: at g = 3 and Sigma = 40i I + 0.1i off the diagonal the
    norm is about 1e-9673, which the product of the 36 complex doubles
    would flush to 0.  det Im Sigma is exact: the `_eliminate` run of the
    integer matrix den Im Sigma that `SiegelPoint` keeps, den a power of 2.
    """
    return _petersson(point, _chi(_even_thetas(point, prec), prec), prec)


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

    log|chi| is taken from chi as an mpmath complex (`_chi`), so a chi far
    below the double range still gives a point.  The two largest-|t| points
    are dropped (they carry the slowly-decaying log log correction).  Returns
    (slope, max_residual).
    """
    pts = sorted(t_grid, key=abs)
    if len(pts) < 6:
        raise ValueError("need at least 6 grid points")
    pts = pts[:-2]
    xs, ys = [], []
    for t in pts:
        aval = abs(_chi(_even_thetas(family(t), prec), prec))
        if not aval:
            raise ValueError(f"chi vanished to numerical zero at t = {t}")
        xs.append(2 * math.log(abs(t)))
        ys.append(16 * float(mpmath.log(aval)))
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
             / sum((x - mean_x) ** 2 for x in xs))
    intercept = mean_y - slope * mean_x
    resid = max(abs(y - slope * x - intercept) for x, y in zip(xs, ys))
    return slope, resid
