"""Numerics on the Siegel upper half-space: theta constants with
half-integer characteristics, the product chi_g over the even ones, its
Petersson norm, and one-parameter degeneration families with vanishing-order
slope fits.

Truncation: theta_{a,b} sums over the ellipsoid pi v^t (Im Sigma) v <= R^2,
v in Z^g + a, with the tail bound of Deconinck, Heil, Bobenko, van Hoeij and
Schmies (Math. Comp. 73, 2004, Theorem 2): the dropped terms add up to at
most eps(R) = (g/2) (2/rho)^g Gamma(g/2, (R - rho/2)^2) in modulus, with
rho^2 = pi min_{n != 0} n^t (Im Sigma) n, once R >= (sqrt(2g) + rho)/2.  Row
a needs R_a, the least radius with eps(R_a) <= 2^-(prec+16) exp(-pi mu_a),
mu_a the least v^t (Im Sigma) v over Z^g + a: the bound is relative to the
row's largest term, since for a != 0 the whole row can lie far below 1.
`SiegelPoint._mins` holds every mu_a, indexed by packed 2a, from one search.
rho is that of Z^g for every coset, so the one radius R of the largest mu_a
serves every row: the terms a row drops lie outside R >= R_a, and they add
up to at most eps(R) <= eps(R_a).  `_truncation` bisects for it once per
point and precision.  Gamma(s, x) at half-integer s is erfc or exp plus the
recursion Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}, in the log domain.

One pass serves every (a, b).  It walks x = 2(n + a) over Z^g up to sign,
each term exp(pi i x^t Sigma x / 4), which is even in x: the lines of the
half-space integer Fincke-Pohst search `lattices.ellipsoid_lines`, one of
each pair +-x and the origin once, with x^t (den Im Sigma) x <= 4 den R^2 /
pi, den the power of two that makes den Im Sigma integral, so membership is
decided exactly.  Since exp(2 pi i (n+a).b) = i^{x.2b} depends only on x mod
4, the pass sums the terms into the 4^g classes of x mod 4, split along a
line by their steps from its peak mod 4.  Row a, alpha = 2a, owns the 2^g
classes alpha + 2 nu, and theta_{a,b} is i^k times entry 2b of the
Walsh-Hadamard transform of their sums over nu, k = popcount(alpha & 2b).
The mirror -x of x lies in alpha + 2 (nu ^ alpha), in the same row, so the
sums over Z^g are the half-space ones folded, s[nu] + s[nu ^ alpha], less
the origin's term 1, its own mirror, once.  After the transform the fold is
the factor 1 + (-1)^k: 2 on the even characteristics, exactly 0 on the odd
ones.  So a pass takes half the origin's 1 off class 0, transforms the
half-space sums and multiplies entry 2b by i^k (1 + (-1)^k), `_MIRROR`.
Bit vectors put the first coordinate in the most significant bit.  `_table`
keeps the rows by packed 2a, each with its eps(R) plus its own rounding
bound, on the point per precision; `chi_g`, `chi_g8_petersson` and
`theta_constant` read them.

The chain walk.  A line (x_1, ... fixed) is summed in x_0 both ways from
its peak, the integer nearest its exact minimiser of x^t (Im Sigma) x, by
R_{+-e_0}, each ratio stepping by exp(2 pi i Sigma_00 / 4), all of modulus
at most 1.  Lines with the same x_2, ... form a chain, chains with the same
x_3, ... a sheet.  A step by u multiplies the term by R_u = exp(pi i (u^t
Sigma u + 2 u^t Sigma x) / 4) and each R_w by exp(2 pi i w^t Sigma u / 4);
the walk carries the term and R_+-u, u in {e_0, d_1, d_2}: d_1 = (delta, 1,
0, ...) with delta nearest -Im Sigma_01 / Im Sigma_00, d_2 = (delta_20,
delta_21, 1, 0, ...) with delta_21 nearest the x_1 shift of the slice
minimiser per unit x_2, delta_20 nearest the x_0 shift of the line minimiser
along (0, delta_21, 1); the directions depend only on ratios of Im Sigma,
so the quarter leaves them alone.  A sheet is seeded once, at the peak of
the centre line x_1^* (nearest the slice minimiser) of its middle chain; the
zero sheet, x_3 = ... = 0, whose half holds the chains x_2 >= 0 and in the
chain x_2 = 0 the lines x_1 >= 0, at its chain x_2 = 0, so at the origin.  The
term and the R_u from exact Gaussian integers (X^t A X / 2^(K+4) and (u^t A
u + u^t A X) / 2^(K+2), 2^K Sigma = A, X = 2x), R_-u = exp(2 pi i u^t Sigma
u / 4) / R_u; the step factors once per pass.  The walk goes outward, so that
the carried error grows away from the largest terms: to the next chain's
centre by +-d_2, then in x_0 to the peak and by d_1 to x_1^*; to a line by
+-d_1 from its chain's centre, each step followed by at most one in x_0.  D
is 1 plus the steps from the seeds.

Up to 53 bits the values are complex doubles.  `_cis` gives exp(+-pi i y /
2^e), y = re + i im: with im / 2^e = n + f, n an integer, the modulus is
exp(-n pi_hi) exp(-(n pi_lo + pi f)), n pi_hi exact, and the angle
pi ((re mod 2^(e+1)) / 2^e), f and that quotient each one correctly rounded
int/int division.  A visited x lies within 1 in x_0 of its line's minimiser,
on a line below the bound or, after a step by d_2, within 1 in x_1 of its
slice's minimiser: x^t (Im Sigma) x / 4 <= B = bound + (Im Sigma_00 + Im
Sigma_11) / 4.  By Cauchy-Schwarz the ratios lie within exp(+-pi (U + 2
sqrt(U B))) and the factors within exp(+-2 pi U), U the largest u^t (Im
Sigma) u / 4; a pass with pi max(B, 2 U, U + 2 sqrt(U B)) >= 700 takes the
multiprecision walk.

Float rounding bound, to first order in u = 2^-53.  A `_cis` value is within
35 u of its modulus: the modulus within 16.6 u (1 ulp from each exp, 7.4 u
from pi f, 3.2 u from the sum, u from the product and u from the
reciprocal), the direction within 14.8 u from the angle and 2 u from cos and
sin, and u from the products with the modulus.  A complex product adds
sqrt 5 u (Brent, Percival and Zimmermann, Math. Comp. 76, 2007).  With e =
38 u a seed is within e, R_-u at a seed within 2 e, and a step multiplies
each carried value by a factor within 35 u: a carried ratio is within (D +
1) e, and the term j steps from the peak within e (m + 1)(m + 2)/2 of its
modulus, m = D + j.  A line walked f steps forward and b back adds its n =
f + b + 1 terms into four sums within u n per term, the class sums add u
(N - 1), N the lines with terms in the row, taking half the origin off class
0 adds u, and the transform u g, each times the sum of the row's |terms|.
The fold multiplies by 2 or 0 exactly; as each mirrored term is an exact
copy of a computed one, it doubles every error.  So row a returns the tail
bound plus 2 (1 + 2^-10) u (sum_lines (19 (M + 1)(M + 2) + n) S + (N + g)
sum_lines S), S the sum of the computed |terms| of the row on the line, M =
D + max(f, b): each row is charged with its own terms, twice.

Above 53 bits a carried value is a `_Gauss` (re + i im) 2^e floored to p
bits in the larger part after each product, a seed one libmp
`mpf_cos_sin_pi` on the exact angle and one `mpf_exp` each way it is read
at p + 10 bits; with u = 2^-p a seed is within 3 u (2 sqrt 2 u from the floors),
a product adds 2 sqrt 2 u, and the count above holds with e = 6 u.  A line
is walked in fixed point, terms at 2^(wp+k), 2^k <= exp(pi mu), mu the
largest mu_a, and ratios at 2^(wp+k+l), 2^l > L, the longest walk from a
peak; the exact terms and ratios are at most 1, and each step floors by
less than sqrt 2 units of 2^-(wp+k).  So the j-th term from a peak is
within 3 (j + 1) units plus e (m + 1)(m + 2)/2 T, T the largest term of its
parity on the line: the peak term for those an even number of steps out,
else |z| |R_{+-e_0}| at the peak, as each side shrinks away from the peak.
The class sums, the transform and the fold are exact, and the fold doubles
every term's error: row a is within 2 (3 W_a 2^-(wp+k) + (1 + 2^-10) e sum T
(tet(D + f) + tet(D + b))) over its parts of lines, tet(k) = C(k + 3, 3),
W_a the sum over its walked terms of (steps from the peak + 1), plus 2^-prec
|theta| from its one rounding.  The sizes come from exact extents of x^t M x
<= B, M = den Im Sigma: |x_i| <= e_i = floor sqrt(B adj(M)_ii / det M), a
line has at most L = floor sqrt(4 B / M_00) steps, and there are at most
N' = prod_{i >= 1} (2 e_i + 1) lines.  wp = prec + bitlen(6 W') + 4, W' =
N' (L + 1)(L + 2)/2 >= W_a, and p = prec + 4 + bitlen(24 N' tet(D' + L)),
D' = 7 + 4 e_1 + 8 e_2, keep both below 2^-(prec+4) 2^-k, and so below
2^-(prec+4) times each row's largest term, also for a row far below 1; p
grows with log D, so the walk never re-seeds.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import (from_man_exp, mpf_cos_sin_pi, mpf_exp, mpf_mul, mpf_neg, mpf_pi,
                          round_nearest, to_fixed)

from .characteristics import ThetaChar, _even_rows, chi8_weight
from .lattices import (_clear, _dot, _eliminate, _fwht, _integer, _pack, _positive_definite,
                       _quad, ellipsoid_lines)

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
        if any(len(row) != g for row in mat):
            raise ValueError("matrix must be square")
        if any(abs(mat[i][j] - mat[j][i]) > 1e-12 * (1 + abs(mat[i][j]))
               for i in range(g) for j in range(g)):
            raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "sigma", mat)
        # 2^K (Sigma + Sigma^t)/2 = _real + i _imag, integer matrices
        ints, self._den = _clear([(Fraction(getattr(x, part)) + Fraction(getattr(y, part))) / 2
                                  for part in ("real", "imag")
                                  for row, col in zip(mat, zip(*mat)) for x, y in zip(row, col)])
        self._K = self._den.bit_length() - 1
        rows = [ints[k * g:(k + 1) * g] for k in range(2 * g)]
        self._real, self._imag = rows[:g], rows[g:]
        self._elim = _eliminate(self._imag)
        if not _positive_definite(self._elim):
            raise ValueError("Im Sigma must be positive definite")
        self._tables = {}   # prec -> the theta table of `_table`

    @functools.cached_property
    def _carry(self):
        """(dirs, U, y, S, uAu): the directions e_0, d_1, d_2 as far as g goes,
        in 3 coordinates, the largest u^t (Im Sigma) u, the top left 3 x 3
        block of den Im Sigma padded with 0, its 2 x 2 minor (1 at g = 1),
        and the u^t A u, A = 2^K Sigma, as re, im pairs."""
        g, Y = self.g, self._imag
        y = [[Y[i][j] if i < g and j < g else 0 for j in range(3)] for i in range(3)]
        (y00, y01, y02), (_, y11, y12) = y[:2]
        S = y00 * y11 - y01 * y01 if g > 1 else 1
        delta = (y00 - 2 * y01) // (2 * y00)
        d21 = (2 * (y01 * y02 - y00 * y12) + S) // (2 * S) if g > 2 else 0
        d20 = (y00 - 2 * (y01 * d21 + y02)) // (2 * y00)
        dirs = [(u + [0, 0])[:3] for u in ([1], [delta, 1], [d20, d21, 1])[:g]]
        uAu = [[_quad(u, M, u) for M in (self._real, Y)] for u in dirs]
        return dirs, max(im for _, im in uAu) / self._den, y, S, uAu

    @property
    def g(self) -> int:
        return len(self.sigma)

    @functools.cached_property
    def _mins(self) -> list:
        """[mu_a for packed 2a = 0 .. 2^g - 1], mu_a the least v^t (Im Sigma) v
        over v != 0 in Z^g + a, exactly, from one half-space search for every a."""
        M, g = self._imag, self.g
        # den x^t M x over x = 2v != 0 per class of x mod 2 (2a packed), each at most
        # that of x = 2a or of x = 2 e_i, the largest of them bounding the search; -x
        # is in the class of x, so the half-space search finds every least
        best = [_quad(x, M, x) for x in itertools.product((0, 1), repeat=g)]
        best[0] = 4 * min(M[i][i] for i in range(g))
        for lo, hi, rest in ellipsoid_lines(self._elim, max(best), half=True):
            # the line is symmetric about its minimiser, whose floor is c, so each
            # parity's least on it is at c or c + 1 (x = +-2 e_0 is in best[0])
            c = -_dot(M[0][1:], rest) // M[0][0]
            for x0 in range(max(c, lo), min(c + 1, hi) + 1):
                x = (x0, *rest)
                k = _pack(t & 1 for t in x)
                if any(x):
                    best[k] = min(best[k], _quad(x, M, x))
        return [Fraction(b, 4 * self._den) for b in best]


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


def _truncation(mu, point: SiegelPoint, prec: int):
    """(bound, eps): keep the v of a coset with v^t (Im Sigma) v <= bound, and
    the dropped terms of a row whose least v^t (Im Sigma) v is mu add up to at
    most eps (see the module docstring)."""
    g = point.g
    # a radius rho' <= rho keeps the balls disjoint, so the bound stays valid
    rho = math.sqrt(math.pi * point._mins[0]) * (1 - 1e-12)
    target = -(prec + 16) * math.log(2) - math.pi * float(mu)
    lo = hi = (math.sqrt(2 * g) + rho) / 2
    while _log_tail(g, rho, hi) > target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1e-3 * hi:   # hi meets the bound at every step
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if _log_tail(g, rho, mid) > target else (lo, mid)
    return Fraction(hi * hi / math.pi * (1 + 1e-12)), mpmath.exp(_log_tail(g, rho, hi))


def _phi(seed, point: SiegelPoint):
    """phi[i][j]: exp(2 pi i u_i^t Sigma u_j / 4), the factor of a step by u_j
    in R_{u_i} on the x-walk, and its inverse, from `seed`, once per unordered
    pair: A is symmetrised, so phi[j][i] is phi[i][j]."""
    dirs, A, K = point._carry[0], (point._real, point._imag), point._K + 2
    phi = [[None] * len(dirs) for _ in dirs]
    for i, j in itertools.combinations_with_replacement(range(len(dirs)), 2):
        phi[i][j] = phi[j][i] = seed(*(2 * _quad(dirs[i], M, dirs[j]) for M in A), K)
    return phi


_PI_HI = math.ldexp(round(math.ldexp(math.pi, 30)), -30)   # pi to 32 bits: n _PI_HI is exact
with mpmath.workprec(120):
    _PI_LO = float(mpmath.pi - _PI_HI)


def _cis(re: int, im: int, e: int):
    """exp(pi i y / 2^e) and exp(-pi i y / 2^e) in complex doubles, y = re +
    i im, each within 35 u of its modulus (module docstring)."""
    n, f = im >> e, (im & (1 << e) - 1) / (1 << e)
    mod = math.exp(-n * _PI_HI) * math.exp(-(n * _PI_LO + math.pi * f))
    angle = math.pi * ((re % (2 << e)) / (1 << e))
    return cmath.rect(mod, angle), cmath.rect(1 / mod, -angle)


class _Gauss:
    """(re + i im) 2^e, a carried value of the multiprecision walk."""

    __slots__ = ("re", "im", "e", "p")

    def __init__(self, re: int, im: int, e: int, p: int):
        self.re, self.im, self.e, self.p = re, im, e, p

    def __mul__(self, o):   # floored partwise to p bits in the larger part
        re, im = self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        n = max(re.bit_length(), im.bit_length()) - self.p
        return _Gauss(re >> n, im >> n, self.e + o.e + n, self.p)

    def fixed(self, bits: int):   # floor(2^bits value), partwise
        s = self.e + bits
        return (self.re << s, self.im << s) if s >= 0 else (self.re >> -s, self.im >> -s)


def _fixed_exp(re: int, im: int, e: int, p: int, signs=(1, -1)):
    """exp(sign pi i y / 2^e) for each sign as `_Gauss` values of p bits,
    y = re + i im, from libmp at p + 10 bits (module docstring)."""
    lib = p + 10
    pt = lib + max(0, im.bit_length() - e + 3)   # pi im / 2^e to within 2^-lib
    arg = mpf_mul(mpf_pi(pt), from_man_exp(-im, -e), pt)
    c, s = mpf_cos_sin_pi(from_man_exp(re % (2 << e), -e), lib)
    out = []
    for sign in signs:
        mod = mpf_exp(arg if sign > 0 else mpf_neg(arg), lib)
        bits = p - mod[2] - mod[3]   # 2^(p-1) <= 2^bits mod < 2^p
        out.append(_Gauss(to_fixed(mpf_mul(mod, c, lib), bits),
                          sign * to_fixed(mpf_mul(mod, s, lib), bits), -bits, p))
    return out


# the slot x_0 - peak mod 4 of the terms 1, 2, ... steps ahead of a line's peak and back
_AHEAD, _BACK = (1, 2, 3, 0), (3, 2, 1, 0)
# i^k (1 + (-1)^k) by k = popcount(alpha & 2b) mod 4: the phase and the fold (module docstring)
_MIRROR = (2, 0, -2, 0)


class _Fixed:
    """The multiprecision arithmetic: `_Gauss` values carried at p bits, each
    line walked in fixed point, exact class sums (module docstring)."""

    def __init__(self, point: SiegelPoint, bound: int, mu, prec: int):
        g, M, (det, adj) = point.g, point._imag, point._elim[:2]
        self.k = max(0, math.floor(math.pi * float(mu) / math.log(2) * (1 - 1e-9)))
        # x^t M x <= bound: |x_i| <= e_i, a line has at most L steps, and there are at most N lines
        e = [math.isqrt(bound * adj[i][i] // det) for i in range(g)] + [0, 0]
        L, N = math.isqrt(4 * bound // M[0][0]), math.prod(2 * t + 1 for t in e[1:g])
        self.wp = prec + (3 * N * (L + 1) * (L + 2)).bit_length() + 4
        self.x = self.wp + self.k + L.bit_length()
        self.p = prec + 4 + (24 * N * math.comb(10 + 4 * e[1] + 8 * e[2] + L, 3)).bit_length()
        self.prec, self.g = prec, g
        self.re, self.im = [0] * 4 ** g, [0] * 4 ** g
        self.W, self.weight = [0] * 2 ** g, [0] * 2 ** g
        self.seed = functools.partial(_fixed_exp, p=self.p)
        self.peak = functools.partial(_fixed_exp, p=self.p, signs=(1,))
        self.phi = _phi(self.seed, point)
        self.s = self.phi[0][0][0].fixed(self.x)

    def line(self, z, rf, rb, f: int, b: int, D: int, cls):
        """Add the terms of a line to the classes cls[x_0 - peak mod 4], walked
        from its peak term z f steps by rf and b back by rb, and charge the rows
        of the peak's parity and of the other their W and weight."""
        x, (sr, si), (zr, zi) = self.x, self.s, z.fixed(self.wp + self.k)
        re, im, odd = [zr, 0, 0, 0], [zi, 0, 0, 0], 0
        for r, steps, slots in ((rf, f, _AHEAD), (rb, b, _BACK)):
            (rr, ri), tr, ti = r.fixed(x), zr, zi
            if steps:   # at least |re| + |im| of the term one step out, the largest of its parity
                odd = max(odd, ((abs(zr) + abs(zi)) * (abs(rr) + abs(ri)) >> x) + 1)
            for k in itertools.islice(itertools.cycle(slots), steps):
                tr, ti = (tr * rr - ti * ri) >> x, (tr * ri + ti * rr) >> x
                rr, ri = (rr * sr - ri * si) >> x, (rr * si + ri * sr) >> x
                re[k] += tr
                im[k] += ti
        for k, c in enumerate(cls):
            self.re[c] += re[k]
            self.im[c] += im[k]
        even, other, tets = cls[0] >> self.g, cls[1] >> self.g, math.comb(D + f + 3, 3) + math.comb(D + b + 3, 3)
        hf, hb = f + 1 >> 1, b + 1 >> 1   # sum (j + 1) over the j = 0..f, 1..b of each parity
        self.W[even] += ((f >> 1) + 1) ** 2 + ((b >> 1) + 1) ** 2 - 1
        self.W[other] += hf * (hf + 1) + hb * (hb + 1)
        self.weight[even] += (abs(zr) + abs(zi)) * tets
        self.weight[other] += odd * tets

    def finish(self, eps):
        g, shift, prec, p, out = self.g, self.wp + self.k, self.prec, self.p, []
        self.re[0] -= 1 << shift - 1   # half the origin's term 1
        for alpha in range(2 ** g):
            cut, row, largest = slice(alpha << g, alpha + 1 << g), [], 0
            for beta, (re, im) in enumerate(zip(_fwht(self.re[cut]), _fwht(self.im[cut]))):
                m = _MIRROR[(alpha & beta).bit_count() % 4]
                re, im = m * re, m * im
                largest = max(largest, abs(re) + abs(im))
                row.append(mpmath.mp.make_mpc((from_man_exp(re, -shift, prec, round_nearest),
                                               from_man_exp(im, -shift, prec, round_nearest))))
            # 2 (3 W + (1 + 2^-10) 6 2^-p weight) + 2^-prec |theta|, in units of 2^-shift
            num = (((6 * self.W[alpha] << prec) + largest << p + 10)
                   + (12 * 1025 * self.weight[alpha] << prec))
            out.append((row, eps + mpmath.mp.make_mpf(from_man_exp(num, -(shift + prec + p + 10)))))
        return out


_ULP = 2.0 ** -53 * (1 + 2.0 ** -10)   # u, with room for the bound's own rounding
_DEEP = 700   # float walks keep their values within exp(+-_DEEP), module docstring


class _Floats:
    """The 53-bit arithmetic: complex doubles throughout (module docstring)."""

    seed = peak = staticmethod(_cis)

    def __init__(self, point: SiegelPoint):
        g = self.g = point.g
        self.phi = _phi(_cis, point)
        self.s, self.sums = self.phi[0][0][0], [0j] * 4 ** g
        self.weight, self.mass, self.lines = [0.0] * 2 ** g, [0.0] * 2 ** g, [0] * 2 ** g

    def line(self, z, rf, rb, f: int, b: int, D: int, cls):
        """`_Fixed.line` in complex doubles, each row charged with the moduli of
        its own terms."""
        s, out, mass = self.s, [z, 0j, 0j, 0j], [abs(z), 0.0, 0.0, 0.0]
        for r, steps, slots in ((rf, f, _AHEAD), (rb, b, _BACK)):
            t = z
            for k in itertools.islice(itertools.cycle(slots), steps):
                t *= r
                r *= s
                out[k] += t
                mass[k] += abs(t)
        for k, c in enumerate(cls):
            self.sums[c] += out[k]
        m = D + max(f, b)   # 38 (m+1)(m+2)/2 + n for each term, module docstring
        weight = 19 * (m + 1) * (m + 2) + f + b + 1
        for row, T in ((cls[0] >> self.g, mass[0] + mass[2]), (cls[1] >> self.g, mass[1] + mass[3])):
            self.weight[row] += T * weight
            self.mass[row] += T
            self.lines[row] += 1

    def finish(self, eps):
        g, out = self.g, []
        self.sums[0] -= 0.5   # half the origin's term 1
        for alpha in range(2 ** g):
            row = _fwht(self.sums[alpha << g:alpha + 1 << g])
            weight = 2 * (self.weight[alpha] + self.mass[alpha] * (self.lines[alpha] + g))
            out.append(([z * _MIRROR[(alpha & beta).bit_count() % 4] for beta, z in enumerate(row)],
                        eps + weight * _ULP))
        return out


def _pass(point: SiegelPoint, prec: int):
    """[(row, eps) for packed 2a = 0 .. 2^g - 1], g >= 1, from one chain walk
    over the x of the widest a's ellipsoid, one of each pair +-x (module
    docstring)."""
    g, mu = point.g, max(point._mins[1:])   # the largest mu_a
    bound, eps = _truncation(mu, point, prec)
    K, Are, Y = point._K + 2, point._real, point._imag   # Sigma / 4 = A / 2^K
    (dirs, U, y, S, uAu), n = point._carry, min(g, 3)
    U, B = U / 4, float(bound) + (y[0][0] + y[1][1]) / (4 * point._den)   # in x^t (Im Sigma / 4) x
    deep = math.pi * max(B, 2 * U, U + 2 * math.sqrt(U * B)) >= _DEEP
    ar = (_Fixed(point, math.floor(4 * bound * point._den), mu, max(prec, 53))
          if prec > 53 or deep else _Floats(point))
    phi, (E, Einv) = ar.phi, ar.phi[0][0]
    # facs[j][s < 0]: the factors of R_{+u_0}, R_{-u_0}, R_{+u_1}, ... in a step by s u_j
    facs = [[[phi[i][j][(t < 0) != neg] for i in range(n) for t in (1, -1)]
             for neg in (False, True)] for j in range(n)]
    (y00, y01, y02), (_, _, y12) = y[:2]
    den = 2 * y00   # a line's peak is (y00 - Im C) // den
    bit1, bit0 = (1 << g - 2 if g > 1 else 0), 1 << g - 1
    lines = ((lo, hi, rest + (0, 0))
             for lo, hi, rest in ellipsoid_lines(point._elim, 4 * bound * point._den, half=True))
    every = (list(ch) for _, ch in itertools.groupby(lines, key=lambda ln: ln[2][1:]))
    for _, sheet in itertools.groupby(every, key=lambda ch: ch[0][2][2:]):
        chains = list(sheet)
        c = len(chains) // 2 if any(chains[0][0][2][2:]) else 0   # the zero sheet: at x_2 = 0
        rest = chains[c][0][2]
        Xr = [2 * r for r in rest]
        # Im C = 2 y01 x_1 + b_0, b_i = sum_{j >= 2} (Im A)_ij X_j = hb_i + 2 y_i2 x_2
        hb = [sum(Y[i][j] * Xr[j - 1] for j in range(3, g)) for i in (0, 1)]

        def centre(m2):   # x_1^* of the slice x_2 = m2, and Im C on it less 2 y01 x_1
            b0, b1 = hb[0] + 2 * y02 * m2, hb[1] + 2 * y12 * m2
            return (y01 * b0 - y00 * b1 + S) // (2 * S), b0

        def goto(st, t2):   # by d_2 to the slice t2, then in x_0 and x_1 to its centre's peak
            v, p, m1, m2, D, b0 = st
            m1s = centre(m2)[0]
            while True:
                pk = (y00 - 2 * y01 * m1 - b0) // den
                j, s = (0, pk - p) if pk != p else (2, t2 - m2) if m2 != t2 else (1, m1s - m1)
                if not s:
                    return v, p, m1, m2, D, b0
                s, u = (1 if s > 0 else -1), dirs[j]   # a step by s u_j, module docstring
                v = [v[0] * v[1 + 2 * j + (s < 0)]] + list(map(mul, v[1:], facs[j][s < 0]))
                p, m1, m2, D = p + s * u[0], m1 + s * u[1], m2 + s * u[2], D + 1
                m1s, b0 = centre(m2) if j == 2 else (m1s, b0)

        # the seeds, at the peak of the middle chain's centre line, from exact Gaussian integers
        m1, b0 = centre(rest[1])
        p = (y00 - 2 * y01 * m1 - b0) // den
        X = ([2 * p, 2 * m1] + Xr[1:])[:g]
        AX = [[_dot(row, X) for row in M] for M in (Are, Y)]
        vals = [ar.peak(_dot(X, AX[0]), _dot(X, AX[1]), K + 2)[0]]
        mul = type(vals[0]).__mul__
        for i, u in enumerate(dirs):   # R_u = exp(pi i (u^t A u + u^t A X) / 2^K), R_-u
            r, rinv = ar.seed(*(q + _dot(u, MX) for q, MX in zip(uAu[i], AX)), K)
            vals += [r, rinv * phi[i][i][0]]
        for part in (chains[c:], chains[:c][::-1]):
            st = (vals, p, m1, rest[1], 1, b0)   # D = 1 + the steps from the seeds
            for chain in part:
                st = goto(st, chain[0][2][1])
                abase = _pack(r & 1 for r in chain[0][2][1:g - 1])
                nbase = _pack(r >> 1 & 1 for r in chain[0][2][1:g - 1])
                for lpart, s1 in (([ln for ln in chain if ln[2][0] >= st[2]], 1),
                                  ([ln for ln in reversed(chain) if ln[2][0] < st[2]], -1)):
                    (z, rf, rb, *rds), q, k1, _, D, cim = st
                    cim += 2 * y01 * k1
                    if lpart and g > 1:   # the step factors of rd, rf and rb for a step by s1 d_1
                        rd, G, Fs, Fi = rds[s1 < 0], phi[1][1][0], *phi[0][1][::s1]
                    for lo, hi, mr in lpart:
                        while k1 != mr[0]:   # a step by s1 d_1, then in x_0 to that line's peak
                            z, rd, rf, rb = z * rd, rd * G, rf * Fs, rb * Fi
                            q, k1, cim, D = q + s1 * dirs[1][0], k1 + s1, cim + s1 * 2 * y01, D + 1
                            peak = (y00 - cim) // den
                            while peak > q:
                                z, rf, rb, rd = z * rf, rf * E, rb * Einv, rd * Fs
                                q, D = q + 1, D + 1
                            while peak < q:
                                z, rb, rf, rd = z * rb, rb * E, rf * Einv, rd * Fi
                                q, D = q - 1, D + 1
                        # the line's terms outward from its peak, summed by x_0 mod 4
                        al, nu = abase | (k1 & 1) * bit1, nbase | (k1 >> 1 & 1) * bit1
                        ar.line(z, rf, rb, hi - q, q - lo, D,
                                [(al | (t & 1) * bit0) << g | nu | (t >> 1 & 1) * bit0
                                 for t in range(q, q + 4)])
    return ar.finish(eps)


def _table(point: SiegelPoint, prec):
    """[(row, eps) for packed 2a = 0 .. 2^g - 1]: row the theta_{a,b}(Sigma)
    for 2b = 0 .. 2^g - 1, eps a bound on the error of each of its entries,
    the tail bound plus the row's stated rounding bound; one pass per
    precision, kept on the point.  Every public entry reads prec here first,
    so a prec that is not a positive integer fails the same way everywhere."""
    prec = _integer(prec, "prec", positive=True)
    if prec not in point._tables:
        point._tables[prec] = (_pass(point, prec) if point.g else
                               [([mpmath.mpc(1) if prec > 53 else complex(1)], mpmath.mpf(0))])
    return point._tables[prec]


def theta_constant(ch: ThetaChar, point: SiegelPoint, prec: int = 53):
    """theta_{a,b}(Sigma) = sum over n in Z^g of
    exp(pi i (n+a)^t Sigma (n+a) + 2 pi i (n+a).b).

    A Python `complex` at prec <= 53 bits; an mpmath `mpc` above 53 bits, and
    also at 53 bits on a deep point, whose terms leave the double range.  It
    reads the point's theta table, so the first theta at a point and
    precision pays for every row."""
    if len(ch.a) != point.g:
        raise ValueError("characteristic size must match the matrix")
    row, _ = _table(point, prec)[_pack(int(2 * x) for x in ch.a)]
    return row[_pack(int(2 * x) for x in ch.b)]


def chi_g(point: SiegelPoint, prec: int = 53):
    """Product of the even theta constants at Sigma, read from the point's
    theta table, as an mpmath complex multiplied at max(prec, 53) + 10 bits:
    a product of up to 528 theta constants leaves the double range routinely."""
    evens = _even_rows(point.g)   # refuses a genus beyond the cap before any pass
    table = _table(point, prec)
    with mpmath.workprec(max(prec, 53) + 10):
        acc = mpmath.mpc(1)
        for (row, _), js in zip(table, evens):
            for j in js:
                acc *= row[j]
    return acc


def chi_g8_petersson(point: SiegelPoint, prec: int = 53):
    """(det Im Sigma)^{2^{g+1}(2^g+1)} |chi_g^8|^2 as an mpmath real.

    chi_g is the product of the even theta constants as an mpmath complex
    (`chi_g`), so neither it nor the 16th power of its modulus leaves the
    exponent range: at g = 3 and Sigma = 40i I + 0.1i off the diagonal the
    norm is about 1e-9673, which the product of the 36 complex doubles
    would flush to 0.  det Im Sigma is exact: the `_eliminate` run of the
    integer matrix den Im Sigma that `SiegelPoint` keeps, den a power of 2.
    """
    chi, g = chi_g(point, prec), point.g
    det, den, w = point._elim.det, point._den, chi8_weight(g)
    with mpmath.workprec(max(prec, 53) + 10):
        modulus = abs(chi)
    with mpmath.workprec(max(prec, 53)):
        return mpmath.mpf(det ** w) / mpmath.mpf(den) ** (g * w) * modulus ** 16


def fay_family(g: int, psi, t):
    """Sigma(t) = (log t / 2 pi i) E_11 + psi (degeneration with pinched
    first handle); psi a constant symmetric complex matrix."""
    if g < 1:
        raise ValueError("family needs g >= 1")
    if len(psi) != g or any(len(row) != g for row in psi):
        raise ValueError("psi must be a g x g matrix")
    t = complex(t)
    if not 0 < abs(t) < 1:
        raise ValueError("t must satisfy 0 < |t| < 1")
    lead = cmath.log(t) / (2j * cmath.pi)
    mat = [[complex(psi[i][j]) + (lead if i == 0 and j == 0 else 0)
            for j in range(g)] for i in range(g)]
    return SiegelPoint(tuple(tuple(row) for row in mat))


def vanishing_order_fit(family, t_grid, prec: int = 53):
    """Least-squares slope of log|chi^8|^2 against log|t|^2 on the grid.

    log|chi| is taken from chi as an mpmath complex (`chi_g`), so a chi far
    below the double range still gives a point.  The two largest-|t| points
    are dropped (they carry the slowly-decaying log log correction).  Returns
    (slope, max_residual).
    """
    pts = sorted(t_grid, key=abs)
    if len(pts) < 6:
        raise ValueError("need at least 6 grid points")
    pts = pts[:-2]
    xs = [2 * math.log(abs(t)) for t in pts]
    if len(set(xs)) < 2:
        raise ValueError(f"t_grid's kept points share one |t| = {abs(pts[0])}: no slope to fit")
    ys = []
    for t in pts:
        aval = abs(chi_g(family(t), prec))
        if not aval:
            raise ValueError(f"chi vanished to numerical zero at t = {t}")
        ys.append(16 * float(mpmath.log(aval)))
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
             / sum((x - mean_x) ** 2 for x in xs))
    intercept = mean_y - slope * mean_x
    resid = max(abs(y - slope * x - intercept) for x, y in zip(xs, ys))
    return slope, resid
