"""Truncated Laurent series in q with fractional exponents and rational coefficients.

A QSeries is a dense list of coefficients (Python ints, or Fractions where a
coefficient is not integral) on the exponent grid start/denom, (start+1)/denom,
..., together with a truncation order `trunc`: coefficients are known exactly
for all exponents strictly below `trunc` and unknown at or above it, and
`trunc=None` marks an exact finite sum.  All arithmetic propagates `trunc`
pessimistically, so equality of two series is only ever asserted below their
common validity order.

Products use Kronecker substitution (one big-integer multiply per product);
integer powers, the inverse included, use the power recurrence
n a_0 f_n = sum_{k>=1} ((alpha+1) k - n) a_k f_{n-k} for f = a^alpha.

`qseries_eval` sums a series at a point tau by Horner's rule in fixed point
on Python ints; its docstring derives a bound on the rounding error.  Its
tail estimate stays a heuristic.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, count, islice
from math import ceil, gcd, lcm
from operator import add

from .lattices import _clear, _integer


def _num(x):
    """A rational as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


def _plus(x, y):
    return None if x is None or y is None else x + y


def _least(*xs):
    return min((x for x in xs if x is not None), default=None)


def _kronecker(a, b):
    """Full product of two nonempty rational lists by one big-integer multiply."""
    (a, da), (b, db) = _clear(a), _clear(b)
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    width = bound.bit_length() // 8 + 1   # bytes per slot, top bit left for the sign

    def pack(xs):
        pos = b"".join(max(x, 0).to_bytes(width, "little") for x in xs)
        neg = b"".join(max(-x, 0).to_bytes(width, "little") for x in xs)
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    m = len(a) + len(b) - 1
    half = 1 << (8 * width - 1)
    # adding `half` to every slot makes each slot nonnegative before unpacking
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * m, "little")
    raw = (pack(a) * pack(b) + bias).to_bytes(width * m, "little")
    out = [int.from_bytes(raw[i:i + width], "little") - half
           for i in range(0, width * m, width)]
    d = da * db
    return out if d == 1 else [_num(Fraction(c, d)) for c in out]


class QSeries:
    """A truncated series sum_i coeffs[i] q^{(start+i)/denom}."""

    __slots__ = ("denom", "start", "coeffs", "trunc")

    def __init__(self, terms=None, trunc=None, denom=None):
        """From a map exponent -> rational coefficient.  Terms at or above
        `trunc` are dropped; the grid is the lcm of `denom` and the
        denominators of the nonzero terms' exponents."""
        terms = {Fraction(e): _num(Fraction(c)) for e, c in (terms or {}).items()}
        terms = {e: c for e, c in terms.items() if c}
        denom = lcm(denom or 1, *(e.denominator for e in terms))
        idx = {int(e * denom): c for e, c in terms.items()}
        start = min(idx, default=0)
        coeffs = [0] * (max(idx, default=-1) - start + 1)
        for i, c in idx.items():
            coeffs[i - start] = c
        self._set(denom, start, coeffs, None if trunc is None else Fraction(trunc))

    def _set(self, denom, start, coeffs, trunc):
        if trunc is not None:
            coeffs = coeffs[:max(ceil(trunc * denom) - start, 0)]
        nz = [i for i, c in enumerate(coeffs) if c]
        self.denom, self.trunc = denom, trunc
        self.start = start + nz[0] if nz else 0
        self.coeffs = coeffs[nz[0]:nz[-1] + 1] if nz else []

    @staticmethod
    def _grid(denom, start, coeffs, trunc) -> "QSeries":
        """The series sum coeffs[i] q^{(start+i)/denom} below trunc."""
        s = object.__new__(QSeries)
        s._set(denom, start, coeffs, trunc)
        return s

    def _on(self, denom):
        """(start, coeffs) on the grid 1/denom, a multiple of self.denom."""
        f = denom // self.denom
        out = [0] * ((len(self.coeffs) - 1) * f + 1) if self.coeffs else []
        out[::f] = self.coeffs
        return self.start * f, out

    # -- helpers ------------------------------------------------------

    @staticmethod
    def zero(trunc=None, denom=1) -> "QSeries":
        return QSeries({}, trunc, denom)

    @staticmethod
    def one(trunc=None) -> "QSeries":
        return QSeries({0: 1}, trunc)

    @staticmethod
    def monomial(e, c=1, trunc=None) -> "QSeries":
        return QSeries({e: c}, trunc)

    def min_exp(self):
        """Smallest stored exponent, or None for the (known-)zero series."""
        return Fraction(self.start, self.denom) if self.coeffs else None

    def coeff(self, e):
        e = Fraction(e)
        if self.trunc is not None and e >= self.trunc:
            raise ValueError(f"coefficient at {e} is beyond trunc {self.trunc}")
        i = e * self.denom - self.start
        if i.denominator != 1 or not 0 <= i < len(self.coeffs):
            return 0
        return self.coeffs[int(i)]

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        """(exponent, coefficient) for the nonzero terms, by increasing exponent."""
        return [(Fraction(self.start + i, self.denom), c)
                for i, c in enumerate(self.coeffs) if c]

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries.monomial(0, other)
        if not isinstance(other, QSeries):
            return NotImplemented
        denom = lcm(self.denom, other.denom)
        (sa, a), (sb, b) = self._on(denom), other._on(denom)
        lo = min(sa if a else sb, sb if b else sa)
        out = [0] * (max(sa + len(a), sb + len(b)) - lo)
        for s, xs in ((sa, a), (sb, b)):
            for i, c in enumerate(xs, s - lo):
                out[i] += c
        return QSeries._grid(denom, lo, out, _least(self.trunc, other.trunc))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries._grid(self.denom, self.start,
                                 [_num(c * other) for c in self.coeffs], self.trunc)
        if not isinstance(other, QSeries):
            return NotImplemented
        # Cauchy product; a factor's exponents are >= its least term, or its trunc without one
        denom = lcm(self.denom, other.denom)
        (sa, x), (sb, y) = self._on(denom), other._on(denom)
        trunc = _least(_plus(self.trunc, Fraction(sb, denom) if y else other.trunc),
                       _plus(other.trunc, Fraction(sa, denom) if x else self.trunc))
        n = len(x) + len(y) - 1 if trunc is None else ceil(trunc * denom) - sa - sb
        if n <= 0 or not x or not y:
            return QSeries.zero(trunc, denom)
        return QSeries._grid(denom, sa + sb, _kronecker(x[:n], y[:n]), trunc)

    __rmul__ = __mul__

    def shift(self, e) -> "QSeries":
        """Multiply by q^e."""
        e = Fraction(e)
        return QSeries({x + e: c for x, c in self.items()}, _plus(self.trunc, e))

    def truncate(self, trunc) -> "QSeries":
        return QSeries._grid(self.denom, self.start, self.coeffs,
                             _least(Fraction(trunc), self.trunc))

    def inverse(self) -> "QSeries":
        """Inverse, valid to order trunc - 2*min_exp."""
        return self ** -1

    def __pow__(self, alpha: int) -> "QSeries":
        """self^alpha for any integer alpha, by the power recurrence.

        With leading exponent e0 the result is valid to order
        alpha*e0 + (trunc - e0): it has as many known terms as self.
        """
        alpha = _integer(alpha, "alpha")
        if alpha == 0:
            return QSeries.one()
        a, trunc = self.coeffs, self.trunc
        if alpha < 0 and (not a or trunc is None):
            raise ZeroDivisionError("inverse needs a known leading term and a truncation order")
        if not a:
            return QSeries.zero(None if trunc is None else alpha * trunc, self.denom)
        if trunc is None:
            n_out = alpha * (len(a) - 1) + 1
        else:
            n_out = ceil(trunc * self.denom) - self.start
            trunc += (alpha - 1) * self.min_exp()
        nonzero = [(k, c) for k, c in enumerate(a[1:n_out], 1) if c]
        f = [_num(Fraction(a[0]) ** alpha)]
        for n in range(1, n_out):
            s = sum(((alpha + 1) * k - n) * c * f[n - k] for k, c in nonzero if k <= n)
            q, r = divmod(s, n * a[0])
            f.append(Fraction(s, n * a[0]) if r else q)
        return QSeries._grid(self.denom, alpha * self.start, f, trunc)

    # -- comparison ---------------------------------------------------

    def eq_below(self, other: "QSeries", order=None) -> bool:
        """Exact coefficient equality below min(truncs[, order])."""
        bound = _least(self.trunc, other.trunc, order)
        return ([t for t in self.items() if bound is None or t[0] < bound]
                == [t for t in other.items() if bound is None or t[0] < bound])

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.eq_below(other)

    def __repr__(self):
        head = ", ".join(f"q^{e}: {c}" for e, c in self.items()[:6])
        more = " ..." if len(self.items()) > 6 else ""
        return f"QSeries({{{head}{more}}}, trunc={self.trunc})"

    # -- serialization ------------------------------------------------

    def to_text(self) -> str:
        """`N=denom trunc=T` (T = inf for an exact sum), then one row
        `p/q  c 0 0 0` per nonzero term: c and the zeta_8 coordinates 0."""
        lines = [f"N={self.denom} trunc={'inf' if self.trunc is None else self.trunc}"]
        lines += [f"{e.numerator}/{e.denominator}  {c} 0 0 0" for e, c in self.items()]
        return "\n".join(lines) + "\n"


def _tail(a: QSeries, im_tau) -> float:
    """The heuristic tail |q|^trunc / (1 - |q|) * max(1, |last five stored
    coefficients|), formed in the log domain: finite, or inf on overflow."""
    if a.trunc is None:
        return 0.0
    t = 2 * math.pi * im_tau                      # -log|q|
    if not t:                                     # Im tau below the doubles
        return math.inf
    last = islice(filter(None, reversed(a.coeffs)), 5)
    log_scale = max([0.0] + [math.log(abs(c.numerator)) - math.log(c.denominator) for c in last])
    log_tail = log_scale - t * float(a.trunc) - math.log(-math.expm1(-t))
    return math.exp(log_tail) if log_tail < 709 else math.inf


def _upper_half(tau, prec: int):
    """mpc(tau) at `prec` bits; a ValueError unless it is finite with Im tau > 0."""
    import mpmath

    with mpmath.workprec(prec):
        tau = mpmath.mpc(tau)
        if not mpmath.isfinite(tau):
            raise ValueError(f"tau must be finite, got {tau}")
        if mpmath.im(tau) <= 0:
            raise ValueError("tau must lie in the upper half-plane")
    return tau


def qseries_eval(a: QSeries, tau, prec: int = 53):
    """Evaluate S(tau) = sum c_e exp(2*pi*i*e*tau) at a finite tau in the
    upper half-plane.  Returns (value, tail).

    Horner's rule runs in fixed point on the coarsest grid the nonzero terms
    span.  With step the gcd of the nonzero term offsets, x = exp(2*pi*i*tau*
    step/denom), and the cleared integers c_0..c_{n-1} over one denominator d,

        S(tau) = exp(2*pi*i*tau*start/denom) / d * A(x),   A(x) = sum_j c_j x^j.

    x is computed in mpmath and truncated toward zero to x~ = (xr + i xi)
    2^-wp, so |x~ - x| <= 1.5 * 2^-wp and |x~| <= 1.  Horner then runs on
    the integer pairs a * 2^wp,

        ar, ai = ((ar*xr - ai*xi) >> wp) + (c << wp), (ar*xi + ai*xr) >> wp,

    and each step's floors add an error under sqrt(2) * 2^-wp, which later
    steps multiply by |x~|^j <= 1: at most sqrt(2) * n * 2^-wp in all.  The
    rounding of x moves A by at most |x~ - x| * sum_j j |c_j| r^(j-1), with
    r = max(|x|, |x~|) (Brent and Zimmermann, Modern Computer Arithmetic,
    2010, sec. 4.4).  Bounding |c_j| r^(j-1) <= 2^B from the exact bit
    lengths and an integer lower bound on -log2 r, the working precision

        wp = prec + B + 2 * bitlen(n) + 4

    keeps the fixed-point error of A under 2^-(prec+3).  The sum is then
    rounded to `prec` bits and multiplied by exp(2*pi*i*tau*start/denom)/d
    (computed with extra bits, so it is off by under 2^-(prec+7) relative),
    the product rounded to `prec` bits.  In all, the returned value v obeys

        |v - S(tau)| <= 2^-prec * (3 |v| + |exp(2*pi*i*tau*start/denom)| / d),

    where the last term is at most the series' largest term at tau.  tau is
    taken as the mpmath number mpc(tau) at `prec` bits; `prec` must be a
    positive integer (an integral float too).

    `tail` is the documented heuristic |q|^trunc / (1 - |q|) * max(1, |c|
    over the last five nonzero stored terms), 0 for an exact sum, formed in
    the log domain (inf when it overflows): adequate for identity testing,
    not a rigorous enclosure of the truncated terms.
    """
    import mpmath

    prec = _integer(prec, "prec", positive=True)
    tau = _upper_half(tau, prec)
    im_tau = float(tau.imag)
    step = gcd(*compress(range(len(a.coeffs)), a.coeffs)) or 1
    ints, d = _clear(a.coeffs[::step])
    n = len(ints)
    # an integer L <= -log2 r, so |c_j| r^(j-1) < 2^(bitlen c_j - (j-1) L);
    # capped, since Im tau may be beyond the doubles
    L = int(min(2 * math.pi * im_tau * step / a.denom / math.log(2) * (1 - 2 ** -20), 2 ** 40))
    B = max(0, max(map(add, map(int.bit_length, ints[1:]), count(0, -L)), default=0))
    wp = prec + B + 2 * n.bit_length() + 4

    def e(exponent, bits, d=1):
        """exp(2*pi*i*tau*exponent) / d, its argument carried to 2^-(bits+7)."""
        z = 2 * exponent
        with mpmath.workprec(bits + 10 + max(0, mpmath.mag(tau) + abs(z.numerator).bit_length())):
            return mpmath.expjpi(tau * z) / d

    x = e(Fraction(step, a.denom), wp)
    xr, xi = int(mpmath.ldexp(x.real, wp)), int(mpmath.ldexp(x.imag, wp))
    if xr * xr + xi * xi > 1 << (2 * wp):
        raise ValueError(f"tau is too close to the real axis for {prec} bits")
    ar = ai = 0
    for c in [c << wp for c in reversed(ints)]:
        ar, ai = ((ar * xr - ai * xi) >> wp) + c, (ar * xi + ai * xr) >> wp
    lead = e(Fraction(a.start, a.denom), prec, d)
    with mpmath.workprec(prec):
        acc = mpmath.mpc(mpmath.mpf((ar, -wp)), mpmath.mpf((ai, -wp))) * lead
    return acc, _tail(a, im_tau)
