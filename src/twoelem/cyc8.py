"""Exact arithmetic in the eighth cyclotomic field Q(zeta_8).

An element is written c0 + c1*z + c2*z^2 + c3*z^3 with z = exp(i*pi/4) and
rational coefficients; the reduction rule is z^4 = -1.  The field contains
i = z^2 and sqrt(2) = z - z^3, which is all the scalar arithmetic the Weil
representation of a 2-elementary lattice ever needs.
"""
from __future__ import annotations

from fractions import Fraction

import mpmath


class Cyc8:
    """An element of Q(zeta_8).

    >>> Cyc8.zeta(2) * Cyc8.zeta(2)
    Cyc8(-1, 0, 0, 0)
    >>> Cyc8.sqrt2() * Cyc8.sqrt2()
    Cyc8(2, 0, 0, 0)
    """

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.c = (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeta(k: int = 1) -> "Cyc8":
        """zeta_8^k for any integer k."""
        k %= 8
        sign = 1
        if k >= 4:
            k -= 4
            sign = -1
        coeffs = [0, 0, 0, 0]
        coeffs[k] = sign
        return Cyc8(*coeffs)

    @staticmethod
    def i_pow(k: int) -> "Cyc8":
        """i^k = zeta^{2k}."""
        return Cyc8.zeta(2 * k)

    @staticmethod
    def sqrt2() -> "Cyc8":
        return Cyc8(0, 1, 0, -1)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.c)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyc8):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc8(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        return Cyc8(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        return Cyc8(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        a = self.c
        return Cyc8(-a[0], -a[1], -a[2], -a[3])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.c, other.c
        # fast path: one factor rational, as for the Weil scalars 2^(-l/2)
        if a[1] == 0 and a[2] == 0 and a[3] == 0:
            x = a[0]
            return Cyc8(x * b[0], x * b[1], x * b[2], x * b[3])
        if b[1] == 0 and b[2] == 0 and b[3] == 0:
            x = b[0]
            return Cyc8(x * a[0], x * a[1], x * a[2], x * a[3])
        out = [Fraction(0)] * 4
        for idx in range(4):
            ai = a[idx]
            if ai == 0:
                continue
            for j in range(4):
                bj = b[j]
                if bj == 0:
                    continue
                k = idx + j
                if k >= 4:
                    out[k - 4] -= ai * bj
                else:
                    out[k] += ai * bj
        return Cyc8(*out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("Cyc8 powers take a nonnegative exponent")
        result = Cyc8(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "Cyc8":
        """Complex conjugation: zeta -> zeta^{-1} = -zeta^3."""
        a = self.c
        return Cyc8(a[0], -a[3], -a[2], -a[1])

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __repr__(self):
        return f"Cyc8({self.c[0]}, {self.c[1]}, {self.c[2]}, {self.c[3]})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, coef in enumerate(self.c):
            if coef == 0:
                continue
            unit = "" if k == 0 else ("z" if k == 1 else f"z^{k}")
            if k == 0:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(unit)
            elif coef == -1:
                parts.append(f"-{unit}")
            else:
                parts.append(f"{coef}*{unit}")
        return " + ".join(parts).replace("+ -", "- ")


def cyc8_embed(x: Cyc8, prec: int = 53):
    """Numerically embed x into C with zeta = exp(i*pi/4) at `prec` bits.

    The error is at most 2^(1-prec) * sum(|c_i|).
    """
    if prec < 53:
        raise ValueError("prec must be >= 53")
    with mpmath.workprec(prec):
        zeta = mpmath.exp(mpmath.mpc(0, mpmath.pi / 4))
        acc = mpmath.mpc(0)
        zpow = mpmath.mpc(1)
        for coef in x.c:
            if coef != 0:
                acc += mpmath.mpf(coef.numerator) / coef.denominator * zpow
            zpow *= zeta
        return acc
