"""Reference computations for the benchmark's correctness checks.

Nothing here imports twoelem: each value is computed a second way, from the
mathematics, so that a check compares two independent routes instead of the
program against a saved copy of its own output.
"""
from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import mpmath

# (rank, 2-rank l, signature sigma) of each summand of the reference rows
SUMMANDS = {
    "U": (2, 0, 0),
    "U(2)": (2, 2, 0),
    "A1": (1, 1, -1),
    "A1+": (1, 1, 1),
    "D4": (4, 2, -4),
    "E8": (8, 0, -8),
    "E8(2)": (8, 8, -8),
}

# norms x^2 mod 2 of the discriminant classes of each summand (with the
# sign of the summand: A1 = <-2> has the class e/2 of norm -1/2 = 3/2 mod 2)
DISC_NORMS = {
    "U": {Fraction(0)},
    "U(2)": {Fraction(0), Fraction(1)},
    "A1": {Fraction(0), Fraction(3, 2)},
    "A1+": {Fraction(0), Fraction(1, 2)},
    "D4": {Fraction(0), Fraction(1)},
    "E8": {Fraction(0)},
    "E8(2)": {Fraction(0), Fraction(1)},
}

# longest names first, so that "U(2)" is tried before "U"
_NAMES = sorted(SUMMANDS, key=len, reverse=True)
_POWER = re.compile(r"\^(\d+)")


def split_summands(expr: str):
    """Split 'U+A1++A1^2' into ['U', 'A1+', 'A1', 'A1'].

    'A1+' contains the separator, so the split backtracks: a name is kept
    only if the rest of the string still parses.
    """
    def parse(pos):
        for name in _NAMES:
            if not expr.startswith(name, pos):
                continue
            end = pos + len(name)
            power = _POWER.match(expr, end)
            count = int(power.group(1)) if power else 1
            end = power.end() if power else end
            if end == len(expr):
                return [name] * count
            if expr[end] == "+":
                rest = parse(end + 1)
                if rest is not None:
                    return [name] * count + rest
        return None

    out = parse(0)
    if not out:
        raise ValueError(f"cannot split lattice expression {expr!r}")
    return out


def invariants(expr: str):
    """(rank, l, sigma) of a direct sum, added up over its summands."""
    parts = [SUMMANDS[name] for name in split_summands(expr)]
    return tuple(sum(p[i] for p in parts) for i in range(3))


def has_three_halves_class(expr: str) -> bool:
    """Whether some discriminant class of the sum has norm 3/2 mod 2.

    Norms add over an orthogonal sum, so the norms of the sum are the
    sumset of the summands' norm sets.
    """
    reach = {Fraction(0)}
    for name in split_summands(expr):
        reach = {(a + b) % 2 for a in reach for b in DISC_NORMS[name]}
    return Fraction(3, 2) in reach


def rational_inverse(mat):
    """Inverse of a nonsingular rational matrix by Gauss-Jordan elimination."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [x / p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def quad(A, m):
    return sum(A[i][j] * m[i] * m[j] for i in range(len(m)) for j in range(len(m)))


def box_short_vectors(A, bound):
    """All integer m != 0 with m^t A m <= bound, by scanning a box.

    For positive definite A, Cauchy-Schwarz gives m_i^2 <= bound * (A^-1)_ii,
    so the box |m_i| <= floor(sqrt(bound * (A^-1)_ii)) holds every solution.
    """
    bound = Fraction(bound)
    if bound < 0:
        return set()
    inv = rational_inverse(A)
    half = []
    for i in range(len(A)):
        b2 = bound * inv[i][i]
        h = math.isqrt(b2.numerator // b2.denominator)
        while (h + 1) ** 2 <= b2:
            h += 1
        half.append(h)
    return {m for m in itertools.product(*[range(-h, h + 1) for h in half])
            if any(m) and quad(A, m) <= bound}


def eta(tau, prec: int):
    """Dedekind eta(tau) = q^(1/24) prod_{n>=1} (1 - q^n), in mpmath."""
    with mpmath.workprec(prec + 20):
        tau = mpmath.mpc(tau)
        q = mpmath.exp(2j * mpmath.pi * tau)
        eps = mpmath.mpf(2) ** (-(prec + 20))
        acc = mpmath.mpc(1)
        qn = q
        while abs(qn) > eps:
            acc *= 1 - qn
            qn *= q
        return mpmath.exp(1j * mpmath.pi * tau / 12) * acc


def theta00_at_i(prec: int):
    """theta_00(i) = pi^(1/4) / Gamma(3/4)."""
    with mpmath.workprec(prec + 20):
        return mpmath.pi ** mpmath.mpf(0.25) / mpmath.gamma(mpmath.mpf(0.75))


def slab_walls(gram, v1, v2, norm_set, pairing_bound):
    """Walls lam^perp, lam^2 in norm_set, strictly separating v1 and v2.

    lam runs over the dual lattice in dual coordinates m (lam = G^-1 m).  The
    slab |<lam, v_i>| <= pairing_bound is compact through the positive
    definite form <lam,v1>^2 + <lam,v2>^2 - lam^2, whose solutions are listed
    by the box scan above.  Each wall is returned once, with <lam, v1> > 0,
    as (m, lam^2, <lam, v1>, <lam, v2>).
    """
    n = len(gram)
    ginv = rational_inverse(gram)
    v1 = [Fraction(x) for x in v1]
    v2 = [Fraction(x) for x in v2]
    norm_set = {Fraction(x) for x in norm_set}
    pb = Fraction(pairing_bound)
    A = [[v1[i] * v1[j] + v2[i] * v2[j] - ginv[i][j] for j in range(n)]
         for i in range(n)]
    out = set()
    for m in box_short_vectors(A, 2 * pb ** 2 - min(norm_set)):
        lam2 = quad(ginv, m)
        p1 = sum(a * b for a, b in zip(m, v1))
        p2 = sum(a * b for a, b in zip(m, v2))
        if lam2 in norm_set and abs(p1) <= pb and abs(p2) <= pb and p1 * p2 < 0:
            if p1 < 0:
                m, p1, p2 = tuple(-x for x in m), -p1, -p2
            out.add((m, lam2, p1, p2))
    return out
