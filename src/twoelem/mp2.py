"""The metaplectic double cover Mp_2(Z) as matrix-plus-branch pairs.

An element is (A, branch) with A in SL_2(Z); its automorphy factor is
j(g, tau) = (-1)^branch * sqrt(c*tau + d) with the principal square root.
Branch composition is an integer sign rule: for tau in H, arg(c*tau + d)
lies in (0, pi] or (-pi, 0) or is 0, by the signs of c and d alone, and
the principal square roots multiply correctly unless the two arguments
add up past the cut (see `_half_plane`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattices import _integer


def _half_plane(c: int, d: int) -> int:
    """Where arg(c*tau + d) lies for tau in H: 1 for (0, pi], -1 for (-pi, 0), 0 at 0."""
    if c:
        return 1 if c > 0 else -1
    return 1 if d < 0 else 0


@dataclass(frozen=True)
class Mp2Element:
    a: int
    b: int
    c: int
    d: int
    branch: int = 0  # 0 or 1

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix must have determinant 1")
        object.__setattr__(self, "branch", _integer(self.branch, "branch") & 1)

    def j(self, tau: complex) -> complex:
        """j(g, tau) = (-1)^branch * principal sqrt(c*tau + d)."""
        return (-1) ** self.branch * (self.c * tau + self.d) ** 0.5

    def apply(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def __mul__(self, other: "Mp2Element") -> "Mp2Element":
        if not isinstance(other, Mp2Element):
            return NotImplemented
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        # j(gh, tau) = j(g, h.tau) * j(h, tau) up to the sign of the cocycle:
        # the two arguments sum past the cut iff both lie in (0, pi] and the
        # product's lies in (-pi, 0], or both lie in (-pi, 0) and the
        # product's lies in (0, pi] (two arguments 0 sum to the product's 0)
        wrap = _half_plane(self.c, self.d) == _half_plane(other.c, other.d) != _half_plane(c, d)
        return Mp2Element(a, b, c, d, self.branch ^ other.branch ^ wrap)

    def inverse(self) -> "Mp2Element":
        # the cocycle of g with g^-1 is -1 only for -(1 b; 0 1): both arguments are pi
        flip = self.c == 0 and self.d < 0
        return Mp2Element(self.d, -self.b, -self.c, self.a, self.branch ^ flip)

    def __pow__(self, n: int) -> "Mp2Element":
        if n < 0:
            return self.inverse() ** (-n)
        acc = MP2_ONE
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc


MP2_ONE = Mp2Element(1, 0, 0, 1, 0)
MP2_S = Mp2Element(0, -1, 1, 0, 0)      # (S, sqrt(tau))
MP2_T = Mp2Element(1, 1, 0, 1, 0)       # (T, 1)
MP2_Z = MP2_S * MP2_S                   # (-I, i), central of order 4


def evaluate_word(word) -> Mp2Element:
    """Multiply out a word: list of ('S'|'T', exponent) pairs, left to right."""
    acc = MP2_ONE
    for gen, exp in word:
        if gen not in ("S", "T"):
            raise ValueError(f"unknown generator {gen!r}")
        acc = acc * (MP2_S if gen == "S" else MP2_T) ** _integer(exp, "exponent")
    return acc


def mp2_word(g: Mp2Element):
    """Decompose g into a word in S and T (with integer exponents).

    The matrix part is peeled by the Euclidean algorithm on the first column;
    a trailing Z = S^2 fixes the sign and a trailing Z^2 = S^4 the branch.
    Evaluating the word reproduces g exactly.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    word = []
    # Invariant: g = product(word) * (a b; c d), up to a central power of Z.
    # Each step left-multiplies the remainder by T^{-n} or S^{-1} and records
    # the corresponding generator power.
    while c != 0:
        n = round(Fraction(a, c))
        if n:
            word.append(("T", n))
            a, b = a - n * c, b - n * d
        word.append(("S", 1))
        a, b, c, d = c, d, -a, -b
    if a == -1:  # remainder is -(1, -b; 0, 1); absorb -I as Z = S^2
        word.append(("S", 2))
        a, d, b = 1, 1, -b
    if b:
        word.append(("T", b))
    # the matrix is right; Z^2 = (I, branch 1) fixes the branch
    if evaluate_word(word).branch != g.branch:
        word.append(("S", 4))
    return word
