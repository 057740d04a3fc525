"""Half-integer theta characteristics, the even ones per genus and the weight
of chi_g^8: what the graph layer shares with `siegel`, without its numerics."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _even_rows(g: int) -> tuple:
    """Row i: the packed 2b of the even (a, b) with packed 2a = i, in
    `even_characteristics` order; a packed index has the bits of 2a or 2b,
    the first coordinate most significant, so (a, b) is even iff
    popcount(i & j) is."""
    if g < 0 or g > _G_CAP:
        raise ValueError(f"genus must be between 0 and {_G_CAP}")
    return tuple(tuple(j for j in range(2 ** g) if (i & j).bit_count() % 2 == 0)
                 for i in range(2 ** g))


@lru_cache(maxsize=None)
def _even_table(g: int) -> tuple:
    rows = _even_rows(g)
    halves = list(itertools.product((Fraction(0), Fraction(1, 2)), repeat=g))   # by packed index
    return tuple(ThetaChar(halves[i], halves[j]) for i, js in enumerate(rows) for j in js)


def even_characteristics(g: int):
    """All even (a, b); 2^{g-1}(2^g + 1) of them for g >= 1, one for g = 0."""
    return list(_even_table(g))


def pinched_count(g: int):
    """The number of even characteristics with a_1 = 1/2, whose theta constants
    vanish along a pinched first handle (1/4 at g = 0: no theta side)."""
    if g == 0:
        return Fraction(1, 4)
    return sum(ch.a[0] == Fraction(1, 2) for ch in even_characteristics(g))


def chi8_weight(g: int) -> int:
    """Weight of chi_g^8 as a Siegel modular form."""
    return 2 ** (g + 1) * (2 ** g + 1)
