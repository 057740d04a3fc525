"""The Weil representation of Mp_2(Z) attached to a 2-elementary lattice.

On the generators it acts on the group algebra C[A] of the discriminant
group by

    rho(T) e_g = exp(pi*i*q(g)) e_g
    rho(S) e_g = i^{-sigma/2} / sqrt(|A|) * sum_d exp(-2*pi*i*b(g,d)) e_d

All scalars lie in 2^{-l/2} Z[zeta_8]: the quadratic form q takes values in
(1/2)Z mod 2Z, so exp(pi*i*q) is a power of zeta_8, i^{-sigma/2} =
zeta_8^{-sigma}, and sqrt(2) = zeta - zeta^3.  This holds for odd sigma as
well, which the coset-sum oracle needs (e.g. U + A1plus has sigma = 1); no
parity guard is imposed.

A column is a `WeilColumn`: a positive Fraction `scale` times a block
`comp` of four lists of Python ints, row k holding the zeta_8^k coefficients
over the classes, indexed by their packed bit vectors.  The block is
primitive (the gcd of its entries is 1), so the pair is canonical: two
columns are equal iff their scales are equal and their blocks are.

The form is the lattice's `discriminant_group`, which refuses a lattice
that is not 2-elementary; its tables over every class, and so every column
here, stop at l = 12.  One evaluator serves every use: `weil_column` applies
a word in S and T to a basis vector e_j, and the dense matrix `weil_rep`
(l <= 8) is the list of its columns.  Every step stays in Python ints,
which cannot wrap; only the `is_unitary` oracle reads numpy.  rho(T)
multiplies each class by a power of zeta_8, a gather of signed rows, and
rho(Z) = rho(S^2) is the same gather with one shift for all classes.
rho(S) is an unnormalised Walsh-Hadamard transform followed by the index
map y -> By, since (-1)^{2b(x, y)} = (-1)^{popcount(x & By)}; then the
gather by -sigma, for odd l the integer map that multiplies by sqrt(2), the
factor 2^{-ceil(l/2)} in the scale, and the block's gcd moved into the scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .lattices import DiscGroup, Lattice, _fwht, _integer, discriminant_group
from .mp2 import Mp2Element, mp2_word

_DENSE_L_CAP = 8


# ---------------------------------------------------------------------------
# integer maps on Z[zeta_8] blocks (rows: the coefficients of zeta^0..zeta^3)
# ---------------------------------------------------------------------------

def _zeta_shift(comp: list, t) -> list:
    """comp times zeta^t, with t one integer or one per class: z^{k+4} = -z^k."""
    ext = comp + [[-c for c in row] for row in comp]
    if isinstance(t, int):
        return [ext[(k - t) % 8] for k in range(4)]
    return [[ext[(k - s) % 8][x] for x, s in enumerate(t)] for k in range(4)]


def _times_sqrt2(comp: list) -> list:
    """comp times sqrt(2) = zeta - zeta^3."""
    c0, c1, c2, c3 = comp
    return [[a - b for a, b in zip(c1, c3)], [a + b for a, b in zip(c0, c2)],
            [a + b for a, b in zip(c1, c3)], [a - b for a, b in zip(c2, c0)]]


def _conj(comp: list) -> list:
    """Complex conjugation: zeta^k -> zeta^{-k} = -zeta^{4-k}."""
    return [comp[0]] + [[-c for c in row] for row in comp[:0:-1]]


# _MUL[k][m] is zeta^k * zeta^m = +-zeta^r as a row vector over r
_MUL = [[[((k + m) % 4 == r) * (1 if k + m < 4 else -1) for r in range(4)]
         for m in range(4)] for k in range(4)]


def _basis(n: int, j: int) -> list:
    """The block of e_j among n classes."""
    return [[int(x == j) for x in range(n)]] + [[0] * n for _ in range(3)]


@dataclass(frozen=True)
class WeilColumn:
    """The column scale * sum_k comp[k] zeta_8^k, canonical: scale > 0, comp primitive."""

    scale: Fraction
    comp: list


def _canonical(scale: Fraction, comp: list, l: int = 0) -> WeilColumn:
    """scale * 2^{-l/2} * comp with the gcd of the block moved into the scale."""
    if l % 2:
        comp = _times_sqrt2(comp)
    g = math.gcd(*(c for row in comp for c in row))
    if g > 1:
        comp = [[c // g for c in row] for row in comp]
    return WeilColumn(scale * Fraction(g, 2 ** ((l + 1) // 2)), comp)


# ---------------------------------------------------------------------------
# fast column evaluation
# ---------------------------------------------------------------------------

def _s_step(scale: Fraction, comp: list, data: DiscGroup) -> WeilColumn:
    """rho(S) applied to scale * comp; a zero row stays as it is."""
    rows = [list(map(_fwht(row).__getitem__, data.packed_by)) if any(row) else row
            for row in comp]
    return _canonical(scale, _zeta_shift(rows, -data.sigma), data.l)


def weil_column(L: Lattice, word, start: int = 0) -> WeilColumn:
    """rho(word) e_start as an exact `WeilColumn`, word applied right-to-left."""
    data = discriminant_group(L)
    data.coords(start)   # a ValueError for a start outside the class indices
    scale, comp = Fraction(1), _basis(len(data.two_q), start)
    for gen, exp in reversed(list(word)):
        if gen not in ("S", "T"):
            raise ValueError(f"unknown generator {gen!r}")
        e = _integer(exp, "exponent") % 8
        if gen == "T":
            comp = _zeta_shift(comp, [2 * q * e for q in data.two_q])
        else:
            # S^2 = Z and rho(Z) = i^{-sigma} * (e_g -> e_{-g}), with -g = g here
            comp = _zeta_shift(comp, -2 * data.sigma * (e // 2))
            if e % 2:
                col = _s_step(scale, comp, data)
                scale, comp = col.scale, col.comp
    return WeilColumn(scale, comp)


def weil_rep(L: Lattice, g: Mp2Element):
    """rho(g) as a dense exact matrix, a list of columns: cols[j] = rho(g) e_j."""
    data = discriminant_group(L)
    if data.l > _DENSE_L_CAP:
        raise ValueError(
            f"dense Weil matrices capped at l <= {_DENSE_L_CAP}; use weil_column"
        )
    word = mp2_word(g)
    return [weil_column(L, word, j) for j in range(len(data))]


def is_unitary(cols) -> bool:
    """Whether the columns are orthonormal under the exact Hermitian product.

    The Gram matrix of the blocks over Z[zeta_8] is one integer product of
    the blocks against their conjugates, reduced by zeta^4 = -1; it must
    equal delta_ij / (s_i s_j) for the scales s_i.  This oracle alone runs
    on numpy, as one int64 einsum, and refuses blocks that could wrap it.
    """
    import numpy as np

    blocks = np.array([c.comp for c in cols], dtype=np.int64)  # OverflowError past int64
    if blocks.shape[-1] * 16 * int(np.abs(blocks).max()) ** 2 >= 2 ** 63:
        raise OverflowError("Weil column blocks too large for an int64 Gram matrix")
    prod = np.einsum("ikx,jmx->ikjm", blocks, np.array([_conj(c.comp) for c in cols]),
                     optimize=True)
    gram = np.einsum("ikjm,kmr->ijr", prod, np.array(_MUL))
    n = len(cols)
    diag = gram[np.arange(n), np.arange(n), 0]
    gram[np.arange(n), np.arange(n), 0] = 0
    return not gram.any() and all(int(d) * c.scale ** 2 == 1 for d, c in zip(diag, cols))


# ---------------------------------------------------------------------------
# closed forms used by the coset-sum construction (and tested against the
# word evaluator)
# ---------------------------------------------------------------------------

def closed_form_st_l_inverse_column(L: Lattice, l_exp: int) -> WeilColumn:
    """rho((S T^l)^{-1}) e_0 = i^{sigma/2} 2^{-l(L)/2} sum_k i^{-l*k} v_k

    where v_k sums the classes with q = k/2 mod 2.
    """
    data = discriminant_group(L)
    n = len(data.two_q)
    t = [data.sigma - 2 * l_exp * q for q in data.two_q]
    return _canonical(Fraction(1), _zeta_shift([[1] * n] + [[0] * n for _ in range(3)], t), data.l)


def closed_form_v_inverse_column(L: Lattice) -> WeilColumn:
    """rho(V^{-1}) e_0 = e_{1_L} (characteristic element)."""
    data = discriminant_group(L)
    return WeilColumn(Fraction(1), _basis(len(data.two_q), data.one_index))
