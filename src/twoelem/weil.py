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

A column is a `WeilColumn`: a positive Fraction `scale` times an int64 block
`comp` of shape (4, 2^l), whose row k holds the zeta_8^k coefficients over
the classes, indexed by their packed bit vectors.  The block is primitive
(the gcd of its entries is 1), so the pair is canonical: two columns are
equal iff their scales are equal and their blocks are.

The form is the lattice's `discriminant_group`, which refuses a lattice
that is not 2-elementary; its tables over every class, and so every column
here, stop at l = 12.  One evaluator serves every use: `weil_column` applies
a word in S and T to a basis vector e_j, and the dense matrix `weil_rep`
(l <= 8) is the list of its columns.  Every step stays in integers.  rho(T)
multiplies each class by a power of zeta_8, a gather of signed rows, and
rho(Z) = rho(S^2) is the same gather with one shift for all classes.
rho(S) is an unnormalised Walsh-Hadamard transform followed by the index map
y -> By, since (-1)^{2b(x, y)} = (-1)^{popcount(x & By)}; then the gather
by -sigma, for odd l the integer map that multiplies by sqrt(2), the factor
2^{-ceil(l/2)} in the scale, and the block's gcd moved into the scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .lattices import DiscGroup, Lattice, discriminant_group
from .mp2 import Mp2Element, mp2_word

_DENSE_L_CAP = 8


# ---------------------------------------------------------------------------
# integer maps on Z[zeta_8] blocks (rows: the coefficients of zeta^0..zeta^3)
# ---------------------------------------------------------------------------

def _zeta_shift(comp: np.ndarray, t) -> np.ndarray:
    """comp times zeta^t, with t one integer or one per class: z^{k+4} = -z^k."""
    idx = np.broadcast_to((np.arange(4)[:, None] - t) % 8, comp.shape)
    return np.take_along_axis(np.concatenate([comp, -comp]), idx, axis=0)


def _times_sqrt2(comp: np.ndarray) -> np.ndarray:
    """comp times sqrt(2) = zeta - zeta^3."""
    c0, c1, c2, c3 = comp
    return np.stack([c1 - c3, c0 + c2, c1 + c3, c2 - c0])


def _conj(comp: np.ndarray) -> np.ndarray:
    """Complex conjugation along axis -2: zeta^k -> zeta^{-k} = -zeta^{4-k}."""
    return np.stack([comp[..., 0, :], -comp[..., 3, :], -comp[..., 2, :], -comp[..., 1, :]], axis=-2)


# _MUL[k, m] is zeta^k * zeta^m = +-zeta^r as a row vector over r
_MUL = np.array([[[((k + m) % 4 == r) * (1 if k + m < 4 else -1) for r in range(4)]
                  for m in range(4)] for k in range(4)], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class WeilColumn:
    """The column scale * sum_k comp[k] zeta_8^k, canonical: scale > 0, comp primitive."""

    scale: Fraction
    comp: np.ndarray

    def __eq__(self, other):
        return (isinstance(other, WeilColumn) and self.scale == other.scale
                and np.array_equal(self.comp, other.comp))


def _canonical(scale: Fraction, comp: np.ndarray, l: int = 0) -> WeilColumn:
    """scale * 2^{-l/2} * comp with the gcd of the block moved into the scale."""
    if l % 2:
        comp = _times_sqrt2(comp)
    g = np.gcd.reduce(comp, axis=None)
    return WeilColumn(scale * Fraction(int(g), 2 ** ((l + 1) // 2)), comp // g)


# ---------------------------------------------------------------------------
# fast column evaluation
# ---------------------------------------------------------------------------

def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform along the last axis, in place.

    Entry k of the result is sum_x a[..., x] * (-1)^{popcount(x & k)}.
    `a` must be C-contiguous, so that each reshape below is a view of it.
    """
    n = a.shape[-1]
    h = 1
    while h < n:
        v = a.reshape(*a.shape[:-1], n // (2 * h), 2, h)
        x, y = v[..., 0, :], v[..., 1, :]
        v[..., 0, :], v[..., 1, :] = x + y, x - y
        h *= 2
    return a


def _s_step(scale: Fraction, comp: np.ndarray, data: DiscGroup, by: np.ndarray) -> WeilColumn:
    """rho(S) applied to scale * comp, with `by` the index array of `data.packed_by`.

    The transform grows entries by at most 2^l and sqrt(2) by 2: a block that
    could wrap int64 is refused.  `comp` is overwritten.
    """
    l = data.l
    if np.abs(comp).max() >= 2 ** (61 - l):
        raise OverflowError("Weil column state too large for an int64 transform")
    return _canonical(scale, _zeta_shift(_fwht(comp)[:, by], -data.sigma), l)


def weil_column(L: Lattice, word, start: int = 0) -> WeilColumn:
    """rho(word) e_start as an exact `WeilColumn`, word applied right-to-left."""
    data = discriminant_group(L)
    two_q = np.array(data.two_q, dtype=np.int64)
    by = np.array(data.packed_by, dtype=np.intp)
    scale, comp = Fraction(1), np.zeros((4, len(two_q)), dtype=np.int64)
    comp[0, start] = 1
    for gen, exp in reversed(list(word)):
        if gen == "T":
            comp = _zeta_shift(comp, 2 * two_q * (exp % 8))
        elif gen == "S":
            e = exp % 8
            # S^2 = Z and rho(Z) = i^{-sigma} * (e_g -> e_{-g}), with -g = g here
            comp = _zeta_shift(comp, -2 * data.sigma * (e // 2))
            if e % 2:
                col = _s_step(scale, comp, data, by)
                scale, comp = col.scale, col.comp
        else:
            raise ValueError(f"unknown generator {gen!r}")
    return WeilColumn(scale, comp)


def weil_column_of(L: Lattice, g: Mp2Element, start: int = 0) -> WeilColumn:
    return weil_column(L, mp2_word(g), start)


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
    equal delta_ij / (s_i s_j) for the scales s_i.
    """
    blocks = np.stack([c.comp for c in cols])
    if blocks.shape[-1] * 16 * int(np.abs(blocks).max()) ** 2 >= 2 ** 63:
        raise OverflowError("Weil column blocks too large for an int64 Gram matrix")
    prod = np.einsum("ikx,jmx->ikjm", blocks, _conj(blocks), optimize=True)
    gram = np.einsum("ikjm,kmr->ijr", prod, _MUL)
    n = len(cols)
    diag = gram[np.arange(n), np.arange(n), 0]
    gram[np.arange(n), np.arange(n), 0] = 0
    return not gram.any() and all(int(d) * c.scale ** 2 == 1 for d, c in zip(diag, cols))


def invariant_vector_check(L: Lattice, g: Mp2Element) -> int:
    """The k with rho(g) e_0 = zeta_8^k e_0, for g with c = 0 mod 4.

    Errors if e_0 is not an eigenvector or if the eigenvalue is no power of
    zeta_8.
    """
    if g.c % 4:
        raise ValueError("invariant_vector_check needs lower-left entry = 0 mod 4")
    col = weil_column_of(L, g, start=0)
    others = np.flatnonzero(col.comp[:, 1:].any(axis=0))
    if len(others):
        raise AssertionError(
            f"e_0 is not an eigenvector of rho(g): component {others[0] + 1} is nonzero"
        )
    lam = col.comp[:, 0]
    rows = np.flatnonzero(lam)
    if col.scale != 1 or len(rows) != 1 or abs(lam[rows[0]]) != 1:
        raise ArithmeticError(f"eigenvalue {col.scale} * {lam.tolist()} is not an 8th root of unity")
    return int(rows[0]) + 4 * int(lam[rows[0]] < 0)


# ---------------------------------------------------------------------------
# closed forms used by the coset-sum construction (and tested against the
# word evaluator)
# ---------------------------------------------------------------------------

def closed_form_st_l_inverse_column(L: Lattice, l_exp: int) -> WeilColumn:
    """rho((S T^l)^{-1}) e_0 = i^{sigma/2} 2^{-l(L)/2} sum_k i^{-l*k} v_k

    where v_k sums the classes with q = k/2 mod 2.
    """
    data = discriminant_group(L)
    ones = np.zeros((4, len(data.elements)), dtype=np.int64)
    ones[0] = 1
    t = data.sigma - 2 * l_exp * np.array(data.two_q, dtype=np.int64)
    return _canonical(Fraction(1), _zeta_shift(ones, t), data.l)


def closed_form_v_inverse_column(L: Lattice) -> WeilColumn:
    """rho(V^{-1}) e_0 = e_{1_L} (characteristic element)."""
    data = discriminant_group(L)
    comp = np.zeros((4, len(data.elements)), dtype=np.int64)
    comp[0, data.one_index] = 1
    return WeilColumn(Fraction(1), comp)
