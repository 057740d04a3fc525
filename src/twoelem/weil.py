"""The Weil representation of Mp_2(Z) attached to a 2-elementary lattice.

On the generators it acts on the group algebra C[A] of the discriminant
group by

    rho(T) e_g = exp(pi*i*q(g)) e_g
    rho(S) e_g = i^{-sigma/2} / sqrt(|A|) * sum_d exp(-2*pi*i*b(g,d)) e_d

All scalars lie in Q(zeta_8): the quadratic form q takes values in (1/2)Z
mod 2Z, so exp(pi*i*q) is a power of zeta_8, i^{-sigma/2} = zeta_8^{-sigma},
and sqrt(2) = zeta - zeta^3.  This holds for odd sigma as well, which the
coset-sum oracle needs (e.g. U + A1plus has sigma = 1); no parity guard is
imposed.

One evaluator serves every use: `weil_column` applies a word in S and T to
a basis vector e_j, keeping an integer numpy state plus one exact Cyc8
prefactor, up to l = 12.  The dense matrix `weil_rep` (l <= 8) is the list
of its columns.

The state is a (4, 2^l) int64 block: row k holds the z^k coefficients over
the classes, indexed by their packed bit vectors.  rho(T) multiplies each
column by a power of zeta_8, which permutes and negates the rows.  rho(S)
is, up to its scalar, an unnormalised Walsh-Hadamard transform followed by
the index map y -> By, since (-1)^{2b(x, y)} = (-1)^{popcount(x & By)}.
After each S step the block is divided by the gcd of its entries, which
moves into the prefactor, so its entries stay small on words of any length.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cyc8 import Cyc8
from .lattices import Lattice, discriminant_group, sigma as lattice_sigma
from .mp2 import Mp2Element, mp2_word

_DENSE_L_CAP = 8
_COLUMN_L_CAP = 12


@dataclass
class DiscData:
    """Precomputed discriminant data shared by all Weil operations."""

    lattice: Lattice
    group: "object"
    elements: list          # DiscElement, fixed order; index 0 is the zero class
    two_q: list             # 2q mod 4 of each element; rho(T) multiplies by zeta^{2 two_q}
    packed_by: np.ndarray   # packed By of each class y: rho(S) is fwht then y -> By
    sigma: int
    l: int
    one_index: int          # position of the characteristic element


@lru_cache(maxsize=None)
def _disc_data_cached(gram: tuple) -> DiscData:
    return _build_disc_data(Lattice(gram))


def disc_data(L: Lattice) -> DiscData:
    return _disc_data_cached(L.gram)


def _build_disc_data(L: Lattice) -> DiscData:
    A = discriminant_group(L)
    if not A.is_two_elementary:
        raise ValueError("Weil representation implemented for 2-elementary lattices only")
    l = len(A.orders)
    if l > _COLUMN_L_CAP:
        raise ValueError(f"discriminant group too large (l={l} > {_COLUMN_L_CAP})")
    tables = A.tables()
    bits = tables.bits
    weights = 1 << np.arange(l - 1, -1, -1)
    packed_by = (tables.B @ bits.T % 2).T @ weights
    return DiscData(L, A, list(A.elements()), tables.two_q.tolist(), packed_by, lattice_sigma(L), l,
                    int(np.array(tables.characteristic, dtype=np.int64) @ weights))


# ---------------------------------------------------------------------------
# fast column evaluation
# ---------------------------------------------------------------------------

def _s_scalar(data: DiscData) -> Cyc8:
    """i^{-sigma/2} / |A|^{1/2} as an exact Cyc8 scalar."""
    scal = Cyc8.zeta(-data.sigma)  # i^{-sigma/2} = zeta^{-sigma}
    l = data.l
    scal = scal * Fraction(1, 2 ** (l // 2))
    if l % 2:
        scal = scal * Cyc8.sqrt2() * Fraction(1, 2)  # extra 1/sqrt(2)
    return scal


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


class _ColumnState:
    def __init__(self, data: DiscData, start: int = 0):
        self.data = data
        n = len(data.elements)
        self.comp = np.zeros((4, n), dtype=np.int64)
        self.comp[0, start] = 1
        self.prefactor = Cyc8(1)

    def apply_T(self, n: int):
        # zeta^t shifts the coefficients of z^0..z^7, and z^{k+4} = -z^k
        t = 2 * np.array(self.data.two_q, dtype=np.int64) * (n % 8)
        ext = np.concatenate([self.comp, -self.comp])
        self.comp = np.take_along_axis(ext, (np.arange(4)[:, None] - t) % 8, axis=0)

    def apply_Z(self, k: int):
        # rho(Z) = i^{-sigma} * (e_g -> e_{-g}) and -g = g here
        self.prefactor = self.prefactor * Cyc8.zeta((-2 * self.data.sigma * k) % 8)

    def apply_S(self):
        # the transform grows entries by at most a factor 2^l; refuse to wrap
        if np.abs(self.comp).max() >= 2 ** (62 - self.data.l):
            raise OverflowError("Weil column state too large for an int64 transform")
        comp = _fwht(self.comp)[:, self.data.packed_by]
        g = np.gcd.reduce(comp, axis=None)
        self.comp = comp // g
        self.prefactor = self.prefactor * _s_scalar(self.data) * int(g)

    def apply_token(self, gen: str, exp: int):
        if gen == "T":
            self.apply_T(exp)
        elif gen == "S":
            e = exp % 8
            self.apply_Z(e // 2)  # S^2 = Z
            if e % 2:
                self.apply_S()
        else:
            raise ValueError(f"unknown generator {gen!r}")

    def to_cyc8(self):
        out = []
        for j in range(self.comp.shape[1]):
            c = Cyc8(*(int(x) for x in self.comp[:, j]))
            out.append(self.prefactor * c if not c.is_zero() else Cyc8(0))
        return out


def weil_column(L: Lattice, word, start: int = 0):
    """rho(word) e_start as an exact list of Cyc8, word applied right-to-left."""
    data = disc_data(L)
    st = _ColumnState(data, start)
    for gen, exp in reversed(list(word)):
        st.apply_token(gen, exp)
    return st.to_cyc8()


def weil_column_of(L: Lattice, g: Mp2Element, start: int = 0):
    return weil_column(L, mp2_word(g), start)


def weil_rep(L: Lattice, g: Mp2Element):
    """rho(g) as a dense exact matrix, a list of columns: cols[j] = rho(g) e_j."""
    data = disc_data(L)
    if data.l > _DENSE_L_CAP:
        raise ValueError(
            f"dense Weil matrices capped at l <= {_DENSE_L_CAP}; use weil_column"
        )
    word = mp2_word(g)
    return [weil_column(L, word, j) for j in range(len(data.elements))]


def is_unitary(cols) -> bool:
    """Whether the columns are orthonormal under the exact Hermitian product."""
    conj = [[x.conj() for x in col] for col in cols]
    return all(
        sum((x * y for x, y in zip(cols[i], conj[j])), Cyc8(0)) == Cyc8(int(i == j))
        for i in range(len(cols)) for j in range(i + 1)
    )


def invariant_vector_check(L: Lattice, g: Mp2Element) -> Cyc8:
    """The scalar lambda with rho(g) e_0 = lambda e_0, for g with c = 0 mod 4.

    Errors if e_0 is not an eigenvector or if lambda^8 != 1.
    """
    if g.c % 4:
        raise ValueError("invariant_vector_check needs lower-left entry = 0 mod 4")
    col = weil_column_of(L, g, start=0)
    lam = col[0]
    for i, entry in enumerate(col):
        if i and not entry.is_zero():
            raise AssertionError(
                f"e_0 is not an eigenvector of rho(g): component {i} = {entry}"
            )
    if lam ** 8 != Cyc8(1):
        raise ArithmeticError(f"eigenvalue {lam} is not an 8th root of unity")
    return lam


# ---------------------------------------------------------------------------
# closed forms used by the coset-sum construction (and tested against the
# word evaluator)
# ---------------------------------------------------------------------------

def closed_form_st_l_inverse_column(L: Lattice, l_exp: int):
    """rho((S T^l)^{-1}) e_0 = i^{sigma/2} 2^{-l(L)/2} sum_k i^{-l*k} v_k

    where v_k sums the classes with q = k/2 mod 2.
    """
    data = disc_data(L)
    scal = _s_scalar(data).conj()  # i^{sigma/2} 2^{-l/2}: 2^{-l/2} is real
    return [scal * Cyc8.i_pow((-l_exp * k) % 4) for k in data.two_q]


def closed_form_v_inverse_column(L: Lattice):
    """rho(V^{-1}) e_0 = e_{1_L} (characteristic element)."""
    data = disc_data(L)
    out = [Cyc8(0)] * len(data.elements)
    out[data.one_index] = Cyc8(1)
    return out
