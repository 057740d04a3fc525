"""The integer maps on Z[zeta_8] blocks against their complex embedding."""
import numpy as np
from hypothesis import given, settings, strategies as st

from twoelem.weil import _MUL, _conj, _times_sqrt2, _zeta_shift

ZETA_POWS = np.exp(1j * np.pi * np.arange(4) / 4)

# blocks of four int lists of length n: row k holds the zeta^k coefficients of n entries
blocks = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n),
                       min_size=4, max_size=4))


def _embed(comp):
    return ZETA_POWS @ np.array(comp)


def _mul(a, b):
    """Product of two blocks entrywise, by the table the Gram check uses."""
    return [[sum(a[k][x] * b[m][x] * _MUL[k][m][r] for k in range(4) for m in range(4))
             for x in range(len(a[0]))] for r in range(4)]


def _add(a, b):
    return [[u + v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


def _times(c, a):
    return [[c * u for u in row] for row in a]


@settings(deadline=None, max_examples=60)
@given(blocks, st.integers(min_value=-20, max_value=20))
def test_zeta_powers(comp, t):
    # the gather by t multiplies by zeta^t; eight steps of 1 give the identity
    assert np.allclose(_embed(_zeta_shift(comp, t)), np.exp(1j * np.pi * t / 4) * _embed(comp))
    step = comp
    for i in range(1, 9):
        step = _zeta_shift(step, 1)
        assert step == _zeta_shift(comp, i)
    assert step == comp
    assert _zeta_shift(comp, 4) == _times(-1, comp)


@settings(deadline=None, max_examples=60)
@given(blocks.flatmap(lambda c: st.tuples(
    st.just(c), st.lists(st.integers(-20, 20), min_size=len(c[0]), max_size=len(c[0])))))
def test_embedding_of_zeta(comp_t):
    # one shift per entry multiplies each entry by its own power of zeta
    comp, t = comp_t
    assert np.allclose(_embed(_zeta_shift(comp, t)),
                       np.exp(1j * np.pi * np.array(t) / 4) * _embed(comp))


@settings(deadline=None, max_examples=60)
@given(blocks)
def test_sqrt2_map(comp):
    # multiplies by sqrt(2) = zeta - zeta^3; applied twice it doubles
    assert np.allclose(_embed(_times_sqrt2(comp)), np.sqrt(2) * _embed(comp))
    assert _times_sqrt2(_times_sqrt2(comp)) == _times(2, comp)


@settings(deadline=None, max_examples=60)
@given(blocks, blocks)
def test_conjugation(a, b):
    assert np.allclose(_embed(_conj(a)), _embed(a).conj())
    assert _conj(_conj(a)) == a
    n = min(len(a[0]), len(b[0]))
    a, b = [row[:n] for row in a], [row[:n] for row in b]
    assert _conj(_mul(a, b)) == _mul(_conj(a), _conj(b))


@settings(deadline=None, max_examples=60)
@given(blocks, blocks, blocks)
def test_ring_axioms(a, b, c):
    n = min(len(a[0]), len(b[0]), len(c[0]))
    a, b, c = ([row[:n] for row in m] for m in (a, b, c))
    assert np.allclose(_embed(_mul(a, b)), _embed(a) * _embed(b))
    assert _mul(a, b) == _mul(b, a)
    assert _mul(_add(a, b), c) == _add(_mul(a, c), _mul(b, c))
    assert _mul(_mul(a, b), c) == _mul(a, _mul(b, c))


@settings(deadline=None, max_examples=60)
@given(blocks)
def test_norm_positivity(a):
    # a * conj(a) embeds as |a|^2, real and nonnegative
    norm = _embed(_mul(a, _conj(a)))
    assert np.allclose(norm, np.abs(_embed(a)) ** 2)
    assert (norm.real > -1e-6).all()
