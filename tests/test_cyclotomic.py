"""The integer maps on Z[zeta_8] blocks against their complex embedding."""
import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from twoelem.weil import _MUL, _conj, _times_sqrt2, _zeta_shift

ZETA_POWS = np.exp(1j * np.pi * np.arange(4) / 4)

# blocks of shape (4, n): row k holds the zeta^k coefficients of n entries
blocks = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: arrays(np.int64, (4, n), elements=st.integers(-1000, 1000)))


def _embed(comp):
    return ZETA_POWS @ comp


def _mul(a, b):
    """Product of two blocks entrywise, by the table the Gram check uses."""
    return np.einsum("kx,mx,kmr->rx", a, b, _MUL)


@settings(deadline=None, max_examples=60)
@given(blocks, st.integers(min_value=-20, max_value=20))
def test_zeta_powers(comp, t):
    # the gather by t multiplies by zeta^t; eight steps of 1 give the identity
    assert np.allclose(_embed(_zeta_shift(comp, t)), np.exp(1j * np.pi * t / 4) * _embed(comp))
    step = comp
    for i in range(1, 9):
        step = _zeta_shift(step, 1)
        assert np.array_equal(step, _zeta_shift(comp, i))
    assert np.array_equal(step, comp)
    assert np.array_equal(_zeta_shift(comp, 4), -comp)


@settings(deadline=None, max_examples=60)
@given(blocks.flatmap(lambda c: st.tuples(
    st.just(c), arrays(np.int64, c.shape[1], elements=st.integers(-20, 20)))))
def test_embedding_of_zeta(comp_t):
    # one shift per entry multiplies each entry by its own power of zeta
    comp, t = comp_t
    assert np.allclose(_embed(_zeta_shift(comp, t)), np.exp(1j * np.pi * t / 4) * _embed(comp))


@settings(deadline=None, max_examples=60)
@given(blocks)
def test_sqrt2_map(comp):
    # multiplies by sqrt(2) = zeta - zeta^3; applied twice it doubles
    assert np.allclose(_embed(_times_sqrt2(comp)), np.sqrt(2) * _embed(comp))
    assert np.array_equal(_times_sqrt2(_times_sqrt2(comp)), 2 * comp)


@settings(deadline=None, max_examples=60)
@given(blocks, blocks)
def test_conjugation(a, b):
    assert np.allclose(_embed(_conj(a)), _embed(a).conj())
    assert np.array_equal(_conj(_conj(a)), a)
    n = min(a.shape[1], b.shape[1])
    a, b = a[:, :n], b[:, :n]
    assert np.array_equal(_conj(_mul(a, b)), _mul(_conj(a), _conj(b)))
    # stacked blocks are conjugated along their row axis
    assert np.array_equal(_conj(np.stack([a, b])), np.stack([_conj(a), _conj(b)]))


@settings(deadline=None, max_examples=60)
@given(blocks, blocks, blocks)
def test_ring_axioms(a, b, c):
    n = min(a.shape[1], b.shape[1], c.shape[1])
    a, b, c = a[:, :n], b[:, :n], c[:, :n]
    assert np.allclose(_embed(_mul(a, b)), _embed(a) * _embed(b))
    assert np.array_equal(_mul(a, b), _mul(b, a))
    assert np.array_equal(_mul(a + b, c), _mul(a, c) + _mul(b, c))
    assert np.array_equal(_mul(_mul(a, b), c), _mul(a, _mul(b, c)))


@settings(deadline=None, max_examples=60)
@given(blocks)
def test_norm_positivity(a):
    # a * conj(a) embeds as |a|^2, real and nonnegative
    norm = _embed(_mul(a, _conj(a)))
    assert np.allclose(norm, np.abs(_embed(a)) ** 2)
    assert (norm.real > -1e-6).all()
