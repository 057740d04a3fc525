"""Exact arithmetic in the degree-4 cyclotomic ring (8th roots of unity)."""
import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twoelem import Cyc8, cyc8_embed

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8)
elements = st.builds(Cyc8, rationals, rationals, rationals, rationals)


def test_zeta_powers():
    z = Cyc8.zeta()
    assert z ** 8 == Cyc8(1)
    assert z ** 4 == Cyc8(-1)
    assert z ** 2 == Cyc8.i_pow(1)
    assert Cyc8.sqrt2() ** 2 == Cyc8(2)
    assert Cyc8.sqrt2() == z - z ** 3
    with pytest.raises(ValueError):
        z ** -1


@settings(deadline=None, max_examples=60)
@given(elements, elements, elements)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@settings(deadline=None, max_examples=60)
@given(elements, elements)
def test_conjugation(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a
    # conjugation matches complex conjugation under the standard embedding
    za, zc = cyc8_embed(a, 64), cyc8_embed(a.conj(), 64)
    assert abs(complex(zc) - complex(za).conjugate()) < 1e-15


def test_embedding_of_zeta():
    z = cyc8_embed(Cyc8.zeta(), 64)
    assert abs(complex(z) - cmath.exp(1j * cmath.pi / 4)) < 1e-15


def test_norm_positivity():
    a = Cyc8(1, 2, Fraction(-3, 2), 5)
    n = a * a.conj()
    # |a|^2 under the embedding equals the (real) value of a * conj(a)
    assert abs(abs(complex(cyc8_embed(a, 64))) ** 2
               - complex(cyc8_embed(n, 64)).real) < 1e-12
