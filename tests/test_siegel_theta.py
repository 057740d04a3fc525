"""Theta constants with characteristics, the even product, and degenerations."""
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from twoelem import siegel
from twoelem import (
    SiegelPoint,
    ThetaChar,
    chi_g,
    chi_g8_petersson,
    even_characteristics,
    fay_family,
    theta_constant,
    vanishing_order_fit,
)
import numpy as np

from twoelem.lattices import _pack, _quad, ellipsoid_lines
from twoelem.siegel import _table, _truncation, chi8_weight


def _row(a, point, prec):
    """([theta_{a,b}(Sigma) for packed 2b], eps): row 2a of the point's table."""
    return _table(point, prec)[_pack(int(2 * x) for x in a)]


def _mu(a, point):
    """mu_a, the least v^t (Im Sigma) v over v != 0 in Z^g + a."""
    return point._mins[_pack(int(2 * x) for x in a)]


def _row_truncation(a, point, prec):
    """(bound, eps) of row a on its own: the radius of its mu_a, 0 at a = 0."""
    return _truncation(_mu(a, point) if any(a) else 0, point, prec)


def _lines(point, bound, a):
    """Lines of the n in Z^g with (n+a)^t (Im Sigma) (n+a) <= bound."""
    return ellipsoid_lines(point._elim, bound * point._den, [-x for x in a])


def test_characteristic_parity():
    assert ThetaChar((0,), (0,)).is_even
    assert not ThetaChar((0.5,), (0.5,)).is_even
    with pytest.raises(ValueError):
        ThetaChar((0.25,), (0,))
    with pytest.raises(ValueError, match="same length"):
        ThetaChar((0, 0.5), (0.5,))


def test_even_counts():
    assert [len(even_characteristics(g)) for g in range(6)] == \
        [1, 3, 10, 36, 136, 528]
    assert [chi8_weight(g) for g in range(1, 6)] == [12, 40, 144, 544, 2112]


def test_point_validation():
    with pytest.raises(ValueError):
        SiegelPoint(((1j, 0.5), (0.4, 1j)))      # not symmetric
    with pytest.raises(ValueError):
        SiegelPoint(((1j, 0.9j), (0.9j, 0.5j)))  # Im not positive definite
    for z in (complex(math.nan, 1), complex(0, math.inf), complex(0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            SiegelPoint(((z,),))
    p = SiegelPoint(((0.2 + 1j, 0.1), (0.1, 1.5j)))
    assert p.g == 2


def _exact_det(sig):
    (p, q), (_, r) = [[Fraction(x.imag) for x in row] for row in sig]
    return p * r - q * q


@pytest.mark.parametrize("sig, positive", [
    (((1j, 1j), (1j, complex(0, 1 + 2.0 ** -52))), True),    # det Im = 2^-52
    (((1j, 1j), (1j, complex(0, 1 - 2.0 ** -52))), False),   # det Im = -2^-52
    # float eigenvalues say 0 and 5.6e-17: the signs of the exact dets differ
    (((0.8431433319056789j, 1.2716405512785594j),
      (1.2716405512785594j, 1.9179060433308834j)), True),
    (((0.8496266753863589j, 0.8479616122881385j),
      (0.8479616122881385j, 0.8462998123114764j)), False),
    (((1j, 1j), (1j, 1j)), False),                           # det Im = 0, a zero pivot
])
def test_point_positive_definiteness_is_exact(sig, positive):
    assert (_exact_det(sig) > 0) == positive
    if positive:
        assert SiegelPoint(sig).g == 2
    else:
        with pytest.raises(ValueError, match="positive definite"):
            SiegelPoint(sig)


def test_theta_value_at_i():
    # theta_{0,0}(i) = pi^(1/4) / Gamma(3/4)
    val = theta_constant(ThetaChar((0,), (0,)), SiegelPoint(((1j,),)), 64)
    with mpmath.workprec(64):
        ref = mpmath.pi ** mpmath.mpf("0.25") / mpmath.gamma(mpmath.mpf("0.75"))
        assert abs(val - ref) < 1e-17


def test_float_and_mp_paths_agree():
    pt = SiegelPoint(((0.3 + 1.1j, -0.2 + 0.4j), (-0.2 + 0.4j, 0.1 + 1.3j)))
    for ch in even_characteristics(2)[:4]:
        fast = theta_constant(ch, pt, 53)
        slow = theta_constant(ch, pt, 90)
        assert abs(complex(slow) - fast) < 1e-13


def _reference_theta(ch, point, prec, R):
    """The direct sum over n in [-R, R]^g, one characteristic at a time:
    exp(pi i (n+a)^t Sigma (n+a) + 2 pi i (n+a).b)."""
    g = point.g
    with mpmath.workprec(prec):
        S = [[mpmath.mpc(x) for x in row] for row in point.sigma]
        total = mpmath.mpc(0)
        for n in itertools.product(range(-R, R + 1), repeat=g):
            v = [mpmath.mpf(ni + float(ai)) for ni, ai in zip(n, ch.a)]
            quad = sum(v[i] * S[i][j] * v[j] for i in range(g) for j in range(g))
            lin = sum(vi * float(bi) for vi, bi in zip(v, ch.b))
            total += mpmath.exp(1j * mpmath.pi * quad + 2j * mpmath.pi * lin)
        return total


# (Sigma, R): every term outside the box [-R, R]^g is below 2^-100.  The
# entries are all distinct, so a permuted b or a dropped phase shows.
_REFERENCE_POINTS = [
    (((0.37 + 1.21j,),), 5),
    (((0.3 + 1.1j, -0.2 + 0.4j), (-0.2 + 0.4j, 0.1 + 1.3j)), 5),
    (((0.31 + 5.9j, -0.17 + 0.3j, 0.05 + 0.1j),
      (-0.17 + 0.3j, -0.22 + 6.1j, 0.13 - 0.25j),
      (0.05 + 0.1j, 0.13 - 0.25j, 0.4 + 5.7j)), 2),
]


# (prec, tol, index into _REFERENCE_POINTS): every point at 53 and 80 bits,
# the genus-2 one also at 64 and 100 bits
_DIRECT_SUM_CASES = [(prec, tol, i) for prec, tol in [(53, 1e-13), (80, 1e-20)]
                     for i in range(len(_REFERENCE_POINTS))] + [(64, 1e-17, 1), (100, 1e-27, 1)]


@pytest.mark.parametrize("sigma, R, prec, tol", [
    pytest.param(*_REFERENCE_POINTS[i], prec, tol, id=f"{prec}-{tol}-sigma{i}-{_REFERENCE_POINTS[i][1]}")
    for prec, tol, i in _DIRECT_SUM_CASES])
def test_theta_matches_direct_sum(sigma, R, prec, tol):
    point = SiegelPoint(sigma)
    for a in itertools.product((0, 0.5), repeat=point.g):
        for b in itertools.product((0, 0.5), repeat=point.g):
            ch = ThetaChar(a, b)
            val = theta_constant(ch, point, prec)
            assert abs(val - _reference_theta(ch, point, prec, R)) < tol, (a, b)
            if not ch.is_even:
                assert abs(val) < tol, (a, b)


@pytest.mark.parametrize("tau", [0.3 + 0.05j, -0.45 + 0.03j])
@pytest.mark.parametrize("prec", [64, 100, 200])
def test_theta_walk_keeps_precision(tau, prec):
    # near the real axis each grid line has 41-83 terms, each reached by a
    # walk of products from the line's first term
    val = theta_constant(ThetaChar((0,), (0,)), SiegelPoint(((tau,),)), prec)
    with mpmath.workprec(prec + 60):
        ref = mpmath.jtheta(3, 0, mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau)))
        assert abs(val - ref) <= 2 ** (4 - prec) * abs(ref)


def test_theta_row_grid_memory():
    # g = 4, R = 9: 130,321 grid points; four 8-byte copies of the grid
    # coordinates alone would take 16 MB
    g = 4
    point = SiegelPoint(tuple(tuple(complex(0.1 * abs(i - j), 0.15) if i != j else 1.1j
                                    for j in range(g)) for i in range(g)))
    tracemalloc.start()
    try:
        _row((0.5, 0, 0, 0), point, 53)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2 ** 20


def _roadmap_point(g):
    # diagonal 1.1i, off-diagonal 0.1|i-j| + 0.15i
    return SiegelPoint(tuple(tuple(complex(0.1 * abs(i - j), 0.15) if i != j else 1.1j
                                   for j in range(g)) for i in range(g)))


def _ellipsoid_points(point, bound, a):
    return [(n0,) + rest for lo, hi, rest in _lines(point, bound, a) for n0 in range(lo, hi + 1)]


@pytest.mark.parametrize("sigma, prec", [
    pytest.param(sig, prec, id=f"g{len(sig)}-{prec}")
    for sig, prec in [(s, p) for s, _ in _REFERENCE_POINTS for p in (53, 100)]
    + [(_roadmap_point(4).sigma, 53)]])
def test_theta_within_bound_of_doubled_radius(sigma, prec):
    # the sum over the ellipsoid of twice the radius R differs from the
    # truncated one by its shell, whose terms are summed here directly; the
    # row itself is held to that wider sum within the bound plus rounding
    point = SiegelPoint(sigma)
    g = point.g
    S = np.array(point.sigma)
    bits = np.array(list(itertools.product((0, 1), repeat=g)))   # 2b, first coordinate high
    for a in itertools.product((Fraction(0), Fraction(1, 2)), repeat=g):
        bound, eps = _row_truncation(a, point, prec)
        inner = set(_ellipsoid_points(point, bound, a))
        wide = _ellipsoid_points(point, 4 * bound, a)          # radius 2R
        shell = np.array([n not in inner for n in wide])
        assert len(inner) + shell.sum() == len(wide)
        v = np.array(wide, dtype=float) + np.array([float(x) for x in a])
        quad = np.einsum("ki,ij,kj->k", v, S, v)
        # exp(2 pi i v.b) = i^K with K = sum (2 v_i)(2 b_i)
        phase = 1j ** (np.rint(2 * v) @ bits.T % 4)
        terms = np.exp(1j * np.pi * quad)[:, None] * phase
        tail = terms[shell].sum(axis=0)
        assert np.all(np.abs(tail) <= float(eps)), (a, tail, eps)
        row = np.array([complex(z) for z in _row(a, point, prec)[0]])
        rounding = 1e-14 * np.abs(terms).sum(axis=0)
        assert np.all(np.abs(row - terms.sum(axis=0)) <= float(eps) + rounding), a


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_tail_bound_premise(g):
    # the tail bound rests on e^{-|x|^2} <= the mean of e^{-|u|^2} over the
    # ball B(x, rho/2), for |x| >= R >= (sqrt(2g) + rho)/2; at |x| = R, with
    # h = u - x split into t along x and the rest, that mean over e^{-|x|^2}
    # is a one-dimensional integral
    k = g - 1
    with mpmath.workprec(80):
        def ratio(d):
            r = mpmath.sqrt(mpmath.mpf(g) / 2) + d

            def perp(s):    # mean of e^{-|w|^2} over the k-ball of radius s
                if k == 0 or s == 0:
                    return mpmath.mpf(1)
                return k / (2 * s ** k) * mpmath.gammainc(mpmath.mpf(k) / 2, 0, s * s)

            def weight(t):
                return (d * d - t * t) ** (mpmath.mpf(k) / 2)

            num = mpmath.quad(lambda t: mpmath.exp(-2 * r * t - t * t)
                              * perp(mpmath.sqrt(d * d - t * t)) * weight(t), [-d, 0, d])
            return num / mpmath.quad(weight, [-d, 0, d])

        for d in ("0.01", "0.1", "0.5", "2", "6"):
            assert ratio(mpmath.mpf(d)) >= 1, d


_PEAK_GROWTH = """
from test_siegel_theta import _roadmap_point, _row

def peak():   # VmHWM, the peak resident size of this process's own memory, in KiB
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

_row((0.5,) * 3, _roadmap_point(3), 53)   # imports, code paths and allocator pools
before = peak()
point = _roadmap_point(5)
_row((0.5,) * 5, point, 53)
print(peak() - before)
"""


def test_theta_row_ellipsoid_memory():
    # g = 5 at the ROADMAP Sigma: the pass streams its lines, where the cube
    # [-10, 10]^5 had 4,084,101 points; the peak resident size of a fresh
    # process grows by less than 4 MB over a warm-up g = 3 table.  Not
    # ru_maxrss: Linux carries the parent's peak into a forked child
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.dirname(os.path.dirname(siegel.__file__)), here])
    proc = subprocess.run([sys.executable, "-c", _PEAK_GROWTH], env=dict(os.environ, PYTHONPATH=path),
                          cwd=here, capture_output=True, text=True, check=True)
    assert int(proc.stdout) * 1024 < 4 * 2 ** 20


def _sp_word(sig, rng, length):
    """sig moved by a random word in the generators of Sp(2g, Z): Sigma + B
    (B symmetric integer), A^t Sigma A (A in GL_g(Z)) and J: -Sigma^-1; J is
    in every word."""
    S = np.array(sig, dtype=complex)
    g = len(S)
    kinds = ["J"] + [rng.choice("TAJ") for _ in range(length - 1)]
    rng.shuffle(kinds)
    for kind in kinds:
        if kind == "T":
            B = np.zeros((g, g), dtype=int)
            for i in range(g):
                for j in range(i, g):
                    B[i, j] = B[j, i] = rng.randint(-1, 1)
            S = S + B
        elif kind == "A":
            A = np.eye(g, dtype=int)
            A = A[rng.sample(range(g), g)] * rng.choice((1, -1))
            if g > 1:
                i, j = rng.sample(range(g), 2)
                A[i, j] = rng.choice((1, -1))
            S = A.T @ S @ A
        else:
            S = -np.linalg.inv(S)
        S = (S + S.T) / 2
    return tuple(tuple(complex(x) for x in row) for row in S)


@pytest.mark.parametrize("g, sig", [
    (1, ((0.21 + 1.17j,),)),
    (2, ((0.23 + 1.12j, -0.41 + 0.37j), (-0.41 + 0.37j, 0.11 + 0.95j))),
    (3, ((0.2 + 1.1j, 0.1 + 0.2j, -0.1 + 0.15j),
         (0.1 + 0.2j, -0.3 + 1.3j, 0.2 + 0.1j),
         (-0.1 + 0.15j, 0.2 + 0.1j, 0.15 + 1.05j))),
])
def test_petersson_invariant_under_sp2g_words(g, sig):
    # ||chi_g^8|| is invariant under all of Sp(2g, Z), J included; the
    # criterion-08 points and tolerance, at 53 bits
    import random
    rng = random.Random(8 + g)
    base = chi_g8_petersson(SiegelPoint(sig), 53)
    for _ in range(6):
        moved = chi_g8_petersson(SiegelPoint(_sp_word(sig, rng, 4)), 53)
        assert abs(moved / base - 1) < 1e-12


def test_chi_g_makes_one_pass_per_point(monkeypatch):
    # at g = 3 chi_g searches one ellipsoid and bisects one radius for all 8
    # rows; the 36 theta constants then read the point's table, and their
    # product, taken as chi_g takes it, is chi_g's bit for bit
    point = SiegelPoint(((0.2 + 1.1j, 0.1 + 0.2j, -0.1 + 0.15j),
                         (0.1 + 0.2j, -0.3 + 1.3j, 0.2 + 0.1j),
                         (-0.1 + 0.15j, 0.2 + 0.1j, 0.15 + 1.05j)))
    point._mins   # the minima's own search, once per point
    calls = {"ellipsoid_lines": 0, "_truncation": 0, "_pass": 0}
    for name in calls:
        fn = getattr(siegel, name)
        monkeypatch.setattr(siegel, name, lambda *args, fn=fn, name=name, **kw:
                            calls.__setitem__(name, calls[name] + 1) or fn(*args, **kw))
    chi = chi_g(point, 53)
    assert calls == {"ellipsoid_lines": 1, "_truncation": 1, "_pass": 1}
    with mpmath.workprec(63):
        prod = mpmath.mpc(1)
        for ch in even_characteristics(3):
            prod *= theta_constant(ch, point, 53)
    assert calls == {"ellipsoid_lines": 1, "_truncation": 1, "_pass": 1}
    assert prod == chi


@pytest.mark.parametrize("g", [1, 2, 3, 4])
@pytest.mark.parametrize("prec", [53, 64])
def test_pass_walks_each_pair_once(g, prec, monkeypatch):
    # the terms exp(pi i x^t Sigma x / 4) are even in x: the pass hands its
    # lines one of each pair +-x of the full ellipsoid, and the origin once
    count = []
    for arith in (siegel._Floats, siegel._Fixed):
        def line(self, z, rf, rb, f, b, *rest, line=arith.line):
            count.append(f + b + 1)
            return line(self, z, rf, rb, f, b, *rest)
        monkeypatch.setattr(arith, "line", line)
    point = _roadmap_point(g)
    _row((0,) * g, point, prec)
    bound, _ = _truncation(max(point._mins[1:]), point, prec)
    full = sum(hi - lo + 1 for lo, hi, _ in _lines(point, 4 * bound, [0] * g))
    assert full % 2 == 1
    assert sum(count) == (full + 1) // 2


def test_genus_beyond_five_is_refused_before_any_pass(monkeypatch):
    # the even characteristics stop at g = 5: a genus-6 point is refused
    # before any pass builds its table
    calls = []
    monkeypatch.setattr(siegel, "_pass", lambda *args: calls.append(args))
    point = _diagonal_point(6, 1, 0)
    for fn in (chi_g, chi_g8_petersson):
        with pytest.raises(ValueError, match="genus must be between 0 and 5"):
            fn(point, 53)
    assert calls == []


@pytest.mark.parametrize("prec", [-40, 0, "64"])
def test_theta_precision_must_be_a_positive_integer(prec):
    # -40 gave exactly 1 + 0j, 0 a 53-bit value and "64" a TypeError
    point = SiegelPoint(((0.37 + 1.21j,),))
    for fn in (lambda: theta_constant(ThetaChar((0,), (0,)), point, prec),
               lambda: chi_g8_petersson(point, prec)):
        with pytest.raises(ValueError, match="prec must be a positive integer"):
            fn()


def test_theta_precision_takes_an_integral_float():
    # 64.0 raised a TypeError from an int >> float shift
    point = SiegelPoint(((0.37 + 1.21j,),))
    ch = ThetaChar((0.5,), (0,))
    assert theta_constant(ch, point, 64.0) == theta_constant(ch, point, 64)
    assert chi_g8_petersson(point, 64.0) == chi_g8_petersson(point, 64)


@pytest.mark.parametrize("sigma, R", _REFERENCE_POINTS[1:])
def test_chi_g_is_product_of_even_thetas(sigma, R):
    point = SiegelPoint(sigma)
    prod = complex(1)
    for ch in even_characteristics(point.g):
        prod *= theta_constant(ch, point, 53)
    assert abs(chi_g(point, 53) - prod) <= 1e-14 * abs(prod)


def test_odd_characteristic_vanishes():
    odd = ThetaChar((0.5,), (0.5,))
    val = theta_constant(odd, SiegelPoint(((0.37 + 1.21j,),)), 64)
    assert abs(val) < 1e-16


def test_genus_one_product_is_eta_cubed():
    # chi_1 = theta_2 theta_3 theta_4 = 2 eta(tau)^3
    tau = mpmath.mpc("0.21", "1.37")
    val = chi_g(SiegelPoint(((tau,),)), 64)
    with mpmath.workprec(64):
        q = mpmath.exp(2j * mpmath.pi * tau)
        eta = mpmath.exp(1j * mpmath.pi * tau / 12)
        for n in range(1, 120):
            eta *= 1 - q ** n
        assert abs(val - 2 * eta ** 3) < 1e-16


def test_chi1_eighth_power_at_high_precision():
    # chi_1^8 = 256 eta^24: the product of the theta values keeps all 100 bits
    tau = complex(-0.3, 1.3)
    val = chi_g(SiegelPoint(((tau,),)), 100)
    with mpmath.workprec(100):
        t = mpmath.mpc(tau)
        q = mpmath.exp(2j * mpmath.pi * t)
        eta = mpmath.exp(1j * mpmath.pi * t / 12)
        for n in range(1, 200):
            eta *= 1 - q ** n
        assert abs(val ** 8 / (256 * eta ** 24) - 1) < 1e-25


def test_chi2_vanishes_on_split_locus():
    val = chi_g(SiegelPoint(((0.4 + 1.1j, 0.0), (0.0, -0.3 + 0.8j))), 64)
    assert abs(val) < 1e-14


def test_petersson_modular_invariance_g2():
    A = ((1, 1), (0, 1))  # GL_2(Z)
    B = ((2, -1), (-1, 0))  # integer symmetric
    sig = ((0.23 + 1.12j, -0.41 + 0.37j), (-0.41 + 0.37j, 0.11 + 0.95j))
    p = SiegelPoint(sig)
    base = chi_g8_petersson(p, 53)

    shifted = tuple(tuple(sig[i][j] + B[i][j] for j in range(2))
                    for i in range(2))
    v1 = chi_g8_petersson(SiegelPoint(shifted), 53)

    rotated = tuple(
        tuple(sum(A[k][i] * sig[k][m] * A[m][j] for k in range(2)
                  for m in range(2)) for j in range(2)) for i in range(2))
    v2 = chi_g8_petersson(SiegelPoint(rotated), 53)

    assert abs(v1 / base - 1) < 1e-12
    assert abs(v2 / base - 1) < 1e-12


@pytest.mark.parametrize("sig", [
    ((0.23 + 1.12j, -0.41 + 0.37j), (-0.41 + 0.37j, 0.11 + 0.95j)),
    ((0.2 + 1.1j, 0.1 + 0.2j, -0.1 + 0.15j),
     (0.1 + 0.2j, -0.3 + 1.3j, 0.2 + 0.1j),
     (-0.1 + 0.15j, 0.2 + 0.1j, 0.15 + 1.05j)),
])
def test_petersson_prefactor_keeps_high_precision(sig):
    # the 100-bit norm against a 160-bit reference whose det Im Sigma is the
    # exact Leibniz sum over the binary values of the entries
    p = SiegelPoint(sig)
    g = p.g
    Y = [[Fraction(x.imag) for x in row] for row in sig]
    det = sum((-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
              * math.prod(Y[i][perm[i]] for i in range(g))
              for perm in itertools.permutations(range(g)))
    with mpmath.workprec(160):
        ref = ((mpmath.mpf(det.numerator) / det.denominator) ** chi8_weight(g)
               * abs(mpmath.mpc(chi_g(p, 160))) ** 16)
        assert abs(chi_g8_petersson(p, 100) / ref - 1) < 1e-25


def test_fay_family_validation():
    with pytest.raises(ValueError):
        fay_family(1, [[0.5j]], 1.5)   # |t| >= 1
    # psi too small (was an IndexError), too large (the 0.2 was dropped), ragged
    for g, psi in [(2, [[0.1 + 1j]]), (1, [[0.1 + 1j, 0.2]]), (2, [[0.1 + 1j, 0.2], [0.2]])]:
        with pytest.raises(ValueError, match="psi must be a g x g matrix"):
            fay_family(g, psi, 0.01)
    pt = fay_family(2, [[0.1 + 0.3j, 0.05], [0.05, 1.2j]], 1e-4)
    assert pt.g == 2


def test_vanishing_fit_needs_enough_points():
    fam = lambda t: fay_family(1, [[0.2j]], t)
    with pytest.raises(ValueError):
        vanishing_order_fit(fam, [1e-3, 1e-4, 1e-5], 53)
    # the kept points 0.01 e^{ik} share one |t|: no slope (was a ZeroDivisionError)
    with pytest.raises(ValueError, match="t_grid"):
        vanishing_order_fit(fam, [0.01 * complex(math.cos(k), math.sin(k)) for k in range(6)], 53)


def test_vanishing_slope_genus1():
    fam = lambda t: fay_family(1, [[0.1 + 0.2j]], t)
    grid = [10 ** (-(3 + 0.5 * j)) for j in range(9)]
    slope, resid = vanishing_order_fit(fam, grid, 53)
    assert abs(slope - 1) < 0.05
    assert math.isfinite(resid)


def _within_eps_of_higher_precision(point, a, prec):
    """The row at `prec` against the row at prec + 64 bits: the two differ by
    at most the sum of their returned bounds.  Returns (row, eps, ref)."""
    row, eps = _row(a, point, prec)
    ref, eps_ref = _row(a, point, prec + 64)
    with mpmath.workprec(prec + 64):
        for b, (z, w) in enumerate(zip(row, ref)):
            assert abs(z - w) <= eps + eps_ref, (a, b, prec)
    return row, eps, ref


@pytest.mark.parametrize("sigma, prec", [
    pytest.param(sig, prec, id=f"g{len(sig)}-{prec}")
    for sig, prec in [(s, p) for s, _ in _REFERENCE_POINTS for p in (64, 100)]
    + [(_roadmap_point(4).sigma, p) for p in (64, 100)]])
def test_fixed_point_rows_within_their_bound(sigma, prec):
    # every multiprecision row is held to one 64 bits finer within the
    # returned bound (tail plus stated rounding)
    point = SiegelPoint(sigma)
    for a in itertools.product((0, 0.5), repeat=point.g):
        _within_eps_of_higher_precision(point, a, prec)


def test_fixed_point_row_far_below_one():
    # the genus-3 path point of the benchmark, Im Sigma ~ 18 I: at
    # a = (1/2, 1/2, 1/2) the largest term is about exp(-pi 18 3/4) ~ 2^-61,
    # and the bound and the error stay relative to the row, not to 1
    point = SiegelPoint(((0.1 + 17.9j, 0.2 + 0.05j, -0.1 + 0.02j),
                         (0.2 + 0.05j, -0.2 + 18j, 0.3 + 0.04j),
                         (-0.1 + 0.02j, 0.3 + 0.04j, 0.05 + 18.1j)))
    a = (0.5, 0.5, 0.5)
    row, eps, ref = _within_eps_of_higher_precision(point, a, 64)
    with mpmath.workprec(128):
        largest = max(abs(w) for w in ref)
        assert largest < 2.0 ** -55
        assert eps < 2.0 ** -60 * largest
        for ch in (ThetaChar(a, b) for b in itertools.product((0, 0.5), repeat=3)):
            if ch.is_even:
                i = int("".join(str(int(2 * x)) for x in ch.b), 2)
                assert abs(row[i] - ref[i]) <= 2.0 ** -60 * abs(ref[i])


def test_even_characteristics_fresh_list_per_call():
    first = even_characteristics(3)
    first.clear()
    assert len(even_characteristics(3)) == 36
    assert even_characteristics(2) == [ThetaChar(a, b) for a in itertools.product((0, 0.5), repeat=2)
                                       for b in itertools.product((0, 0.5), repeat=2)
                                       if ThetaChar(a, b).is_even]
    for g in (-1, 6):
        with pytest.raises(ValueError, match="genus"):
            even_characteristics(g)


def _diagonal_point(g, diag, off):
    return SiegelPoint(tuple(tuple(complex(0, diag if i == j else off) for j in range(g))
                             for i in range(g)))


# (Sigma, floats): the 53-bit rows come from the float walk, except those of
# Sigma = 300i, whose step factors leave the double range
_FLOAT_ROW_POINTS = [(sig, True) for sig, _ in _REFERENCE_POINTS] + [
    (_roadmap_point(4).sigma, True),
    (_diagonal_point(3, 40, 0.1).sigma, True),   # the rows with a != 0 lie far below 1
    (((0.1 + 300j,),), False),
]


@pytest.mark.parametrize("sigma, floats", [
    pytest.param(sig, floats, id=f"g{len(sig)}-{i}")
    for i, (sig, floats) in enumerate(_FLOAT_ROW_POINTS)])
def test_float_rows_within_their_bound(sigma, floats):
    # every 53-bit row is held to the 100-bit one within the sum of the two
    # returned bounds: tail plus stated rounding on both sides; the 53-bit
    # bound itself stays within 2^-36 of the row's largest entry
    point = SiegelPoint(sigma)
    for a in itertools.product((0, 0.5), repeat=point.g):
        row, eps = _row(a, point, 53)
        ref, eps_ref = _row(a, point, 100)
        assert all(isinstance(z, complex) for z in row) == floats
        with mpmath.workprec(100):
            largest = max(abs(w) for w in ref)
            assert 0 < largest and eps < 2.0 ** -36 * largest
            for b, (z, w) in enumerate(zip(row, ref)):
                assert abs(z - w) <= eps + eps_ref, (a, b)


@pytest.mark.parametrize("g, diag, want", [(3, 40, "1.23394383e-9673"), (5, 3, "7.68126271e-13757")])
def test_petersson_norm_below_the_double_range(g, diag, want):
    # the 16th power of a product of 36 or 528 thetas is far below the
    # smallest double, yet the 53-bit norm is that of 64 bits
    point = _diagonal_point(g, diag, 0.1)
    lo, hi = chi_g8_petersson(point, 53), chi_g8_petersson(point, 64)
    assert mpmath.nstr(hi, 9) == want
    assert abs(lo / hi - 1) < 1e-10


def test_chi_g_below_the_double_range():
    # chi_3 at 40i I + 0.1i off the diagonal is about 1.5e-648: the 53-bit
    # product must not flush it to 0
    point = _diagonal_point(3, 40, 0.1)
    lo, hi = chi_g(point, 53), chi_g(point, 64)
    assert lo != 0
    assert abs(lo / hi - 1) < 1e-12


@pytest.mark.parametrize("prec", [53, 64])
def test_vanishing_slope_genus3_deep(prec):
    # a genus-3 pinched handle with Im psi = 20 I: chi_3 is below the double
    # range on the whole grid; the slope is the count of even
    # characteristics with a_1 = 1/2
    psi = [[complex(0.1 if i == j == 0 else 0, 20 if i == j else 0.1) for j in range(3)]
           for i in range(3)]
    grid = [10 ** (-(3 + j / 2)) for j in range(8)]
    slope, resid = vanishing_order_fit(lambda t: fay_family(3, psi, t), grid, prec)
    assert abs(slope - 16) < 0.05
    assert math.isfinite(resid)


def _offdiag_family_point(t):
    # the criterion-07 family whose slope is 8, pinched off the diagonal
    return SiegelPoint(((0.1 + 1.5j, t), (t, -0.2 + 1.2j)))


# (Sigma, a): the seed-count rows, at 64 bits
_SEED_ROWS = [
    (_offdiag_family_point(1e-7).sigma, (0, 0)),
    (((0.2 + 1.1j, 0.1 + 0.2j, -0.1 + 0.15j),
      (0.1 + 0.2j, -0.3 + 1.3j, 0.2 + 0.1j),
      (-0.1 + 0.15j, 0.2 + 0.1j, 0.15 + 1.05j)), (0.5, 0, 0)),
    (_roadmap_point(4).sigma, (0, 0, 0, 0)),
]


@pytest.mark.parametrize("sigma, a", [pytest.param(sig, a, id=f"g{len(sig)}")
                                      for sig, a in _SEED_ROWS])
def test_multiprecision_rows_seed_once_per_sheet(sigma, a, monkeypatch):
    # the libmp seeds of a 64-bit table: at most 9 step factors and 4 seeds
    # per sheet of the x-walk (the lines with the same x_3, ...); seeding
    # every line or every chain would take more, and so would a walk per a
    calls = []
    seed = siegel._fixed_exp
    monkeypatch.setattr(siegel, "_fixed_exp", lambda *args, **kw: calls.append(1) or seed(*args, **kw))
    point = SiegelPoint(sigma)
    _row(a, point, 64)
    g, halves = point.g, list(itertools.product((Fraction(0), Fraction(1, 2)), repeat=point.g))
    bound, _ = _truncation(max(point._mins[1:]), point, 64)
    lines = list(_lines(point, 4 * bound, [0] * g))
    chains = len({rest[1:] for _, _, rest in lines})
    sheets = len({rest[2:] for _, _, rest in lines})
    assert len(calls) <= 9 + 4 * sheets
    per_a = sum(9 + 4 * len({rest[2:] for _, _, rest in _lines(point, _row_truncation(h, point, 64)[0], h)})
                for h in halves)
    assert len(calls) < per_a
    # three seeds per line, or per chain at g >= 3, would take more
    assert 3 * len(lines) > 9 + 4 * sheets
    assert 3 * chains > 9 + 4 * sheets or point.g < 3


# (Sigma, precs): the carry through sheared chains (delta = -1 and
# delta_21 = -1), along the long chains of the off-diagonal family, and the
# multiprecision carry of a 53-bit row too deep for doubles
_CARRY_POINTS = [
    (((0.1 + 1.0j, 0.3 + 0.7j, 0.2 + 0.3j),
      (0.3 + 0.7j, -0.2 + 1.1j, 0.1 + 0.6j),
      (0.2 + 0.3j, 0.1 + 0.6j, 0.05 + 1.3j)), (53, 64)),
    (_offdiag_family_point(1e-7).sigma, (64, 100)),
    (((0.1 + 250j, 0.2 + 0.3j), (0.2 + 0.3j, 0.3 + 0.5j)), (53,)),
]


@pytest.mark.parametrize("sigma, prec", [
    pytest.param(sig, prec, id=f"g{len(sig)}-{i}-{prec}")
    for i, (sig, precs) in enumerate(_CARRY_POINTS) for prec in precs])
def test_carried_rows_within_their_bound(sigma, prec):
    point = SiegelPoint(sigma)
    if len(sigma) == 3:
        assert [u[:3] for u in point._carry[0]] == [[1, 0, 0], [-1, 1, 0], [0, -1, 1]]
    for a in itertools.product((0, 0.5), repeat=point.g):
        row, eps, ref = _within_eps_of_higher_precision(point, a, prec)
        if abs(sigma[0][0]) > 200:   # the 53-bit row takes the multiprecision walk
            assert not isinstance(row[0], complex)
        with mpmath.workprec(prec + 64):
            assert eps < 2.0 ** (20 - prec) * max(abs(w) for w in ref)


@st.composite
def _period_matrices(draw):
    g = draw(st.integers(1, 3))
    entry = st.integers(-8, 8).map(lambda k: k / 8)
    B = [[draw(entry) for _ in range(g)] for _ in range(g)]
    s = draw(st.sampled_from([0.1, 0.5, 2.0, 8.0]))
    X = [[draw(entry) for _ in range(g)] for _ in range(g)]
    return tuple(tuple(complex((X[i][j] + X[j][i]) / 2,
                               sum(B[k][i] * B[k][j] for k in range(g)) + s * (i == j))
                       for j in range(g)) for i in range(g))


@settings(deadline=None, max_examples=20)
@given(_period_matrices(), st.sampled_from([53, 64]))
def test_carried_rows_within_their_bound_at_random_points(sigma, prec):
    point = SiegelPoint(sigma)
    for a in itertools.product((0, 0.5), repeat=point.g):
        _within_eps_of_higher_precision(point, a, prec)


def _assert_least_matches_box_scan(Y, s):
    # mu_a, the least v^t Y v over v != 0 in Z^g + a, for every a from one
    # pass, against a scan of the box |v_i| <= W, which holds every v with
    # v^t Y v <= q(a) (or Y_00 for a = 0) when Y >= s I
    g = len(Y)
    point = SiegelPoint(tuple(tuple(complex(0.1 * abs(i - j), Y[i][j]) for j in range(g))
                              for i in range(g)))

    def q(v):
        return sum(v[i] * Y[i][j] * v[j] for i in range(g) for j in range(g))

    for a in itertools.product((Fraction(0), Fraction(1, 2)), repeat=g):
        W = math.isqrt(math.ceil((q(a) if any(a) else Y[0][0]) / s)) + 1
        want = min(q([n + x for n, x in zip(ns, a)])
                   for ns in itertools.product(range(-W, W + 1), repeat=g) if any(ns) or any(a))
        assert _mu(a, point) == want, a


def test_least_matches_a_box_scan():
    # a point where the least of a = (1/2, 1/2, 1/2) lies at the upper of the
    # two integers nearest its line's minimiser
    Y = [[0.6125, 0.125, 0.125], [0.125, 1.925, 0.6875], [0.125, 0.6875, 1.3625]]
    _assert_least_matches_box_scan([[Fraction(x) for x in row] for row in Y], Fraction(1, 2))


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 3), st.data())
def test_least_matches_a_box_scan_at_random_points(g, data):
    entry = st.integers(-8, 8).map(lambda k: Fraction(k, 8))
    B = [[data.draw(entry) for _ in range(g)] for _ in range(g)]
    s = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(2)]))
    _assert_least_matches_box_scan([[sum(B[k][i] * B[k][j] for k in range(g)) + s * (i == j)
                                     for j in range(g)] for i in range(g)], s)


def test_phi_seeds_each_unordered_pair_once():
    # exp(2 pi i u_i^t Sigma u_j / 4) is symmetric in (i, j): one seed per pair i <= j
    for g in range(1, 5):
        sig = tuple(tuple(complex(0.1 * (i + j) + 0.05, 1.5 if i == j else 0.3)
                          for j in range(g)) for i in range(g))
        point, calls = SiegelPoint(sig), []
        phi = siegel._phi(lambda *args: calls.append(args) or siegel._cis(*args), point)
        n = min(g, 3)
        assert len(calls) == n * (n + 1) // 2
        dirs, A = point._carry[0], (point._real, point._imag)
        for i, j in itertools.product(range(n), repeat=2):
            want = siegel._cis(*(2 * _quad(dirs[i], M, dirs[j]) for M in A), point._K + 2)
            assert phi[i][j] == phi[j][i] == want
