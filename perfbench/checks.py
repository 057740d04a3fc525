"""Correctness checks on the outputs of the benchmark's workloads.

Each check takes plain values (numbers, strings, tuples; no twoelem types),
compares them with a reference computation from `reference` or with a
property the mathematics forces, and raises CheckFailed on a mismatch.  None
compares with a saved copy of earlier output.
"""
from __future__ import annotations

import ast
import json
import math
import re
from fractions import Fraction

import mpmath

import reference


class CheckFailed(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _field(text, label):
    m = re.search(rf"^{re.escape(label)}\s+(.*)$", text, re.MULTILINE)
    _require(m is not None, f"report has no {label!r} line")
    return m.group(1).strip()


# -- table-reports -----------------------------------------------------------

def check_report(expr: str, g: int, text: str):
    """`borcherds report` for one reference row M-perp of genus g.

    Weight balance of Thm 9.1: closed = series = (2^g+1)(16 - rank M-perp),
    which also equals (12+sigma)(2^((4-sigma-l)/2)+1) with rank, l and sigma
    from the benchmark's own summand table.  The divisor ledger has
    D'-multiplicity 1 and D''-multiplicity 2^g+1; D'' is empty (None) exactly
    when no discriminant class has norm 3/2 mod 2.
    """
    r, l, s = reference.invariants(expr)
    _require(r - l == 2 * g, f"{expr}: rank {r} and 2-rank {l} do not give genus {g}")
    closed = Fraction(_field(text, "weight (closed)"))
    series = Fraction(_field(text, "weight (series)"))
    balance = (2 ** g + 1) * (16 - r)
    summands = (12 + s) * (2 ** ((4 - s - l) // 2) + 1)
    _require(balance == summands, f"{expr}: reference weights disagree")
    _require(closed == series == balance,
             f"{expr}: weight closed {closed}, series {series}, expected {balance}")
    ledger = ast.literal_eval(_field(text, "ledger"))
    _require(ledger.get("dprime") == 1, f"{expr}: ledger dprime {ledger.get('dprime')} != 1")
    dsecond = 2 ** g + 1 if reference.has_three_halves_class(expr) else None
    _require(ledger.get("dsecond") == dsecond,
             f"{expr}: ledger dsecond {ledger.get('dsecond')} != {dsecond}")


def check_graph(text: str, rows):
    """export-graph JSON: the reference rows in order, no repeated edge."""
    data = json.loads(text)
    listed = [(row["g"], row["perp"], row["delta"]) for row in data["table1"]]
    _require(listed == [tuple(row) for row in rows],
             f"graph lists {len(listed)} rows, not the {len(rows)} reference rows")
    pairs = [(tuple(e["source"]), tuple(e["target"])) for e in data["edges"]]
    _require(len(pairs) == len(set(pairs)), "graph has a repeated (source, target) edge")
    _require(len(pairs) > 0, "graph has no edges")


# -- coset-oracle ------------------------------------------------------------

def check_oracle(pairs, tol=1e-20):
    """|coset-sum oracle - direct evaluation| < tol on every component."""
    _require(len(pairs) > 0, "no oracle values")
    worst = max(abs(mpmath.mpc(a) - mpmath.mpc(b)) for a, b in pairs)
    _require(worst < tol, f"worst |oracle - direct| = {mpmath.nstr(worst, 3)} >= {tol}")
    return float(worst)


def check_f0(text: str, k: int):
    """`twoelem qseries f0 -k K`: q^-1 + (8+2k) + O(q), as exact text rows
    'p/q  c0 c1 c2 c3' (the coefficient's coordinates in Q(zeta_8))."""
    terms = {}
    for line in text.strip().splitlines()[1:]:
        exp, *coords = line.split()
        _require(all(Fraction(x) == 0 for x in coords[1:]),
                 f"f0({k}) has a non-rational coefficient at q^{exp}")
        terms[Fraction(exp)] = Fraction(coords[0])
    principal = {e: c for e, c in terms.items() if e < 0 and c != 0}
    _require(principal == {Fraction(-1): 1}, f"f0({k}) principal part {principal} != q^-1")
    const = terms.get(Fraction(0), 0)
    _require(const == 8 + 2 * k, f"f0({k}) constant term {const} != {8 + 2 * k}")


# -- siegel-theta ------------------------------------------------------------

def check_slope(slope: float, want: float, tol=0.05):
    _require(abs(slope - want) < tol, f"vanishing slope {slope:.4f}, expected {want} +- {tol}")


def check_invariant(base, moved, tol=1e-12):
    """A Petersson norm is unchanged by a modular transformation of Sigma."""
    base, moved = mpmath.mpf(base), mpmath.mpf(moved)
    _require(base > 0, "Petersson norm is not positive")
    rel = abs(moved / base - 1)
    _require(rel < tol, f"norm moved by {mpmath.nstr(rel, 3)} relative (tol {tol})")


def check_vanishes(value, tol):
    _require(abs(mpmath.mpc(value)) < tol,
             f"|chi| = {mpmath.nstr(abs(mpmath.mpc(value)), 3)} on the split locus (tol {tol})")


def _rel_tol(prec: int) -> float:
    # products of a few dozen theta values lose a few bits each
    return 2.0 ** (-(prec - 12))


def check_chi1_eta(chi1, tau, prec: int):
    """chi_1^8 = 256 eta^24, with eta from the reference product.

    chi_g multiplies its theta values at mpmath's default 53-bit precision
    whatever `prec` is, so chi_1 is held to the 53-bit bound; the theta_00(i)
    check holds the multiprecision theta values to their own precision.
    """
    with mpmath.workprec(prec + 20):
        want = 256 * reference.eta(tau, prec) ** 24
        got = mpmath.mpc(chi1) ** 8
        rel = abs(got / want - 1)
    _require(rel < _rel_tol(min(prec, 53)),
             f"chi_1^8 / (256 eta^24) - 1 = {mpmath.nstr(rel, 3)} at {prec} bits")


def check_theta00_at_i(value, prec: int):
    """theta_00(i) = pi^(1/4) / Gamma(3/4)."""
    with mpmath.workprec(prec + 20):
        want = reference.theta00_at_i(prec)
        rel = abs(mpmath.mpc(value) / want - 1)
    _require(rel < _rel_tol(prec),
             f"theta_00(i) off by {mpmath.nstr(rel, 3)} relative at {prec} bits")


def check_paths_agree(float_value, mp_value, tol=1e-10):
    """The 53-bit and multiprecision paths give one Petersson norm."""
    a, b = mpmath.mpf(float_value), mpmath.mpf(mp_value)
    _require(b > 0, "Petersson norm is not positive")
    rel = abs(a / b - 1)
    _require(rel < tol, f"53-bit and multiprecision norms differ by {mpmath.nstr(rel, 3)}")


# -- tube-product ------------------------------------------------------------

def fit_slope(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def check_wall_slope(ts, values, want=1.0, tol=0.1):
    """log|product| against log(distance) toward a multiplicity-one wall."""
    slope = fit_slope([math.log(t) for t in ts], [math.log(abs(v)) for v in values])
    _require(abs(slope - want) <= tol, f"wall log-slope {slope:.3f}, expected {want} +- {tol}")
    return slope


def check_cut_step(value, tail, next_value):
    """Raising the cut by one moves the product by at most tail * (1 + |v|)."""
    step = abs(complex(next_value) - complex(value))
    allowed = tail * (1 + abs(complex(value)))
    _require(step <= allowed, f"cut step {step:.3e} exceeds the returned tail bound {allowed:.3e}")


def check_walls(gram, v1, v2, norm_set, pairing_bound, walls):
    """Each wall (m, lam^2, <lam,v1>, <lam,v2>) is recomputed exactly and
    separates v1 from v2; together they are every such wall in the slab."""
    ginv = reference.rational_inverse(gram)
    norms = {Fraction(x) for x in norm_set}
    seen = set()
    for m, norm, p1, p2 in walls:
        lam2 = reference.quad(ginv, m)
        q1 = sum(Fraction(a) * Fraction(b) for a, b in zip(m, v1))
        q2 = sum(Fraction(a) * Fraction(b) for a, b in zip(m, v2))
        _require(lam2 == norm and lam2 in norms, f"wall {m}: norm {norm}, recomputed {lam2}")
        _require((q1, q2) == (p1, p2), f"wall {m}: pairings {(p1, p2)}, recomputed {(q1, q2)}")
        _require(q1 > 0 > q2, f"wall {m} does not separate the two points")
        _require(tuple(m) not in seen, f"wall {m} listed twice")
        seen.add(tuple(m))
    want = {w[0] for w in reference.slab_walls(gram, v1, v2, norm_set, pairing_bound)}
    _require(seen == want, f"walls missing {sorted(want - seen)}, extra {sorted(seen - want)}")


def check_short_vectors(A, bound, got):
    """short_vectors = the box scan of {m != 0 : m^t A m <= bound}."""
    got = [tuple(m) for m in got]
    _require(len(got) == len(set(got)), "short_vectors returned a vector twice")
    want = reference.box_short_vectors(A, bound)
    _require(set(got) == want,
             f"short_vectors: {len(want - set(got))} missing, {len(set(got) - want)} extra")
