"""The graph of 2-elementary Lorentzian triples attached to K3 involutions,
the reference dataset of high-rank orthogonal complements, and the exact
bookkeeping identities tying the Borcherds-lift weight/divisor data to the
theta-product side.

Vertices are triples (r, l, delta) of the Lorentzian sublattice M; the three
edge kinds correspond to passing to the orthogonal complement of a (-2)-
vector d:

    odd        (d in Delta'):   (r, l, delta) -> (r+1, l+1, 1)
    even Wu    (d in Delta''):  (r, l, delta) -> (r+1, l-1, 0)
    even non-Wu (d in Delta''): (r, l, delta) -> (r+1, l-1, 1)

Triples generated beyond the reference dataset are flagged
`unverified_existence`: the classification facts needed to promote them to
actual lattices are not re-derived here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .lattices import (
    LatticeTriple,
    _integer,
    genus_g,
    genus_k,
    parse_lattice_expr,
    perp_transition,
    signature,
    two_elementary_invariants,
)
from .characteristics import chi8_weight, pinched_count
from .vvmf import borcherds_weight, divisor_ledger

EDGE_KINDS = ("odd", "even_wu", "even_nonwu")


# ---------------------------------------------------------------------------
# the reference dataset: orthogonal complements M-perp for every M with
# r(M) > 10 or (r(M), delta(M)) = (10, 1), grouped by the genus g(M)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    g: int                 # genus of the fixed-curve system of M
    perp_expr: str         # symbolic expression for M-perp
    delta_perp: int        # delta of M-perp (= delta of M)


def table1():
    """The 43 reference rows (g, M-perp expression, delta)."""
    rows = []

    def fam(g, base, krange, delta):
        for k in krange:
            expr = base if k == 0 else f"{base}+" + "+".join(["A1"] * k)
            rows.append(Table1Row(g, expr, delta))

    fam(0, "A1++A1+", range(0, 10), 1)
    rows.append(Table1Row(0, "U(2)+U(2)", 0))
    fam(1, "U+A1+", range(0, 10), 1)
    rows.append(Table1Row(1, "U(2)+U(2)+D4", 0))
    rows.append(Table1Row(1, "U+U(2)", 0))
    fam(2, "U+U", range(1, 9), 1)
    rows.append(Table1Row(2, "U+U(2)+D4", 0))
    rows.append(Table1Row(2, "U+U", 0))
    fam(3, "U+U+D4", range(1, 5), 1)
    rows.append(Table1Row(3, "U+U+D4", 0))
    fam(4, "A1++A1++E8", range(0, 3), 1)
    fam(5, "U+A1++E8", range(0, 2), 1)
    assert len(rows) == 43
    return rows


def validate_row(row: Table1Row) -> dict:
    """Rebuild the lattice and recompute (r, l, delta, g); mismatches raise."""
    L = parse_lattice_expr(row.perp_expr)
    triple = two_elementary_invariants(L)
    sig = signature(L)
    checks = {
        "signature_plus": sig[0] == 2,
        "delta": triple.delta == row.delta_perp,
        "genus": genus_k(triple) == row.g,
    }
    if not all(checks.values()):
        raise AssertionError(f"row {row} failed validation: {checks}")
    return {"row": row, "triple": triple, "checks": checks}


def m_triple_of_row(row: Table1Row) -> LatticeTriple:
    """Triple of M recovered from M-perp by (22 - r, l, delta).

    Uses the anti-isometry of discriminant forms across an orthogonal
    decomposition of the K3 lattice; in particular delta(M) = delta(M-perp).
    """
    L = parse_lattice_expr(row.perp_expr)
    t = two_elementary_invariants(L)
    return LatticeTriple(22 - t.r, t.l, t.delta)


def table1_m_triples() -> list:
    """The distinct M-triples of the reference rows, in row order: the seeds
    of the transition graph."""
    return list(dict.fromkeys(m_triple_of_row(row) for row in table1()))


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class K3Vertex:
    triple: LatticeTriple
    unverified_existence: bool = field(default=False, compare=False)

    @property
    def g(self) -> int:
        return genus_g(self.triple)

    @property
    def k(self) -> int:
        return genus_k(self.triple)

    def label(self) -> str:
        t = self.triple
        return f"({t.r},{t.l},{t.delta}) g={self.g}"


@dataclass(frozen=True)
class K3Edge:
    source: LatticeTriple
    target: LatticeTriple
    kind: str


@dataclass
class K3Graph:
    vertices: dict  # triple -> K3Vertex
    edges: list     # K3Edge


def _admissible(t: LatticeTriple) -> bool:
    # LatticeTriple already holds r >= l >= 0 and r = l mod 2, and a target has r >= 1
    return t.r <= 20 and t.l <= 22 - t.r


def build_graph(seed_triples) -> K3Graph:
    """Closure of the seeds under the three transitions within admissibility,
    which caps r at 20; every edge raises r by 1, so the search ends.

    Repeated seeds count once; each vertex is expanded once, into three
    different triples, so no (source, target) pair carries two edges.
    """
    vertices = {t: K3Vertex(t, unverified_existence=False) for t in seed_triples}
    edges = []
    frontier = list(vertices)
    while frontier:
        new_frontier = []
        for t in frontier:
            for kind in EDGE_KINDS:
                try:
                    nt = perp_transition(t, kind)
                except ValueError:
                    continue
                if not _admissible(nt):
                    continue
                edges.append(K3Edge(t, nt, kind))
                if nt not in vertices:
                    vertices[nt] = K3Vertex(nt, unverified_existence=True)
                    new_frontier.append(nt)
        frontier = new_frontier
    return K3Graph(vertices, edges)


def export_dot(graph: K3Graph) -> str:
    styles = {"odd": "solid", "even_wu": "dashed", "even_nonwu": "dotted"}
    lines = ["digraph k3 {"]
    ids = {}
    for i, (t, v) in enumerate(sorted(graph.vertices.items(),
                                      key=lambda kv: (kv[0].r, kv[0].l, kv[0].delta))):
        ids[t] = f"v{i}"
        shape = "ellipse" if not v.unverified_existence else "box"
        lines.append(f'  v{i} [label="{v.label()}", shape={shape}];')
    for e in graph.edges:
        lines.append(
            f"  {ids[e.source]} -> {ids[e.target]} "
            f'[style={styles[e.kind]}, label="{e.kind}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def export_json(graph: K3Graph) -> str:
    data = {
        "vertices": [
            {
                "r": t.r, "l": t.l, "delta": t.delta,
                "g": v.g, "k": v.k,
                "unverified_existence": v.unverified_existence,
            }
            for t, v in sorted(graph.vertices.items(),
                               key=lambda kv: (kv[0].r, kv[0].l, kv[0].delta))
        ],
        "edges": [
            {
                "source": [e.source.r, e.source.l, e.source.delta],
                "target": [e.target.r, e.target.l, e.target.delta],
                "kind": e.kind,
            }
            for e in graph.edges
        ],
        "table1": [
            {"g": row.g, "perp": row.perp_expr, "delta": row.delta_perp}
            for row in table1()
        ],
    }
    return json.dumps(data, indent=2)


# ---------------------------------------------------------------------------
# exact bookkeeping identities
# ---------------------------------------------------------------------------

def thm91_consistency(row: Table1Row, ell: int = 1) -> dict:
    """Exact weight/divisor balance for one reference row.

    With g = g(M), nu = 2^{g-1}(2^g+1) ell, w the lift weight of M-perp and
    m', m'' the D'- and D''-multiplicities of its divisor (`divisor_ledger`):
      (i)   2^{g-1} w            = 2^{g-1}(2^g+1)(r(M) - 6)
      (ii)  2^{g-1} m' + 2 c     = 2^{g-1}(2^g+1)       (D' balance; c the
            number of even characteristics with a_1 = 1/2, whose theta
            vanish along the pinched first handle)
      (iii) 2^{g-1} * m''        = 2^{g-1}(2^g+1)       (D'' balance;
            vacuous if Delta'' is empty)
      (iv)  chi8_weight(g) ell   = 4 nu                 (theta-weight slot)
    All quantities are exact rationals (g = 0 uses 2^{g-1} = 1/2 and, with
    no theta side, 2 c = 1/2).
    """
    ell = _integer(ell, "ell", positive=True)
    L = parse_lattice_expr(row.perp_expr)
    t = two_elementary_invariants(L)
    g = genus_k(t)
    assert g == row.g
    r_m = 22 - t.r
    two = Fraction(2)
    pg1 = two ** (g - 1)
    w, _ = borcherds_weight(L)
    checks = {}
    checks["weight_balance"] = pg1 * w == pg1 * (2 ** g + 1) * (r_m - 6)
    ledger = divisor_ledger(L)
    checks["dprime_balance"] = (pg1 * ledger["dprime"] + 2 * pinched_count(g)
                                == pg1 * (2 ** g + 1))
    if ledger["dsecond"] is None:
        checks["dsecond_balance"] = "vacuous (Delta'' empty)"
    else:
        checks["dsecond_balance"] = pg1 * ledger["dsecond"] == pg1 * (2 ** g + 1)
    nu = pg1 * (2 ** g + 1) * ell
    checks["theta_weight_slot"] = chi8_weight(g) * ell == 4 * nu
    ok = all(c is True or isinstance(c, str) for c in checks.values())
    return {"row": row, "g": g, "ell": ell, "nu": nu, "weight": w,
            "checks": checks, "ok": ok}


def thm93_check() -> dict:
    """The rank-13 complement: exponent pattern (40; 4; 16) and weight 15.

    M-perp = U^2 + E8(2) + A1 has g = 2; with ell = 1 the identities are
    40 = 2^{g+1}(2^g+1) ell, lift exponent 4 = 2^g, theta exponent 16 = 8*2.
    """
    L = parse_lattice_expr("U+U+E8(2)+A1")
    t = two_elementary_invariants(L)
    g = genus_k(t)
    w, _ = borcherds_weight(L)
    checks = {
        "g": g == 2,
        "total_exponent": 2 ** (g + 1) * (2 ** g + 1) == 40,
        "lift_exponent": 2 ** g == 4,
        "weight": w == 15,
    }
    return {"triple": t, "g": g, "weight": w, "checks": checks,
            "ok": all(checks.values())}


def prop92_obstruction(m_expr: str) -> dict:
    """Obstruction certificate for a rank-10, delta = 0 Lorentzian type M.

    The would-be quotient of the lift power by the pulled-back theta product
    would have divisor

        {2^g + 2a(2^g - 1)} ell D'  +  (2^g - 1) E     (a >= 0, ell >= 1)

    which is certified nonzero effective: every coefficient is nonnegative,
    the D' coefficient is >= 2^g >= 4 at the minimal case, and D' is in the
    lift's divisor at all, i.e. the ledger of M-perp = U + M (by Nikulin the
    even 2-elementary lattice of signature (2, 10) with M's l and delta)
    gives m' > 0.
    The exceptional class (r, l, delta) = (10, 10, 0) is out of scope, as is
    the l = 0 class (its genus exceeds the theta-product range).
    """
    M = parse_lattice_expr(m_expr)
    t = two_elementary_invariants(M)
    if (t.r, t.delta) != (10, 0):
        raise ValueError("certificate applies to (r, delta) = (10, 0) types")
    if t.l not in (2, 4, 6, 8):
        raise ValueError(
            "certificate covers the four classes with l in {2,4,6,8} "
            "(genus 2..5); the given class is out of scope"
        )
    g = genus_g(t)
    dprime_min = 2 ** g  # a = 0, ell = 1
    m_prime = divisor_ledger(parse_lattice_expr("U+" + m_expr))["dprime"]
    cert = {
        "g": g,
        "dprime_coefficient": f"(2^{g} + 2a(2^{g}-1)) ell",
        "dprime_min": dprime_min,
        "dprime_multiplicity": m_prime,
        "e_coefficient": 2 ** g - 1,
        "nonzero_effective": m_prime > 0 and dprime_min > 0 and 2 ** g - 1 >= 0,
    }
    return cert


def rhs_invariant(tube_point, F, sigma_point, ell: int = 1):
    """Modulus of the right-hand side at one point:

        (||Psi||^2)^{2^{g-1} ell} * (||chi_g^8||^2)^{ell}

    with g read from the Siegel point: Psi at cut 2 without its Weyl
    prefactor, chi_g^8 at 53 bits, with the exact Petersson factor 2 (Im z)^2 =
    <eta, conj eta> / |<eta, e_1>|^2, eta = (-z^2/2, 1/N, z).  The left-out
    e(<rho, z>) has modulus exp(-2 pi <rho, Im z>), which depends on Im z
    whenever rho != 0.
    """
    import mpmath

    from .borcherds import product_eval
    from .siegel import chi_g8_petersson

    ell = _integer(ell, "ell", positive=True)
    g = sigma_point.g
    val, _tail = product_eval(F, tube_point, order=2)
    w, _ = borcherds_weight(tube_point.ambient())
    factor = 2 * tube_point.y_norm2()   # in mpmath: a double overflows at large Im z
    psi_norm2 = (mpmath.mpf(factor.numerator) / factor.denominator) ** w * abs(val) ** 2
    chi_norm2 = chi_g8_petersson(sigma_point, 53)
    return psi_norm2 ** (Fraction(2) ** (g - 1) * ell) * chi_norm2 ** ell
