"""Even lattices by Gram matrix, discriminant forms, 2-elementary invariants.

Everything here is exact: signatures come from symmetric pivoting over Q,
discriminant groups from a Smith normal form over Z, and the parity invariant
delta from an exhaustive scan of the (at most 2^12 here) discriminant
elements.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from typing import Optional


# ---------------------------------------------------------------------------
# integer Smith normal form with a left transform
# ---------------------------------------------------------------------------

def smith_normal_form(mat):
    """Return (d, U, V) with U*mat*V = diag(d), U, V unimodular.

    `mat` is a list of int rows; `d` lists the diagonal entries (each dividing
    the next among the nonzero ones).
    """
    a = [list(map(int, row)) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    def row_op(i, j, f):  # row_i -= f*row_j
        a[i] = [x - f * y for x, y in zip(a[i], a[j])]
        u[i] = [x - f * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, f):  # col_i -= f*col_j
        for r in range(nrows):
            a[r][i] -= f * a[r][j]
        for r in range(ncols):
            v[r][i] -= f * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(nrows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(ncols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    n = min(nrows, ncols)
    for s in range(n):
        while True:
            # pivot: smallest nonzero |entry| in the trailing block
            piv = None
            best = None
            for i in range(s, nrows):
                for j in range(s, ncols):
                    x = abs(a[i][j])
                    if x and (best is None or x < best):
                        best, piv = x, (i, j)
            if piv is None:
                break
            if piv != (s, s):
                if piv[0] != s:
                    swap_rows(s, piv[0])
                if piv[1] != s:
                    swap_cols(s, piv[1])
            clean = True
            for i in range(s + 1, nrows):
                if a[i][s]:
                    row_op(i, s, a[i][s] // a[s][s])
                    if a[i][s]:
                        clean = False
            for j in range(s + 1, ncols):
                if a[s][j]:
                    col_op(j, s, a[s][j] // a[s][s])
                    if a[s][j]:
                        clean = False
            if clean and all(a[i][s] == 0 for i in range(s + 1, nrows)) and all(
                a[s][j] == 0 for j in range(s + 1, ncols)
            ):
                # enforce divisibility into the trailing block
                bad = None
                for i in range(s + 1, nrows):
                    for j in range(s + 1, ncols):
                        if a[i][j] % a[s][s]:
                            bad = i
                            break
                    if bad is not None:
                        break
                if bad is None:
                    break
                a[s] = [x + y for x, y in zip(a[s], a[bad])]
                u[s] = [x + y for x, y in zip(u[s], u[bad])]
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            u[s] = [-x for x in u[s]]
    d = [a[i][i] for i in range(n)]
    return d, u, v


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lattice:
    """An even nondegenerate lattice given by its integer Gram matrix."""

    gram: tuple
    label: str = ""

    def __post_init__(self):
        g = tuple(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            if g[i][i] % 2:
                raise ValueError("lattice is not even: odd diagonal entry")
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        if n and _det(g) == 0:
            raise ValueError("gram matrix is degenerate")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return _det(self.gram)

    def pairing(self, x, y) -> Fraction:
        """<x, y> for rational coordinate vectors in the lattice basis."""
        acc = Fraction(0)
        for i, row in enumerate(self.gram):
            xi = Fraction(x[i])
            if xi == 0:
                continue
            acc += xi * sum(Fraction(row[j]) * Fraction(y[j]) for j in range(self.rank))
        return acc

    def norm(self, x) -> Fraction:
        return self.pairing(x, x)

    def __repr__(self):
        return f"Lattice({self.label or self.gram})"


def _det(gram) -> int:
    n = len(gram)
    m = [[Fraction(x) for x in row] for row in gram]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    assert det.denominator == 1
    return int(det)


# -- constructors -----------------------------------------------------------

def _cartan_d(n: int):
    """Negative-definite D_n Cartan matrix (n >= 4 even here)."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
    # chain 0-1-...-(n-2), with node n-1 attached to node n-3
    for i in range(n - 2):
        g[i][i + 1] = g[i + 1][i] = 1
    g[n - 3][n - 1] = g[n - 1][n - 3] = 1
    return g


def _cartan_e(n: int):
    """Negative-definite E_n Cartan matrix, n in {7, 8} (Bourbaki numbering)."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
    # chain 0-2-3-4-...-(n-1), node 1 attached to node 3
    chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
    for a, b in zip(chain, chain[1:]):
        g[a][b] = g[b][a] = 1
    g[1][3] = g[3][1] = 1
    return g


def rescale(a: Lattice, k: int) -> Lattice:
    if k <= 0:
        raise ValueError("rescale factor must be positive")
    lab = f"{a.label}({k})" if a.label else ""
    return Lattice(tuple(tuple(k * x for x in row) for row in a.gram), lab)


def standard_lattice(name: str) -> Lattice:
    """Fixed Gram matrices for the standard names.

    Accepted: U, U2 (= U(2)), A1, A1plus (= <2>), D4/D6/D8/... (even index),
    E7, E8, E8_2 (= E8(2)).
    """
    name = name.strip()
    if name == "U":
        return Lattice(((0, 1), (1, 0)), "U")
    if name == "U2":
        return rescale(standard_lattice("U"), 2)
    if name == "A1":
        return Lattice(((-2,),), "A1")
    if name == "A1plus":
        return Lattice(((2,),), "A1+")
    if name == "E7":
        return Lattice(tuple(map(tuple, _cartan_e(7))), "E7")
    if name == "E8":
        return Lattice(tuple(map(tuple, _cartan_e(8))), "E8")
    if name == "E8_2":
        return rescale(standard_lattice("E8"), 2)
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 4 or n % 2:
            raise ValueError("only D_{2k} with 2k >= 4 is supported")
        return Lattice(tuple(map(tuple, _cartan_d(n))), f"D{n}")
    raise ValueError(f"unknown lattice name: {name!r}")


def direct_sum(*lattices: Lattice) -> Lattice:
    n = sum(a.rank for a in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for a in lattices:
        for i in range(a.rank):
            for j in range(a.rank):
                g[off + i][off + j] = a.gram[i][j]
        off += a.rank
    label = "+".join(a.label for a in lattices if a.label)
    return Lattice(tuple(map(tuple, g)), label)


# -- symbolic / JSON input --------------------------------------------------

_TOKEN = re.compile(r"^(?P<base>U|A1\+|A1|D\d+|E7|E8)(?:\((?P<scale>\d+)\))?(?:\^(?P<pow>\d+))?$")


def parse_lattice_expr(expr: str) -> Lattice:
    """Parse 'U+U(2)+E8(2)+A1^3' style expressions into a direct sum."""
    parts = [p.strip() for p in expr.replace(" ", "").split("+")]
    # re-join A1+ tokens that the split broke apart ("A1+..." -> "A1", "")
    toks = []
    i = 0
    while i < len(parts):
        p = parts[i]
        if p == "A1" and i + 1 < len(parts) and (parts[i + 1] == "" or parts[i + 1].startswith("^") or parts[i + 1].startswith("(")):
            # "A1+" was split into "A1" and a fragment
            p = "A1+" + parts[i + 1]
            i += 2
        else:
            i += 1
        if p:
            toks.append(p)
    summands = []
    for tok in toks:
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"cannot parse lattice token {tok!r} in {expr!r}")
        base = m.group("base")
        name = {"A1+": "A1plus"}.get(base, base)
        lat = standard_lattice(name)
        if m.group("scale"):
            lat = rescale(lat, int(m.group("scale")))
        count = int(m.group("pow") or 1)
        summands.extend([lat] * count)
    if not summands:
        raise ValueError(f"empty lattice expression {expr!r}")
    return direct_sum(*summands)


def lattice_from_json(data) -> Lattice:
    """Build a lattice from {'sum': [...]} / {'gram': [[...]]} JSON."""
    if isinstance(data, str):
        data = json.loads(data)
    if "gram" in data:
        return Lattice(tuple(map(tuple, data["gram"])))
    if "sum" in data:
        parts = []
        for item in data["sum"]:
            if isinstance(item, str):
                parts.append(parse_lattice_expr(item))
            elif isinstance(item, dict) and "rescale" in item:
                name, k = item["rescale"]
                parts.append(rescale(parse_lattice_expr(name), int(k)))
            else:
                raise ValueError(f"bad summand {item!r}")
        return direct_sum(*parts)
    raise ValueError("lattice JSON needs 'gram' or 'sum'")


# ---------------------------------------------------------------------------
# signature
# ---------------------------------------------------------------------------

def signature(L: Lattice):
    """(b+, b-) by exact symmetric pivoting over Q (no floating point)."""
    n = L.rank
    m = [[Fraction(x) for x in row] for row in L.gram]
    pos = neg = 0
    idx = list(range(n))

    def eliminate(k):
        nonlocal pos, neg
        piv = m[k][k]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / piv
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
        for i in range(k + 1, n):  # keep symmetry for the trailing block
            for j in range(k + 1, n):
                if i > j:
                    m[i][j] = m[j][i]
        for j in range(k + 1, n):
            m[k][j] = Fraction(0)

    k = 0
    while k < n:
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                # swap variables k <-> j
                for r in range(n):
                    m[r][k], m[r][j] = m[r][j], m[r][k]
                for c in range(n):
                    m[k][c], m[j][c] = m[j][c], m[k][c]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    raise ValueError("degenerate form")
                # x_k += x_j makes the diagonal entry 2*m[k][j] != 0
                for r in range(n):
                    m[r][k] += m[r][j]
                for c in range(n):
                    m[k][c] += m[j][c]
        eliminate(k)
        k += 1
    return pos, neg


def sigma(L: Lattice) -> int:
    p, n = signature(L)
    return p - n


# ---------------------------------------------------------------------------
# discriminant groups
# ---------------------------------------------------------------------------

@dataclass
class DiscGroup:
    """The finite quadratic form (A_L = L^dual / L, q_L)."""

    parent: Lattice
    orders: list          # elementary divisors > 1
    generators: list      # rational coordinate vectors in the lattice basis
    _u: list = field(repr=False, default=None)        # SNF left transform
    _positions: list = field(repr=False, default=None)  # indices with d_i > 1

    def __len__(self):
        n = 1
        for d in self.orders:
            n *= d
        return n

    @property
    def is_two_elementary(self) -> bool:
        return all(d == 2 for d in self.orders)

    def element(self, coords) -> "DiscElement":
        coords = tuple(int(c) % d for c, d in zip(coords, self.orders))
        return DiscElement(self, coords)

    def zero(self) -> "DiscElement":
        return self.element((0,) * len(self.orders))

    def elements(self):
        for coords in iproduct(*(range(d) for d in self.orders)):
            yield DiscElement(self, coords)

    def element_from_dual_vector(self, v) -> "DiscElement":
        """Class of a dual vector given by rational coordinates in the L-basis."""
        L = self.parent
        n = L.rank
        x = []
        for i in range(n):
            val = sum(Fraction(L.gram[i][j]) * Fraction(v[j]) for j in range(n))
            if val.denominator != 1:
                raise ValueError("vector is not in the dual lattice")
            x.append(int(val))
        y = [sum(self._u[i][j] * x[j] for j in range(n)) for i in range(n)]
        return self.element(tuple(y[p] for p in self._positions))

    def q(self, el: "DiscElement") -> Fraction:
        """q_L(el) in Q/2Z, represented in [0, 2)."""
        v = el.rep()
        return self.parent.norm(v) % 2

    def b(self, e1: "DiscElement", e2: "DiscElement") -> Fraction:
        """b_L(e1, e2) in Q/Z, represented in [0, 1)."""
        return self.parent.pairing(e1.rep(), e2.rep()) % 1


@dataclass(frozen=True)
class DiscElement:
    group: DiscGroup
    coords: tuple

    def rep(self):
        """Canonical coset representative in L^dual, coordinates in [0,1)."""
        n = self.group.parent.rank
        v = [Fraction(0)] * n
        for c, g in zip(self.coords, self.group.generators):
            if c:
                for i in range(n):
                    v[i] += c * g[i]
        return [x % 1 for x in v]

    def __add__(self, other):
        return self.group.element(
            tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self):
        return self.group.element(tuple(-a for a in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __hash__(self):
        return hash(self.coords)

    def __eq__(self, other):
        return isinstance(other, DiscElement) and self.coords == other.coords \
            and self.group.parent.gram == other.group.parent.gram


def discriminant_group(L: Lattice) -> DiscGroup:
    """A_L via Smith normal form of the Gram matrix.

    With U*G*V = diag(d), the classes of the columns of G^{-1}U^{-1} with
    d_i > 1 generate A_L = Z^n / G Z^n, the i-th one of order d_i.
    """
    n = L.rank
    d, u, _v = smith_normal_form(L.gram)
    ginv = _rational_inverse(L.gram)
    uinv = _rational_inverse(u)
    positions = [i for i in range(n) if abs(d[i]) > 1]
    orders = [abs(d[i]) for i in positions]
    gens = []
    for p in positions:
        col = [sum(ginv[i][k] * uinv[k][p] for k in range(n)) for i in range(n)]
        gens.append([x % 1 for x in col])
    grp = DiscGroup(L, orders, gens, u, positions)
    total = 1
    for o in orders:
        total *= o
    assert total == abs(L.det())
    return grp


def _rational_inverse(mat):
    n = len(mat)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


# ---------------------------------------------------------------------------
# 2-elementary invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeTriple:
    """(r, l, delta) for a 2-elementary lattice."""

    r: int
    l: int
    delta: int

    def __post_init__(self):
        if not (self.r >= self.l >= 0):
            raise ValueError("need r >= l >= 0")
        if (self.r - self.l) % 2:
            raise ValueError("need r = l mod 2")
        if self.delta not in (0, 1):
            raise ValueError("delta must be 0 or 1")


def two_elementary_invariants(L: Lattice) -> LatticeTriple:
    """(r, l, delta); errors if L is not 2-elementary.

    delta is decided by scanning all 2^l discriminant classes for a
    non-integral q-value (q is not linear, so generator inspection would not
    be conclusive; the scan is cheap at l <= 12).
    """
    A = discriminant_group(L)
    if not A.is_two_elementary:
        raise ValueError(f"lattice is not 2-elementary: orders {A.orders}")
    delta = 0
    for el in A.elements():
        if A.q(el) % 1 != 0:
            delta = 1
            break
    return LatticeTriple(L.rank, len(A.orders), delta)


def characteristic_element(L: Lattice) -> DiscElement:
    """The unique class with b(gamma, x) = q(x) mod Z for all x (F2 solve)."""
    A = discriminant_group(L)
    if not A.is_two_elementary:
        raise ValueError("characteristic element needs a 2-elementary lattice")
    l = len(A.orders)
    if l == 0:
        return A.zero()
    gens = [A.element(tuple(int(i == j) for j in range(l))) for i in range(l)]
    # B_ij = 2*b(g_i, g_j) in F2, target t_j = 2*q(g_j) mod 2 in F2
    B = [[int(2 * A.b(gi, gj)) % 2 for gj in gens] for gi in gens]
    t = [int(2 * A.q(gj)) % 2 for gj in gens]
    x = _solve_f2(B, t)
    gamma = A.element(tuple(x))
    for el in A.elements():  # assert the defining property
        assert (A.b(gamma, el) - A.q(el)) % 1 == 0
    return gamma


def _solve_f2(B, t):
    n = len(t)
    m = [row[:] + [tv] for row, tv in zip(B, t)]
    where = [-1] * n
    row = 0
    for col in range(n):
        piv = next((r for r in range(row, n) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(n):
            if r != row and m[r][col]:
                m[r] = [(a + b) % 2 for a, b in zip(m[r], m[row])]
        where[col] = row
        row += 1
    x = [0] * n
    for col in range(n):
        if where[col] >= 0:
            x[col] = m[where[col]][n]
    # consistency
    for r in range(n):
        if sum(B[r][c] * x[c] for c in range(n)) % 2 != t[r]:
            raise ArithmeticError("no characteristic element: b is degenerate?")
    return x


# ---------------------------------------------------------------------------
# genus bookkeeping and transitions
# ---------------------------------------------------------------------------

def genus_g(triple: LatticeTriple) -> int:
    """g(M) = (22 - r - l)/2 for a Lorentzian triple in the K3 lattice."""
    num = 22 - triple.r - triple.l
    if num < 0 or num % 2:
        raise ValueError(f"(22 - r - l) must be even and >= 0, got {num}")
    return num // 2


def genus_k(triple: LatticeTriple) -> int:
    """k(M) = (r - l)/2."""
    return (triple.r - triple.l) // 2


def perp_transition(triple: LatticeTriple, edge_kind: str) -> LatticeTriple:
    """One step [M] -> [M perp d]: odd / even_wu / even_nonwu."""
    r, l = triple.r, triple.l
    if edge_kind == "odd":
        return LatticeTriple(r + 1, l + 1, 1)
    if edge_kind == "even_wu":
        if l < 1:
            raise ValueError("even transition needs l >= 1")
        return LatticeTriple(r + 1, l - 1, 0)
    if edge_kind == "even_nonwu":
        if l < 1:
            raise ValueError("even transition needs l >= 1")
        return LatticeTriple(r + 1, l - 1, 1)
    raise ValueError(f"unknown edge kind {edge_kind!r}")
