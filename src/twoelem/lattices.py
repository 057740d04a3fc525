"""Even lattices by Gram matrix, discriminant forms, 2-elementary invariants.

Everything here is exact, and this is the package's one layer of exact
linear algebra: det, adjugate, signature and positive definiteness come from
one fraction-free symmetric elimination (`_eliminate`, an `Elimination`
record, run once per `Lattice`), the lattice points of an ellipsoid from an
integer Fincke-Pohst search on its pivots (`ellipsoid_lines`), discriminant
groups from a Smith normal form over Z, built once per Gram matrix, next to
the vector helpers `_dot`, `_quad`, `_clear`, `_pack` and `_fwht`.
`discriminant_group` is the one support gate: it refuses a form that is not
2-elementary.  A `DiscGroup` reads its form off two integer tables on its
generators, 2q(g_i) mod 4 and the packed rows of 2b(g_i, g_j) mod 2: the
parity invariant delta and the characteristic element come from the l
generators alone, and the q-value of every class and the map y -> By of the
Weil S step from one pass over the classes, made when first read and kept on
the group.  A class is an index in range(2^l), the packed bits of its
coordinates; the tables over every class stop at l = 12.
"""
from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import product as iproduct
from operator import add, mul, sub, xor


# ---------------------------------------------------------------------------
# exact integer and rational linear algebra
# ---------------------------------------------------------------------------

def _dot(u, v):
    """sum u_i v_i, for ints, Fractions or complex numbers."""
    return sum(map(mul, u, v))


def _quad(u, M, w):
    """u^t M w."""
    return _dot(u, [_dot(row, w) for row in M])


def _clear(xs):
    """(ints, d) with xs[i] = ints[i] / d, for ints and Fractions."""
    d = math.lcm(*(x.denominator for x in xs))
    if d == 1:
        return [x.numerator for x in xs], 1
    return [x.numerator * (d // x.denominator) for x in xs], d


def _pack(bits) -> int:
    """0/1 entries as the bits of one int, the first the most significant."""
    return reduce(lambda acc, bit: acc << 1 | bit, bits, 0)


def _fwht(a: list) -> list:
    """Unnormalised Walsh-Hadamard transform of a list of length 2^l.

    Entry k of the result is sum_x a[x] * (-1)^{popcount(x & k)}.  Each of
    the l stages takes the pairs (a[2i], a[2i+1]) to x + y at i and x - y at
    i + 2^{l-1}, which works through the bits from the lowest and ends in
    natural order.
    """
    for _ in range(len(a).bit_length() - 1):
        x, y = a[0::2], a[1::2]
        a = list(map(add, x, y)) + list(map(sub, x, y))
    return a


def smith_normal_form(mat):
    """Return (d, U, V) with U*mat*V = diag(d), U, V unimodular.

    `mat` is a list of int rows; `d` lists the diagonal entries (each dividing
    the next among the nonzero ones).  The n x m matrix is reduced inside the
    block [[mat, I_n], [I_m, 0]]: an operation on its first n rows acts on mat
    and U together, one on its first m columns on mat and V, so the block ends
    as [[diag(d), U], [V, 0]].
    """
    n = len(mat)
    m = len(mat[0]) if n else 0
    k = min(n, m)
    a = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    a += [[int(i == j) for j in range(m)] + [0] * n for i in range(m)]
    for s in range(k):
        while True:
            # pivot: the first smallest nonzero |entry| of the trailing block, in row order
            piv = best = None
            for i in range(s, n):
                for j in range(s, m):
                    x = abs(a[i][j])
                    if x and (best is None or x < best):
                        best, piv = x, (i, j)
            if piv is None:
                break
            i, j = piv
            a[s], a[i] = a[i], a[s]
            if j != s:
                for row in a:
                    row[s], row[j] = row[j], row[s]
            p, clean = a[s][s], True
            for i in range(s + 1, n):   # row_i -= f row_s
                if a[i][s]:
                    f = a[i][s] // p
                    a[i] = [x - f * y for x, y in zip(a[i], a[s])]
                    clean = clean and not a[i][s]
            for j in range(s + 1, m):   # col_j -= f col_s
                if a[s][j]:
                    f = a[s][j] // p
                    for row in a:
                        row[j] -= f * row[s]
                    clean = clean and not a[s][j]
            if clean:
                # row s and column s are cleared (row ops leave row s, column
                # ops column s alone); enforce divisibility into the trailing block
                bad = next((i for i in range(s + 1, n)
                            if any(a[i][j] % p for j in range(s + 1, m))), None)
                if bad is None:
                    break
                a[s] = [x + y for x, y in zip(a[s], a[bad])]
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
    return [a[i][i] for i in range(k)], [row[m:] for row in a[:n]], [row[:m] for row in a[n:]]


Elimination = namedtuple("Elimination", "det adj minors pivots")


def _eliminate(mat) -> Elimination:
    """(det M, adj M, minors, pivots) of a symmetric integer matrix M, exactly.

    Fraction-free Gauss-Jordan (Bareiss) on [M | I] with diagonal pivots; a
    zero trailing diagonal first gets the congruence x_i += x_j (m_ij != 0),
    which makes it 2 m_ij.  With P the unimodular product of these and the
    swaps, the run ends as E M P = d I, d = det M, so adj M = P E.  minors[k]
    is the leading minor d_k of P^t M P and pivots[k] row k at step k:
    P^t M P = R^t D R with D_k = d_k/d_{k-1}, R_kj = pivots[k][j]/d_k.  When
    det M = 0, adj is None and the lists stop at the zero pivot.
    """
    n = len(mat)
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(mat)]
    congruences = []        # the factors of P: (i, j, is_swap)
    minors, pivots, prev = [], [], 1
    for k in range(n):
        i = next((i for i in range(k, n) if m[i][i]), None)
        if i is None:
            i, j = next(((i, j) for i in range(k, n) for j in range(k, n) if m[i][j]),
                        (None, None))
            if i is None:
                return Elimination(0, None, minors, pivots)
            m[i] = [a + b for a, b in zip(m[i], m[j])]
            for row in m:
                row[i] += row[j]
            congruences.append((i, j, False))
        if i != k:
            m[i], m[k] = m[k], m[i]
            for row in m:
                row[i], row[k] = row[k], row[i]
            congruences.append((i, k, True))
        p, pivot_row = m[k][k], m[k]
        minors.append(p)
        pivots.append(pivot_row[:n])
        for r in range(n):
            if r != k:
                f = m[r][k]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], pivot_row)]
        prev = p
    adj = [row[n:] for row in m]
    for i, j, is_swap in reversed(congruences):   # adj = P E, factor by factor
        if is_swap:
            adj[i], adj[j] = adj[j], adj[i]
        else:
            adj[j] = [a + b for a, b in zip(adj[j], adj[i])]
    return Elimination(prev, adj, minors, pivots)


def _positive_definite(elim: Elimination) -> bool:
    """Whether M is positive definite: iff every leading minor of P^t M P is > 0
    (Sylvester); the minors stop at a zero pivot, where det is 0."""
    return elim.det > 0 and all(d > 0 for d in elim.minors)


def ellipsoid_lines(elim: Elimination, bound, centre=None, half=False):
    """The integer m with (m - c)^t M (m - c) <= bound, line by line.

    M is a positive definite integer matrix given by its `_eliminate` record
    (leading minors d_k, pivot rows a_k), `bound` a rational and the centre c
    a rational vector (0 when None).  Integer Fincke-Pohst: with q
    the common denominator of c and x = q (m - c), q^2 (m-c)^t M (m-c) =
    sum_k t_k^2 / (d_{k-1} d_k), t_k = d_k x_k + sum_{j>k} a_kj x_j.  Over
    the scale lcm(d_{k-1} d_k) the budget left for layer k is an integer, so
    each interval comes from one `isqrt` and holds exactly the admissible
    m_k.  Yields (lo, hi, rest), the points (m_0, *rest) with lo <= m_0 <= hi;
    every line is nonempty, and the last coordinate varies slowest.

    `half` walks each pair +-m once, and takes no centre: it yields the lines
    whose rest has its last nonzero coordinate > 0, and the line rest = 0
    from m_0 = 0, so the origin once.  A layer whose higher coordinates are
    all 0 starts at 0 (Fincke and Pohst, Math. Comp. 44, 1985).
    """
    if half and centre is not None:
        raise ValueError("the half-space search takes no centre")
    minors, pivots = elim.minors, elim.pivots
    n = len(minors)
    p, q = _clear([Fraction(x) for x in ([0] * n if centre is None else centre)])
    prods = [a * b for a, b in zip([1] + minors, minors)]
    scale = math.lcm(*prods)
    weight = [scale // w for w in prods]
    m, x = [0] * n, [0] * n

    def descend(k, rest, zero):   # scale q^2 bound - sum_{j>k} weight_j t_j^2; zero: m_j = 0, j > k
        d = minors[k]
        c = _dot(pivots[k][k + 1:], x[k + 1:]) - d * p[k]
        s = math.isqrt(rest // weight[k])
        lo, hi = -((s + c) // (d * q)), (s - c) // (d * q)
        if zero:
            lo = max(lo, 0)
        if k == 0:
            if lo <= hi:
                yield lo, hi, ()
        elif k == 1:   # layer 0 inline: one isqrt per line
            d0, a01 = minors[0], pivots[0][1]
            c0 = _dot(pivots[0][2:], x[2:]) - d0 * p[0]
            tail = tuple(m[2:])
            for v in range(lo, hi + 1):
                t, c1 = d * q * v + c, c0 + a01 * (q * v - p[1])
                s0 = math.isqrt((rest - weight[1] * t * t) // weight[0])
                lo0, hi0 = -((s0 + c1) // (d0 * q)), (s0 - c1) // (d0 * q)
                if zero and not v:
                    lo0 = max(lo0, 0)
                if lo0 <= hi0:
                    yield lo0, hi0, (v,) + tail
        else:
            for v in range(lo, hi + 1):
                m[k], x[k] = v, q * v - p[k]
                t = d * q * v + c
                yield from descend(k - 1, rest - weight[k] * t * t, zero and not v)

    bound = math.floor(q * q * Fraction(bound))
    if n and bound >= 0:
        yield from descend(n - 1, scale * bound, half)


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lattice:
    """An even nondegenerate lattice given by its integer Gram matrix."""

    gram: tuple
    label: str = ""
    _elim: Elimination = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        g = tuple(tuple(_integer(x, "gram entry") for x in row) for row in self.gram)
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
        object.__setattr__(self, "_elim", _eliminate(g))
        if n and self._elim.det == 0:
            raise ValueError("gram matrix is degenerate")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return self._elim.det

    def pairing(self, x, y) -> Fraction:
        """<x, y> for rational coordinate vectors in the lattice basis."""
        if len(x) != self.rank or len(y) != self.rank:
            raise ValueError(f"vectors must have {self.rank} entries, got {len(x)} and {len(y)}")
        (xs, dx), (ys, dy) = (_clear([Fraction(v) for v in u]) for u in (x, y))
        return Fraction(sum(xi * _dot(row, ys) for xi, row in zip(xs, self.gram) if xi), dx * dy)

    def norm(self, x) -> Fraction:
        return self.pairing(x, x)

    def __repr__(self):
        return f"Lattice({self.label or self.gram})"


# -- constructors -----------------------------------------------------------

def _integer(x, what: str, positive=False) -> int:
    """int(x) for an integral x (2.0 and Fraction(2) too), > 0 if `positive`; else a ValueError."""
    if type(x) is int and (x > 0 or not positive):
        return x
    try:
        k = int(x)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != x or (positive and k <= 0):
        raise ValueError(f"{what} must be a{' positive' if positive else 'n'} integer, got {x!r}")
    return k


def _cartan(n: int, edges):
    """Negative-definite Cartan matrix: -2 on the diagonal, 1 on each edge."""
    g = [[-2 * (i == j) for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a][b] = g[b][a] = 1
    return g


# E_n in Bourbaki numbering: the chain 0-2-3-...-(n-1), node 1 on node 3
_NAMED = {name: Lattice(gram, label) for name, gram, label in (
    ("U", [[0, 1], [1, 0]], "U"),
    ("A1", [[-2]], "A1"),
    ("A1plus", [[2]], "A1+"),
    *((f"E{n}", _cartan(n, [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]), f"E{n}")
      for n in (7, 8)))}


def rescale(a: Lattice, k: int) -> Lattice:
    k = _integer(k, "rescale factor", positive=True)
    lab = f"{a.label}({k})" if a.label else ""
    return Lattice(tuple(tuple(k * x for x in row) for row in a.gram), lab)


def standard_lattice(name: str) -> Lattice:
    """Fixed Gram matrices for the standard names.

    Accepted: U, A1, A1plus (= <2>), D4/D6/D8/... (even index), E7, E8.
    """
    name = name.strip()
    if name in _NAMED:
        return _NAMED[name]
    m = re.fullmatch(r"D(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 4 or n % 2:
            raise ValueError("only D_{2k} with 2k >= 4 is supported")
        # the chain 0-1-...-(n-2), node n-1 on node n-3
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        return Lattice(_cartan(n, edges), f"D{n}")
    raise ValueError(f"unknown lattice name: {name!r}")


def direct_sum(*lattices: Lattice) -> Lattice:
    n, g = sum(a.rank for a in lattices), []
    for a in lattices:
        off = len(g)
        g += [(0,) * off + row + (0,) * (n - off - a.rank) for row in a.gram]
    return Lattice(g, "+".join(a.label for a in lattices if a.label))


@lru_cache(maxsize=None)
def hyperbolic_split(N: int, L: Lattice) -> Lattice:
    """U(N) + L, the hyperbolic block first, built once per (N, L)."""
    return direct_sum(rescale(standard_lattice("U"), N), L)


# -- symbolic input ---------------------------------------------------------

_TOKEN = re.compile(r"^(?P<base>U|A1 |A1|D\d+|E7|E8)(?:\((?P<scale>\d+)\))?(?:\^(?P<pow>0*[1-9]\d*))?$")


@lru_cache(maxsize=None)
def parse_lattice_expr(expr: str) -> Lattice:
    """Parse 'U+U(2)+E8(2)+A1^3' style expressions into a direct sum.

    A '+' right after a whole A1 belongs to the summand A1+ when no summand
    can start after it, and is marked by a space, which the input no longer
    holds; every other '+' separates two nonempty summands.  Parsed once per
    string: a repeated expression returns the same (frozen) `Lattice`.
    """
    text = re.sub(r"(?<![^+])A1\+(?=$|[+^(])", "A1 ", "".join(expr.split()))
    summands = []
    for tok in text.split("+"):
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"cannot parse lattice token {tok.replace(' ', '+')!r} in {expr!r}")
        lat = standard_lattice({"A1 ": "A1plus"}.get(m.group("base"), m.group("base")))
        if m.group("scale"):
            lat = rescale(lat, int(m.group("scale")))
        summands.extend([lat] * int(m.group("pow") or 1))
    return direct_sum(*summands)


# ---------------------------------------------------------------------------
# signature
# ---------------------------------------------------------------------------

def signature(L: Lattice):
    """(b+, b-) from the leading minors d_k of the exact elimination.

    P^t G P = R^t D R is a congruence with D_k = d_k / d_{k-1} (d_{-1} = 1),
    so b+ counts the k with sign d_k = sign d_{k-1}.
    """
    minors = L._elim.minors     # a Lattice is nondegenerate
    pos = sum((a > 0) == (b > 0) for a, b in zip([1] + minors, minors))
    return pos, L.rank - pos


def sigma(L: Lattice) -> int:
    p, n = signature(L)
    return p - n


# ---------------------------------------------------------------------------
# discriminant groups
# ---------------------------------------------------------------------------

_CLASS_L_CAP = 12   # the largest 2-rank whose tables over every class are built


@dataclass(frozen=True)
class DiscElement:
    """A class's coordinates, as `DiscGroup.elements` lists them; the
    benchmark's coset-oracle task reads `elements[i].coords`."""

    coords: tuple


@dataclass
class DiscGroup:
    """The 2-elementary finite quadratic form (A_L = L^dual / L, q_L).

    It is fixed by its tables on the generators g_i, Q_i = 2q(g_i) mod 4 and
    B_ij = 2b(g_i, g_j) mod 2 (Nikulin 1979): since 2b is integral, the
    class x = sum x_i g_i (x_i in {0, 1}) has

        2q(x) = x.Q + 2 sum_{i<j} x_i x_j B_ij  mod 4,

    so 2q mod 2 is linear.  `delta`, `characteristic` and `one_index` read
    the tables on the generators; `two_q` and `packed_by` list every class,
    for l <= 12.  A class is an index in range(2^l), its coordinates packed
    with the first the most significant bit, and B_i is packed in the same
    order.  `coords` and `rep` read a class's coordinates and representative
    off its index, and `index_of` takes a dual vector to its class's index.
    """

    parent: Lattice
    generators: list      # rational coordinate vectors in the lattice basis
    _u: list = field(repr=False, default=None)        # SNF left transform
    _positions: list = field(repr=False, default=None)  # indices with d_i = 2

    def __len__(self):
        return 2 ** self.l

    @property
    def l(self) -> int:
        """The number of generators, the 2-rank."""
        return len(self.generators)

    @cached_property
    def sigma(self) -> int:
        """The signature b+ - b- of the parent, which the Weil representation reads."""
        return sigma(self.parent)

    def _check_cap(self):
        if self.l > _CLASS_L_CAP:
            raise ValueError(f"discriminant group too large (l={self.l} > {_CLASS_L_CAP})")

    @cached_property
    def elements(self) -> list:
        """Every class as a `DiscElement`; index 0 is the zero class."""
        self._check_cap()
        return [DiscElement(coords) for coords in iproduct((0, 1), repeat=self.l)]

    def coords(self, index: int) -> tuple:
        """The coordinates of class `index`: its l bits, the most significant
        first (`_pack` undone)."""
        if not 0 <= index < len(self):
            raise ValueError(f"class index {index} out of range for {len(self)} classes")
        return tuple(index >> s & 1 for s in range(self.l - 1, -1, -1))

    def rep(self, index: int) -> list:
        """The canonical representative in L^dual of class `index`: the sum of
        the generators of its set bits, each coordinate reduced to [0, 1)."""
        picked = [g for c, g in zip(self.coords(index), self.generators) if c]
        return [sum(col) % 1 for col in zip([Fraction(0)] * self.parent.rank, *picked)]

    @cached_property
    def _masks(self) -> list:
        """Per lattice coordinate i, the packed bits of (U e_i)[positions] mod 2."""
        return [_pack(self._u[p][i] % 2 for p in self._positions)
                for i in range(self.parent.rank)]

    def index_of(self, x) -> int:
        """The index of the class of the dual vector v with integer
        coordinates x = G v.

        With U G V = diag(d), v = sum_p (U x)_p g_p, so the class is
        (U x)[positions] mod 2, linear over F_2: its packed index is the XOR
        of the masks of the odd coordinates of x.
        x is not validated: it must be an integral vector of the lattice's rank.
        """
        return reduce(xor, (mask for xi, mask in zip(x, self._masks) if xi % 2), 0)

    @cached_property
    def _tables(self) -> tuple:
        """(Q, B): Q_i as ints, B as packed rows.

        With v_i = 2 g_i integral, v_i G v_j = 4 b(g_i, g_j), which is even.
        Row B_i packs B_ij in the bit order of the class indices.
        """
        V = [[2 * x.numerator // x.denominator for x in g] for g in self.generators]
        GV = [[_dot(row, v) for row in self.parent.gram] for v in V]
        four_b = [[_dot(v, w) % 8 for w in GV] for v in V]
        return ([row[i] // 2 for i, row in enumerate(four_b)],
                [_pack(x // 2 % 2 for x in row) for row in four_b])

    @cached_property
    def delta(self) -> int:
        """1 iff some class has q not in Z, i.e. iff some 2q(g_i) is odd."""
        return int(any(x % 2 for x in self._tables[0]))

    @cached_property
    def characteristic(self) -> tuple:
        """Coordinates of the unique class gamma with b(gamma, x) = q(x) mod Z.

        gamma solves B gamma = Q mod 2, which Gauss-Jordan elimination over
        F_2 does on the packed rows [B_i | Q_i mod 2]: a row operation is one
        XOR.  b is nondegenerate, so B is invertible mod 2 and every column
        has a pivot.  Both sides of 2b(gamma, x) = 2q(x) mod 2 are linear in
        x, so the property is checked on the generators: popcount(B_i &
        gamma) = Q_i mod 2.
        """
        Q, B = self._tables
        l = self.l
        rows = [row << 1 | q & 1 for row, q in zip(B, Q)]
        for j in range(l):
            bit = 2 << (l - 1 - j)   # column j; bit 0 holds Q_i
            p = next((i for i in range(j, l) if rows[i] & bit), None)
            if p is None:
                raise ArithmeticError("2b is degenerate mod 2")
            rows[j], rows[p] = rows[p], rows[j]
            piv = rows[j]
            rows = [r ^ piv if r & bit and i != j else r for i, r in enumerate(rows)]
        gamma = tuple(r & 1 for r in rows)
        packed = _pack(gamma)
        if any(((row & packed).bit_count() - q) % 2 for row, q in zip(B, Q)):
            raise ArithmeticError("characteristic element fails on some generator")
        return gamma

    @cached_property
    def one_index(self) -> int:
        """The index of the characteristic class."""
        return _pack(self.characteristic)

    @cached_property
    def _classes(self) -> tuple:
        """(two_q, packed_by) of every class, from one pass by lowest set bit.

        With g_j the generator of the lowest set bit of y and y' = y - g_j,
        2q(y) = 2q(y') + Q_j + 2 (By')_j mod 4 and By = By' xor B_j.
        """
        self._check_cap()
        Q, B = self._tables
        l = self.l
        two_q, by = [0] * 2 ** l, [0] * 2 ** l
        for y in range(1, 2 ** l):
            low = y & -y
            j = l - low.bit_length()
            prev = by[y ^ low]
            two_q[y] = (two_q[y ^ low] + Q[j] + (2 if prev & low else 0)) % 4
            by[y] = prev ^ B[j]
        return two_q, by

    @cached_property
    def two_q(self) -> list:
        """2q(x) mod 4 of every class x."""
        return self._classes[0]

    @cached_property
    def packed_by(self) -> list:
        """The packed bits of By for every class y: rho(S) is fwht then y -> By."""
        return self._classes[1]


_GROUPS = {}   # Gram matrix -> DiscGroup


def discriminant_group(L: Lattice) -> DiscGroup:
    """A_L via Smith normal form of the Gram matrix, built once per Gram matrix.

    With U*G*V = diag(d), the classes of the columns of G^{-1}U^{-1} =
    V diag(d)^{-1} with d_i > 1 generate A_L = Z^n / G Z^n, the i-th one of
    order d_i.  Raises ValueError unless every d_i > 1 is 2: this is the one
    place that decides which forms are supported.
    """
    grp = _GROUPS.get(L.gram)
    if grp is not None:
        return grp
    n = L.rank
    d, u, v = smith_normal_form(L.gram)
    positions = [i for i in range(n) if abs(d[i]) > 1]
    orders = [abs(d[i]) for i in positions]
    if any(x != 2 for x in orders):
        raise ValueError(f"lattice is not 2-elementary: orders {orders}")
    if 2 ** len(orders) != abs(L.det()):
        raise ArithmeticError(f"product of orders {2 ** len(orders)} != |det| {abs(L.det())}")
    gens = [[Fraction(v[i][p] % 2, 2) for i in range(n)] for p in positions]
    grp = _GROUPS[L.gram] = DiscGroup(L, gens, u, positions)
    return grp


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

    q mod Z is additive on a 2-elementary form, so delta is read off the
    generators: delta = 1 iff some generator has q(g_i) not in Z.
    """
    A = discriminant_group(L)
    return LatticeTriple(L.rank, A.l, A.delta)


def characteristic_element(L: Lattice) -> tuple:
    """The coordinates of the unique class with b(gamma, x) = q(x) mod Z for all x."""
    return discriminant_group(L).characteristic


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
