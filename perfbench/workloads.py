"""The benchmark's four workloads.

Each workload builds its inputs in `setup` (timed as set-up), lists its
tasks in a fixed order (timed as the solve), and checks the outputs with
`checks`.  Only `setup` looks at the seed; a workload without random inputs
ignores it.  Tasks call twoelem through module attributes at call time, so
that a traced round sees the wrapped bindings.
"""
from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

import mpmath

import checks
import reference


def _family(g, base, ks, delta):
    return [(g, base if k == 0 else base + "+A1" * k, delta) for k in ks]


# The paper's r(M) > 10 data: (g(M), M-perp, delta), in the order of the
# program's table1().
REFERENCE_ROWS = (
    _family(0, "A1++A1+", range(0, 10), 1) + [(0, "U(2)+U(2)", 0)]
    + _family(1, "U+A1+", range(0, 10), 1)
    + [(1, "U(2)+U(2)+D4", 0), (1, "U+U(2)", 0)]
    + _family(2, "U+U", range(1, 9), 1) + [(2, "U+U(2)+D4", 0), (2, "U+U", 0)]
    + _family(3, "U+U+D4", range(1, 5), 1) + [(3, "U+U+D4", 0)]
    + _family(4, "A1++A1++E8", range(0, 3), 1)
    + _family(5, "U+A1++E8", range(0, 2), 1)
)


def _cli(argv):
    """Run `twoelem ARGV` in this process and return what it printed."""
    from twoelem import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"twoelem {' '.join(argv)} exited {rc}")
    return out.getvalue()


class TableReports:
    """`borcherds report <M-perp> --order 4` for each reference row, then
    `export-graph --format json`, all through twoelem.cli.main."""

    name = "table-reports"

    def setup(self, seed):
        argvs = [["borcherds", "report", expr, "--order", "4"]
                 for _g, expr, _d in REFERENCE_ROWS]
        return argvs + [["export-graph", "--format", "json"]]

    def tasks(self, argvs):
        return [(" ".join(argv), lambda argv=argv: _cli(argv)) for argv in argvs]

    def check(self, argvs, results):
        for (g, expr, _d), argv in zip(REFERENCE_ROWS, argvs):
            key = " ".join(argv)
            if key in results:
                checks.check_report(expr, g, results[key])
        key = " ".join(argvs[-1])
        if key in results:
            checks.check_graph(results[key], REFERENCE_ROWS)


class CosetOracle:
    """The criterion-02 computation: F built directly at a high order, then
    rebuilt numerically as a sum over the six theta-group cosets.  tau is
    the point where the worst coset is least bad (Im = 1/7), which still
    needs the series to order 384.  Both lattices have k = 8 + sigma = 8, so
    the second one reuses the cached f0(8, .) as a user's script would; each
    further k would add 8 to 17 s per round."""

    name = "coset-oracle"
    TAU = ("-0.2", "1.4")
    LATTICES = ("U+U(2)", "U(2)+U(2)")
    ORDER = 96          # construct_F reads f0(k, 4 * 96), the oracle's top order
    PREC = 128

    def setup(self, seed):
        from twoelem import lattices
        return {
            "tau": mpmath.mpc(*self.TAU),
            "lattices": [(expr, lattices.parse_lattice_expr(expr)) for expr in self.LATTICES],
            # k = 8 + sigma, sigma from the benchmark's own summand table
            "ks": sorted({8 + reference.invariants(expr)[2] for expr in self.LATTICES}),
        }

    def tasks(self, inp):
        from twoelem import vvmf
        tau, forms, out = inp["tau"], {}, []
        for expr, L in inp["lattices"]:
            def build(expr=expr, L=L):
                forms[expr] = vvmf.construct_F(L, order=self.ORDER)

            def oracle(L=L):
                values, data = vvmf.lift_oracle_numeric(L, tau, prec=self.PREC, target=1e-26)
                return [(el.coords, values[i]) for i, el in enumerate(data.elements)]

            def direct(expr=expr):
                return vvmf.eval_vvform(forms[expr], tau, self.PREC)

            out += [(f"construct_F {expr}", build), (f"oracle {expr}", oracle),
                    (f"direct {expr}", direct)]
        for k in inp["ks"]:
            # the CLI's exact text, read from the f0 cache the oracle filled
            argv = ["qseries", "f0", "-k", str(k), "--order", str(4 * self.ORDER)]
            out.append((f"f0 k={k}", lambda argv=argv: _cli(argv)))
        return out

    def check(self, inp, results):
        for expr, _L in inp["lattices"]:
            o, d = results.get(f"oracle {expr}"), results.get(f"direct {expr}")
            if o is not None and d is not None:
                checks.check_oracle([(v, d[coords]) for coords, v in o])
        for k in inp["ks"]:
            if f"f0 k={k}" in results:
                checks.check_f0(results[f"f0 k={k}"], k)


def _sym(rows):
    return tuple(tuple(complex(x) for x in row) for row in rows)


class SiegelTheta:
    """Criterion-07 slope fits (g = 1, 2 at 64 bits), criterion-08 vanishing
    and invariance, and chi_g8_petersson at fixed points of genus 1-4 on the
    53-bit path and of genus 1-3 on the multiprecision path (64 bits).
    g = 4 at 64 bits and g = 5 are left out: they do not finish."""

    name = "siegel-theta"
    GRID = [10 ** (-(3 + 0.5 * j)) for j in range(11)]
    FAMILIES = (   # (expected slope, genus, psi or None for the off-diagonal family)
        (1, 1, [[0.1 + 0.2j]]),
        (4, 2, [[0.1 + 0.3j, 0.15 + 0.05j], [0.15 + 0.05j, 0.2 + 1.1j]]),
        (8, 2, None),
    )
    BLOCK = ((0.4 + 1.1j, 0.0), (0.0, -0.3 + 0.8j))
    INVARIANCE_POINTS = (   # criterion 08
        ((0.21 + 1.17j,),),
        ((0.23 + 1.12j, -0.41 + 0.37j), (-0.41 + 0.37j, 0.11 + 0.95j)),
        ((0.2 + 1.1j, 0.1 + 0.2j, -0.1 + 0.15j),
         (0.1 + 0.2j, -0.3 + 1.3j, 0.2 + 0.1j),
         (-0.1 + 0.15j, 0.2 + 0.1j, 0.15 + 1.05j)),
    )
    # fixed points for the two paths.  The genus-3 one sits deep enough
    # (Im eigenvalues above 17.65) that the 64-bit grid radius is 4, and not
    # so deep that its 53-bit product of 36 theta values leaves double range
    PATH_POINTS = (
        ((-0.3 + 1.3j,),),
        ((0.1 + 1.2j, 0.25 + 0.3j), (0.25 + 0.3j, -0.2 + 1.5j)),
        ((0.1 + 17.9j, 0.2 + 0.05j, -0.1 + 0.02j),
         (0.2 + 0.05j, -0.2 + 18j, 0.3 + 0.04j),
         (-0.1 + 0.02j, 0.3 + 0.04j, 0.05 + 18.1j)),
        tuple(tuple(complex(0.1 * i - 0.05 * j, 2.0) if i == j else complex(0.05 * (i + j), 0.2)
                    for j in range(4)) for i in range(4)),
    )
    MP_PREC = 64
    TAU0 = -0.3 + 1.3j     # genus-1 path point, also checked against eta

    def setup(self, seed):
        from twoelem import siegel
        rng = random.Random(seed)
        shifts = []
        for sig in self.INVARIANCE_POINTS:
            g = len(sig)
            B = [[0] * g for _ in range(g)]
            for i in range(g):
                for j in range(i, g):
                    B[i][j] = B[j][i] = rng.randint(-3, 3)
            A = [[int(i == j) + int(i == 0 and j == 1) for j in range(g)] for i in range(g)]
            shifted = [[sig[i][j] + B[i][j] for j in range(g)] for i in range(g)]
            rotated = [[sum(A[k][i] * sig[k][m] * A[m][j] for k in range(g) for m in range(g))
                        for j in range(g)] for i in range(g)]
            shifts.append(tuple(siegel.SiegelPoint(_sym(x)) for x in (sig, shifted, rotated)))
        fams = []
        for want, g, psi in self.FAMILIES:
            if psi is None:
                fam = lambda t: siegel.SiegelPoint(((0.1 + 1.5j, t), (t, -0.2 + 1.2j)))
            else:
                fam = lambda t, g=g, psi=psi: siegel.fay_family(g, psi, t)
            fams.append((want, fam))
        return {
            "families": fams,
            "block": siegel.SiegelPoint(self.BLOCK),
            "invariance": shifts,
            "paths": [siegel.SiegelPoint(_sym(p)) for p in self.PATH_POINTS],
            "i": siegel.SiegelPoint(((1j,),)),
            "char00": siegel.ThetaChar((0,), (0,)),
        }

    def tasks(self, inp):
        from twoelem import siegel
        out = []
        for want, fam in inp["families"]:
            out.append((f"slope {want}",
                        lambda fam=fam: siegel.vanishing_order_fit(fam, self.GRID, prec=64)[0]))
        for prec in (53, 100):
            out.append((f"block chi_2 {prec}",
                        lambda prec=prec: siegel.chi_g(inp["block"], prec)))
        for pts in inp["invariance"]:
            g = pts[0].g
            for label, p in zip(("base", "shifted", "rotated"), pts):
                out.append((f"invariance g={g} {label}",
                            lambda p=p: siegel.chi_g8_petersson(p, 53)))
        for p in inp["paths"]:
            precs = (53, self.MP_PREC) if p.g <= 3 else (53,)
            for prec in precs:
                out.append((f"norm g={p.g} prec={prec}",
                            lambda p=p, prec=prec: siegel.chi_g8_petersson(p, prec)))
        for prec in (53, self.MP_PREC):
            out.append((f"chi_1 prec={prec}",
                        lambda prec=prec: siegel.chi_g(inp["paths"][0], prec)))
            out.append((f"theta00(i) prec={prec}",
                        lambda prec=prec: siegel.theta_constant(inp["char00"], inp["i"], prec)))
        return out

    def check(self, inp, results):
        r = results
        for want, _fam in inp["families"]:
            if f"slope {want}" in r:
                checks.check_slope(r[f"slope {want}"], want)
        if "block chi_2 53" in r:
            checks.check_vanishes(r["block chi_2 53"], 1e-12)
        if "block chi_2 100" in r:
            checks.check_vanishes(r["block chi_2 100"], 1e-24)
        for pts in inp["invariance"]:
            key = f"invariance g={pts[0].g} "
            for label in ("shifted", "rotated"):
                if key + "base" in r and key + label in r:
                    checks.check_invariant(r[key + "base"], r[key + label])
        for p in inp["paths"][:3]:
            a, b = r.get(f"norm g={p.g} prec=53"), r.get(f"norm g={p.g} prec={self.MP_PREC}")
            if a is not None and b is not None:
                checks.check_paths_agree(a, b)
        for prec in (53, self.MP_PREC):
            if f"chi_1 prec={prec}" in r:
                checks.check_chi1_eta(r[f"chi_1 prec={prec}"], self.TAU0, prec)
            if f"theta00(i) prec={prec}" in r:
                checks.check_theta00_at_i(r[f"theta00(i) prec={prec}"], prec)


class TubeProduct:
    """product_eval on the split U(2) + (U+D4) (2-rank 4), at cuts 1..6 at a
    generic point and along the criterion-10 approach to a multiplicity-one
    wall; separating_walls on fixed segments of U+A1+A1; short_vectors on
    small forms drawn from the seed."""

    name = "tube-product"
    N, L_EXPR, F_ORDER = 2, "U+D4", 6
    CUTS = (1, 2, 3, 4, 5, 6)
    WALL_TS = tuple(0.01 * 2 ** (-j) for j in range(5))
    WALL_EXPR = "U+A1+A1"
    SEGMENTS = (   # (v1, v2, pairing bound) in primal coordinates of U+A1+A1
        (("3", "1", "1/7", "2/11"), ("1", "3", "-1/5", "1/9"), 3),
        (("2", "2", "1/3", "-1/13"), ("5", "1", "-2/7", "3/17"), 3),
        (("4", "1", "1/19", "1/23"), ("1", "4", "-3/29", "2/31"), 3),
    )
    NORMS = (-2, Fraction(-1, 2))
    FORMS = 6

    def setup(self, seed):
        from twoelem import borcherds, lattices
        L = lattices.parse_lattice_expr(self.L_EXPR)
        amb = lattices.direct_sum(lattices.rescale(lattices.standard_lattice("U"), self.N), L)
        # Im z_D4 inside a Weyl chamber of D4: each simple root pairs with it
        # to -0.07, so every root pairs to at least 0.07 in absolute value
        # and the point keeps product_eval's convergence margin
        dk = [list(row[2:]) for row in L.gram[2:]]
        inv = reference.rational_inverse(dk)
        y_d4 = [-0.07 * float(sum(row)) for row in inv]
        z_d4 = [complex(0.013 * (i + 1), y) for i, y in enumerate(y_d4)]
        generic = borcherds.TubePoint(self.N, L, tuple([0.1 + 2.5j, -0.05 + 2.3j] + z_d4))
        walls = [borcherds.TubePoint(self.N, L, tuple([1j * (2.5 + t), 1j * (2.5 - t)] + z_d4))
                 for t in self.WALL_TS]
        rng = random.Random(seed)
        forms = []
        for i in range(self.FORMS):
            n = 2 + i % 3
            B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            A = [[sum(B[k][a] * B[k][b] for k in range(n)) + int(a == b) for b in range(n)]
                 for a in range(n)]
            forms.append((A, rng.randint(6, 18)))
        segments = [([Fraction(x) for x in v1], [Fraction(x) for x in v2], pb)
                    for v1, v2, pb in self.SEGMENTS]
        return {"ambient": amb, "generic": generic, "walls": walls, "forms": forms,
                "wall_lattice": lattices.parse_lattice_expr(self.WALL_EXPR),
                "segments": segments}

    def tasks(self, inp):
        from twoelem import borcherds, vvmf
        forms, out = {}, []

        def build():
            forms["F"] = vvmf.construct_F(inp["ambient"], order=self.F_ORDER)

        out.append(("construct_F", build))
        for cut in self.CUTS:
            out.append((f"cut {cut}", lambda cut=cut: borcherds.product_eval(
                forms["F"], inp["generic"], order=cut)))
        for t, p in zip(self.WALL_TS, inp["walls"]):
            out.append((f"wall t={t}", lambda p=p: borcherds.product_eval(
                forms["F"], p, order=2, min_margin=0.0)[0]))
        for i, (v1, v2, pb) in enumerate(inp["segments"]):
            def walls(v1=v1, v2=v2, pb=pb):
                found, _realized = borcherds.separating_walls(
                    inp["wall_lattice"], v1, v2, norm_set=self.NORMS, pairing_bound=pb)
                return [(w.dual_coords, w.norm, w.pairing_v1, w.pairing_v2) for w in found]
            out.append((f"walls {i}", walls))
        for i, (A, bound) in enumerate(inp["forms"]):
            out.append((f"short_vectors {i}",
                        lambda A=A, bound=bound: borcherds.short_vectors(A, bound)))
        return out

    def check(self, inp, results):
        r = results
        for a, b in zip(self.CUTS, self.CUTS[1:]):
            if f"cut {a}" in r and f"cut {b}" in r:
                value, tail = r[f"cut {a}"]
                checks.check_cut_step(value, tail, r[f"cut {b}"][0])
        keys = [f"wall t={t}" for t in self.WALL_TS]
        if all(k in r for k in keys):
            checks.check_wall_slope(self.WALL_TS, [r[k] for k in keys])
        gram = inp["wall_lattice"].gram
        for i, (v1, v2, pb) in enumerate(inp["segments"]):
            if f"walls {i}" in r:
                checks.check_walls(gram, v1, v2, self.NORMS, pb, r[f"walls {i}"])
        for i, (A, bound) in enumerate(inp["forms"]):
            if f"short_vectors {i}" in r:
                checks.check_short_vectors(A, bound, r[f"short_vectors {i}"])


WORKLOADS = {w.name: w for w in (TableReports(), CosetOracle(), SiegelTheta(), TubeProduct())}
