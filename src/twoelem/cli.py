"""Batch command-line front end.

Subcommands:
    lattice-info EXPR            invariants of a 2-elementary lattice
    qseries NAME                 print a named q-series (exact text format)
    borcherds report EXPR        lift weight (both ways), divisor ledger,
                                 leading expansion
    siegel eval                  chi_g and its Petersson norm at a matrix
    verify SUITE                 run a self-check suite (exit 0 iff green)
    export-graph                 write the transition graph (dot or json)

All output is deterministic: repeated runs with the same flags produce
byte-identical bytes.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache


def _parse_order(text: str) -> Fraction:
    try:
        order = Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("order has a zero denominator") from None
    if order <= 0:
        raise argparse.ArgumentTypeError("order must be a positive rational")
    return order


def _parse_prec(text: str) -> int:
    prec = int(text)
    if prec < 53:
        raise argparse.ArgumentTypeError("precision must be at least 53 bits")
    return prec


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------

def cmd_lattice_info(args) -> int:
    from .lattices import (
        characteristic_element,
        parse_lattice_expr,
        signature,
        two_elementary_invariants,
    )

    try:
        L = parse_lattice_expr(args.expr)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    t = two_elementary_invariants(L)
    sig = signature(L)
    char = characteristic_element(L)
    lines = [
        f"lattice    {args.expr}",
        f"rank r     {t.r}",
        f"2-rank l   {t.l}",
        f"delta      {t.delta}",
        f"sigma      {sig[0] - sig[1]}",
        f"signature  ({sig[0]},{sig[1]})",
        f"char elt   {char}",
        f"g = (22-r-l)/2   {Fraction(22 - t.r - t.l, 2)}",
        f"k = (r-l)/2      {Fraction(t.r - t.l, 2)}",
        "",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_qseries(args) -> int:
    from .modforms import eisenstein_e4, eta_power, f0, f1, g_i, theta_a1

    order = args.order
    name = args.name
    k = args.k
    if name == "f0":
        ser = f0(k, order)
    elif name == "f1":
        ser = f1(k, order)
    elif name in ("g0", "g1", "g2", "g3"):
        ser = g_i(k, int(name[1]), order)
    elif name == "E4":
        ser = eisenstein_e4(order)
    elif name == "eta24":
        ser = eta_power(1, 24, order)
    elif name == "theta3":
        ser = theta_a1(0, order)
    else:
        print(f"unknown series {name!r} "
              "(choose f0, f1, g0..g3, E4, eta24, theta3)", file=sys.stderr)
        return 2
    _emit(ser.to_text() + "\n", args.out)
    return 0


def cmd_borcherds_report(args) -> int:
    from .lattices import discriminant_group, parse_lattice_expr, signature
    from .vvmf import borcherds_divisor, borcherds_weight, construct_F, delta_ledger

    try:
        L = parse_lattice_expr(args.expr)
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    if signature(L)[0] != 2:
        raise ValueError("lift reports need a signature (2, r-2) lattice")
    # F first: the weight's order-2 slices are then cut from its build
    F = construct_F(L, order=args.order)
    closed, series = borcherds_weight(L)
    div = borcherds_divisor(F)
    data = discriminant_group(L)
    lines = [
        f"lattice          {args.expr}",
        f"weight (closed)  {closed}",
        f"weight (series)  {series}",
        "divisor classes  (class coords, exponent) -> multiplicity",
    ]
    # index order is coordinate order: the first coordinate is the top bit
    for (i, e), m in sorted(div.items()):
        lines.append(f"  {data.coords(i)} q^{e}: {m}")
    lines.append(f"ledger           {delta_ledger(L, div)}")
    lines.append(f"e_0 expansion    {F.components[0].to_text()}")
    lines.append("")
    _emit("\n".join(lines), args.out)
    return 0


def cmd_siegel_eval(args) -> int:
    import mpmath

    from .siegel import SiegelPoint, chi_g, chi_g8_petersson

    try:
        with open(args.sigma) as fh:
            raw = json.load(fh)
        mat = tuple(tuple(complex(re, im) for re, im in row) for row in raw)
        point = SiegelPoint(mat)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error reading matrix: {exc}", file=sys.stderr)
        return 2
    val = chi_g(point, args.prec)   # the norm reads the theta rows this leaves on the point
    lines = [
        f"genus            {point.g}",
        f"chi_g            {mpmath.nstr(val, 15)}",
        f"petersson chi^8  {mpmath.nstr(chi_g8_petersson(point, args.prec), 15)}",
        "",
    ]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    checks = run_suite(args.suite)
    ok = all(c["ok"] for c in checks)
    if args.format == "json":
        text = json.dumps({"suite": args.suite, "ok": ok, "checks": checks},
                          indent=2) + "\n"
    else:
        rows = [f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}"
                + (f"  ({c['detail']})" if c["detail"] and not c["ok"] else "")
                for c in checks]
        rows.append(f"{'OK' if ok else 'FAILED'}: "
                    f"{sum(c['ok'] for c in checks)}/{len(checks)} checks passed")
        text = "\n".join(rows) + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


def cmd_export_graph(args) -> int:
    from .k3graph import build_graph, export_dot, export_json, table1_m_triples

    graph = build_graph(table1_m_triples())
    text = export_dot(graph) + "\n" if args.format == "dot" else export_json(graph) + "\n"
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoelem",
        description="Exact computations for 2-elementary lattices: "
                    "Weil representations, Borcherds lifts, Siegel theta "
                    "products, and the Lorentzian transition graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-info", help="invariants of a lattice expression")
    p.add_argument("expr", help="e.g. 'U+U(2)+E8(2)' or 'A1+^2+A1^3'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_lattice_info)

    p = sub.add_parser("qseries", help="print a named q-series")
    p.add_argument("name", help="f0, f1, g0..g3, E4, eta24, theta3")
    p.add_argument("-k", type=int, default=8, help="weight parameter for f/g series")
    p.add_argument("--order", type=_parse_order, default=Fraction(10),
                   help="truncation exponent (rational p/q)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_qseries)

    p = sub.add_parser("borcherds", help="Borcherds lift reports")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    pr = bsub.add_parser("report", help="weight, divisor, leading expansion")
    pr.add_argument("expr")
    pr.add_argument("--order", type=_parse_order, default=Fraction(4))
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_borcherds_report)

    p = sub.add_parser("siegel", help="Siegel theta-product evaluation")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    pe = ssub.add_parser("eval", help="chi_g at a period matrix")
    pe.add_argument("--sigma", required=True,
                    help="JSON file: g x g array of [re, im] pairs")
    pe.add_argument("--prec", type=_parse_prec, default=53, help="bits")
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_siegel_eval)

    p = sub.add_parser("verify", help="run a self-check suite")
    p.add_argument("suite",
                   choices=["series", "weil", "borcherds", "siegel", "graph", "all"])
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-graph", help="write the transition graph")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export_graph)

    return parser


def main(argv=None) -> int:
    """Run one command; bad input (a ValueError) prints one `error:` line and exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
