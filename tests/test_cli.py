"""The batch command-line interface: parsing, outputs, determinism."""
import hashlib
import json
from fractions import Fraction

import pytest

from twoelem.cli import main

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# `twoelem qseries NAME --order ORDER`, byte for byte
QSERIES_TEXT = {
    ("f0", "3"): (
        "N=3 trunc=3\n"
        "-1/1  1 0 0 0\n"
        "0/1  24 0 0 0\n"
        "1/1  276 0 0 0\n"
        "2/1  2048 0 0 0\n"
        "\n"
    ),
    ("f1", "3"): (
        "N=12 trunc=3\n"
        "2/1  -4096 0 0 0\n"
        "\n"
    ),
    ("g0", "3"): (
        "N=1 trunc=3\n"
        "0/1  24 0 0 0\n"
        "1/1  49152 0 0 0\n"
        "2/1  5373952 0 0 0\n"
        "\n"
    ),
    ("g1", "3"): (
        "N=4 trunc=3\n"
        "1/4  276 0 0 0\n"
        "5/4  184024 0 0 0\n"
        "9/4  14478180 0 0 0\n"
        "\n"
    ),
    ("g2", "3"): (
        "N=2 trunc=3\n"
        "1/2  2048 0 0 0\n"
        "3/2  614400 0 0 0\n"
        "5/2  37122048 0 0 0\n"
        "\n"
    ),
    ("g3", "3"): (
        "N=4 trunc=3\n"
        "-1/4  1 0 0 0\n"
        "3/4  11202 0 0 0\n"
        "7/4  1881471 0 0 0\n"
        "11/4  91231550 0 0 0\n"
        "\n"
    ),
    ("E4", "3"): (
        "N=1 trunc=3\n"
        "0/1  1 0 0 0\n"
        "1/1  240 0 0 0\n"
        "2/1  2160 0 0 0\n"
        "\n"
    ),
    ("eta24", "3"): (
        "N=1 trunc=3\n"
        "1/1  1 0 0 0\n"
        "2/1  -24 0 0 0\n"
        "\n"
    ),
    ("theta3", "3"): (
        "N=1 trunc=3\n"
        "0/1  1 0 0 0\n"
        "1/1  2 0 0 0\n"
        "\n"
    ),
    ("f0", "7/2"): (
        "N=3 trunc=7/2\n"
        "-1/1  1 0 0 0\n"
        "0/1  24 0 0 0\n"
        "1/1  276 0 0 0\n"
        "2/1  2048 0 0 0\n"
        "3/1  11202 0 0 0\n"
        "\n"
    ),
    ("f1", "7/2"): (
        "N=12 trunc=7/2\n"
        "2/1  -4096 0 0 0\n"
        "\n"
    ),
    ("g0", "7/2"): (
        "N=1 trunc=7/2\n"
        "0/1  24 0 0 0\n"
        "1/1  49152 0 0 0\n"
        "2/1  5373952 0 0 0\n"
        "3/1  216072192 0 0 0\n"
        "\n"
    ),
    ("g1", "7/2"): (
        "N=4 trunc=7/2\n"
        "1/4  276 0 0 0\n"
        "5/4  184024 0 0 0\n"
        "9/4  14478180 0 0 0\n"
        "13/4  495248952 0 0 0\n"
        "\n"
    ),
    ("g2", "7/2"): (
        "N=2 trunc=7/2\n"
        "1/2  2048 0 0 0\n"
        "3/2  614400 0 0 0\n"
        "5/2  37122048 0 0 0\n"
        "\n"
    ),
    ("g3", "7/2"): (
        "N=4 trunc=7/2\n"
        "-1/4  1 0 0 0\n"
        "3/4  11202 0 0 0\n"
        "7/4  1881471 0 0 0\n"
        "11/4  91231550 0 0 0\n"
        "\n"
    ),
    ("E4", "7/2"): (
        "N=1 trunc=7/2\n"
        "0/1  1 0 0 0\n"
        "1/1  240 0 0 0\n"
        "2/1  2160 0 0 0\n"
        "3/1  6720 0 0 0\n"
        "\n"
    ),
    ("eta24", "7/2"): (
        "N=1 trunc=7/2\n"
        "1/1  1 0 0 0\n"
        "2/1  -24 0 0 0\n"
        "3/1  252 0 0 0\n"
        "\n"
    ),
    ("theta3", "7/2"): (
        "N=1 trunc=7/2\n"
        "0/1  1 0 0 0\n"
        "1/1  2 0 0 0\n"
        "\n"
    ),
}

# `twoelem borcherds report "U+U+E8(2)" --order 2`, byte for byte
REPORT_TEXT = (
    "lattice          U+U+E8(2)\n"
    "weight (closed)  12\n"
    "weight (series)  12\n"
    "divisor classes  (class coords, exponent) -> multiplicity\n"
    "  (0, 0, 0, 0, 0, 0, 0, 0) q^-1: 1\n"
    "ledger           {'dprime': 1, 'dsecond': None, 'extra_char': 0}\n"
    "e_0 expansion    N=3 trunc=2\n"
    "-1/1  1 0 0 0\n"
    "0/1  24 0 0 0\n"
    "1/1  4644 0 0 0\n"
    "\n"
)


def test_lattice_info(capsys):
    code, out, _ = run_cli(capsys, "lattice-info", "U+U+E8(2)")
    assert code == 0
    assert "rank r     12" in out
    assert "2-rank l   8" in out
    assert "delta      0" in out


def test_lattice_info_parse_error(capsys):
    code, _, err = run_cli(capsys, "lattice-info", "U+XYZ")
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("expr", ["U+", "+U", "U++U", "U+A1^0", "U+E8(2)^0"])
def test_lattice_info_rejects_empty_summands_and_zero_powers(capsys, expr):
    # each used to parse silently as U or U+U
    code, out, err = run_cli(capsys, "lattice-info", expr)
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [("lattice-info", "U(3)+A1"),
                                  ("borcherds", "report", "U+U(3)+A1")])
def test_lattice_that_is_not_two_elementary(capsys, argv):
    # it parses, so the error comes from the invariants: one line, exit 2
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2-elementary" in err


def test_two_rank_above_the_class_table_cap(capsys):
    # the invariants read no table over the classes; the lift reads 2q of each
    code, out, _ = run_cli(capsys, "lattice-info", "U+U+A1^13")
    assert code == 0
    assert "2-rank l   13\n" in out
    code, out, err = run_cli(capsys, "borcherds", "report", "U+U+A1^13")
    assert code == 2 and out == ""
    assert err == "error: discriminant group too large (l=13 > 12)\n"


@pytest.mark.parametrize("argv", [("qseries", "f0"), ("borcherds", "report", "U+U+E8(2)")])
def test_order_with_zero_denominator(capsys, argv):
    # one usage error from argparse, not a ZeroDivisionError traceback
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--order", "1/0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and err.count("error: ") == 1
    assert "argument --order: order has a zero denominator" in err


def test_qseries_output(capsys):
    code, out, _ = run_cli(capsys, "qseries", "f0", "-k", "8", "--order", "3")
    assert code == 0
    assert "-1/1  1 0 0 0" in out       # principal part q^-1
    assert "0/1  24 0 0 0" in out       # constant term 8 + 2k


@pytest.mark.parametrize("name,order", sorted(QSERIES_TEXT))
def test_qseries_exact_text(capsys, name, order):
    code, out, _ = run_cli(capsys, "qseries", name, "--order", order)
    assert code == 0
    assert out == QSERIES_TEXT[name, order]


@pytest.mark.parametrize("k", [-3, 0, 8])
@pytest.mark.parametrize("order", ["37/3", "60"])
def test_qseries_text_matches_the_product_route(capsys, k, order):
    # the blocks and eta^24 as the CLI prints them, against the text of the
    # product route (pentagonal eta factors, theta powers, Kronecker products)
    o = Fraction(order)
    want = {"f0": oracles.f0(k, o), "f1": oracles.f1(k, o), "eta24": oracles.eta_power(1, 24, o),
            **{f"g{i}": g for i, g in enumerate(oracles.g_slices(k, o))}}
    for name, ser in want.items():
        code, out, _ = run_cli(capsys, "qseries", name, "-k", str(k), "--order", order)
        assert code == 0
        assert out == ser.to_text() + "\n", (name, k, order)


def test_borcherds_report_exact_text(capsys):
    code, out, _ = run_cli(capsys, "borcherds", "report", "U+U+E8(2)",
                           "--order", "2")
    assert code == 0
    assert out == REPORT_TEXT


def test_qseries_unknown_name(capsys):
    code, _, err = run_cli(capsys, "qseries", "nope")
    assert code == 2
    assert "unknown series" in err


def test_borcherds_report(capsys):
    code, out, _ = run_cli(capsys, "borcherds", "report", "U+U+E8(2)",
                           "--order", "2")
    assert code == 0
    assert "weight (closed)  12" in out
    assert "weight (series)  12" in out
    assert "ledger" in out


def test_borcherds_report_rejects_wrong_signature(capsys):
    code, _, err = run_cli(capsys, "borcherds", "report", "A1")
    assert code == 2
    assert "signature" in err


def test_siegel_eval(capsys, tmp_path):
    mat = tmp_path / "sigma.json"
    mat.write_text(json.dumps([[[0.0, 1.0]]]))
    code, out, _ = run_cli(capsys, "siegel", "eval", "--sigma", str(mat),
                           "--prec", "64")
    assert code == 0
    assert "genus            1" in out
    assert "0.906767655" in out  # chi_1(i) = 2 eta(i)^3


def test_siegel_eval_bad_matrix(capsys, tmp_path):
    mat = tmp_path / "sigma.json"
    for raw, msg in [([[[0.0, 1.0], [0.5, 0.0]]], "error"),
                     ([[[float("nan"), 1.0]]], "must be finite")]:
        mat.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "siegel", "eval", "--sigma", str(mat))
        assert code == 2
        assert msg in err


def test_siegel_eval_genus_beyond_five(capsys, tmp_path, monkeypatch):
    # a valid period matrix of genus 6: the ValueError is one line, not a
    # traceback, and comes before any theta pass
    from twoelem import siegel
    calls = []
    monkeypatch.setattr(siegel, "_pass", lambda *args: calls.append(args))
    mat = tmp_path / "sigma.json"
    mat.write_text(json.dumps([[[0.0, float(i == j)] for j in range(6)] for i in range(6)]))
    code, out, err = run_cli(capsys, "siegel", "eval", "--sigma", str(mat))
    assert code == 2
    assert out == ""
    assert err == "error: genus must be between 0 and 5\n"
    assert calls == []


def test_verify_choices_are_the_suites():
    # cli lists the names itself, so that building the parser imports no suite
    from twoelem.cli import build_parser
    from twoelem.verify import SUITES

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    suite_arg = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert list(suite_arg.choices) == list(SUITES) + ["all"]


def test_verify_suite_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "weil", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(c["ok"] for c in data["checks"])


def test_verify_all_passes(capsys):
    # every suite, as `twoelem verify all` prints it
    code, out, _ = run_cli(capsys, "verify", "all")
    rows = out.splitlines()
    assert code == 0
    assert rows[-1].startswith("OK: ")
    assert rows[:-1] and all(row.startswith("[PASS] ") for row in rows[:-1])


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "everything"])


def test_export_graph_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["export-graph", "--format", "json", "--out", str(p1)]) == 0
    assert main(["export-graph", "--format", "json", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert len(data["table1"]) == 43
    assert len(data["vertices"]) >= 43


def test_export_graph_dot(capsys, tmp_path):
    p = tmp_path / "g.dot"
    assert main(["export-graph", "--format", "dot", "--out", str(p)]) == 0
    text = p.read_text()
    assert text.startswith("digraph")
    assert "->" in text


def test_order_flag_validation(capsys):
    with pytest.raises(SystemExit):
        main(["qseries", "f0", "--order", "-2"])
    with pytest.raises(SystemExit):
        main(["siegel", "eval", "--sigma", "x.json", "--prec", "10"])


def test_siegel_eval_walks_each_theta_row_once(capsys, tmp_path, monkeypatch):
    # chi_g and its norm come from one set of even thetas: every row from one pass
    from twoelem import siegel
    calls = []
    walk = siegel._pass
    monkeypatch.setattr(siegel, "_pass", lambda *args: calls.append(args[1]) or walk(*args))
    mat = tmp_path / "sigma.json"
    mat.write_text(json.dumps([[[0.2, 1.1], [0.1, 0.3]], [[0.1, 0.3], [-0.1, 0.9]]]))
    code, out, _ = run_cli(capsys, "siegel", "eval", "--sigma", str(mat), "--prec", "64")
    assert code == 0
    assert "petersson chi^8  5.96573191254951e-12" in out
    assert calls == [64]


def test_one_smith_normal_form_per_gram_matrix(capsys, monkeypatch):
    # the report, lattice-info and the graph's 43 rows share one form per Gram matrix
    from twoelem import lattices
    calls = {}
    snf = lattices.smith_normal_form

    def counted(mat):
        key = tuple(map(tuple, mat))
        calls[key] = calls.get(key, 0) + 1
        return snf(mat)

    monkeypatch.setattr(lattices, "_GROUPS", {})
    monkeypatch.setattr(lattices, "smith_normal_form", counted)
    expr = "U+U(2)+D4"
    for argv in (["borcherds", "report", expr], ["lattice-info", expr], ["export-graph"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert lattices.parse_lattice_expr(expr).gram in calls
    assert set(calls.values()) == {1}


def test_table_round_does_each_exact_step_once(capsys, monkeypatch):
    # the 43 reports and export-graph parse and eliminate each expression
    # once, and build f0, f1 and the slices once per k
    from twoelem import lattices, modforms
    from twoelem.k3graph import table1
    lattices.parse_lattice_expr.cache_clear()
    monkeypatch.setattr(lattices, "_GROUPS", {})
    monkeypatch.setattr(modforms, "_BUILDS", {})
    calls = {"_eliminate": 0, "_eta_quotient": 0}
    for module, name in ((lattices, "_eliminate"), (modforms, "_eta_quotient")):
        def counted(*args, fn=getattr(module, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    for row in table1():
        assert run_cli(capsys, "borcherds", "report", row.perp_expr, "--order", "4")[0] == 0
    assert run_cli(capsys, "export-graph", "--format", "json")[0] == 0
    assert calls == {"_eliminate": 56, "_eta_quotient": 22}


def test_report_builds_no_class_element(capsys, monkeypatch):
    # the report prints class coordinates from the index bits (l = 11 here),
    # lattice-info the characteristic class's coordinates, and `verify
    # series` restricts along U(N) by class index
    from twoelem import lattices

    def refuse(self, *args):
        raise AssertionError("DiscElement built")

    monkeypatch.setattr(lattices, "_GROUPS", {})
    monkeypatch.setattr(lattices.DiscElement, "__init__", refuse)
    code, out, _ = run_cli(capsys, "borcherds", "report", "A1++A1+" + "+A1" * 9)
    assert code == 0
    assert "  (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) q^-1: 1\n" in out
    code, out, _ = run_cli(capsys, "lattice-info", "A1++A1+" + "+A1" * 9)
    assert code == 0
    assert "char elt   (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)\n" in out
    code, out, _ = run_cli(capsys, "verify", "series")
    assert code == 0
    assert "OK: 5/5 checks passed" in out


# sha256 over the 43 `borcherds report ROW --order 4` texts, `export-graph`
# as dot and as JSON, and `lattice-info` on three rows, in that order: the
# table's text outputs, byte for byte
TABLE_OUTPUTS_SHA256 = "0c4b40ff2df069ac39bd899c49a3e37014b0da663220c05417522fc1a74c8f52"


def test_table_outputs_are_byte_identical(capsys):
    from twoelem.k3graph import table1
    argvs = [["borcherds", "report", row.perp_expr, "--order", "4"] for row in table1()]
    argvs += [["export-graph", "--format", fmt] for fmt in ("dot", "json")]
    argvs += [["lattice-info", expr]
              for expr in ("A1++A1++A1+A1+A1+A1+A1+A1+A1+A1+A1", "U+U(2)+D4", "U+A1++E8+A1")]
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        digest.update(out.encode())
    assert digest.hexdigest() == TABLE_OUTPUTS_SHA256
