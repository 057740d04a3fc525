"""Module-level imports: no module imports numpy, and the lattice, product,
CLI and graph layers do not load the Weil representation; only `lattices`
defines the exact linear-algebra helpers, `siegel` imports nothing from
`weil`, and no module imports a private name of `siegel`; at run time the
exact commands load neither numpy, mpmath nor `siegel`, and the Siegel
commands do not load numpy."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import twoelem

SRC = Path(twoelem.__file__).resolve().parent


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def _imports_weil(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "twoelem.weil" for a in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = node.module or ""
    if node.level == 0:
        return module == "twoelem.weil" or (
            module == "twoelem" and any(a.name == "weil" for a in node.names))
    return module == "weil" or (not module and any(a.name == "weil" for a in node.names))


def _module_level_importers(imports) -> set:
    """The stems of the modules whose module level has a node that `imports`."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # module level: the module body and any if/try block in it, not functions
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if imports(node):
                found.add(path.stem)
            elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
                stack.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_imports_numpy_at_module_level():
    assert _module_level_importers(_imports_numpy) == set()


def test_lattice_product_cli_and_graph_layers_do_not_import_weil():
    found = _module_level_importers(_imports_weil)
    assert not found & {"lattices", "borcherds", "cli", "k3graph"}


_EXACT_HELPERS = ("_dot", "_quad", "_clear", "_pack", "_fwht")


def test_one_exact_linear_algebra_layer():
    # every def of these names, nested ones included, and of `_pack`'s other name `_packed`
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in _EXACT_HELPERS + ("_packed",):
                defined.setdefault(node.name, []).append(path.stem)
    assert defined == {name: ["lattices"] for name in _EXACT_HELPERS}
    siegel = ast.parse((SRC / "siegel.py").read_text())
    assert not any(_imports_weil(node) for node in ast.walk(siegel))


def test_no_module_imports_private_siegel_names():
    # the other layers reach the Siegel numerics and the graph layer through
    # their public entry points
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    (node.level and node.module in ("siegel", "k3graph"))
                    or (not node.level and node.module in ("twoelem.siegel", "twoelem.k3graph"))):
                found += [(path.stem, a.name) for a in node.names if a.name.startswith("_")]
    assert found == []


_COMMANDS = """
import contextlib, io, json, sys
import twoelem, twoelem.cli

def run(*argvs):
    codes = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(twoelem.cli.main(argv))
    return codes

codes = run(["lattice-info", "U+U(2)+E8(2)"],
            ["borcherds", "report", "U+U(2)+E8(2)", "--order", "4"],
            ["qseries", "f0"],
            ["export-graph", "--format", "json"])
loaded = sorted(m for m in ("mpmath", "numpy", "twoelem.siegel") if m in sys.modules)
from twoelem import SiegelPoint, chi_g
try:
    twoelem.no_such_name
    missing = "resolved"
except AttributeError:
    missing = "AttributeError"
siegel_codes = run(["siegel", "eval", "--sigma", sys.argv[1], "--prec", "53"],
                   ["verify", "siegel"])
print(json.dumps({"codes": codes, "loaded": loaded, "missing": missing,
                  "lazy": [SiegelPoint.__module__, chi_g.__module__],
                  "siegel_codes": siegel_codes, "numpy_after_siegel": "numpy" in sys.modules}))
"""


def test_exact_commands_load_neither_numpy_nor_siegel(tmp_path):
    # nor mpmath: only the numeric evaluators import it, when they run
    sigma = tmp_path / "sigma.json"
    sigma.write_text(json.dumps([[[0.3, 1.1], [-0.2, 0.4]], [[-0.2, 0.4], [0.1, 1.3]]]))
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _COMMANDS, str(sigma)], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    assert result["loaded"] == []
    # the Siegel names resolve on first access, unknown names still fail
    assert result["lazy"] == ["twoelem.siegel", "twoelem.siegel"]
    assert result["missing"] == "AttributeError"
    # the 53-bit theta rows and the siegel suite run without numpy too
    assert result["siegel_codes"] == [0, 0]
    assert result["numpy_after_siegel"] is False
