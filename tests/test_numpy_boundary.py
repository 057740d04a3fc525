"""Module-level imports: the exact layers stay in Python ints, and the
lattice, product, CLI and graph layers do not load the Weil representation."""
import ast
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


def test_only_weil_and_siegel_import_numpy_at_module_level():
    assert _module_level_importers(_imports_numpy) == {"weil", "siegel"}


def test_lattice_product_cli_and_graph_layers_do_not_import_weil():
    found = _module_level_importers(_imports_weil)
    assert not found & {"lattices", "borcherds", "cli", "k3graph"}
