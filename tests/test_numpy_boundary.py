"""Which modules import numpy: the exact layers stay in Python ints."""
import ast
from pathlib import Path

import twoelem

SRC = Path(twoelem.__file__).resolve().parent


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_only_weil_and_siegel_import_numpy_at_module_level():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        # module level: the module body and any if/try block in it, not functions
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if _imports_numpy(node):
                found.add(path.stem)
            elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
                stack.extend(ast.iter_child_nodes(node))
    assert found == {"weil", "siegel"}
