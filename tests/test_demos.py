"""Each script under demos/ runs to completion and prints the same text."""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout, byte for byte; every demo is deterministic
STDOUT_SHA256 = {
    "01_lattice_invariants.py": "d34a1ec60e9a367c0d8984d46a696711bed70259a350ef1055c216ed543a1622",
    "02_vvform_and_lift.py": "4e6861d6e31edaaaee27244fb800499445a04270c661e4f156d4cace1e812c5a",
    "03_tube_product_and_walls.py":
        "7d893698bca1e4a38f30518b8e8c8090df2defad7283461a315fc8d06f804b2f",
    "04_siegel_degenerations.py": "ae0429e631a2f4e2e83a8b4856b078a996e85c94b344bfcb32d90b81c762c523",
    "05_transition_graph.py": "47a51b0413e79c1a37f0b4ec18f3dcafa31515a7fd50edea3d2073139be8a1bd",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:].decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
