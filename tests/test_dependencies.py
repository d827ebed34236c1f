"""The package imports only numpy and the standard library: scipy is a test and
benchmark dependency, not a runtime one."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_package_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import json, sys\n"
            "import prunepose, prunepose.cli, prunepose.bench\n"
            "print(json.dumps([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
