"""What importing a module loads: the wire format and the decoder's layers need
numpy alone, and the package root loads none of its modules."""

import json
import os
import subprocess
import sys
from pathlib import Path

from fbv import core, fgregion

SRC = str(Path(__file__).resolve().parents[1] / "src")

# modules that neither extract regions nor score, so they need no scipy
NUMPY_ONLY = ("core", "entropy", "residual", "container", "bgtemplate", "motion", "decode")


def _modules_after(imports: str) -> list[str]:
    """The names in sys.modules once a fresh interpreter has run imports."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    code = f"import json, sys\n{imports}\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_numpy_only_modules_load_no_scipy_and_no_region_extraction():
    loaded = _modules_after("import " + ", ".join(f"fbv.{name}" for name in NUMPY_ONLY))
    assert [m for m in loaded if m.split(".")[0] == "scipy" or m == "fbv.fgregion"] == []


def test_package_root_loads_no_module():
    assert [m for m in _modules_after("import fbv") if m.startswith("fbv.")] == []


def test_region_sets_keep_their_old_address():
    assert fgregion.RegionSet is core.RegionSet
