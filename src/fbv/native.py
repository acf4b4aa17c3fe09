"""Build and load the compiled residual coder, `_rc.c`.

load() returns the extension module, or None where it cannot be had. The
module lives in the per-user cache directory ($XDG_CACHE_HOME/fbv, else
~/.cache/fbv), never in the source tree, under a name that carries the
SHA-256 of the C source and this interpreter's extension suffix; an edited
source or another Python builds its own. A missing module is built with one
`gcc -O2 -shared -fPIC` call into a temporary name, then renamed into place,
so concurrent builders never load a partial file. Any failure (no compiler,
no Python headers, an unwritable cache, an import error) returns None, and
the Python coder runs instead.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_rc.c")
NAME = "fbv._rc"


def _cache_dir() -> Path:
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "fbv"


def _build(source: bytes, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run(["gcc", "-O2", "-shared", "-fPIC", "-I", sysconfig.get_paths()["include"],
                        "-x", "c", "-", "-o", tmp], input=source, capture_output=True,
                       check=True, timeout=300)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load():
    """The compiled coder module, built first if the cache lacks it; None on any failure."""
    try:
        source = SOURCE.read_bytes()
        target = _cache_dir() / (f"_rc-{hashlib.sha256(source).hexdigest()}"
                                 + sysconfig.get_config_var("EXT_SUFFIX"))
        if not target.exists():
            _build(source, target)
        spec = importlib.util.spec_from_file_location(NAME, target)
        module = importlib.util.module_from_spec(spec)
        sys.modules[NAME] = module
        spec.loader.exec_module(module)
        return module
    except Exception:
        sys.modules.pop(NAME, None)
        return None
