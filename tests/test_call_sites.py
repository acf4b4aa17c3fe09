"""The benchmark's traced run wraps fbv by name: every name it wraps must exist.

perfbench/spans.py times each layer by replacing module attributes listed in
its TARGETS table. A refactor that drops or renames one of those names would
otherwise only show up as a "missing" span in a traced run.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# sites the table still lists although the code they timed is gone
DEAD_SITES = {
    ("fbv.bgtemplate", "should_update"),
    ("fbv.bgtemplate", "ms_ssim"),
    ("fbv.pipeline", "psnr"),
    ("fbv.pipeline", "laplacian_sharpness"),
    ("fbv.pipeline", "rd_objective"),
    ("fbv.pipeline", "fb_mixture"),
    ("fbv.pipeline", "predict"),
    ("fbv.pipeline", "lookup"),
    ("fbv.pipeline", "build_segments"),
    ("fbv.pipeline", "decode_stream"),
    ("fbv.pipeline", "reconstruct_foreground"),
}


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_except_the_known_dead_sites(monkeypatch):
    spans = _load_spans(monkeypatch)
    unresolved = set()
    for _, module, path in spans.TARGETS:
        try:
            spans._resolve(module, path)
        except (ImportError, AttributeError):
            unresolved.add((module, path))
    assert unresolved == DEAD_SITES
