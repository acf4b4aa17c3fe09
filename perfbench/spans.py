"""Span tracing of fbv's layers from outside the package.

The traced run replaces module attributes with timing wrappers. Each
function is wrapped at the attribute its caller resolves (for example
`fbv.pipeline.gmm_update`, not only `fbv.bgmodel.gmm_update`), so a nested
call opens a child span and self times add up. A target that a refactor
removed is recorded as missing with the reason; the metrics that depend on
it are then reported as missing instead of failing the run.

Per-bin entropy entry points (`RangeEncoder.encode`, `decode_unary_eg0`, ...)
are deliberately not wrapped: they run millions of times per clip and a
wrapper would multiply their cost. Their time stays inside the residual and
motion spans, and the entropy layer is measured by its own microbenchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (span name, module, attribute path) for every wrapped call site
TARGETS = (
    ("pipeline.encode", "fbv.pipeline", "encode"),
    ("pipeline.decode_bytes", "fbv.pipeline", "decode_bytes"),
    ("pipeline.decode_stream", "fbv.pipeline", "decode_stream"),
    ("pipeline.decode_frame", "fbv.pipeline", "decode_frame"),
    ("bgmodel.gmm_init", "fbv.pipeline", "gmm_init"),
    ("bgmodel.gmm_update", "fbv.pipeline", "gmm_update"),
    ("bgmodel.background_estimate", "fbv.pipeline", "background_estimate"),
    ("bgtemplate.TemplateChain.admit", "fbv.bgtemplate", "TemplateChain.admit"),
    ("bgtemplate.should_update", "fbv.bgtemplate", "should_update"),
    ("bgtemplate.encode_template", "fbv.bgtemplate", "encode_template"),
    ("bgtemplate.decode_template", "fbv.pipeline", "decode_template"),
    ("bgtemplate.interpolated_background", "fbv.pipeline", "interpolated_background"),
    ("metrics.ms_ssim", "fbv.pipeline", "ms_ssim"),
    ("metrics.ms_ssim", "fbv.bgtemplate", "ms_ssim"),
    ("metrics.psnr", "fbv.pipeline", "psnr"),
    ("metrics.laplacian_sharpness", "fbv.pipeline", "laplacian_sharpness"),
    ("metrics.rd_objective", "fbv.pipeline", "rd_objective"),
    ("metrics.fb_mixture", "fbv.pipeline", "fb_mixture"),
    ("fgregion.fp", "fbv.pipeline", "fp"),
    ("fgregion.combine_regions", "fbv.pipeline", "combine_regions"),
    ("motion.estimate_flow", "fbv.pipeline", "estimate_flow"),
    ("motion.encode_flow", "fbv.pipeline", "encode_flow"),
    ("motion.decode_flow", "fbv.pipeline", "decode_flow"),
    ("motion.warp", "fbv.pipeline", "warp"),
    ("motion.predict", "fbv.pipeline", "predict"),
    ("residual.encode_residual", "fbv.pipeline", "encode_residual"),
    ("residual.encode_residual", "fbv.bgtemplate", "encode_residual"),
    ("residual.decode_residual", "fbv.pipeline", "decode_residual"),
    ("residual.decode_residual", "fbv.bgtemplate", "decode_residual"),
    ("residual.reconstruct_foreground", "fbv.pipeline", "reconstruct_foreground"),
    ("container.write_stream", "fbv.pipeline", "write_stream"),
    ("container.read_stream", "fbv.pipeline", "read_stream"),
    ("container.read_stream", "fbv.container", "read_stream"),
    ("container.lookup", "fbv.pipeline", "lookup"),
    ("container.build_segments", "fbv.pipeline", "build_segments"),
    ("container.budget_of", "fbv.pipeline", "budget_of"),
    ("decode.composite", "fbv.pipeline", "composite"),
    ("decode.enhance", "fbv.pipeline", "enhance"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into the span list, -1 for a root


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = self.clock()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


@contextmanager
def installed(tracer: Tracer, targets=TARGETS):
    """Wrap every target for the duration of the block.

    Yields {span name: reason} for the span names none of whose call sites
    could be found; the originals are restored on exit.
    """
    restore = []
    reasons: dict[str, list[str]] = {}
    found: set[str] = set()
    try:
        for name, module, path in targets:
            try:
                owner, attr, fn = _resolve(module, path)
            except (ImportError, AttributeError) as exc:
                reasons.setdefault(name, []).append(f"{module}.{path}: {exc}")
                continue
            setattr(owner, attr, tracer.wrap(fn, name))
            restore.append((owner, attr, fn))
            found.add(name)
        yield {name: "; ".join(r) for name, r in reasons.items() if name not in found}
    finally:
        for owner, attr, fn in reversed(restore):
            setattr(owner, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def ancestors(spans: list[Span], idx: int):
    p = spans[idx].parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent


def root_of(spans: list[Span], idx: int) -> Span:
    root = spans[idx]
    for root in ancestors(spans, idx):
        pass
    return root
