"""Per-layer metrics derived from one traced lifecycle.

The traced run opens one root span per benchmark phase: `bench.encode` (one
`encode` call), `bench.decode` (one `decode_bytes`), `bench.open` (the
`read_stream` behind the seeks) and one `bench.seek` per `decode_frame`.
Every metric below is computed from the spans under those roots, from the
stream itself, or from the entropy microbenchmark. A metric whose spans
could not be installed is reported with value None and the reason.
"""

from __future__ import annotations

import statistics

from spans import Span, ancestors, root_of, self_times

LAYERS = ("bgmodel", "bgtemplate", "metrics", "fgregion", "motion", "residual",
          "container", "decode")


class _View:
    """Span queries shared by the metric definitions."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self.selfs = self_times(spans)
        self.phase = [root_of(spans, i).name for i in range(len(spans))]

    def pick(self, name: str, phase: str | None = None, keep=None) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s.name == name and (phase is None or self.phase[i] == phase)
                and (keep is None or keep(i))]

    def dur(self, i: int) -> float:
        return self.spans[i].end - self.spans[i].start

    def mean_ms(self, idx: list[int]) -> float:
        return 1000.0 * statistics.fmean(self.dur(i) for i in idx) if idx else 0.0

    def total_s(self, idx: list[int]) -> float:
        return sum(self.dur(i) for i in idx)

    def under(self, i: int, prefix: str) -> bool:
        return any(a.name.startswith(prefix) for a in ancestors(self.spans, i))

    def parent_is(self, i: int, prefix: str) -> bool:
        p = self.spans[i].parent
        return p >= 0 and self.spans[p].name.startswith(prefix)

    def layer_self_s(self, layer: str, phase: str | None = None) -> float:
        return sum(self.selfs[i] for i, s in enumerate(self.spans)
                   if s.name.startswith(layer + ".")
                   and (phase is None or self.phase[i] == phase))


def _per_seek(count: int, seeks: int) -> float:
    return count / seeks if seeks else 0.0


def layer_metrics(spans: list[Span], missing: dict[str, str], stream, seeks: int,
                  entropy_ns: dict[str, float], overhead_pct: float) -> dict:
    """{metric: {"value", "unit"}} for every per-layer metric of the benchmark."""
    v = _View(spans)
    enc, dec, seek = "bench.encode", "bench.decode", "bench.seek"
    gate = lambda i: not v.under(i, "pipeline.decode_bytes")
    scoring = lambda i: (v.under(i, "pipeline.decode_bytes")
                         and not v.under(i, "metrics."))
    foreground = lambda i: not v.parent_is(i, "bgtemplate.")
    scoring_names = ("metrics.ms_ssim", "metrics.psnr", "metrics.laplacian_sharpness",
                     "metrics.rd_objective", "metrics.fb_mixture")

    # name: (unit, span names it needs, value function)
    table = {
        "bgmodel.gmm_update_ms": ("ms", ["bgmodel.gmm_update"],
                                  lambda: v.mean_ms(v.pick("bgmodel.gmm_update", enc))),
        "bgmodel.gmm_init_s": ("s", ["bgmodel.gmm_init"],
                               lambda: v.total_s(v.pick("bgmodel.gmm_init", enc))),
        "metrics.gate_ms_ssim_ms": ("ms", ["metrics.ms_ssim"],
                                    lambda: v.mean_ms(v.pick("metrics.ms_ssim", enc, gate))),
        "metrics.gate_ms_ssim_calls": ("count", ["metrics.ms_ssim"],
                                       lambda: len(v.pick("metrics.ms_ssim", enc, gate))),
        "metrics.scoring_s": ("s", ["metrics.ms_ssim"], lambda: sum(
            v.total_s(v.pick(n, enc, scoring)) for n in scoring_names)),
        "fgregion.extract_ms": ("ms", ["fgregion.fp"],
                                lambda: v.mean_ms(v.pick("fgregion.fp", enc))),
        "fgregion.regions": ("count", [],
                             lambda: sum(len(f.regions) for f in stream.foregrounds)),
        "motion.estimate_flow_ms": ("ms", ["motion.estimate_flow"],
                                    lambda: v.mean_ms(v.pick("motion.estimate_flow", enc))),
        "motion.warp_ms": ("ms", ["motion.warp"], lambda: v.mean_ms(v.pick("motion.warp"))),
        "motion.flow_bytes": ("B", [], lambda: sum(len(f.flow) for f in stream.foregrounds)),
        "residual.encode_ms": ("ms", ["residual.encode_residual"], lambda: v.mean_ms(
            v.pick("residual.encode_residual", enc, foreground))),
        "residual.decode_ms": ("ms", ["residual.decode_residual"], lambda: v.mean_ms(
            v.pick("residual.decode_residual", dec, foreground))),
        "residual.bytes": ("B", [], lambda: sum(len(f.residual) for f in stream.foregrounds)),
        "residual.records_decoded_per_seek": ("count", ["residual.decode_residual"],
                                              lambda: _per_seek(len(v.pick(
                                                  "residual.decode_residual", seek,
                                                  foreground)), seeks)),
        "bgtemplate.encode_template_ms": ("ms", ["bgtemplate.encode_template"], lambda: v.mean_ms(
            v.pick("bgtemplate.encode_template", enc))),
        "bgtemplate.templates": ("count", [], lambda: len(stream.templates)),
        "bgtemplate.decode_template_ms": ("ms", ["bgtemplate.decode_template"], lambda: v.mean_ms(
            v.pick("bgtemplate.decode_template", dec))),
        "bgtemplate.decode_calls_per_seek": ("count", ["bgtemplate.decode_template"],
                                             lambda: _per_seek(len(v.pick(
                                                 "bgtemplate.decode_template", seek)), seeks)),
        "bgtemplate.interpolate_ms": ("ms", ["bgtemplate.interpolated_background"],
                                      lambda: v.mean_ms(v.pick(
                                          "bgtemplate.interpolated_background", dec))),
        "entropy.encode_ns_per_bin": ("ns/bin", [], lambda: entropy_ns["encode"]),
        "entropy.decode_ns_per_bin": ("ns/bin", [], lambda: entropy_ns["decode"]),
        "container.write_ms": ("ms", ["container.write_stream"],
                               lambda: v.mean_ms(v.pick("container.write_stream"))),
        "container.read_ms": ("ms", ["container.read_stream"],
                              lambda: v.mean_ms(v.pick("container.read_stream"))),
        "container.template_bytes": ("B", [],
                                     lambda: sum(len(t.residual) for t in stream.templates)),
        "decode.composite_ms": ("ms", ["decode.composite"],
                                lambda: v.mean_ms(v.pick("decode.composite", dec))),
        "decode.enhance_ms": ("ms", ["decode.enhance"],
                              lambda: v.mean_ms(v.pick("decode.enhance", dec))),
        "pipeline.encode_self_s": ("s", ["pipeline.encode"],
                                   lambda: v.layer_self_s("pipeline", enc)),
        "pipeline.decode_self_s": ("s", ["pipeline.decode_bytes"],
                                   lambda: v.layer_self_s("pipeline", dec)),
    }
    for layer in LAYERS:
        table[f"{layer}.self_s"] = ("s", [], lambda layer=layer: v.layer_self_s(layer))
    table["trace.overhead_pct"] = ("%", [], lambda: overhead_pct)

    out = {}
    for name, (unit, needs, value) in table.items():
        gone = [f"{n}: {missing[n]}" for n in needs if n in missing]
        if gone:
            out[name] = {"value": None, "unit": unit, "missing": "; ".join(gone)}
            continue
        try:
            out[name] = {"value": value(), "unit": unit}
        except (AttributeError, KeyError, TypeError) as exc:
            out[name] = {"value": None, "unit": unit, "missing": f"{type(exc).__name__}: {exc}"}
    return out
