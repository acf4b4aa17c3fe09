"""Scoring decoded output against its source, and the report formats.

The codec never scores itself: encode only encodes and decode only decodes.
score measures a decode walk, frame by frame, against the video it came from
(PSNR and MS-SSIM per frame, rate, sharpness and the foreground/background
MS-SSIM mixture); rd_sweep encodes and scores once per quality point. This
is the one module that knows the report formats: the per-frame quality CSV,
the one-line JSON summary, the sweep CSV and the stream dump of analyze_bytes.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .container import FbvStream, budget_of, foreground_payload, read_stream, template_payload
from .core import ConfigError, Frame, RegionSet, VideoSequence
from .metrics import bpp, fb_mixture, laplacian_sharpness, ms_ssim, psnr
from .pipeline import EncoderConfig, encode, ladder_point, output_frames
from .residual import QualityPoint


@dataclass(frozen=True)
class QualityReport:
    """Per-sequence quality summary of a decoded stream against its source."""

    psnr_per_frame: tuple[float, ...]
    ms_ssim_per_frame: tuple[float, ...]
    bpp: float
    fb_mixture: float
    sharpness: float

    @property
    def psnr_mean(self) -> float:
        return float(np.mean(self.psnr_per_frame)) if self.psnr_per_frame else 0.0

    @property
    def ms_ssim_mean(self) -> float:
        return float(np.mean(self.ms_ssim_per_frame)) if self.ms_ssim_per_frame else 0.0


class Scorer:
    """Scores a decode walk against the stream's source as the walk yields it.

    The foreground score averages luma MS-SSIM over frames with regions, computed
    with off-mask pixels blanked in both images; the background score blanks the
    mask instead. Their mixture uses the cross-weighting rule with the mean mask
    fraction as the foreground area ratio; a stream with no foreground reports the
    background score alone. A reference that does not fit the stream raises
    ConfigError; a walk of another length than the stream's raises ValueError.
    """

    report: QualityReport       # set once frames has yielded the whole walk

    def __init__(self, reference: VideoSequence, stream: FbvStream, nbytes: int) -> None:
        h, w, n = stream.header.height, stream.header.width, stream.header.frame_count
        if (len(reference.frames), reference.width, reference.height) != (n, w, h):
            raise ConfigError(f"reference is {len(reference.frames)} frames of {reference.width}x"
                              f"{reference.height}, the stream {n} frames of {w}x{h}")
        self.reference, self.bpp = reference.frames, bpp(nbytes, w, h, n)

    def frames(self, walk: Iterable[tuple[Frame, RegionSet | None]]) -> Iterator[Frame]:
        """Yield the frame of each (frame, regions or None) of walk once it is scored."""
        psnr_pf, ssim_pf, m_f, m_b, sharp, area = [], [], [], [], [], 0.0
        for src, (rec, regions) in zip(self.reference, walk, strict=True):
            psnr_pf.append(psnr(src, rec))
            ssim_pf.append(ms_ssim(src, rec))
            sharp.append(laplacian_sharpness(rec))
            if regions is None:
                m_b.append(ssim_pf[-1])
            else:
                mask = regions.mask
                area += mask.mean()
                m_f.append(ms_ssim(np.where(mask, src.planes, 0), np.where(mask, rec.planes, 0)))
                m_b.append(ms_ssim(np.where(mask, 0, src.planes), np.where(mask, 0, rec.planes)))
            yield rec
        r_f, mix = area / len(psnr_pf), float(np.mean(m_b))
        if m_f:
            mix = fb_mixture(float(np.mean(m_f)), mix, r_f, 1.0 - r_f)
        self.report = QualityReport(tuple(psnr_pf), tuple(ssim_pf), self.bpp, mix,
                                    float(np.mean(sharp)))


def score(reference: VideoSequence, stream: FbvStream, nbytes: int,
          frames: Iterable[tuple[Frame, RegionSet | None]]) -> QualityReport:
    """Score frames, the decode walk of stream (nbytes long), against its source."""
    scorer = Scorer(reference, stream, nbytes)
    for _ in scorer.frames(frames):
        pass
    return scorer.report


def quality_csv(report: QualityReport) -> str:
    """One row per frame plus summary rows; the CLI report file format."""
    lines = ["frame,psnr_db,ms_ssim"]
    for t, (p, s) in enumerate(zip(report.psnr_per_frame, report.ms_ssim_per_frame)):
        lines.append(f"{t},{p:.4f},{s:.6f}")
    lines.append(f"summary,bpp,{report.bpp:.6f}")
    lines.append(f"summary,fb_mixture,{report.fb_mixture:.6f}")
    lines.append(f"summary,sharpness,{report.sharpness:.4f}")
    return "\n".join(lines) + "\n"


def summary_json(report: QualityReport) -> str:
    """Single-line JSON of the sequence-level numbers."""
    return json.dumps({
        "frames": len(report.psnr_per_frame),
        "psnr_db": round(report.psnr_mean, 4),
        "ms_ssim": round(report.ms_ssim_mean, 6),
        "bpp": round(report.bpp, 6),
        "fb_mixture": round(report.fb_mixture, 6),
        "sharpness": round(report.sharpness, 4),
    })


@dataclass(frozen=True)
class RdPoint:
    delta_q: float
    levels: int
    bpp: float
    psnr_db: float
    ms_ssim: float
    fb_mixture: float


def rd_sweep(video: VideoSequence, points,
             config: EncoderConfig = EncoderConfig()) -> list[RdPoint]:
    """Encode/decode/score once per quality point (needs at least two)."""
    resolved = [pt if isinstance(pt, QualityPoint) else ladder_point(pt) for pt in points]
    if len(resolved) < 2:
        raise ValueError("a sweep needs at least two quality points")
    rows = []
    for q in resolved:
        result = encode(video, replace(config, delta_q=q.delta_q, levels=q.levels))
        s = score(video, result.stream, len(result.data), output_frames(result.stream))
        rows.append(RdPoint(q.delta_q, q.levels, s.bpp, s.psnr_mean, s.ms_ssim_mean, s.fb_mixture))
    return rows


def sweep_csv(rows) -> str:
    out = ["delta_q,levels,bpp,psnr_db,ms_ssim,fb_mixture"]
    for r in rows:
        out.append(f"{r.delta_q:g},{r.levels},{r.bpp:.6f},{r.psnr_db:.4f},"
                   f"{r.ms_ssim:.6f},{r.fb_mixture:.6f}")
    return "\n".join(out) + "\n"


def analyze_bytes(data: bytes) -> str:
    """Human-readable stream dump: header, records, indexes, bit split, bpp."""
    stream = read_stream(data)
    h = stream.header
    budget = budget_of(stream)
    rate = bpp(len(data), h.width, h.height, h.frame_count)
    br, fr, fmv = budget.ratios
    lines: list[str] = []
    p = lines.append
    p(f"container: {len(data)} bytes, {h.frame_count} frames, "
      f"{h.width}x{h.height} @ {h.fps_num}/{h.fps_den} fps")
    p(f"quality: delta={h.quality.delta_q:g} levels={h.levels}  "
      f"gate gamma={h.gamma:g}  flags={h.flags}")
    p("")
    p("records:")
    p("  kind        frame  payload_bytes  detail")
    rows = sorted([(t.frame_no, 0, t) for t in stream.templates]
                  + [(f.frame_no, 1, f) for f in stream.foregrounds])
    for _, kind, rec in rows:
        if kind == 0:
            tag = "anchor" if rec.anchor else "chained"
            p(f"  template  {rec.frame_no:7d}  {len(template_payload(rec)):13d}  {tag}")
        else:
            p(f"  fgframe   {rec.frame_no:7d}  {len(foreground_payload(rec)):13d}  "
              f"{len(rec.regions)} region(s), flow {len(rec.flow)} B, "
              f"residual {len(rec.residual)} B")
    p("")
    p(f"template index: {[t.frame_no for t in stream.templates]}")
    p(f"foreground index: {[f.frame_no for f in stream.foregrounds]}")
    p(f"segments: {list(stream.segments)}")
    p("")
    p("bit allocation (entropy payloads):")
    p(f"  BR  background residual  {budget.bits_bg_residual:10d} bits  {br:7.4f}")
    p(f"  FR  foreground residual  {budget.bits_fg_residual:10d} bits  {fr:7.4f}")
    p(f"  FMV foreground motion    {budget.bits_fg_motion:10d} bits  {fmv:7.4f}")
    p(f"bpp: {rate:.6f}")
    return "\n".join(lines) + "\n"
