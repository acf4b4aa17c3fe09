"""Scoring decoded output against its source, and the report formats.

The codec never scores itself: encode only encodes and decode only decodes.
score measures a decoded sequence against the video it came from (PSNR and
MS-SSIM per frame, rate, sharpness and the foreground/background MS-SSIM
mixture); rd_sweep encodes, decodes and scores once per quality point. This
is the one module that knows the report formats: the per-frame quality CSV,
the one-line JSON summary and the sweep CSV.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .container import read_stream
from .core import ConfigError, VideoSequence
from .fgregion import RegionSet
from .metrics import bpp, fb_mixture, laplacian_sharpness, ms_ssim, psnr
from .pipeline import EncoderConfig, decode_bytes, encode, ladder_point
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


def score(reference: VideoSequence, data: bytes, decoded: VideoSequence) -> QualityReport:
    """Score the decode of the container data against its source video.

    The foreground score averages luma MS-SSIM over frames with regions,
    computed with off-mask pixels blanked in both images; the background
    score blanks the mask instead. Their mixture uses the cross-weighting
    rule with the mean mask fraction as the foreground area ratio. A stream
    with no foreground reports the background score alone. A reference whose
    frame count or geometry differs from the stream's raises ConfigError.
    """
    stream = read_stream(data)
    h, w, n = stream.header.height, stream.header.width, stream.header.frame_count
    if (len(reference.frames), reference.width, reference.height) != (n, w, h):
        raise ConfigError(
            f"reference is {len(reference.frames)} frames of {reference.width}x"
            f"{reference.height}, the stream {n} frames of {w}x{h}")
    masks = {f.frame_no: RegionSet(f.regions, h, w).mask for f in stream.foregrounds}
    psnr_pf, ssim_pf, m_f, m_b, sharp = [], [], [], [], []
    area = 0.0
    for t, (src, rec) in enumerate(zip(reference.frames, decoded.frames)):
        psnr_pf.append(psnr(src, rec))
        ssim_pf.append(ms_ssim(src, rec))
        sharp.append(laplacian_sharpness(rec))
        mask = masks.get(t)
        if mask is None:
            m_b.append(ssim_pf[-1])
            continue
        area += mask.mean()
        m_f.append(ms_ssim(np.where(mask, src.planes, 0), np.where(mask, rec.planes, 0)))
        m_b.append(ms_ssim(np.where(mask, 0, src.planes), np.where(mask, 0, rec.planes)))
    r_f = area / n
    mix = float(np.mean(m_b))
    if m_f:
        mix = fb_mixture(float(np.mean(m_f)), mix, r_f, 1.0 - r_f)
    return QualityReport(
        psnr_per_frame=tuple(psnr_pf), ms_ssim_per_frame=tuple(ssim_pf),
        bpp=bpp(len(data), w, h, n), fb_mixture=mix, sharpness=float(np.mean(sharp)))


def quality_csv(report: QualityReport) -> str:
    """One row per frame plus summary rows; the CLI report file format."""
    lines = ["frame,psnr_db,ms_ssim"]
    for t, (p, s) in enumerate(zip(report.psnr_per_frame,
                                   report.ms_ssim_per_frame)):
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
        data = encode(video, replace(config, delta_q=q.delta_q, levels=q.levels)).data
        s = score(video, data, decode_bytes(data).video)
        rows.append(RdPoint(q.delta_q, q.levels, s.bpp, s.psnr_mean,
                            s.ms_ssim_mean, s.fb_mixture))
    return rows


def sweep_csv(rows) -> str:
    out = ["delta_q,levels,bpp,psnr_db,ms_ssim,fb_mixture"]
    for r in rows:
        out.append(f"{r.delta_q:g},{r.levels},{r.bpp:.6f},{r.psnr_db:.4f},"
                   f"{r.ms_ssim:.6f},{r.fb_mixture:.6f}")
    return "\n".join(out) + "\n"
