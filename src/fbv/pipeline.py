"""End-to-end encoder and decoder orchestration.

The encoder runs two passes over the input. Pass one trains the pixel
mixture model on the first init_frames frames and admits the post-training
background estimate as the first (anchor) template at frame 0. Pass two
revisits every frame from 0 with the model state carried forward: each
frame is separated into background estimate plus foreground points, the
estimate is gated against the current template (luma MS-SSIM below gamma
admits a new template), the points grow into grid-aligned regions, and the
union of the previous and current frame's regions is coded by block flow
plus a transformed residual against the motion-compensated previous
*reconstructed* foreground. Frames with no regions fall into background
segments and reset the foreground reference, so every contiguous run of
foreground records starts from a zero reference.

The decoder mirrors the loop exactly. Backgrounds come from linear
interpolation between the bracketing templates, foregrounds from the same
closed-loop warp + residual chain, composited through the region mask and
optionally feathered. Feathering never enters the prediction loop, so the
pre-enhancement reconstructions on both sides are bit-identical. Both
directions are pure functions of (bytes, options): encoding the same input
twice yields byte-identical streams.

The encoder's closed-loop reconstruction, the full decode and a single-frame
seek assemble frames through the same helpers: _bracket picks the templates
around a frame and _composites interpolates and composites. Both decode
entry points share one Decoder per stream, which decodes each template once
and keeps it while the stream lives; a seek (decode_frame) then replays only
the foreground run that ends at the frame.
"""

from __future__ import annotations

import io
import time
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields

import numpy as np

from .bgmodel import GmmParams, background_estimate, gmm_init, gmm_update
from .bgtemplate import (ANCHOR_INTERVAL, DEFAULT_GAMMA, BackgroundTemplate, TemplateChain,
                         decode_template, interpolated_background)
from .container import (GAMMA_SCALE, ContainerError, FbvStream, ForegroundRecord,
                        StreamHeader, TemplateRecord, build_segments, budget_of,
                        foreground_payload, read_stream, template_payload, write_stream)
from .core import ConfigError, Frame, VideoSequence
from .decode import CompositeFrame, composite, enhance
from .entropy import BitBudgetReport
from .fgregion import RegionSet, combine_regions, fp
from .metrics import bpp, ms_ssim
from .motion import decode_flow, encode_flow, estimate_flow, warp
from .residual import QualityPoint, decode_residual, encode_residual, \
    reconstruct_foreground

# rate ladder used by the CLI and the sweeps: 1 coarsest .. 4 finest
QUALITY_LADDER = {
    1: QualityPoint(delta_q=8.0, levels=1),
    2: QualityPoint(delta_q=4.0, levels=2),
    3: QualityPoint(delta_q=2.0, levels=3),
    4: QualityPoint(delta_q=1.0, levels=4),
}


def ladder_point(point: int) -> QualityPoint:
    """The quality point at a rate ladder position."""
    if point not in QUALITY_LADDER:
        raise ValueError(f"unknown ladder point {point!r}: "
                         f"quality point must be one of {sorted(QUALITY_LADDER)}")
    return QUALITY_LADDER[point]


@dataclass(frozen=True)
class EncoderConfig:
    """Every encoder knob, flat so each field maps to one CLI flag/config key.

    The quality point and the gate threshold are serialized into the stream
    header; the learning rate, the training length and the anchor cadence
    only shape the encoder's choices and never need to travel. The mixture
    and region-cleanup constants are fixed in bgmodel and fgregion.
    """

    gamma: float = DEFAULT_GAMMA
    delta_q: float = 8.0
    levels: int = 1
    learning_rate: float = 0.005
    init_frames: int = 200
    anchor_interval: int = ANCHOR_INTERVAL

    def __post_init__(self) -> None:
        # constructing each part checks its fields, so bad values fail here
        self.quality
        self.gmm_params
        TemplateChain(self.gamma, self.anchor_interval)
        if not (0 < round(self.gamma * GAMMA_SCALE) < GAMMA_SCALE):
            raise ValueError(f"gamma must stay inside (0, 1) at 1/{GAMMA_SCALE} precision")

    @property
    def quality(self) -> QualityPoint:
        return QualityPoint(self.delta_q, self.levels)

    @property
    def gmm_params(self) -> GmmParams:
        return GmmParams(learning_rate=self.learning_rate, init_frames=self.init_frames)


@dataclass(frozen=True)
class TimingReport:
    """Mean milliseconds per frame for each encode stage, plus the wall total.

    The motion, compensation and residual rows are sub-stages of the
    foreground row, so the encode total bounds separation + background +
    foreground (the exclusive stages). DecodeResult times the decode.
    """

    separation_ms: float
    background_ms: float
    foreground_ms: float
    motion_ms: float
    compensation_ms: float
    residual_ms: float
    encode_total_s: float
    frame_count: int

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError("timings must be nonnegative")

    def rows(self) -> list[tuple[str, float]]:
        return [
            ("separation", self.separation_ms),
            ("background compression", self.background_ms),
            ("foreground compression", self.foreground_ms),
            ("motion estimation", self.motion_ms),
            ("motion compensation", self.compensation_ms),
            ("residual codec", self.residual_ms),
        ]


@dataclass(frozen=True)
class EncodeResult:
    data: bytes
    stream: FbvStream
    budget: BitBudgetReport
    timing: TimingReport
    gate_trace: tuple[float, ...]       # per-frame MS-SSIM vs current template
    recon: tuple[Frame, ...]            # closed-loop pre-enhancement frames


@dataclass(frozen=True)
class DecodeResult:
    video: VideoSequence
    pre_enhance: tuple[Frame, ...]
    decode_total_s: float


def _zero_frame(h: int, w: int, index: int) -> Frame:
    return Frame(np.zeros((3, h, w), dtype=np.uint8), index)


def _code_foreground(ref: Frame, cur: Frame, used: RegionSet, q: QualityPoint,
                     clock: dict | None = None):
    """Flow + residual coding of one frame's regions against ref (closed loop).

    Returns (flow_bytes, residual_bytes, reconstructed fg Frame).
    """
    t0 = time.perf_counter()
    flow = estimate_flow(ref, cur, used)
    flow_bytes = encode_flow(flow)
    t1 = time.perf_counter()
    warped = warp(ref, flow, used)
    t2 = time.perf_counter()
    patches = [cur.planes[:, r.y:r.y2, r.x:r.x2].astype(np.int64)
               - warped.planes[:, r.y:r.y2, r.x:r.x2].astype(np.int64)
               for r in used.regions]
    res_bytes, decoded = encode_residual(patches, q)
    rec = _assemble_foreground(warped, decoded, used, cur.frame_index)
    t3 = time.perf_counter()
    if clock is not None:
        clock["motion"] += t1 - t0
        clock["compensation"] += t2 - t1
        clock["residual"] += t3 - t2
    return flow_bytes, res_bytes, rec


def _assemble_foreground(warped: Frame, decoded_patches, used: RegionSet,
                         index: int) -> Frame:
    res_plane = np.zeros_like(warped.planes, dtype=np.int64)
    for r, patch in zip(used.regions, decoded_patches):
        res_plane[:, r.y:r.y2, r.x:r.x2] = patch
    planes = reconstruct_foreground(warped.planes, res_plane, used.mask)
    return Frame(planes, index)


def encode(video: VideoSequence, config: EncoderConfig = EncoderConfig()) -> EncodeResult:
    """Compress a sequence into a container plus reports; fully deterministic.

    Quality is scored by fbv.evaluate.score on decode_bytes(result.data).
    """
    frames = video.frames
    n = len(frames)
    h, w = frames[0].height, frames[0].width
    if n < config.init_frames:
        raise ConfigError(
            f"sequence has {n} frames but model initialization needs "
            f"{config.init_frames}")
    q = config.quality
    gamma_fp = round(config.gamma * GAMMA_SCALE)
    clock = {"separation": 0.0, "background": 0.0, "foreground": 0.0,
             "motion": 0.0, "compensation": 0.0, "residual": 0.0}
    t_start = time.perf_counter()

    # pass one: train the separator, then seed the template chain at frame 0
    t0 = time.perf_counter()
    state = gmm_init(frames[:config.init_frames], config.gmm_params)
    clock["separation"] += time.perf_counter() - t0
    t0 = time.perf_counter()
    # gate against the gamma the header records, not the unrounded setting
    chain = TemplateChain(gamma=gamma_fp / GAMMA_SCALE, anchor_interval=config.anchor_interval)
    chain.admit(Frame(background_estimate(state).planes, 0), score=0.0)
    clock["background"] += time.perf_counter() - t0

    # pass two: code every frame with the trained state carried forward
    gate_trace: list[float] = []
    fg_records: list[ForegroundRecord] = []
    fg_recon: dict[int, tuple[RegionSet, Frame]] = {}
    prev_fg: Frame | None = None
    rs_prev = RegionSet((), h, w)
    for t in range(n):
        t0 = time.perf_counter()
        state, sep = gmm_update(state, frames[t])
        t1 = time.perf_counter()
        candidate = Frame(sep.background.planes, t)
        score = ms_ssim(chain.current.image, candidate)
        gate_trace.append(score)
        if t > chain.current.frame_index:    # the anchor already holds frame 0
            chain.admit(candidate, score)
        t2 = time.perf_counter()
        rs_cur = fp(frames[t], sep.points)
        used = combine_regions(rs_prev, rs_cur)
        if used.regions:
            ref = prev_fg if prev_fg is not None else _zero_frame(h, w, t)
            flow_b, res_b, rec = _code_foreground(ref, frames[t], used, q, clock)
            fg_records.append(ForegroundRecord(t, used.regions, flow_b, res_b))
            fg_recon[t] = (used, rec)
            prev_fg = rec
        else:
            prev_fg = None
        rs_prev = rs_cur
        t3 = time.perf_counter()
        clock["separation"] += t1 - t0
        clock["background"] += t2 - t1
        clock["foreground"] += t3 - t2

    header = StreamHeader(
        width=w, height=h, fps_num=video.fps_num, fps_den=video.fps_den,
        frame_count=n, levels=q.levels, delta_fp=q.delta_fp,
        gamma_fp=gamma_fp)
    templates = tuple(TemplateRecord(bt.frame_index, bt.anchor, bt.payload)
                      for bt in chain.templates)
    stream = FbvStream(header, templates,
                       tuple(fg_records),
                       build_segments(n, [r.frame_no for r in fg_records]))
    data = write_stream(stream)
    encode_total = time.perf_counter() - t_start

    # encoder-side reconstructions (pre-enhancement), for the closed-loop check
    recon = tuple(c.image for c, _ in _composites(
        [bt.frame_index for bt in chain.templates], lambda j: chain.templates[j].image,
        fg_recon, range(n)))

    per_ms = lambda s: 1000.0 * s / n
    timing = TimingReport(
        separation_ms=per_ms(clock["separation"]),
        background_ms=per_ms(clock["background"]),
        foreground_ms=per_ms(clock["foreground"]),
        motion_ms=per_ms(clock["motion"]),
        compensation_ms=per_ms(clock["compensation"]),
        residual_ms=per_ms(clock["residual"]),
        encode_total_s=encode_total,
        frame_count=n)
    return EncodeResult(data=data, stream=stream, budget=budget_of(stream), timing=timing,
                        gate_trace=tuple(gate_trace), recon=recon)


def _bracket(tframes, t: int) -> tuple[int, int]:
    """Indices (i, k) of the templates whose interpolation is frame t's
    background; i == k on a template frame and outside the template span."""
    pos = bisect_right(tframes, t)
    if pos == 0:
        return 0, 0
    if pos == len(tframes) or tframes[pos - 1] == t:
        return pos - 1, pos - 1
    return pos - 1, pos


def _decode_foreground(header: StreamHeader, records) -> dict[int, tuple[RegionSet, Frame]]:
    """Closed-loop foreground decode of consecutive records (a run prefix)."""
    h, w = header.height, header.width
    q = header.quality
    out: dict[int, tuple[RegionSet, Frame]] = {}
    prev_fg: Frame | None = None
    prev_no = None
    for rec in records:
        rs = RegionSet(rec.regions, h, w)
        contiguous = prev_no is not None and rec.frame_no == prev_no + 1
        ref = prev_fg if contiguous and prev_fg is not None \
            else _zero_frame(h, w, rec.frame_no)
        flow = decode_flow(rec.flow, rs)
        warped = warp(ref, flow, rs)
        patches = decode_residual(rec.residual, [(r.h, r.w) for r in rec.regions], q)
        fg = _assemble_foreground(warped, patches, rs, rec.frame_no)
        out[rec.frame_no] = (rs, fg)
        prev_fg, prev_no = fg, rec.frame_no
    return out


def _composites(tframes, image, fg_map, frame_nos):
    """(composite, regions or None) per frame: the foreground of fg_map over the
    background interpolated between bracketing templates (image(j) at tframes[j])."""
    for t in frame_nos:
        i, k = _bracket(tframes, t)
        m, j = (tframes[k] - tframes[i], tframes[k] - t) if i != k else (1, 0)
        bg = Frame(interpolated_background(image(i), image(k), m, j).planes, t)
        if t in fg_map:
            rs, fg = fg_map[t]
            yield composite(fg, bg, rs.mask), rs
        else:
            yield CompositeFrame(bg, np.zeros((bg.height, bg.width), dtype=bool)), None


def _output(comp: CompositeFrame, rs: RegionSet | None, enhance_output: bool) -> Frame:
    if rs is None or not enhance_output:
        return comp.image
    return enhance(comp, rs)


class Decoder:
    """Sequential and random access to one stream's records (not the stream).

    Each template is decoded at most once and kept: one 3xHxW uint8 image per
    template. One whose decode raised is not kept, so later uses raise again.
    Foreground frames are not kept: a seek replays the run ending at its frame.
    """

    def __init__(self, stream: FbvStream) -> None:
        self.header, self.templates = stream.header, stream.templates
        self.foregrounds = stream.foregrounds
        self.tframes = [tr.frame_no for tr in stream.templates]
        self.fg_index = {r.frame_no: i for i, r in enumerate(stream.foregrounds)}
        # a run's frame numbers are consecutive, so frame_no - index is constant on it
        self.run_keys = [r.frame_no - i for i, r in enumerate(stream.foregrounds)]
        self._decoded: dict[int, BackgroundTemplate] = {}

    def template(self, j: int) -> Frame:
        """Template j's image, decoded on first use."""
        first = j
        while first not in self._decoded and not self.templates[first].anchor:
            first -= 1
        h, w = self.header.height, self.header.width
        for i in range(first, j + 1):
            if i not in self._decoded:
                tr = self.templates[i]
                prev = None if tr.anchor else self._decoded[i - 1]
                self._decoded[i] = decode_template(prev, tr.residual, tr.frame_no, h, w)
        return self._decoded[j].image

    def frames(self, enhance_output: bool) -> tuple[list[Frame], list[Frame]]:
        fg_map = _decode_foreground(self.header, self.foregrounds)
        # composite every frame before enhancing any: interleaving the two raised peak RSS
        comps = list(_composites(self.tframes, self.template, fg_map,
                                 range(self.header.frame_count)))
        pre = [c.image for c, _ in comps]
        return pre, [_output(c, rs, enhance_output) for c, rs in comps]

    def frame(self, frame_no: int, enhance_output: bool) -> Frame:
        n = self.header.frame_count
        if not 0 <= frame_no < n:
            raise ContainerError(f"frame {frame_no} out of range 0..{n - 1}")
        i = self.fg_index.get(frame_no)
        run = () if i is None else \
            self.foregrounds[bisect_left(self.run_keys, self.run_keys[i]):i + 1]
        fg_map = _decode_foreground(self.header, run)
        (comp, rs), = _composites(self.tframes, self.template, fg_map, [frame_no])
        return _output(comp, rs, enhance_output)


_DECODERS: dict[int, Decoder] = {}      # id(stream) -> its Decoder, while the stream lives


def _decoder(stream: FbvStream) -> Decoder:
    dec = _DECODERS.get(id(stream))
    if dec is None:
        dec = _DECODERS[id(stream)] = Decoder(stream)
        weakref.finalize(stream, _DECODERS.pop, id(stream), None)
    return dec


def decode_stream(stream: FbvStream,
                  enhance_output: bool = True) -> tuple[list[Frame], list[Frame]]:
    """Full-sequence decode. Returns (pre-enhancement, output) frame lists."""
    return _decoder(stream).frames(enhance_output)


def decode_bytes(data: bytes, enhance_output: bool = True) -> DecodeResult:
    """Decode a container; fbv.evaluate.score measures the output."""
    t0 = time.perf_counter()
    stream = read_stream(data)
    pre, out = decode_stream(stream, enhance_output)
    total = time.perf_counter() - t0
    video = VideoSequence(tuple(out), stream.header.fps_num, stream.header.fps_den)
    return DecodeResult(video=video, pre_enhance=tuple(pre), decode_total_s=total)


def decode_frame(stream: FbvStream, frame_no: int, enhance_output: bool = True) -> Frame:
    """Random access: decode one frame, bit-identical to the sequential path.
    The stream's templates are decoded once and kept while the stream lives."""
    return _decoder(stream).frame(frame_no, enhance_output)


@dataclass(frozen=True)
class AnalyzeReport:
    text: str
    budget: BitBudgetReport
    bpp: float


def analyze_bytes(data: bytes) -> AnalyzeReport:
    """Human-readable stream dump: header, records, indexes, bit split, bpp."""
    stream = read_stream(data)
    h = stream.header
    budget = budget_of(stream)
    rate = bpp(len(data), h.width, h.height, h.frame_count)
    br, fr, fmv = budget.ratios
    out = io.StringIO()
    p = lambda *a: print(*a, file=out)
    p(f"container: {len(data)} bytes, {h.frame_count} frames, "
      f"{h.width}x{h.height} @ {h.fps_num}/{h.fps_den} fps")
    p(f"quality: delta={h.quality.delta_q:g} levels={h.levels}  "
      f"gate gamma={h.gamma:g}  flags={h.flags}")
    p("")
    p("records:")
    p("  kind        frame  payload_bytes  detail")
    rows = sorted(
        [(t.frame_no, 0, t) for t in stream.templates]
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
    return AnalyzeReport(out.getvalue(), budget, rate)
