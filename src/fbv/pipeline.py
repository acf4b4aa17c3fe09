"""End-to-end encoder and decoder orchestration.

The encoder runs two passes over the input. Pass one trains the pixel
mixture model on the first init_frames frames and admits the post-training
background estimate as the first (anchor) template at frame 0. Pass two
revisits every frame from 0 with the model state carried forward: each
frame is separated into background estimate plus foreground points, the
estimate is gated against the current template (luma MS-SSIM below gamma
admits a new template; an estimate equal to the last one scored against the
same template keeps its score), the points grow into grid-aligned regions,
and the union of the previous and current frame's regions is coded by block
flow plus a transformed residual against the motion-compensated previous
*reconstructed* foreground. Frames with no regions fall into background
segments and reset the foreground reference, so every contiguous run of
foreground records starts from a zero reference.

The decoder mirrors the loop exactly. Backgrounds come from linear
interpolation between the bracketing templates, foregrounds from the same
closed-loop warp + residual chain, composited through the region mask and
then feathered. Feathering never enters the prediction loop, so the
pre-enhancement reconstructions on both sides are bit-identical. Both
directions are pure functions of (bytes, options): encoding the same input
twice yields byte-identical streams.

The encoder's closed-loop reconstruction, the full decode and a single-frame
seek assemble every frame with one helper, _reconstruct: _bracket picks the
templates around the frame, the background is interpolated between them and
the foreground composited over it. Decoding is one walk, Decoder.frames(start),
that yields frames one at a time and keeps only the last decoded foreground, as
the next record's reference. A full decode walks from frame 0; a seek
(decode_frame) walks from the start of the foreground run holding its frame and
stops there. Both share one Decoder per stream, which decodes each template
once and keeps it while the stream lives. The records a seek replays before
its frame leave checkpoints: the decoded foreground of every CHECKPOINT-th
(8th) record, at most one frame per 8 records. A later seek into the run
resumes from the nearest checkpoint before its frame, so on a warm decoder a
seek decodes at most 8 records; the first seek into a run on a freshly read
stream still replays it from its start. The stream is the same either way.
"""

from __future__ import annotations

import operator
import time
import weakref
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .bgmodel import GmmParams, background_estimate, gmm_init, gmm_update
from .bgtemplate import (ANCHOR_INTERVAL, DEFAULT_GAMMA, TemplateChain, decode_template,
                         interpolated_background)
from .container import (GAMMA_SCALE, ContainerError, FbvStream, ForegroundRecord,
                        StreamHeader, budget_of, read_stream, write_stream)
from .core import ConfigError, Frame, RegionSet, VideoSequence
from .decode import composite, enhance
from .entropy import BitBudgetReport
from .fgregion import combine_regions, fp
from .metrics import ms_ssim, ms_ssim_reference
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
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must be in (0, 1)")
        if self.anchor_interval < 1:
            raise ValueError("anchor_interval must be >= 1")
        if not (0 < round(self.gamma * GAMMA_SCALE) < GAMMA_SCALE):
            raise ValueError(f"gamma must stay inside (0, 1) at 1/{GAMMA_SCALE} precision")

    @property
    def quality(self) -> QualityPoint:
        return QualityPoint(self.delta_q, self.levels)

    @property
    def gmm_params(self) -> GmmParams:
        return GmmParams(learning_rate=self.learning_rate, init_frames=self.init_frames)


@dataclass(frozen=True)
class EncodeResult:
    data: bytes
    stream: FbvStream
    budget: BitBudgetReport
    stage_s: dict[str, float]           # wall seconds per encode stage, in run order
    gate_trace: tuple[float, ...]       # per-frame MS-SSIM vs current template
    recon: tuple[Frame, ...]            # closed-loop pre-enhancement frames


@dataclass(frozen=True)
class DecodeResult:
    video: VideoSequence
    pre_enhance: tuple[Frame, ...]
    decode_total_s: float


def _zero_frame(h: int, w: int, index: int) -> Frame:
    return Frame(np.zeros((3, h, w), dtype=np.uint8), index)


def _assemble_foreground(warped: Frame, decoded_patches, used: RegionSet,
                         index: int) -> Frame:
    res_plane = np.zeros_like(warped.planes, dtype=np.int64)
    for r, patch in zip(used.regions, decoded_patches):
        res_plane[:, r.y:r.y2, r.x:r.x2] = patch
    planes = reconstruct_foreground(warped.planes, res_plane, used.mask)
    return Frame(planes, index)


@contextmanager
def _timed(stage_s: dict[str, float], stage: str):
    """Add the wall time of the with block to stage_s[stage]."""
    t0 = time.perf_counter()
    yield
    stage_s[stage] = stage_s.get(stage, 0.0) + time.perf_counter() - t0


def encode(video: VideoSequence, config: EncoderConfig = EncoderConfig()) -> EncodeResult:
    """Compress a sequence into a container plus reports; fully deterministic.

    Quality is scored by fbv.evaluate.score on output_frames(result.stream).
    """
    frames = video.frames
    n = len(frames)
    h, w = frames[0].height, frames[0].width
    if n < config.init_frames:
        raise ConfigError(
            f"sequence has {n} frames but model initialization needs "
            f"{config.init_frames}")
    q = config.quality
    # every header field is known up front, so one the container cannot carry
    # fails before any coding
    header = StreamHeader(
        width=w, height=h, fps_num=video.fps_num, fps_den=video.fps_den, frame_count=n,
        levels=q.levels, delta_fp=q.delta_fp, gamma_fp=round(config.gamma * GAMMA_SCALE))
    gamma = header.gamma    # gate against the gamma the header records, not the setting
    # the anchor is coded before frame 0's gate; seeding keeps the rows in loop order
    stage_s = {"separation": 0.0, "gate": 0.0}

    # pass one: train the separator, then seed the template chain at frame 0
    with _timed(stage_s, "separation"):
        state = gmm_init(frames[:config.init_frames], config.gmm_params)
        anchor = Frame(background_estimate(state).planes, 0)
    chain = TemplateChain(config.anchor_interval)
    with _timed(stage_s, "template coding"):
        chain.admit(anchor)
    # the gate's side of MS-SSIM is prepared once per admitted template
    with _timed(stage_s, "gate"):
        gate_ref = ms_ssim_reference(chain.images[-1])

    # pass two: code every frame with the trained state carried forward
    gate_trace: list[float] = []
    scored: np.ndarray | None = None    # planes of the candidate gate_ref last scored
    coded: list[tuple] = []             # (frame, regions, flow, residual) per fg record
    fg_recon: dict[int, tuple[RegionSet, Frame]] = {}
    prev_fg: Frame | None = None
    rs_prev = RegionSet((), h, w)
    for t, cur in enumerate(frames):
        with _timed(stage_s, "separation"):
            state, sep = gmm_update(state, cur)
        candidate = Frame(sep.background.planes, t)
        # an unchanged candidate against an unchanged template keeps its score
        with _timed(stage_s, "gate"):
            if scored is None or not np.array_equal(scored, candidate.planes):
                score = ms_ssim(gate_ref, candidate)
                scored = candidate.planes
        gate_trace.append(score)
        if t > 0 and score < gamma:          # the anchor already holds frame 0
            with _timed(stage_s, "template coding"):
                chain.admit(candidate)
            with _timed(stage_s, "gate"):
                gate_ref = ms_ssim_reference(chain.images[-1])
            scored = None
        with _timed(stage_s, "region extraction"):
            rs_cur = fp(cur, sep.points)
            used = combine_regions(rs_prev, rs_cur)
        rs_prev = rs_cur
        if not used.regions:
            prev_fg = None
            continue
        # flow + residual against the previous reconstructed foreground (closed loop)
        with _timed(stage_s, "motion estimation"):
            ref = prev_fg if prev_fg is not None else _zero_frame(h, w, t)
            flow = estimate_flow(ref, cur, used)
            flow_b = encode_flow(flow)
        with _timed(stage_s, "motion compensation"):
            warped = warp(ref, flow)
        with _timed(stage_s, "residual codec"):
            patches = [cur.planes[:, r.y:r.y2, r.x:r.x2].astype(np.int64)
                       - warped.planes[:, r.y:r.y2, r.x:r.x2].astype(np.int64)
                       for r in used.regions]
            res_b, decoded = encode_residual(patches, q)
            prev_fg = _assemble_foreground(warped, decoded, used, cur.frame_index)
        coded.append((t, used.regions, flow_b, res_b))
        fg_recon[t] = (used, prev_fg)

    with _timed(stage_s, "container"):
        stream = FbvStream(header, tuple(chain.records),
                           tuple(ForegroundRecord(*c) for c in coded))
        data = write_stream(stream)
        budget = budget_of(stream)

    # encoder-side reconstructions (pre-enhancement), for the closed-loop check
    with _timed(stage_s, "reconstruction"):
        tframes = [tr.frame_no for tr in chain.records]
        recon = tuple(_reconstruct(tframes, chain.images.__getitem__, t, fg_recon.get(t))
                      for t in range(n))
    return EncodeResult(data=data, stream=stream, budget=budget, stage_s=stage_s,
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


def _decode_record(header: StreamHeader, rec: ForegroundRecord,
                   prev: Frame | None) -> tuple[RegionSet, Frame]:
    """Closed-loop decode of one foreground record: warp prev, the decoded
    record of the frame before it (None when rec starts a run), then add the
    residual."""
    h, w = header.height, header.width
    rs = RegionSet(rec.regions, h, w)
    ref = prev if prev is not None else _zero_frame(h, w, rec.frame_no)
    warped = warp(ref, decode_flow(rec.flow, rs))
    patches = decode_residual(rec.residual, [(r.h, r.w) for r in rec.regions], header.quality)
    return rs, _assemble_foreground(warped, patches, rs, rec.frame_no)


def _reconstruct(tframes, image, t: int, fg: tuple[RegionSet, Frame] | None) -> Frame:
    """Frame t before enhancement: the foreground fg = (regions, frame) composited
    over the background interpolated between the templates bracketing t (image(j)
    is the template at tframes[j]); the background alone when fg is None."""
    i, k = _bracket(tframes, t)
    m, j = (tframes[k] - tframes[i], tframes[k] - t) if i != k else (1, 0)
    bg = Frame(interpolated_background(image(i), image(k), m, j).planes, t)
    return bg if fg is None else composite(fg[1], bg, fg[0].mask)


# a seek keeps the decoded foreground of every CHECKPOINT-th record it replays
CHECKPOINT = 8


class Decoder:
    """One walk over one stream's records (not the stream) for full decode and seeks.

    Each template is decoded at most once and kept: one 3xHxW uint8 image per
    template. One whose decode raised is not kept, so later uses raise again.
    The walk holds the last decoded foreground as the next record's reference.
    A seek replays the run holding its frame from the run's start, or from the
    nearest checkpoint before the frame: the decoded (regions, frame) of a record
    whose index is a multiple of CHECKPOINT, kept when an earlier seek replayed
    it. So a seek decodes at most CHECKPOINT records once the checkpoints below
    its frame are kept, and a decoder holds at most one foreground frame per
    CHECKPOINT records. A walk from frame 0 replays nothing and keeps nothing.
    """

    def __init__(self, stream: FbvStream) -> None:
        self.header, self.templates = stream.header, stream.templates
        self.foregrounds = stream.foregrounds
        self.tframes = [tr.frame_no for tr in stream.templates]
        self._decoded: dict[int, Frame] = {}
        self._checkpoints: dict[int, tuple[RegionSet, Frame]] = {}   # record index -> decoded

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
        return self._decoded[j]

    def frames(self, start: int = 0) -> Iterator[tuple[Frame, RegionSet | None]]:
        """Yield (pre-enhancement frame, its foreground regions) for each frame from
        start on, one at a time; the regions are None on a background-only frame.

        The walk begins after the last checkpoint before start in the foreground
        run holding start, else at the run's first record (at start itself on a
        background-only frame), and decodes a record only when it reaches that
        record's frame, so next(frames(t)) decodes nothing beyond t.
        """
        start = operator.index(start)
        n = self.header.frame_count
        if not 0 <= start < n:
            raise ContainerError(f"frame {start} out of range 0..{n - 1}")
        fgs = self.foregrounds
        i = bisect_left(fgs, start, key=lambda r: r.frame_no)   # first record from start on
        t, fg = start, None
        while 0 < i < len(fgs) and fgs[i].frame_no == t and fgs[i - 1].frame_no == t - 1:
            fg = self._checkpoints.get(i - 1)
            if fg is not None:
                break
            i, t = i - 1, t - 1
        for t in range(t, n):
            if i < len(fgs) and fgs[i].frame_no == t:
                fg = _decode_record(self.header, fgs[i], None if fg is None else fg[1])
                if t < start and i % CHECKPOINT == 0:
                    self._checkpoints[i] = fg
                i += 1
            else:
                fg = None
            if t >= start:
                yield (_reconstruct(self.tframes, self.template, t, fg),
                       None if fg is None else fg[0])


_DECODERS: dict[int, Decoder] = {}      # id(stream) -> its Decoder, while the stream lives


def _decoder(stream: FbvStream) -> Decoder:
    dec = _DECODERS.get(id(stream))
    if dec is None:
        dec = _DECODERS[id(stream)] = Decoder(stream)
        weakref.finalize(stream, _DECODERS.pop, id(stream), None)
    return dec


def _output(pre: Frame, regions: RegionSet | None) -> Frame:
    """The output frame: pre feathered around its foreground regions, if any."""
    return pre if regions is None else enhance(pre, regions)


def output_frames(stream: FbvStream) -> Iterator[tuple[Frame, RegionSet | None]]:
    """Full decode: each (output frame, its regions or None), none kept once yielded."""
    for pre, regions in _decoder(stream).frames():
        yield _output(pre, regions), regions


def decode_stream(stream: FbvStream) -> tuple[list[Frame], list[Frame]]:
    """Full-sequence decode. Returns (pre-enhancement, output) frame lists."""
    pre, out = [], []
    for frame, regions in _decoder(stream).frames():
        pre.append(frame)
        out.append(_output(frame, regions))
    return pre, out


def decode_bytes(data: bytes) -> DecodeResult:
    """Decode a container, keeping every frame (output_frames keeps none)."""
    t0 = time.perf_counter()
    stream = read_stream(data)
    pre, out = decode_stream(stream)
    total = time.perf_counter() - t0
    video = VideoSequence(tuple(out), stream.header.fps_num, stream.header.fps_den)
    return DecodeResult(video=video, pre_enhance=tuple(pre), decode_total_s=total)


def decode_frame(stream: FbvStream, frame_no: int) -> Frame:
    """Random access: decode one frame, bit-identical to the sequential path.
    The stream's templates are decoded once, and they and the foreground
    checkpoints of earlier seeks are kept while the stream lives."""
    return _output(*next(_decoder(stream).frames(frame_no)))

