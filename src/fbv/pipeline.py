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

Encoding runs in two halves, the paper's foreground-background parallel
compression. The background half, _background_pass, is the mixture model,
the gate and the template chain; per frame it yields the gate score and the
foreground points, and last the template records, images and its stage_s
rows. The foreground half, in encode, is regions, motion and residual, then
the container and the reconstruction. _forked runs the background half in
one forked worker that sends its items through a one-way pipe, while this
process codes the foreground of the frames received so far. The same
generator runs here instead where fork is not a start method, in a daemonic
process (which may not start children), while another thread runs (a lock
it holds would stay held in the worker) and when the fork fails. Both give
the same bytes. An exception in the worker is raised here with its type and
message, a worker that dies before its last item is an FbvError naming its
exit code, and the worker is reaped on every exit. The worker ignores
SIGINT: a Ctrl-C interrupts this process, which kills the worker. In stage_s
the background rows (separation, gate, template coding) are the worker's own
times and overlap this process's rows; background wait is this process's
time blocked on the worker, fork and join included. The rows are therefore
not exclusive: this process's rows and background wait cover the wall time.

The decoder mirrors the loop exactly. Backgrounds come from linear
interpolation between the bracketing templates, foregrounds from the same
closed-loop chain: both sides rebuild each region from its warped prediction
and its residual with add_residual (_foreground), and the foreground is
composited through the region mask and then feathered. Feathering never
enters the prediction loop, so the pre-enhancement reconstructions on both
sides are bit-identical. Both directions are pure functions of (bytes,
options): encoding the same input twice yields byte-identical streams.

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

Decoding splits the same way: the template chain is its background half. A
walk hands the templates it will use and the decoder has not kept to one
forked worker (_forked again, under the same conditions), which decodes them
in chain order and sends each image while the walk decodes foreground
records; the walk keeps every image that has arrived whenever it asks for a
template, and waits only for the one it needs. The worker starts only when
there are records to decode meanwhile: at the walk's beginning when it
replays records before its first frame and that frame's templates are not
kept (a cold seek), or when the walk resumes after its first frame with
records ahead and later templates not kept (a full decode). So a full decode
of a stream with one template or with no foreground, and a seek whose
templates are kept, start none; a cold seek that replays records starts one
even on a one-template stream, as its replay overlaps the anchor's decode.
The walk stops reading the worker at its first failure, an exception the
worker raised or its death, and decodes what the worker did not send
itself: a template that failed in the worker raises, when the walk reaches
it, the error a decode in one process raises there, after the same frames,
and a worker that dies costs time, not the decode. A walk closed early
(decode_frame after its frame, a closed output_frames) kills and reaps its
worker.
"""

from __future__ import annotations

import multiprocessing
import operator
import signal
import threading
import time
import weakref
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from contextlib import ExitStack, closing, contextmanager
from functools import partial
from dataclasses import dataclass

import numpy as np

from .bgmodel import GmmParams, background_estimate, gmm_init, gmm_update
from .bgtemplate import (ANCHOR_INTERVAL, DEFAULT_GAMMA, TemplateChain, decode_template,
                         interpolated_background)
from .container import (GAMMA_SCALE, ContainerError, FbvStream, ForegroundRecord,
                        StreamHeader, budget_of, read_stream, write_stream)
from .core import ConfigError, FbvError, Frame, RegionSet, VideoSequence
from .decode import composite, enhance
from .entropy import BitBudgetReport
from .fgregion import combine_regions, fp
from .metrics import ms_ssim, ms_ssim_reference
from .motion import decode_flow, encode_flow, estimate_flow, warp
from .residual import QualityPoint, add_residual, decode_residual, encode_residual

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


def _foreground(regions: RegionSet, predictions, residuals, index: int) -> Frame:
    """Each region rebuilt from its prediction and residual, zero elsewhere."""
    planes = np.zeros((3, regions.height, regions.width), dtype=np.uint8)
    for r, prediction, residual in zip(regions.regions, predictions, residuals):
        planes[:, r.y:r.y2, r.x:r.x2] = add_residual(prediction, residual)
    return Frame(planes, index)


@contextmanager
def _timed(stage_s: dict[str, float], stage: str):
    """Add the wall time of the with block to stage_s[stage]."""
    t0 = time.perf_counter()
    yield
    stage_s[stage] = stage_s.get(stage, 0.0) + time.perf_counter() - t0


def _background_pass(frames, config: EncoderConfig, gamma: float) -> Iterator:
    """Encode's background half. Train the separator on the first init_frames
    frames and admit its estimate as the anchor template at frame 0; then, per
    frame, update the model, gate the candidate and admit it as a template when
    its score is below gamma, and yield (gate score, foreground points packed
    by np.packbits). Last, yield (template records, template images, stage_s)
    with this half's rows: separation, gate and template coding."""
    # the anchor is coded before frame 0's gate; seeding keeps the rows in loop order
    stage_s = {"separation": 0.0, "gate": 0.0}
    with _timed(stage_s, "separation"):
        state = gmm_init(frames[:config.init_frames], config.gmm_params)
        anchor = Frame(background_estimate(state).planes, 0)
    chain = TemplateChain(config.anchor_interval)
    with _timed(stage_s, "template coding"):
        chain.admit(anchor)
    # the gate's side of MS-SSIM is prepared once per admitted template
    with _timed(stage_s, "gate"):
        gate_ref = ms_ssim_reference(chain.images[-1])
    scored: np.ndarray | None = None    # planes of the candidate gate_ref last scored
    for t, cur in enumerate(frames):
        with _timed(stage_s, "separation"):
            state, sep = gmm_update(state, cur)
        candidate = Frame(sep.background.planes, t)
        # an unchanged candidate against an unchanged template keeps its score
        with _timed(stage_s, "gate"):
            if scored is None or not np.array_equal(scored, candidate.planes):
                score = ms_ssim(gate_ref, candidate)
                scored = candidate.planes
        if t > 0 and score < gamma:          # the anchor already holds frame 0
            with _timed(stage_s, "template coding"):
                chain.admit(candidate)
            with _timed(stage_s, "gate"):
                gate_ref = ms_ssim_reference(chain.images[-1])
            scored = None
        # packed 8 to a byte, a pipe's 64 KB buffer holds 40 frames' points at
        # 128x96, so the worker runs ahead through a foreground-heavy stretch
        yield score, np.packbits(sep.points)
    yield chain.records, chain.images, stage_s


def _serve(items: Iterator, recv, send) -> None:
    """The worker: send each item of items, then (None, None), or the exception
    that stopped them. It ignores SIGINT, as the caller kills it on every exit."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    recv.close()
    try:
        for item in items:
            send.send((True, item))
        send.send((None, None))
    except Exception as exc:            # raised again in the parent
        send.send((False, exc))
    finally:
        send.close()


def _received(recv, child, stage_s: dict[str, float]) -> Iterator:
    """The worker's items, as it sends them; the time blocked on it is background wait."""
    while True:
        with _timed(stage_s, "background wait"):
            try:
                ok, item = recv.recv()
            except EOFError:
                child.join()
                raise FbvError(f"the background worker exited with code {child.exitcode} "
                               "before its last item") from None
        if ok is None:
            return
        if not ok:
            raise item
        yield item


@contextmanager
def _forked(items: Iterator, stage_s: dict[str, float]):
    """Yield (iterator over items, ready): items run in one forked worker, or in
    this process where fork is not a start method, in a daemonic process (a
    daemon starts no children), while another thread runs (a lock it holds
    would stay held in the worker) or when the fork fails. ready() is true when
    the worker has sent something next() has not read; it is always false in
    this process. On every exit the worker is killed, if it still runs, and
    reaped."""
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon or threading.active_count() > 1):
        yield items, lambda: False
        return
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_serve, args=(items, recv, send))
    try:
        with _timed(stage_s, "background wait"):
            try:
                child.start()
            except OSError:             # no process to be had: the items run here
                recv.close()
        send.close()
        yield ((items, lambda: False) if child.pid is None
               else (_received(recv, child, stage_s), recv.poll))
    finally:
        with _timed(stage_s, "background wait"):
            if child.pid is not None:
                child.kill()
                child.join()
        recv.close()
        send.close()


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
    stage_s: dict[str, float] = {}

    # the foreground half, on the points the background half yields per frame
    gate_trace: list[float] = []
    coded: list[tuple] = []             # (frame, regions, flow, residual) per fg record
    fg_recon: dict[int, tuple[RegionSet, Frame]] = {}
    prev_fg: Frame | None = None
    rs_prev = RegionSet((), h, w)
    with _forked(_background_pass(frames, config, gamma), stage_s) as (background, _):
        for t, cur in enumerate(frames):
            score, packed = next(background)
            gate_trace.append(score)
            with _timed(stage_s, "region extraction"):
                points = np.unpackbits(packed, count=h * w).reshape(h, w).view(bool)
                rs_cur = fp(cur, points)
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
                predictions = warp(ref, flow)
            with _timed(stage_s, "residual codec"):
                # the predictions are int64, so no difference wraps in uint8
                patches = [cur.planes[:, r.y:r.y2, r.x:r.x2] - prediction
                           for r, prediction in zip(used.regions, predictions)]
                res_b, decoded = encode_residual(patches, q)
                prev_fg = _foreground(used, predictions, decoded, cur.frame_index)
            coded.append((t, used.regions, flow_b, res_b))
            fg_recon[t] = (used, prev_fg)
        records, images, background_s = next(background)
    stage_s = {**background_s, **stage_s}

    with _timed(stage_s, "container"):
        stream = FbvStream(header, tuple(records), tuple(ForegroundRecord(*c) for c in coded))
        data = write_stream(stream)
        budget = budget_of(stream)

    # encoder-side reconstructions (pre-enhancement), for the closed-loop check
    with _timed(stage_s, "reconstruction"):
        tframes = [tr.frame_no for tr in records]
        recon = tuple(_reconstruct(tframes, images.__getitem__, t, fg_recon.get(t))
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
    record of the frame before it (None when rec starts a run), onto each
    region, then add each region's residual."""
    h, w = header.height, header.width
    rs = RegionSet(rec.regions, h, w)
    ref = prev if prev is not None else _zero_frame(h, w, rec.frame_no)
    predictions = warp(ref, decode_flow(rec.flow, rs))
    residuals = decode_residual(rec.residual, [(r.h, r.w) for r in rec.regions], header.quality)
    return rs, _foreground(rs, predictions, residuals, rec.frame_no)


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

    def template(self, j: int, worker=None) -> Frame:
        """Template j's image, decoded on first use. With worker, the (items, ready)
        of a walk's _template_pass, first keep every image the worker has ready and
        wait for j's while the worker may still send it. The items end at the
        worker's first failure, an exception it raised or its death: what it did
        not send is decoded here, so a template that failed there raises here."""
        if worker is not None:
            items, ready = worker
            while j not in self._decoded or ready():
                try:
                    k, planes = next(items)  # planes, not a Frame: a Frame checks and freezes them
                except Exception:               # the worker is done, failed or dead
                    break
                self._decoded.setdefault(k, Frame(planes, self.templates[k].frame_no))
        if j not in self._decoded:
            h, w = self.header.height, self.header.width
            for i in range(self._chain_start(j), j + 1):
                if i not in self._decoded:
                    tr = self.templates[i]
                    prev = None if tr.anchor else self._decoded[i - 1]
                    self._decoded[i] = decode_template(prev, tr.residual, tr.frame_no, h, w)
        return self._decoded[j]

    def _template_pass(self, t: int) -> Iterator[tuple[int, np.ndarray]]:
        """Decode's background half: yield (j, image planes) for each template the
        frames from t on use that is not kept, in chain order from the anchor or
        kept template the first one is decoded from."""
        for j in range(self._chain_start(_bracket(self.tframes, t)[0]), len(self.templates)):
            if j not in self._decoded:
                yield j, self.template(j).planes

    def _chain_start(self, j: int) -> int:
        """The template j's decode starts from: the last kept one or anchor up to j."""
        while j not in self._decoded and not self.templates[j].anchor:
            j -= 1
        return j

    def _missing(self, start: int, later: bool) -> bool:
        """True when a template frame start uses, or with later one that a
        later frame uses, is not kept."""
        lo, hi = _bracket(self.tframes, start)
        end = len(self.templates) if later else hi + 1
        return not all(j in self._decoded for j in range(lo, end))

    def _worker(self, start: int) -> tuple[ExitStack, tuple]:
        """Start the worker for a walk from start: (the stack that reaps it, its
        (items, ready))."""
        stack = ExitStack()
        return stack, stack.enter_context(_forked(self._template_pass(start), {}))

    def frames(self, start: int = 0) -> Iterator[tuple[Frame, RegionSet | None]]:
        """Yield (pre-enhancement frame, its foreground regions) for each frame from
        start on, one at a time; the regions are None on a background-only frame.

        The walk begins after the last checkpoint before start in the foreground
        run holding start, else at the run's first record (at start itself on a
        background-only frame), and decodes a record only when it reaches that
        record's frame, so next(frames(t)) decodes nothing beyond t.

        The templates go to a worker (see _forked) when there are records to
        decode meanwhile: at the walk's beginning when it replays records before
        start and start's own templates are not kept, else when the walk resumes
        after start with records ahead and templates beyond start's not kept.
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
        # a stack only once a worker starts: a warm seek enters no context manager
        stack = worker = None
        try:
            if t < start and self._missing(start, later=False):
                stack, worker = self._worker(start)
            for t in range(t, n):
                if (t == start + 1 and worker is None and i < len(fgs)
                        and self._missing(start, later=True)):
                    stack, worker = self._worker(start)
                if i < len(fgs) and fgs[i].frame_no == t:
                    fg = _decode_record(self.header, fgs[i], None if fg is None else fg[1])
                    if t < start and i % CHECKPOINT == 0:
                        self._checkpoints[i] = fg
                    i += 1
                else:
                    fg = None
                if t >= start:
                    image = (self.template if worker is None
                             else partial(self.template, worker=worker))
                    yield (_reconstruct(self.tframes, image, t, fg), None if fg is None else fg[0])
        finally:
            if stack is not None:
                stack.close()


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
    with closing(_decoder(stream).frames()) as walk:    # closed, the walk reaps its worker
        for pre, regions in walk:
            yield _output(pre, regions), regions


def decode_bytes(data: bytes) -> DecodeResult:
    """Decode a container, keeping every frame (output_frames keeps none)."""
    t0 = time.perf_counter()
    stream = read_stream(data)
    pre, out = [], []
    with closing(_decoder(stream).frames()) as walk:
        for frame, regions in walk:
            pre.append(frame)
            out.append(_output(frame, regions))
    total = time.perf_counter() - t0
    video = VideoSequence(tuple(out), stream.header.fps_num, stream.header.fps_den)
    return DecodeResult(video=video, pre_enhance=tuple(pre), decode_total_s=total)


def decode_frame(stream: FbvStream, frame_no: int) -> Frame:
    """Random access: decode one frame, bit-identical to the sequential path.
    The stream's templates are decoded once, and they and the foreground
    checkpoints of earlier seeks are kept while the stream lives."""
    walk = _decoder(stream).frames(frame_no)
    try:
        return _output(*next(walk))
    finally:
        walk.close()            # the walk reaps its worker, if it started one

