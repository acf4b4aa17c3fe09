"""The measured lifecycle of one workload run, through fbv's public entry points.

Untraced run (the end-to-end metrics):
  1. set-up: generate the clip and warm the codec up on a tiny crop of it,
     SETUP_REPEATS times; `setup_s` is the import time plus their median;
  2. ingest: `pipeline.encode(video, config)`, repeated while the encode
     share of `--seconds` lasts (at least once);
  3. playback: `pipeline.decode_bytes(data)` with default enhancement,
     repeated while the decode share lasts (at least MIN_DECODES times);
  4. archive review: stratified seeded `pipeline.decode_frame(stream, t)`
     seeks on one stream opened once with `container.read_stream`, in rounds
     of clips.SEEKS_PER_ROUND while the seek share lasts (at least one round).

Every call is timed through speed.Gauge, and the metrics use its
speed-normalised times; raw wall times go into the run's record. Every call
is one operation and carries its correctness check: repeated
encodes give the same bytes, every decode has the source's frame count, its
pre-enhancement frames equal `encode(...).recon` frame for frame and its
output equals the first decode's, and every seek equals frame t of the
sequential output. A failed check or a raised exception counts the operation
as failed; its time is still kept as a sample.

Traced run (the per-layer metrics): one untraced encode, then one traced
encode, decode and TRACE_SEEKS seeks with every layer wrapped (see spans.py),
then the entropy microbenchmark. The traced stream must equal the untraced
one byte for byte.

Rate and quality come from the stream bytes, the source clip and the decoded
frames, never from `EncodeResult.quality`, `.timing` or `.gate_trace`.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from fbv import container, entropy, pipeline
from fbv.core import Frame, VideoSequence

import clips
import layers
import spans
import speed

ENCODE_SHARE, DECODE_SHARE, SEEK_SHARE = 0.3, 0.3, 0.4   # of --seconds
MIN_DECODES = 5
MAX_REPEATS = 200
SETUP_REPEATS = 3
TRACE_SEEKS = 8
ENTROPY_BINS = 1_000_000
PSNR_CAP_DB = 99.0
# stream sizes at seed 0 and scale 1, recorded before any optimisation
REFERENCE_BYTES = {"square": 250_426, "static": 11_561}

UNITS = {"encode_fps": "frames/s", "decode_fps": "frames/s", "seek_ms_p50": "ms",
         "bpp": "bits/pixel", "psnr_db": "dB", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Ops:
    """Operations attempted, the failures among them and their timings.

    Timings are kept per kind as the wall-clock stretches of each call
    (see speed.Gauge); raw() and normalised() turn them into seconds. Call
    normalised() once the run's calls are over, so every probe is in.
    """

    gauge: speed.Gauge
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    stretches: dict[str, list] = field(default_factory=dict)

    def run(self, kind: str, what: str, fn, check=None):
        """Time fn() as one operation; check(value) returns a problem or None.

        Returns the value, or None when fn raised.
        """
        self.attempted += 1
        value, stretches, problem = self.gauge.timed(fn)
        self.stretches.setdefault(kind, []).append(stretches)
        if problem is None and check is not None:
            problem = check(value)
        if problem:
            self.failures.append(f"{what}: {problem}")
        return value

    def count(self, kind: str) -> int:
        return len(self.stretches.get(kind, ()))

    def raw(self, kind: str) -> list[float]:
        return [sum(b - a for a, b in call) for call in self.stretches.get(kind, ())]

    def normalised(self, kind: str) -> list[float]:
        return [self.gauge.normalised_s(call) for call in self.stretches.get(kind, ())]


def _same_frames(a, b) -> bool:
    return len(a) == len(b) and all(
        x.frame_index == y.frame_index and np.array_equal(x.planes, y.planes)
        for x, y in zip(a, b))


def _warm_up(clip: clips.Clip) -> None:
    """Encode, decode and seek a 12-frame crop so lazy imports and caches are paid."""
    frames = tuple(Frame(np.ascontiguousarray(f.planes[:, :48, :64]), f.frame_index)
                   for f in clip.video.frames[:12])
    res = pipeline.encode(VideoSequence(frames, *clips.FPS), replace(clip.config, init_frames=8))
    pipeline.decode_bytes(res.data)
    pipeline.decode_frame(container.read_stream(res.data), len(frames) - 1)


def _setup(workload: str, seed: int, scale: float, ops: Ops) -> clips.Clip | None:
    def set_up():
        made = clips.make_clip(workload, seed, scale)
        _warm_up(made)
        return made
    clip = None
    for _ in range(SETUP_REPEATS):
        clip = ops.run("setup", "set-up", set_up)
    return clip


def _decode_check(n: int, recon, first_out):
    def check(dec) -> str | None:
        if len(dec.video.frames) != n:
            return f"decoded {len(dec.video.frames)} frames, the source has {n}"
        if not _same_frames(dec.pre_enhance, recon):
            return "pre-enhancement frames differ from the encoder's reconstruction"
        if first_out is not None and not _same_frames(dec.video.frames, first_out):
            return "output differs from the first decode"
        return None
    return check


def _seek_check(out, t: int):
    def check(frame) -> str | None:
        if out is None or t >= len(out):
            return "no sequential output to compare with"
        if frame.frame_index != t or not np.array_equal(frame.planes, out[t].planes):
            return f"frame {t} differs from the sequential decode"
        return None
    return check


def _psnr_db(source: VideoSequence, decoded) -> float:
    """PSNR over every sample of every frame (pooled MSE), capped for lossless output."""
    sq, count = 0.0, 0
    for s, d in zip(source.frames, decoded):
        diff = s.planes.astype(np.int32) - d.planes.astype(np.int32)
        sq += float(np.sum(diff * diff))
        count += diff.size
    mse = sq / count
    return PSNR_CAP_DB if mse == 0 else min(PSNR_CAP_DB, 10.0 * np.log10(255.0 ** 2 / mse))


def _fingerprint(data: bytes, stream) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "templates": len(stream.templates),
            "foreground_records": len(stream.foregrounds),
            "segments": len(stream.segments)}


def _tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    s = sorted(samples)
    k = len(s) - 11
    if k < 0:
        return {}
    return {"pct": 100.0 * (k + 1) / len(s), "value": s[k]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def entropy_microbench(seed: int, ops: Ops, bins: int) -> None:
    """Seeded bins through encode_bits/decode_bits over eight skewed contexts."""
    rng = np.random.default_rng([seed, 5])
    ctxs = np.arange(bins) & 7
    p_one = (ctxs + 1) / 10.0
    bits = (rng.random(bins) < p_one).astype(np.uint8).tolist()
    ctxs = ctxs.tolist()
    data = ops.run("entropy_encode", "entropy encode", lambda: entropy.encode_bits(
        bits, entropy.ContextModel(8), ctxs))
    ops.run("entropy_decode", "entropy round trip",
            lambda: entropy.decode_bits(data, entropy.ContextModel(8), bins, ctxs),
            lambda back: None if back == bits else "decoded bins differ from the encoded ones")


def _check_reference(ops: Ops, clip: clips.Clip, seed: int, scale: float, data: bytes) -> None:
    want = REFERENCE_BYTES.get(clip.name)
    if seed == 0 and scale == 1 and want is not None:
        ops.run("check", "reference stream size", lambda: len(data),
                lambda got: None if got == want else f"{got} B, the reference is {want} B")


def _untraced(clip: clips.Clip, seed: int, seconds: float, ops: Ops, record: dict) -> dict:
    """Run the lifecycle; return the metrics that do not come from timings."""
    video, cfg = clip.video, clip.config
    n = len(video.frames)
    first = None
    t_phase = time.perf_counter()
    while True:
        res = ops.run("encode", "encode", lambda: pipeline.encode(video, cfg),
                      lambda r: None if first is None or r.data == first.data
                      else "encode is not deterministic")
        if first is None:
            first = res
        if (res is None or ops.count("encode") >= MAX_REPEATS
                or time.perf_counter() - t_phase >= ENCODE_SHARE * seconds):
            break
    if first is None:
        return {}
    data, recon = first.data, first.recon
    _check_reference(ops, clip, seed, record["scale"], data)

    out = None
    t_phase = time.perf_counter()
    while True:
        dec = ops.run("decode", "decode", lambda: pipeline.decode_bytes(data),
                      _decode_check(n, recon, out))
        if out is None and dec is not None:
            out = dec.video.frames
        count = ops.count("decode")
        if count >= MAX_REPEATS or (count >= MIN_DECODES and
                                    time.perf_counter() - t_phase >= DECODE_SHARE * seconds):
            break
    metrics = {"bpp": 8.0 * len(data) / (video.width * video.height * n)}
    if out is not None:
        metrics["psnr_db"] = _psnr_db(video, out)

    stream = ops.run("open", "open stream", lambda: container.read_stream(data))
    if stream is None:
        return metrics
    record["fingerprint"] = _fingerprint(data, stream)
    t_phase = time.perf_counter()
    round_no = 0
    while True:
        for t in clips.seek_targets(seed, n, round_no=round_no):
            ops.run("seek", f"seek {t}", lambda: pipeline.decode_frame(stream, t),
                    _seek_check(out, t))
        round_no += 1
        if (ops.count("seek") >= MAX_REPEATS
                or time.perf_counter() - t_phase >= SEEK_SHARE * seconds):
            break
    return metrics


def _timing_metrics(ops: Ops, n: int, import_s: float, record: dict) -> dict:
    """The timed end-to-end metrics, from normalised samples, once all probes are in."""
    metrics = {}
    if ops.count("setup"):
        t0 = ops.gauge.probes[0][0]
        import_norm = import_s * speed.REFERENCE_KERNEL_S / ops.gauge.probe_at(t0)
        metrics["setup_s"] = import_norm + statistics.median(ops.normalised("setup"))
    for metric, kind in (("encode_fps", "encode"), ("decode_fps", "decode")):
        if ops.count(kind):
            metrics[metric] = n / statistics.median(ops.normalised(kind))
    seeks = ops.normalised("seek")
    if seeks:
        metrics["seek_ms_p50"] = 1000.0 * statistics.median(seeks)
        record["seek_samples"] = len(seeks)
        tail = _tail(seeks)
        if tail:
            record["seek_tail"] = {"pct": tail["pct"], "ms": 1000.0 * tail["value"]}
    return metrics


def _traced(clip: clips.Clip, seed: int, ops: Ops, record: dict) -> dict:
    video, cfg = clip.video, clip.config
    n = len(video.frames)
    base = ops.run("encode", "encode", lambda: pipeline.encode(video, cfg))
    if base is None:
        return {}
    _check_reference(ops, clip, seed, record["scale"], base.data)
    tracer = spans.Tracer()
    targets = clips.seek_targets(seed, n, TRACE_SEEKS)
    stream = None
    with spans.installed(tracer) as missing:
        with tracer.span("bench.encode"):
            res = ops.run("traced_encode", "traced encode", lambda: pipeline.encode(video, cfg),
                          lambda r: None if r.data == base.data
                          else "traced stream differs from the untraced stream")
        if res is not None:
            with tracer.span("bench.decode"):
                dec = ops.run("decode", "traced decode", lambda: pipeline.decode_bytes(res.data),
                              _decode_check(n, res.recon, None))
            out = dec.video.frames if dec is not None else None
            with tracer.span("bench.open"):
                stream = ops.run("open", "open stream", lambda: container.read_stream(res.data))
            for t in targets if stream is not None else ():
                with tracer.span("bench.seek"):
                    ops.run("seek", f"traced seek {t}", lambda: pipeline.decode_frame(stream, t),
                            _seek_check(out, t))
    entropy_microbench(seed, ops, ENTROPY_BINS)
    record["missing_spans"] = missing
    record["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    if stream is None or not ops.count("entropy_decode"):
        return {}
    record["fingerprint"] = _fingerprint(res.data, stream)
    (enc0,), (enc1,) = ops.normalised("encode"), ops.normalised("traced_encode")
    ns = {"encode": 1e9 * ops.normalised("entropy_encode")[0] / ENTROPY_BINS,
          "decode": 1e9 * ops.normalised("entropy_decode")[0] / ENTROPY_BINS}
    return layers.layer_metrics(tracer.spans, missing, stream, len(targets), ns,
                                100.0 * (enc1 - enc0) / enc0)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = clips.BENCH_SCALE, import_s: float = 0.0) -> tuple[dict, dict]:
    """One benchmark run: (result line, detailed record).

    import_s is the wall time the caller spent importing numpy and fbv; it
    is normalised with the first probe after those imports.
    """
    ops = Ops(speed.Gauge())
    record: dict = {"workload": workload, "seed": seed, "scale": scale,
                    "seconds": seconds, "trace": int(trace), "import_s": import_s}
    clip = _setup(workload, seed, scale, ops)
    if clip is None:
        metrics = {}
    elif trace:
        metrics = _traced(clip, seed, ops, record)
    else:
        metrics = _untraced(clip, seed, seconds, ops, record)
        metrics.update(_timing_metrics(ops, len(clip.video.frames), import_s, record))
        metrics["peak_rss_mb"] = _peak_rss_mb()
        metrics = {k: {"value": float(metrics[k]), "unit": UNITS[k]}
                   for k in UNITS if k in metrics}
    record["samples"] = {"raw_s": {k: ops.raw(k) for k in ops.stretches},
                         "normalised_s": {k: ops.normalised(k) for k in ops.stretches}}
    record["failures"] = ops.failures
    result = {"correct": not ops.failures, "attempted": ops.attempted,
              "failed": len(ops.failures), "metrics": metrics}
    return result, record
