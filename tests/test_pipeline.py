"""End-to-end encoder/decoder behavior on synthetic sequences."""

import gc
import struct
import time
import tracemalloc
import weakref
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import fields, replace

import numpy as np
import pytest

from fbv import evaluate, pipeline
from fbv.bgtemplate import encode_template, interpolated_background
from fbv.container import (ContainerError, FbvStream, StreamHeader, TemplateRecord,
                           budget_of, read_stream, write_stream)
from fbv.core import ConfigError, FbvError, Frame, Region, RegionSet, VideoSequence
from fbv.entropy import EntropyDecodeError
from fbv.evaluate import analyze_bytes, rd_sweep, score, sweep_csv
from fbv.metrics import ms_ssim, ms_ssim_reference
from fbv.pipeline import (QUALITY_LADDER, EncoderConfig, decode_bytes, decode_frame, encode,
                          ladder_point)
from fbv.residual import QualityPoint

from conftest import (counting_read_stream, moving_square_video, one_process, smooth_texture,
                      static_video, step_video)

FAST = dict(init_frames=8)


@pytest.fixture(scope="module")
def sq_video():
    return moving_square_video(n=24)


@pytest.fixture(scope="module")
def sq_result(sq_video):
    return encode(sq_video, EncoderConfig(**FAST))


@pytest.fixture(scope="module")
def step_result():
    # brightness steps force three templates; cadence 2 makes the third an anchor
    return encode(step_video(), EncoderConfig(anchor_interval=2, learning_rate=0.2, **FAST))


def _counting(monkeypatch, name: str, arg: int):
    """Patch fbv.pipeline.<name>; returns the list of each call's positional argument arg.
    The test runs in_one_process, as a forked worker's calls would go uncounted."""
    calls = []
    original = getattr(pipeline, name)

    def counted(*args, **kwargs):
        calls.append(args[arg])
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


def _counting_template_decodes(monkeypatch):
    """The frame numbers of the templates fbv.pipeline decodes, in call order."""
    return _counting(monkeypatch, "decode_template", 2)


class TestEncodeBasics:
    def test_byte_determinism(self, sq_video):
        a = encode(sq_video, EncoderConfig(**FAST))
        b = encode(sq_video, EncoderConfig(**FAST))
        assert a.data == b.data

    def test_closed_loop_is_bit_exact(self, sq_video, sq_result):
        dec = decode_bytes(sq_result.data)
        assert len(dec.pre_enhance) == len(sq_result.recon)
        for got, want in zip(dec.pre_enhance, sq_result.recon):
            assert got.frame_index == want.frame_index
            assert np.array_equal(got.planes, want.planes)

    def test_gate_trace_covers_every_frame(self, sq_video, sq_result):
        assert len(sq_result.gate_trace) == len(sq_video.frames)
        assert all(0.0 <= s <= 1.0 for s in sq_result.gate_trace)

    def test_quality_report_is_sane(self, sq_video, sq_result):
        stream = sq_result.stream
        q = score(sq_video, stream, len(sq_result.data), pipeline.output_frames(stream))
        assert q.psnr_mean > 25.0
        assert 0.8 < q.ms_ssim_mean <= 1.0
        assert 0.0 < q.bpp < 8.0

    def test_header_carries_decode_parameters(self, sq_video):
        cfg = EncoderConfig(delta_q=2.5, levels=3, gamma=0.97, **FAST)
        result = encode(sq_video, cfg)
        h = result.stream.header
        assert h.levels == 3
        assert h.delta_fp == 640          # 2.5 * 256
        assert h.gamma_fp == 9700
        assert h.quality == QualityPoint(2.5, 3)
        assert (h.width, h.height) == (64, 64)
        assert h.frame_count == 24

    @pytest.mark.parametrize("score,templates", [(0.97, 1), (0.9699, 24)])
    def test_gate_compares_against_the_header_gamma(self, sq_video, monkeypatch,
                                                    score, templates):
        # gamma 0.970049 travels as 9700, so the gate admits below exactly 0.97
        monkeypatch.setattr(pipeline, "ms_ssim", lambda a, b: score)
        result = encode(sq_video, EncoderConfig(gamma=0.970049, **FAST))
        assert result.stream.header.gamma_fp == 9700
        assert len(result.stream.templates) == templates

    def test_too_few_frames_for_initialization(self, sq_video):
        with pytest.raises(FbvError, match="initialization"):
            encode(sq_video, EncoderConfig(init_frames=500))

    def test_moving_object_produces_foreground_records(self, sq_result):
        assert len(sq_result.stream.foregrounds) > 0
        assert sq_result.budget.bits_fg_motion > 0
        assert sq_result.budget.bits_fg_residual > 0


@pytest.fixture(scope="module")
def static_result(static_clip):
    return encode(static_clip, EncoderConfig(**FAST))


def _candidates(monkeypatch):
    """The background estimate planes encode's pass two gates, one per frame; the
    test runs in_one_process, as a forked worker's would go unrecorded."""
    planes = []
    original = pipeline.gmm_update

    def recorded(state, frame):
        state, sep = original(state, frame)
        planes.append(sep.background.planes)
        return state, sep

    monkeypatch.setattr(pipeline, "gmm_update", recorded)
    return planes


class TestEncodeOnlyEncodes:
    def test_one_gate_evaluation_per_changed_candidate_or_template(self, monkeypatch,
                                                                   in_one_process):
        video = step_video()
        candidates = _candidates(monkeypatch)
        scored = _counting(monkeypatch, "ms_ssim", 1)
        result = encode(video, EncoderConfig(learning_rate=0.2, **FAST))
        admitted = {tr.frame_no for tr in result.stream.templates} - {0}
        assert len(admitted) >= 2                     # beside the anchor at frame 0
        # frame t is scored when its candidate differs from frame t-1's or
        # frame t-1 admitted a template; frame 0 always is
        want = [t for t in range(len(video.frames))
                if t == 0 or t - 1 in admitted
                or not np.array_equal(candidates[t], candidates[t - 1])]
        assert [c.frame_index for c in scored] == want
        assert len(want) < len(video.frames)

    def test_gate_trace_is_the_score_against_the_template_in_force(self, monkeypatch,
                                                                   in_one_process):
        video = step_video()
        candidates = _candidates(monkeypatch)
        result = encode(video, EncoderConfig(learning_rate=0.2, **FAST))
        dec = pipeline.Decoder(result.stream)
        tframes = [tr.frame_no for tr in result.stream.templates]
        assert len(result.gate_trace) == len(candidates) == len(video.frames)
        for t, planes in enumerate(candidates):
            # the last template admitted before frame t's gate; frame 0's is the anchor
            j = max(bisect_left(tframes, t) - 1, 0)
            want = ms_ssim(ms_ssim_reference(dec.template(j)), Frame(planes, t))
            assert result.gate_trace[t] == want, t

    def test_one_gate_reference_per_admitted_template(self, monkeypatch, in_one_process):
        built = _counting(monkeypatch, "ms_ssim_reference", 0)
        result = encode(step_video(), EncoderConfig(learning_rate=0.2, **FAST))
        assert len(result.stream.templates) >= 3      # the anchor plus two
        assert [f.frame_index for f in built] == [
            tr.frame_no for tr in result.stream.templates]

    def test_encode_neither_decodes_nor_scores(self, sq_video, sq_result,
                                               monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("encode must not decode or score its output")

        monkeypatch.setattr(pipeline, "decode_bytes", forbidden)
        monkeypatch.setattr(evaluate, "score", forbidden)
        assert encode(sq_video, EncoderConfig(**FAST)).data == sq_result.data


class TestStaticScene:
    def test_one_gate_evaluation_for_the_unchanging_candidate(self, static_clip,
                                                               static_result, monkeypatch,
                                                               in_one_process):
        scored = _counting(monkeypatch, "ms_ssim", 1)
        assert encode(static_clip, EncoderConfig(**FAST)).data == static_result.data
        assert len(scored) == 1

    def test_stream_shape(self, static_clip, static_result):
        stream = static_result.stream
        n = len(static_clip.frames)
        assert len(stream.templates) == 1
        assert stream.templates[0].anchor
        assert len(stream.foregrounds) == 0
        assert stream.segments == ((0, n - 1),)

    def test_all_bits_are_background(self, static_result):
        b = static_result.budget
        assert b.bits_fg_residual == 0
        assert b.bits_fg_motion == 0
        assert b.bits_bg_residual > 0

    def test_decode_replays_the_template(self, static_result):
        dec = decode_bytes(static_result.data)
        first = dec.video.frames[0].planes
        for f in dec.video.frames[1:]:
            assert np.array_equal(f.planes, first)


class TestDecode:
    def test_enhance_changes_foreground_frames_only(self, sq_result):
        dec = decode_bytes(sq_result.data)
        fg_frames = {f.frame_no for f in sq_result.stream.foregrounds}
        changed = {
            t for t, (a, b) in enumerate(zip(dec.pre_enhance, dec.video.frames))
            if not np.array_equal(a.planes, b.planes)}
        assert changed <= fg_frames
        assert changed        # feathering must do something on this clip

    def test_reference_mismatch_rejected(self, sq_video, sq_result):
        stream = sq_result.stream
        short = VideoSequence(sq_video.frames[:-1], 25, 1)
        small = VideoSequence(tuple(Frame(f.planes[:, :48, :48], f.frame_index)
                                    for f in sq_video.frames), 25, 1)
        for reference in (short, small):
            with pytest.raises(ConfigError, match="reference is"):
                score(reference, stream, len(sq_result.data), pipeline.output_frames(stream))

    def test_a_decode_of_another_length_is_rejected(self, sq_video, sq_result):
        # a walk one frame short or long is an error, not a report on the frames it has
        stream = sq_result.stream
        walk = list(pipeline.output_frames(stream))
        for frames in (walk[:5], walk[:-1], walk + walk[-1:]):
            with pytest.raises(ValueError) as err:
                score(sq_video, stream, len(sq_result.data), frames)
            assert not isinstance(err.value, ConfigError)

    def test_background_and_foreground_frames_mix(self):
        # frame 0 has no foreground and scores whole into the background score;
        # frame 1 has one region and differs from its source only inside it
        rng = np.random.default_rng(7)
        src = [Frame(rng.integers(0, 256, (3, 32, 32), dtype=np.uint8), t) for t in range(2)]
        noisy = src[0].planes + rng.integers(-20, 21, (3, 32, 32))
        changed = src[1].planes.copy()
        changed[:, 8:16, 8:24] ^= 0x55
        rec = [Frame(np.clip(noisy, 0, 255).astype(np.uint8), 0), Frame(changed, 1)]
        regions = RegionSet((Region(8, 8, 16, 8),), 32, 32)
        stream = FbvStream(StreamHeader(32, 32, 25, 1, 2, 2, 512, 9800), (), ())
        q = score(VideoSequence(tuple(src), 25, 1), stream, 1000,
                  [(rec[0], None), (rec[1], regions)])
        whole = ms_ssim(src[0], rec[0])
        inside = regions.mask
        m_f = ms_ssim(np.where(inside, src[1].planes, 0), np.where(inside, rec[1].planes, 0))
        m_b = (whole + 1.0) / 2         # frame 1's background is exact
        r_f = 128 / 1024 / 2            # the region's area, averaged over both frames
        assert q.ms_ssim_per_frame[0] == whole
        assert 0.1 < m_f < whole < 0.99
        assert q.fb_mixture == pytest.approx((1 - r_f) * m_f + r_f * m_b, abs=1e-12)

    def test_pipeline_holds_no_scorer(self):
        for name in ("psnr", "laplacian_sharpness", "fb_mixture", "rd_objective"):
            assert not hasattr(pipeline, name), name

    def test_frame_indices_are_sequential(self, sq_result):
        dec = decode_bytes(sq_result.data)
        for t, f in enumerate(dec.video.frames):
            assert f.frame_index == t


class TestForeground:
    def test_regions_rebuilt_clamped_and_zero_outside(self):
        rng = np.random.default_rng(17)
        # one region meets the right and bottom edges, one is not a multiple of 8
        rs = RegionSet((Region(0, 0, 8, 8), Region(19, 13, 13, 11)), 24, 32)
        predictions = [rng.integers(0, 256, (3, r.h, r.w)) for r in rs.regions]
        residuals = [rng.integers(-300, 301, (3, r.h, r.w)) for r in rs.regions]
        fg = pipeline._foreground(rs, predictions, residuals, 7)
        assert fg.frame_index == 7
        assert fg.planes.shape == (3, 24, 32)
        for r, prediction, residual in zip(rs.regions, predictions, residuals):
            assert np.array_equal(fg.planes[:, r.y:r.y2, r.x:r.x2],
                                  np.clip(prediction + residual, 0, 255))
        assert (fg.planes[:, ~rs.mask] == 0).all()


class TestRandomAccess:
    def test_matches_sequential_everywhere(self, sq_result):
        stream = read_stream(sq_result.data)
        seq = [frame for frame, _ in pipeline.output_frames(stream)]
        for t in range(0, stream.header.frame_count, 5):
            got = decode_frame(stream, t)
            assert np.array_equal(got.planes, seq[t].planes), t

    def test_out_of_range_frame(self, sq_result):
        stream = read_stream(sq_result.data)
        for t in (-1, stream.header.frame_count):
            with pytest.raises(ContainerError, match="out of range"):
                decode_frame(stream, t)

    def test_across_anchor_restart(self, step_result):
        # mid-bracket seeks before the re-anchoring template rebuild the earlier chain
        templates = step_result.stream.templates
        assert [t.anchor for t in templates] == [True, False, True]
        stream = read_stream(step_result.data)
        seq = [frame for frame, _ in pipeline.output_frames(stream)]
        for t in range(stream.header.frame_count):
            got = decode_frame(stream, t)
            assert np.array_equal(got.planes, seq[t].planes), t

    def test_template_decodes_per_seek(self, step_result, monkeypatch, in_one_process):
        stream = read_stream(step_result.data)
        t0, t1, t2 = (t.frame_no for t in stream.templates)
        calls = _counting_template_decodes(monkeypatch)
        decode_frame(stream, (t1 + t2) // 2)
        assert calls == [t0, t1, t2]
        calls.clear()
        decode_frame(read_stream(step_result.data), t2)
        assert calls == [t2]
        calls.clear()
        decode_frame(stream, t2)
        assert calls == []


class TestOneWalk:
    """Full decode and seeks are one walk that decodes a record at its own frame."""

    def test_frames_stream_one_at_a_time(self, sq_result):
        # a walk that keeps no frame holds one foreground reference, whatever the length
        peaks = []
        for data in (sq_result.data, encode(moving_square_video(n=48), EncoderConfig(**FAST)).data):
            stream = read_stream(data)
            tracemalloc.start()
            try:
                for _ in pipeline.Decoder(stream).frames():
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks

    @pytest.mark.parametrize("t,records", [(14, 3), (24, 1), (20, 0)])
    def test_seek_decodes_its_run_up_to_the_frame(self, step_result, monkeypatch, in_one_process,
                                                  t, records):
        assert [f.frame_no for f in step_result.stream.foregrounds] == [12, 13, 14, 15, 24, 25, 26]
        stream = read_stream(step_result.data)
        calls = _counting(monkeypatch, "decode_residual", 0)
        decode_frame(stream, t)
        assert len(calls) == records

    def test_walk_from_a_frame_matches_sequential(self, step_result):
        dec = decode_bytes(step_result.data)
        pre, out = dec.pre_enhance, dec.video.frames
        got = list(pipeline.Decoder(read_stream(step_result.data)).frames(14))
        assert len(got) == len(out) - 14
        fg_frames = {f.frame_no for f in step_result.stream.foregrounds}
        for t, (p, regions) in enumerate(got, 14):
            assert (regions is None) == (t not in fg_frames), t
            o = p if regions is None else pipeline.enhance(p, regions)
            assert p.frame_index == o.frame_index == t
            assert np.array_equal(p.planes, pre[t].planes), t
            assert np.array_equal(o.planes, out[t].planes), t

    def test_non_integer_frame_rejected(self, step_result):
        stream = read_stream(step_result.data)
        for t in (20.5, 20.0, "20"):
            with pytest.raises(TypeError):
                decode_frame(stream, t)
        got = decode_frame(stream, np.int64(20))
        assert got.frame_index == 20
        assert np.array_equal(got.planes, decode_frame(stream, 20).planes)


def _stratified(n: int, slices: int, seed: int) -> list[int]:
    """The middle frame of each of `slices` equal slices of 0..n-1, in seeded order."""
    centres = [(2 * k + 1) * n // (2 * slices) for k in range(slices)]
    return np.random.default_rng(seed).permutation(centres).tolist()


class TestCheckpoints:
    """A seek keeps every CHECKPOINT-th record it replays, and later seeks resume there."""

    @pytest.mark.parametrize("which", ["square", "step"])
    def test_any_seek_order_on_one_stream_matches_sequential(self, sq_result, step_result,
                                                            which):
        data = {"square": sq_result, "step": step_result}[which].data
        seq = decode_bytes(data).video.frames
        n = len(seq)
        stream = read_stream(data)
        orders = [np.random.default_rng(5).permutation(n).tolist(), _stratified(n, 6, 7),
                  np.random.default_rng(9).permutation(n).tolist(), _stratified(n, 4, 1)]
        for order in orders:
            for t in order:
                assert np.array_equal(decode_frame(stream, t).planes, seq[t].planes), t

    def test_warm_seek_decodes_at_most_k_records(self, sq_result, monkeypatch, in_one_process):
        stream = read_stream(sq_result.data)
        records = len(stream.foregrounds)
        n = stream.header.frame_count
        assert [f.frame_no for f in stream.foregrounds] == list(range(n))   # one run
        list(pipeline.output_frames(stream))
        kept = pipeline._decoder(stream)._checkpoints
        assert kept == {}                   # a walk from frame 0 replays nothing
        for t in np.random.default_rng(2).permutation(n).tolist():         # warm-up
            decode_frame(stream, t)
        assert sorted(kept) == list(range(0, records - 1, pipeline.CHECKPOINT))
        calls = _counting(monkeypatch, "decode_residual", 0)
        per_seek = []
        for t in np.random.default_rng(4).permutation(n).tolist() + _stratified(n, 5, 0):
            calls.clear()
            decode_frame(stream, t)
            per_seek.append(len(calls))
        assert max(per_seek) == pipeline.CHECKPOINT
        assert len(kept) <= -(-records // pipeline.CHECKPOINT)

    def test_failed_record_keeps_no_checkpoint(self, sq_result, monkeypatch, in_one_process):
        """The square stream with the residual of its record at checkpoint index 2K
        damaged: seeks through it raise alike, keep no checkpoint for it and resume
        below it."""
        stream = read_stream(sq_result.data)
        records = list(stream.foregrounds)
        k = pipeline.CHECKPOINT
        r = 2 * k                                # the failing record, in a run from record 0
        assert [f.frame_no for f in records] == list(range(len(records))) and r + 1 < len(records)
        records[r] = replace(records[r], residual=b"\x00")
        stream = read_stream(write_stream(replace(stream, foregrounds=tuple(records))))
        calls = _counting(monkeypatch, "decode_residual", 0)
        errors, counts = [], []
        for _ in range(2):
            calls.clear()
            with pytest.raises((ContainerError, EntropyDecodeError)) as e:
                decode_frame(stream, r + 1)
            errors.append(e.type)
            counts.append(len(calls))
        assert errors[0] is errors[1]
        assert sorted(pipeline._decoder(stream)._checkpoints) == [0, k]
        # the first seek replays the run up to r, the second resumes after the
        # checkpoint at k; both call the residual decoder for r itself
        assert counts == [r + 1, r - k]


class TestTemplateCache:
    """decode_frame decodes each template once per open stream and keeps it."""

    def test_warm_bracket_decodes_nothing(self, step_result, monkeypatch, in_one_process):
        stream = read_stream(step_result.data)
        _, t1, t2 = (t.frame_no for t in stream.templates)
        decode_frame(stream, (t1 + t2) // 2)
        calls = _counting_template_decodes(monkeypatch)
        for t in range(t1, t2 + 1):
            decode_frame(stream, t)
        assert calls == []

    def test_any_seek_order_matches_sequential(self, step_result):
        n = step_result.stream.header.frame_count
        shuffled = np.random.default_rng(11).permutation(n).tolist()
        seq = decode_bytes(step_result.data).video.frames
        for order in (range(n - 1, -1, -1), shuffled):
            stream = read_stream(step_result.data)
            for t in order:
                got = decode_frame(stream, t)
                assert np.array_equal(got.planes, seq[t].planes), t

    def test_entry_freed_with_the_stream(self, step_result):
        stream = read_stream(step_result.data)
        decode_frame(stream, 0)
        key, ref = id(stream), weakref.ref(stream)
        assert key in pipeline._DECODERS
        del stream
        gc.collect()
        assert ref() is None
        assert key not in pipeline._DECODERS

    def test_failed_template_is_not_kept(self, step_result, monkeypatch, in_one_process):
        good = read_stream(step_result.data)
        first, second, third = good.templates
        assert second.residual and third.anchor
        bad = replace(good, templates=(first, replace(second, residual=b"\x00"), third))
        stream = read_stream(write_stream(bad))
        calls = _counting_template_decodes(monkeypatch)
        for _ in range(2):
            calls.clear()
            with pytest.raises(EntropyDecodeError):
                decode_frame(stream, (first.frame_no + second.frame_no) // 2)
            assert calls[-1] == second.frame_no
        # frames bracketed by the first template alone, or by the later anchor, still decode
        for t in (first.frame_no, third.frame_no, good.header.frame_count - 1):
            assert np.array_equal(decode_frame(stream, t).planes, decode_frame(good, t).planes)

    def test_seeks_decode_each_template_at_most_once(self, step_result, monkeypatch,
                                                     in_one_process):
        stream = read_stream(step_result.data)
        assert len(stream.templates) > 2
        n = stream.header.frame_count
        calls = _counting_template_decodes(monkeypatch)
        for t in np.random.default_rng(3).integers(0, n, 34).tolist():
            decode_frame(stream, t)
        assert len(calls) <= len(stream.templates)
        assert sorted(calls) == sorted(set(calls))


def _bracket_stream():
    """Templates at 100 (anchor), 140 (chained) and 180 (anchor) of 200 frames."""
    bg = smooth_texture(16, 16)
    p100, i100 = encode_template(None, Frame(bg, 100))
    p140, i140 = encode_template(i100, Frame(bg // 2, 140))
    p180, i180 = encode_template(None, Frame(bg // 3, 180))
    header = StreamHeader(width=16, height=16, fps_num=25, fps_den=1, frame_count=200,
                          levels=1, delta_fp=2048, gamma_fp=9800)
    templates = (TemplateRecord(100, True, p100), TemplateRecord(140, False, p140),
                 TemplateRecord(180, True, p180))
    stream = FbvStream(header, templates, ())
    return read_stream(write_stream(stream)), {100: i100, 140: i140, 180: i180}


class TestBracket:
    # case: (frame, its bracketing template frames, the templates a seek decodes)
    TABLE = {
        "before_first_template": (50, (100, 100), [100]),
        "on_template_frame": (140, (140, 140), [100, 140]),
        "between_templates": (120, (100, 140), [100, 140]),
        # the bracket (140, 180) needs 140's history even though 180 restarts
        "chain_covers_prev_when_next_is_anchor": (150, (140, 180), [100, 140, 180]),
        "on_anchor": (180, (180, 180), [180]),
        "after_last_template": (195, (180, 180), [180]),
    }

    @pytest.mark.parametrize("case", list(TABLE))
    def test_bracket_and_chain(self, case, monkeypatch, in_one_process):
        t, want_bracket, want_chain = self.TABLE[case]
        stream, images = _bracket_stream()
        tframes = [tr.frame_no for tr in stream.templates]
        i, k = pipeline._bracket(tframes, t)
        assert (tframes[i], tframes[k]) == want_bracket
        calls = _counting_template_decodes(monkeypatch)
        got = decode_frame(stream, t)
        assert calls == want_chain
        lo, hi = want_bracket
        m, j = (hi - lo, hi - t) if lo != hi else (1, 0)
        want = interpolated_background(images[lo], images[hi], m, j)
        assert np.array_equal(got.planes, want.planes)


class TestConfig:
    def test_fields_are_the_knobs_callers_set(self):
        assert [f.name for f in fields(EncoderConfig)] == [
            "gamma", "delta_q", "levels", "learning_rate", "init_frames", "anchor_interval"]

    def test_gamma_bounds(self):
        for gamma in (0.0, 1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                EncoderConfig(gamma=gamma)
        # the header carries round(gamma * 10^4), which must stay in (0, 10^4)
        for gamma in (0.00004, 0.99996):
            with pytest.raises(ValueError, match="precision"):
                EncoderConfig(gamma=gamma)

    def test_component_validation_happens_at_construction(self):
        with pytest.raises(ValueError):
            EncoderConfig(levels=0)
        with pytest.raises(ValueError, match="8.8 fixed point"):
            EncoderConfig(delta_q=300.0)     # the header's delta field is u16
        with pytest.raises(ValueError):
            EncoderConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            EncoderConfig(init_frames=0)
        with pytest.raises(ValueError):
            EncoderConfig(anchor_interval=0)

    def test_quality_ladder(self):
        assert QUALITY_LADDER[1] == QualityPoint(8.0, 1)
        assert QUALITY_LADDER[4] == QualityPoint(1.0, 4)
        assert ladder_point(2) == QualityPoint(4.0, 2)
        with pytest.raises(ValueError, match="quality point"):
            ladder_point(9)


STAGES = ["separation", "gate", "template coding", "region extraction",
          "motion estimation", "motion compensation", "residual codec",
          "container", "reconstruction"]
FOREGROUND_STAGES = {"motion estimation", "motion compensation", "residual codec"}


BACKGROUND_STAGES = STAGES[:3]


class TestTiming:
    def test_report_rows_and_totals(self, sq_video):
        static = static_video(n=12)
        for one in (True, False):
            for video, want in ((sq_video, STAGES),
                                (static, [s for s in STAGES if s not in FOREGROUND_STAGES])):
                config = EncoderConfig(**FAST)
                with one_process() if one else nullcontext():
                    t0 = time.perf_counter()
                    res = encode(video, config)
                    wall = time.perf_counter() - t0
                assert all(s >= 0.0 for s in res.stage_s.values())
                if one:
                    assert list(res.stage_s) == want
                    # the stages are exclusive and cover encode's wall time
                    covered = sum(res.stage_s.values())
                else:
                    # the background rows are the worker's and overlap the rest;
                    # this process's rows and its wait for the worker cover the wall time
                    assert list(res.stage_s) == want[:3] + ["background wait"] + want[3:]
                    covered = sum(s for stage, s in res.stage_s.items()
                                  if stage not in BACKGROUND_STAGES)
                assert abs(covered - wall) <= 0.05 * wall, (one, res.stage_s, wall)
                assert decode_bytes(res.data).decode_total_s > 0


class TestAnalyze:
    def test_report_contents(self, sq_result):
        text = analyze_bytes(sq_result.data)
        budget = budget_of(sq_result.stream)
        n = sq_result.stream.header.frame_count
        want_bpp = 8.0 * len(sq_result.data) / (64 * 64 * n)
        for needle in ("template", "fgframe", "segments:",
                       f"BR  background residual  {budget.bits_bg_residual:10d} bits",
                       f"FR  foreground residual  {budget.bits_fg_residual:10d} bits",
                       f"FMV foreground motion    {budget.bits_fg_motion:10d} bits",
                       f"bpp: {want_bpp:.6f}"):
            assert needle in text

    def test_payload_column_matches_the_wire(self, sq_result):
        text = analyze_bytes(sq_result.data)
        rows = [line.split() for line in text.splitlines()
                if line.startswith(("  template ", "  fgframe "))]
        stream = sq_result.stream
        assert len(rows) == len(stream.templates) + len(stream.foregrounds)
        bg_index_offset, _, _ = struct.unpack_from("<QQ4s", sq_result.data,
                                                   len(sq_result.data) - 20)
        # every record is a 9-byte head plus its payload, after the 23-byte preamble and header
        assert sum(int(r[2]) + 9 for r in rows) == bg_index_offset - 23


class TestRdSweep:
    def test_two_ladder_points(self, sq_video):
        rows = rd_sweep(sq_video, [1, 4], EncoderConfig(**FAST))
        assert len(rows) == 2
        assert rows[0].bpp < rows[1].bpp
        assert rows[0].psnr_db <= rows[1].psnr_db
        assert rows[0].delta_q == 8.0 and rows[0].levels == 1
        assert rows[1].delta_q == 1.0 and rows[1].levels == 4

    def test_scores_the_encoded_stream_without_parsing_it(self, sq_video, monkeypatch):
        calls = counting_read_stream(monkeypatch)
        rd_sweep(sq_video, [1, 4], EncoderConfig(**FAST))
        assert calls == []

    def test_needs_two_points(self, sq_video):
        with pytest.raises(ValueError, match="at least two"):
            rd_sweep(sq_video, [2], EncoderConfig(**FAST))

    def test_unknown_ladder_point(self, sq_video):
        with pytest.raises(ValueError, match="ladder"):
            rd_sweep(sq_video, [1, 7], EncoderConfig(**FAST))

    def test_csv_shape(self, sq_video):
        rows = rd_sweep(sq_video, [QualityPoint(8.0, 1), QualityPoint(4.0, 2)],
                        EncoderConfig(**FAST))
        text = sweep_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "delta_q,levels,bpp,psnr_db,ms_ssim,fb_mixture"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 8.0
        assert int(first[1]) == 1
