"""Command-line behavior: workflows, precedence, exit codes."""

import json
import os
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fbv import pipeline
from fbv.cli import EXIT_FORMAT, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from fbv.container import read_stream, write_stream
from fbv.core import RegionSet, read_y4m, write_y4m
from fbv.motion import decode_flow, encode_flow
from fbv.pipeline import decode_bytes

from conftest import counting_read_stream, moving_square_video


def _encoded(d, n):
    src, fbv = d / f"src{n}.y4m", d / f"clip{n}.fbv"
    write_y4m(moving_square_video(h=48, w=48, n=n), str(src), force_444=True)
    assert main(["encode", "-i", str(src), "-o", str(fbv), "--init-frames", "8"]) == EXIT_OK
    return d, src, fbv


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return _encoded(tmp_path_factory.mktemp("cli"), 16)


@pytest.fixture(scope="module")
def work48(tmp_path_factory):
    """A 48-frame clip: long enough that a decoded copy of it shows in a traced peak."""
    return _encoded(tmp_path_factory.mktemp("cli48"), 48)


class TestEncode:
    def test_reports_rate_quality_and_timing(self, work, capsys):
        d, src, _ = work
        out = d / "again.fbv"
        rc = main(["encode", "-i", str(src), "-o", str(out), "--init-frames", "8"])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.exists()
        assert "bpp" in captured
        assert "bit split: BR" in captured
        assert "timing (mean ms/frame):" in captured
        assert "separation" in captured

    def test_quality_ladder_flag(self, work):
        d, src, _ = work
        out = d / "q2.fbv"
        rc = main(["encode", "-i", str(src), "-o", str(out),
                   "--init-frames", "8", "--quality", "2"])
        assert rc == EXIT_OK
        h = read_stream(out.read_bytes()).header
        assert h.levels == 2
        assert h.delta_fp == 1024

    def test_explicit_flag_beats_quality_point(self, work):
        d, src, _ = work
        out = d / "q2l3.fbv"
        rc = main(["encode", "-i", str(src), "-o", str(out),
                   "--init-frames", "8", "--quality", "2", "--levels", "3"])
        assert rc == EXIT_OK
        h = read_stream(out.read_bytes()).header
        assert h.levels == 3
        assert h.delta_fp == 1024

    def test_config_file_and_flag_precedence(self, work):
        d, src, _ = work
        cfg = d / "enc.cfg"
        cfg.write_text(
            "# sample settings\n"
            "delta_q = 4.0\n"
            "levels = 2\n"
            "init_frames = 8\n")
        out = d / "cfg.fbv"
        rc = main(["encode", "-i", str(src), "-o", str(out),
                   "--config", str(cfg), "--delta-q", "2.0"])
        assert rc == EXIT_OK
        h = read_stream(out.read_bytes()).header
        assert h.delta_fp == 512     # flag wins
        assert h.levels == 2         # file value survives

    def test_unknown_config_key(self, work):
        d, src, _ = work
        cfg = d / "bad.cfg"
        cfg.write_text("sharpness = 3\n")
        rc = main(["encode", "-i", str(src), "-o", str(d / "x.fbv"),
                   "--config", str(cfg)])
        assert rc == EXIT_USAGE


class TestDecode:
    def test_round_trip_with_report(self, work, capsys):
        d, src, fbv = work
        out = d / "out.y4m"
        report = d / "report.csv"
        rc = main(["decode", "-i", str(fbv), "-o", str(out),
                   "--reference", str(src), "--report", str(report)])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "psnr" in captured
        summary = next(l for l in captured.splitlines() if l.startswith("{"))
        parsed = json.loads(summary)
        assert parsed["frames"] == 16
        assert parsed["psnr_db"] > 20.0
        decoded = read_y4m(str(out))
        assert len(decoded.frames) == 16
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "frame,psnr_db,ms_ssim"
        data_rows = [l for l in lines[1:] if not l.startswith("summary")]
        summary_rows = [l for l in lines[1:] if l.startswith("summary")]
        assert len(data_rows) == 16
        assert len(summary_rows) == 3
        assert float(data_rows[0].split(",")[1]) > 20.0

    def test_no_enhance_changes_output(self, work, monkeypatch):
        d, _, fbv = work
        plain = d / "plain.y4m"
        nice = d / "nice.y4m"
        calls = []
        feather = pipeline.enhance
        monkeypatch.setattr(pipeline, "enhance", lambda *a: calls.append(1) or feather(*a))
        assert main(["decode", "-i", str(fbv), "-o", str(nice)]) == EXIT_OK
        assert calls
        calls.clear()
        assert main(["decode", "-i", str(fbv), "-o", str(plain),
                     "--no-enhance"]) == EXIT_OK
        assert calls == []      # nothing is feathered only to be thrown away
        a = read_y4m(str(plain))
        b = read_y4m(str(nice))
        assert any(not np.array_equal(x.planes, y.planes)
                   for x, y in zip(a.frames, b.frames))
        # --no-enhance writes the frames decode computes before feathering
        pre = decode_bytes(fbv.read_bytes()).pre_enhance
        assert len(a.frames) == len(pre)
        for x, y in zip(a.frames, pre):
            assert np.array_equal(x.planes, y.planes)

    def test_decode_streams_frames_to_the_file(self, work, work48, tmp_path):
        # without --reference each frame is written as it decodes: the output is the
        # collected decode's, and memory does not grow with the clip's length
        d, _, fbv = work
        decoded = decode_bytes(fbv.read_bytes())
        out, want = tmp_path / "out.y4m", tmp_path / "want.y4m"
        for extra, frames in (([], decoded.video.frames), (["--no-enhance"], decoded.pre_enhance)):
            assert main(["decode", "-i", str(fbv), "-o", str(out)] + extra) == EXIT_OK
            write_y4m(replace(decoded.video, frames=frames), str(want), force_444=True)
            assert out.read_bytes() == want.read_bytes()
        peaks = []
        for clip in (fbv, work48[2]):
            tracemalloc.start()
            try:
                assert main(["decode", "-i", str(clip), "-o", str(out)]) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.15 * peaks[0], peaks

    def test_reference_decode_parses_once_and_writes_the_plain_decode(self, work, tmp_path,
                                                                       monkeypatch):
        # with --reference the one walk is scored as it is written
        _, src, fbv = work
        plain, scored = tmp_path / "plain.y4m", tmp_path / "scored.y4m"
        calls = counting_read_stream(monkeypatch)
        for extra in ([], ["--no-enhance"]):
            assert main(["decode", "-i", str(fbv), "-o", str(plain)] + extra) == EXIT_OK
            calls.clear()
            assert main(["decode", "-i", str(fbv), "-o", str(scored),
                         "--reference", str(src)] + extra) == EXIT_OK
            assert len(calls) == 1
            assert scored.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("extra", [[], ["--no-enhance"]])
    def test_reference_decode_holds_no_decoded_clip(self, work48, tmp_path, extra):
        # scoring keeps per-frame numbers only: beyond the plain decode, the traced peak
        # holds the reference and one frame's scoring, never a decoded copy of the clip
        _, src, fbv = work48
        out = tmp_path / "out.y4m"
        peaks = []
        for ref in ([], ["--reference", str(src)]):
            tracemalloc.start()
            try:
                assert main(["decode", "-i", str(fbv), "-o", str(out)] + extra + ref) == EXIT_OK
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        reference_bytes = 3 * 48 * 48 * 48
        assert peaks[1] - peaks[0] < 1.5 * reference_bytes, peaks

    @pytest.mark.parametrize("frames,size", [(10, 48), (16, 32)])
    def test_reference_that_does_not_fit_is_a_usage_error(self, work, tmp_path,
                                                           frames, size):
        _, _, fbv = work
        ref, out = tmp_path / "ref.y4m", tmp_path / "out.y4m"
        write_y4m(moving_square_video(h=size, w=size, n=frames), str(ref), force_444=True)
        rc = main(["decode", "-i", str(fbv), "-o", str(out), "--reference", str(ref)])
        assert rc == EXIT_USAGE
        assert not out.exists()

    def test_report_requires_reference(self, work):
        d, _, fbv = work
        rc = main(["decode", "-i", str(fbv), "-o", str(d / "z.y4m"),
                   "--report", str(d / "z.csv")])
        assert rc == EXIT_USAGE


class TestAnalyze:
    def test_dump(self, work, capsys):
        _, _, fbv = work
        rc = main(["analyze", "-i", str(fbv)])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "bpp:" in captured
        assert "template" in captured
        assert "segments:" in captured


class TestRdSweep:
    def test_ladder_and_pair_tokens(self, work, capsys):
        d, src, _ = work
        out = d / "sweep.csv"
        rc = main(["rd-sweep", "-i", str(src), "--qualities", "1,Q2,2.5:3",
                   "-o", str(out), "--init-frames", "8"])
        captured = capsys.readouterr().out
        assert rc == EXIT_OK
        lines = captured.strip().splitlines()
        assert lines[0] == "delta_q,levels,bpp,psnr_db,ms_ssim,fb_mixture"
        assert len(lines) == 4
        assert out.read_text() == captured
        third = lines[3].split(",")
        assert float(third[0]) == 2.5
        assert int(third[1]) == 3

    def test_single_point_rejected(self, work):
        _, src, _ = work
        rc = main(["rd-sweep", "-i", str(src), "--qualities", "1",
                   "--init-frames", "8"])
        assert rc == EXIT_USAGE


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        rc = main(["encode", "-i", str(tmp_path / "nope.y4m"),
                   "-o", str(tmp_path / "out.fbv")])
        assert rc == EXIT_IO

    def test_wrong_container_format(self, work, tmp_path):
        _, src, _ = work
        rc = main(["decode", "-i", str(src), "-o", str(tmp_path / "out.y4m")])
        assert rc == EXIT_FORMAT

    def test_garbage_container(self, tmp_path):
        bad = tmp_path / "bad.fbv"
        bad.write_bytes(b"garbage")
        rc = main(["decode", "-i", str(bad), "-o", str(tmp_path / "out.y4m")])
        assert rc == EXIT_FORMAT

    @pytest.mark.parametrize("component", [40, 40000])
    def test_out_of_range_flow_component_is_a_format_error(self, work, tmp_path, component):
        # a well-formed payload whose first decoded vector leaves the search range
        _, _, fbv = work
        stream = read_stream(fbv.read_bytes())
        rec = stream.foregrounds[0]
        h, w = stream.header.height, stream.header.width
        grids = [g.astype(np.int64) for g in
                 decode_flow(rec.flow, RegionSet(rec.regions, h, w)).vectors]
        grids[0][0, 0, 0] = component
        # FlowField rejects such a vector, so code it from a plain record of the grids
        flow = encode_flow(SimpleNamespace(regions=rec.regions, vectors=grids))
        bad = tmp_path / "bad.fbv"
        bad.write_bytes(write_stream(replace(
            stream, foregrounds=(replace(rec, flow=flow),) + stream.foregrounds[1:])))
        out = tmp_path / "out.y4m"
        assert main(["decode", "-i", str(bad), "-o", str(out)]) == EXIT_FORMAT
        assert not out.exists()

    def test_decode_failing_partway_leaves_no_output(self, work, tmp_path):
        # frames before the damaged record are written first; the failure removes them
        _, _, fbv = work
        stream = read_stream(fbv.read_bytes())
        records = list(stream.foregrounds)
        assert records[-1].frame_no > 0
        records[-1] = replace(records[-1], residual=b"\x00")
        bad = tmp_path / "bad.fbv"
        bad.write_bytes(write_stream(replace(stream, foregrounds=tuple(records))))
        out = tmp_path / "out.y4m"
        for extra in ([], ["--no-enhance"]):
            assert main(["decode", "-i", str(bad), "-o", str(out)] + extra) == EXIT_FORMAT
            assert not out.exists()
        # an output that was there is left as it was
        out.write_bytes(b"earlier output")
        assert main(["decode", "-i", str(bad), "-o", str(out)]) == EXIT_FORMAT
        assert out.read_bytes() == b"earlier output"
        # an output that is not a regular file (here a link to the null device) is
        # written in place and never removed, and the decode's error stays exit 3
        link = tmp_path / "null.y4m"
        link.symlink_to(os.devnull)
        assert main(["decode", "-i", str(bad), "-o", str(link)]) == EXIT_FORMAT
        assert link.is_symlink() and os.path.exists(os.devnull)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.fbv", "null.y4m", "out.y4m"]

    def test_bad_gamma_flag(self, work, tmp_path):
        _, src, _ = work
        rc = main(["encode", "-i", str(src), "-o", str(tmp_path / "x.fbv"),
                   "--gamma", "1.5"])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [("--delta-q", "300"), ("--gamma", "0.99996")])
    def test_out_of_range_quantizer_fields_are_usage_errors(self, work, tmp_path, flag, value):
        # rejected as configuration before any encoding, not as a malformed stream
        _, src, _ = work
        out = tmp_path / "x.fbv"
        rc = main(["encode", "-i", str(src), "-o", str(out), "--init-frames", "8",
                   flag, value])
        assert rc == EXIT_USAGE
        assert not out.exists()

    @staticmethod
    def _step_is_a_usage_error(src, tmp_path, step):
        """As a flag, a config key and a sweep point, exit 2 and no output."""
        cfg = tmp_path / "step.cfg"
        cfg.write_text(f"init_frames = 8\ndelta_q = {step}\n")
        out = tmp_path / "x.out"
        for args in (["encode", "-o", str(out), "--init-frames", "8", "--delta-q", step],
                     ["encode", "-o", str(out), "--config", str(cfg)],
                     ["rd-sweep", "-o", str(out), "--init-frames", "8",
                      "--qualities", f"1,{step}:1"]):
            assert main(args + ["-i", str(src)]) == EXIT_USAGE, args
            assert not out.exists()

    def test_non_finite_quantizer_step_is_a_usage_error(self, work, tmp_path):
        # the step travels as round(delta_q * 256); infinity has no such form
        self._step_is_a_usage_error(work[1], tmp_path, "inf")

    def test_huge_quantizer_step_is_a_usage_error(self, work, tmp_path):
        # 1e308 * 256 overflows to infinity, so the step is bounded before it is rounded
        self._step_is_a_usage_error(work[1], tmp_path, "1e308")

    def test_header_the_container_cannot_carry_fails_before_encoding(self, tmp_path,
                                                                     monkeypatch, capsys):
        # a well-formed clip whose frame rate does not fit the header's u16 field
        frame = b"FRAME\n" + bytes(i % 256 for i in range(32 * 32 * 3 // 2))
        clip = tmp_path / "clip.y4m"
        clip.write_bytes(b"YUV4MPEG2 W32 H32 F70000:1 C420jpeg\n" + frame * 12)
        calls = []
        gmm_init = pipeline.gmm_init
        monkeypatch.setattr(pipeline, "gmm_init",
                            lambda *a, **k: calls.append(a) or gmm_init(*a, **k))
        out = tmp_path / "x.fbv"
        rc = main(["encode", "-i", str(clip), "-o", str(out), "--init-frames", "8"])
        assert rc == EXIT_FORMAT
        assert "invalid frame rate" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_too_few_frames_for_the_default_warm_up_is_a_usage_error(self, work, tmp_path):
        # the 16-frame clip is well formed; the default --init-frames 200 does not fit it
        _, src, _ = work
        out = tmp_path / "x.fbv"
        rc = main(["encode", "-i", str(src), "-o", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()

    def test_fixed_constants_are_not_settings(self, work, tmp_path):
        _, src, _ = work
        out = tmp_path / "x.fbv"
        rc = main(["encode", "-i", str(src), "-o", str(out), "--init-frames", "8",
                   "--components", "3"])
        assert rc == EXIT_USAGE
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("init_frames = 8\ngrid = 8\n")
        rc = main(["encode", "-i", str(src), "-o", str(out), "--config", str(cfg)])
        assert rc == EXIT_USAGE
        assert not out.exists()

    def test_bad_quality_point(self, work, tmp_path):
        _, src, _ = work
        rc = main(["encode", "-i", str(src), "-o", str(tmp_path / "x.fbv"),
                   "--quality", "9"])
        assert rc == EXIT_USAGE

    def test_no_command(self, capsys):
        rc = main([])
        capsys.readouterr()
        assert rc == EXIT_USAGE

    def test_analyze_on_y4m(self, work):
        _, src, _ = work
        assert main(["analyze", "-i", str(src)]) == EXIT_FORMAT

    @pytest.mark.parametrize("tokens,size", [
        (b"Wabc H32 F25:1", 32),     # a dimension that is not an integer
        (b"W32 H32 F0:1", 32),       # a zero frame rate
        (b"W8 H8 F25:1", 8),         # well formed, but below the minimum frame size
    ])
    def test_malformed_or_unsupported_video_is_a_format_error(self, tmp_path, tokens, size):
        def y4m(header: bytes, side: int) -> bytes:
            frame = b"FRAME\n" + bytes(i % 256 for i in range(side * side * 3 // 2))
            return b"YUV4MPEG2 " + header + b" C420jpeg\n" + frame * 12

        out = tmp_path / "x.fbv"
        clip = tmp_path / "clip.y4m"
        clip.write_bytes(y4m(b"W32 H32 F25:1", 32))
        assert main(["encode", "-i", str(clip), "-o", str(out), "--init-frames", "8"]) == EXIT_OK
        out.unlink()
        clip.write_bytes(y4m(tokens, size))
        rc = main(["encode", "-i", str(clip), "-o", str(out), "--init-frames", "8"])
        assert rc == EXIT_FORMAT
        assert not out.exists()
