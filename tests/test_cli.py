"""Command-line behavior: workflows, precedence, exit codes."""

import json

import numpy as np
import pytest

from fbv.cli import EXIT_FORMAT, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from fbv.container import read_stream
from fbv.core import read_y4m, write_y4m

from conftest import moving_square_video


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    video = moving_square_video(h=48, w=48, n=16)
    src = d / "src.y4m"
    write_y4m(video, str(src), force_444=True)
    fbv = d / "clip.fbv"
    rc = main(["encode", "-i", str(src), "-o", str(fbv), "--init-frames", "8"])
    assert rc == EXIT_OK
    return d, src, fbv


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

    def test_no_enhance_changes_output(self, work):
        d, _, fbv = work
        plain = d / "plain.y4m"
        nice = d / "nice.y4m"
        assert main(["decode", "-i", str(fbv), "-o", str(nice)]) == EXIT_OK
        assert main(["decode", "-i", str(fbv), "-o", str(plain),
                     "--no-enhance"]) == EXIT_OK
        a = read_y4m(str(plain))
        b = read_y4m(str(nice))
        assert any(not np.array_equal(x.planes, y.planes)
                   for x, y in zip(a.frames, b.frames))

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
