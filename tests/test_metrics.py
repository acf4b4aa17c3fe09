"""PSNR, MS-SSIM, mixture, sharpness, rate metrics and their fixed points."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fbv.core import Frame
from fbv.evaluate import QualityReport, quality_csv, summary_json
from fbv.metrics import (PSNR_CAP_DB, bpp, fb_mixture, laplacian_sharpness, ms_ssim,
                         ms_ssim_reference, psnr)


def _flat(value, h=64, w=64):
    return Frame(np.full((3, h, w), value, dtype=np.uint8), 0)


def _noise(h=64, w=64, seed=0):
    r = np.random.default_rng(seed)
    return Frame(r.integers(0, 256, (3, h, w), dtype=np.uint8).astype(np.uint8), 0)


class TestPsnr:
    def test_identical_frames_hit_the_cap(self):
        f = _noise()
        assert psnr(f, f) == PSNR_CAP_DB

    def test_plus_one_offset_closed_form(self):
        a = _flat(100)
        b = _flat(101)
        want = 10 * math.log10(255.0 ** 2 / 1.0)
        assert psnr(a, b) == pytest.approx(want, abs=1e-9)
        assert abs(psnr(a, b) - 48.13) < 0.01

    def test_plus_sixteen_offset_closed_form(self):
        a = _flat(100)
        b = _flat(116)
        want = 10 * math.log10(255.0 ** 2 / 256.0)
        assert psnr(a, b) == pytest.approx(want, abs=1e-9)

    def test_monotone_in_error_energy(self):
        a = _flat(100)
        assert psnr(a, _flat(102)) > psnr(a, _flat(110))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(_flat(0, 64, 64), _flat(0, 64, 32))


class TestMsSsim:
    def test_self_similarity_is_one(self):
        f = _noise(seed=2)
        assert ms_ssim(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_under_increasing_noise(self):
        base = _noise(96, 96, seed=3)
        rng = np.random.default_rng(4)
        scores = []
        for amp in (2, 8, 24, 64):
            noisy = np.clip(
                base.planes.astype(np.int64)
                + rng.integers(-amp, amp + 1, base.planes.shape), 0, 255
            ).astype(np.uint8)
            scores.append(ms_ssim(base, Frame(noisy, 0)))
        assert all(a > b for a, b in zip(scores, scores[1:]))
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_sensitive_to_global_brightness_shift(self):
        # the template gate depends on a few dozen codes of drift registering
        base = _noise(96, 96, seed=5)
        shifted = np.clip(base.planes.astype(np.int64) + 40, 0, 255).astype(np.uint8)
        assert ms_ssim(base, Frame(shifted, 0)) < 0.98

    def test_inversion_scores_low(self):
        f = _noise(seed=6)
        inv = Frame(255 - f.planes, 0)
        assert ms_ssim(f, inv) < 0.5

    def test_small_frames_use_truncated_scales(self):
        a = _noise(16, 16, seed=7)
        b = _noise(16, 16, seed=8)
        s = ms_ssim(a, b)
        assert 0.0 <= s <= 1.0
        assert ms_ssim(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_accepts_plain_arrays(self):
        arr = np.random.default_rng(9).integers(0, 256, (48, 48)).astype(np.uint8)
        assert ms_ssim(arr, arr) == pytest.approx(1.0, abs=1e-12)


    @pytest.mark.parametrize("h,w,scales", [(176, 192, 5), (24, 24, 2), (44, 60, 3)])
    def test_prepared_reference_scores_exactly_as_one_shot(self, h, w, scales):
        # the gate prepares its template once; every score must stay the same float
        ref = _noise(h, w, seed=10)
        prepared = ms_ssim_reference(ref)
        assert len(prepared.weights) == scales
        rng = np.random.default_rng(11)
        for amp in (0, 4, 32, 128):
            b = np.clip(ref.planes.astype(np.int64)
                        + rng.integers(-amp, amp + 1, ref.planes.shape), 0, 255)
            other = Frame(b.astype(np.uint8), 1)
            assert ms_ssim(prepared, other) == ms_ssim(ref, other)
        assert ms_ssim(prepared, ref) == ms_ssim(ref, ref)

    def test_prepared_reference_checks_dimensions(self):
        prepared = ms_ssim_reference(_noise(48, 48, seed=12))
        with pytest.raises(ValueError, match="dimension mismatch"):
            ms_ssim(prepared, _noise(48, 40, seed=13))
        with pytest.raises(ValueError, match="too small"):
            ms_ssim_reference(np.zeros((10, 48), dtype=np.uint8))

class TestFbMixture:
    def test_worked_example(self):
        assert fb_mixture(0.95, 0.80, 0.2, 0.8) == pytest.approx(0.920, abs=1e-12)

    def test_cross_weighting_favors_small_area_foreground(self):
        # foreground covering 10% of the frame gets 90% of the weight
        assert fb_mixture(1.0, 0.0, 0.1, 0.9) == pytest.approx(0.9)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            fb_mixture(0.9, 0.9, 0.5, 0.6)
        with pytest.raises(ValueError):
            fb_mixture(0.9, 0.9, -0.1, 1.1)


class TestSharpness:
    def test_zero_on_constant_frames(self):
        assert laplacian_sharpness(_flat(77)) == 0.0

    def test_blur_ordering(self):
        sharp = _noise(64, 64, seed=10).planes[0].astype(np.float64)
        soft = sharp.copy()
        for _ in range(2):
            soft = (soft[:-1, :-1] + soft[1:, :-1] + soft[:-1, 1:] + soft[1:, 1:]) / 4
            soft = np.pad(soft, ((0, 1), (0, 1)), mode="edge")
        s_sharp = laplacian_sharpness(sharp.astype(np.uint8))
        s_soft = laplacian_sharpness(soft.astype(np.uint8))
        assert s_sharp > s_soft > 0

    def test_gradient_is_flat_to_the_laplacian(self):
        ramp = np.tile(np.arange(64, dtype=np.uint8), (64, 1))
        assert laplacian_sharpness(ramp) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("h,w", [(3, 3), (5, 17), (31, 8)])
    def test_matches_the_stencil_pixel_by_pixel(self, h, w):
        y = np.random.default_rng(h * w).integers(0, 256, (h, w)).astype(np.int64)
        resp = [y[i - 1, j] + y[i + 1, j] + y[i, j - 1] + y[i, j + 1] - 4 * y[i, j]
                for i in range(1, h - 1) for j in range(1, w - 1)]
        assert laplacian_sharpness(y.astype(np.uint8)) == float(np.var(np.array(resp, float)))

    def test_importing_fbv_loads_no_scipy_signal(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        # the CLI imports every module, so no module may load scipy.signal
        code = "import sys, fbv.cli; sys.exit('scipy.signal' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              timeout=120)
        assert done.returncode == 0


class TestRates:
    def test_bpp_example(self):
        # 0.1 bpp: 8 * bytes / pixels
        assert bpp(1200, 320, 30, 10) == pytest.approx(0.1)

    def test_bpp_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            bpp(100, 320, 240, 0)

    def test_quality_report_means(self):
        rep = QualityReport((30.0, 40.0), (0.9, 1.0), 0.5, 0.9, 10.0)
        assert rep.psnr_mean == pytest.approx(35.0)
        assert rep.ms_ssim_mean == pytest.approx(0.95)

    def test_quality_csv_layout(self):
        rep = QualityReport((30.0, 40.0), (0.9, 1.0), 0.5, 0.9, 10.0)
        lines = quality_csv(rep).strip().splitlines()
        assert lines[0] == "frame,psnr_db,ms_ssim"
        assert lines[1] == "0,30.0000,0.900000"
        assert lines[2] == "1,40.0000,1.000000"
        assert lines[3:] == ["summary,bpp,0.500000",
                             "summary,fb_mixture,0.900000",
                             "summary,sharpness,10.0000"]

    def test_summary_json_round_trips(self):
        import json
        rep = QualityReport((30.0, 40.0), (0.9, 1.0), 0.5, 0.9, 10.0)
        got = json.loads(summary_json(rep))
        assert got == {"frames": 2, "psnr_db": 35.0, "ms_ssim": 0.95,
                       "bpp": 0.5, "fb_mixture": 0.9, "sharpness": 10.0}
