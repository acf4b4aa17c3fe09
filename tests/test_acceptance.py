"""Release acceptance: one test per shipping criterion, each with its own oracle."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.ndimage as ndi

from fbv.bgtemplate import interpolated_background
from fbv.container import ContainerError, budget_of, read_stream, write_stream
from fbv.core import Frame, Region, RegionSet, VideoSequence
from fbv.entropy import ContextModel, decode_bits, encode_bits
from fbv.metrics import bpp, fb_mixture, laplacian_sharpness, ms_ssim, psnr
from fbv.motion import estimate_flow, warp
from fbv.evaluate import rd_sweep
from fbv.pipeline import EncoderConfig, decode_bytes, encode
from fbv.residual import encode_residual, quantize

from conftest import (gradient_background, moving_square_video, paint_square,
                      smooth_texture, static_video)
from test_container import _random_stream

FAST = dict(init_frames=8)


@pytest.fixture(scope="module")
def mixed_result(square_clip):
    return encode(square_clip, EncoderConfig(**FAST))


@pytest.fixture(scope="module")
def static_result(static_clip):
    return encode(static_clip, EncoderConfig(**FAST))


def test_criterion_01_bitstream_round_trip():
    rng = np.random.default_rng(20260816)
    for _ in range(200):
        stream = _random_stream(rng)
        data = write_stream(stream)
        back = read_stream(data)
        assert back == stream
        assert write_stream(back) == data

    # structural damage must raise, never pass silently
    base = write_stream(_random_stream(np.random.default_rng(7)))
    for cut in range(0, len(base), max(1, len(base) // 64)):
        with pytest.raises(ContainerError):
            read_stream(base[:cut])
    y4mish = b"YUV4MPEG2 W16 H16 F25:1\x0aFRAME\x0a" + bytes(16 * 16 * 3)
    with pytest.raises(ContainerError, match="bad magic"):
        read_stream(y4mish)
    wrong_version = bytearray(base)
    wrong_version[4] = 99
    with pytest.raises(ContainerError, match="unsupported version"):
        read_stream(bytes(wrong_version))
    bad_footer = bytearray(base)
    bad_footer[-1] ^= 0xFF
    with pytest.raises(ContainerError):
        read_stream(bytes(bad_footer))
    # arbitrary single-bit damage: rejected outright or visibly different
    for seed in range(40):
        r2 = np.random.default_rng(300 + seed)
        pos = int(r2.integers(0, len(base)))
        flipped = bytearray(base)
        flipped[pos] ^= 1 << int(r2.integers(0, 8))
        try:
            again = read_stream(bytes(flipped))
        except ContainerError:
            continue
        assert write_stream(again) != base


def _drifting_pair_video(h=80, w=80, n=40):
    """Two squares crossing a slowly brightening scene."""
    bg = smooth_texture(h, w, seed=21)
    frames = []
    for t in range(n):
        lit = np.clip(bg.astype(np.int16) + t // 2, 0, 255).astype(np.uint8)
        lit = paint_square(lit, 10 + t // 3, 6 + t, 12)
        lit = paint_square(lit, 50, 60 - t, 10, color=(30, 200, 90))
        frames.append(Frame(lit, t))
    return VideoSequence(tuple(frames), 25, 1)


def test_criterion_02_closed_loop_equality():
    clips = [static_video(h=80, w=80, n=40),
             moving_square_video(h=80, w=80, n=40),
             _drifting_pair_video()]
    for clip in clips:
        res = encode(clip, EncoderConfig(**FAST))
        dec = decode_bytes(res.data)
        assert len(dec.pre_enhance) == len(res.recon) == len(clip.frames)
        for got, want in zip(dec.pre_enhance, res.recon):
            assert got.frame_index == want.frame_index
            assert np.array_equal(got.planes, want.planes)


def test_criterion_03_quantizer_suite():
    # the codec's own quantizer; delta_fp = 25600 is a step of 100, so an
    # integer magnitude m sits exactly at omega = m / 100
    step = 25600
    for lg in (1, 2, 3):
        top = (1 << lg) - 1
        centers = np.arange(top + 1)
        mags = np.arange(0, 100 * top + 301, dtype=np.int64)
        # argmin keeps the first, i.e. smaller, center on a tie
        nearest = centers[np.argmin(np.abs(mags[:, None] - 100 * centers), axis=1)]
        levels = np.minimum(quantize(mags, step), top)
        assert np.array_equal(levels, nearest)
        assert np.array_equal(quantize(100 * centers, step), centers)
        assert np.isin(levels, centers).all()
    assert quantize(np.int64(50), step) == 0         # midpoint takes the lower center
    assert quantize(np.int64(150), step) == 1


def test_criterion_04_interpolation_exactness():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = int(rng.integers(2, 65))
        bp = Frame(rng.integers(0, 256, (3, 16, 16), dtype=np.uint8), 0)
        bn = Frame(rng.integers(0, 256, (3, 16, 16), dtype=np.uint8), m)
        assert interpolated_background(bp, bn, m, 0) is bn
        assert interpolated_background(bp, bn, m, m) is bp
        j = int(rng.integers(1, m))
        got = interpolated_background(bp, bn, m, j)
        assert got.frame_index == m - j
        k = m - j
        want = np.array(
            [math.floor(Fraction(a) + Fraction((b - a) * k, m) + Fraction(1, 2))
             for a, b in zip(bp.planes.astype(int).ravel(),
                             bn.planes.astype(int).ravel())],
            dtype=np.uint8).reshape(bp.planes.shape)
        assert np.array_equal(got.planes, want)


def test_criterion_05_adaptive_template_update():
    h = w = 48
    n, dip_at = 900, 350
    bg = smooth_texture(h, w, seed=11)
    dim = np.clip(bg.astype(np.int16) - 30, 0, 255).astype(np.uint8)
    lit_run = VideoSequence(tuple(Frame(bg.copy(), t) for t in range(n)), 25, 1)
    dip_run = VideoSequence(
        tuple(Frame((dim if t >= dip_at else bg).copy(), t) for t in range(n)), 25, 1)
    cfg = EncoderConfig(init_frames=50)

    res = encode(dip_run, cfg)
    below = [t for t, s in enumerate(res.gate_trace) if s < cfg.gamma]
    assert below, "gate never fired"
    assert all(dip_at <= t < n for t in below)
    admitted = [tr.frame_no for tr in res.stream.templates]
    in_window = [fn for fn in admitted if dip_at <= fn < n]
    assert len(in_window) == 1
    assert admitted == [0, in_window[0]]
    assert abs(in_window[0] - below[0]) <= 2

    calm = encode(lit_run, cfg)
    assert [tr.frame_no for tr in calm.stream.templates] == [0]
    assert min(calm.gate_trace) >= cfg.gamma


def test_criterion_06_background_sharing_rate_advantage():
    n = 300
    clip = moving_square_video(h=64, w=64, n=n, size=14, hold_first=50)
    cfg = EncoderConfig(init_frames=50)
    res = encode(clip, cfg)

    # oracle: intra-code every frame's full area through the same residual path
    alt_bits = 0
    for fr in clip.frames:
        payload, _ = encode_residual([fr.planes.astype(np.int64) - 128], cfg.quality)
        alt_bits += 8 * len(payload)
    ablation_bpp = alt_bits / (64 * 64 * n)
    assert bpp(len(res.data), 64, 64, n) <= 0.25 * ablation_bpp


def test_criterion_07_motion_recovery():
    rng = np.random.default_rng(404)
    rs = RegionSet((Region(16, 16, 16, 16),), 48, 48)
    for _ in range(256):
        base = rng.integers(0, 256, (3, 48, 48), dtype=np.uint8)
        vy, vx = (int(v) for v in rng.integers(-16, 17, 2))
        cur = np.roll(base, (vy, vx), axis=(1, 2))
        flow = estimate_flow(Frame(base, 0), Frame(cur, 1), rs)
        assert (flow.vectors[0][:, :, 0] == 2 * vx).all()
        assert (flow.vectors[0][:, :, 1] == 2 * vy).all()

    still = rng.integers(0, 256, (3, 48, 48), dtype=np.uint8)
    prev = Frame(still, 0)
    flow = estimate_flow(prev, Frame(still.copy(), 1), rs)
    assert (flow.vectors[0] == 0).all()
    (r,) = rs.regions
    (prediction,) = warp(prev, flow)
    assert np.array_equal(prediction, still[:, r.y:r.y2, r.x:r.x2])


def test_criterion_08_entropy_coder(mixed_result):
    n = 1_000_000
    rng = np.random.default_rng(88)
    bits = (rng.random(n) < 0.35).astype(np.uint8).tolist()
    ctxs = [i & 7 for i in range(n)]
    data = encode_bits(bits, ContextModel(8), ctxs)
    assert decode_bits(data, ContextModel(8), n, ctxs) == bits

    for p in (0.1, 0.5, 0.9):
        m = 10_000
        sym = (np.random.default_rng(int(100 * p)).random(m) < p).astype(np.uint8)
        payload = encode_bits(sym.tolist(), ContextModel(1), [0] * m)
        k = int(sym.sum())
        phat = k / m
        empirical = -(k * math.log2(phat) + (m - k) * math.log2(1 - phat))
        assert abs(8 * len(payload) - empirical) <= 0.03 * empirical

    stream = read_stream(mixed_result.data)
    payload_bits = 8 * (sum(len(t.residual) for t in stream.templates)
                        + sum(len(f.flow) + len(f.residual)
                              for f in stream.foregrounds))
    assert mixed_result.budget.total_bits == payload_bits
    assert budget_of(stream) == mixed_result.budget


def test_criterion_09_metric_fixtures():
    rng = np.random.default_rng(9)
    a = rng.integers(0, 255, (3, 64, 64), dtype=np.uint8)
    assert abs(psnr(a, a + 1) - 10 * math.log10(255 ** 2)) < 1e-9
    assert abs(psnr(a, a + 1) - 48.13) <= 0.01
    b = rng.integers(0, 240, (3, 64, 64), dtype=np.uint8)
    assert abs(psnr(b, b + 16) - 10 * math.log10(255 ** 2 / 256)) < 1e-9

    tex = smooth_texture(64, 64, seed=2)
    assert ms_ssim(tex, tex) == 1.0
    scores = [ms_ssim(tex, np.clip(
        tex + np.random.default_rng(3).normal(0.0, sg, tex.shape),
        0, 255).astype(np.uint8)) for sg in (2.0, 8.0, 20.0)]
    assert scores[0] > scores[1] > scores[2]

    assert fb_mixture(0.95, 0.80, 0.2, 0.8) == pytest.approx(0.920, abs=1e-12)

    flat = np.full((3, 32, 32), 77, dtype=np.uint8)
    assert laplacian_sharpness(flat) == 0.0
    blurred = ndi.uniform_filter(tex.astype(np.float64), size=(1, 5, 5))
    blurred = np.clip(blurred, 0, 255).astype(np.uint8)
    assert laplacian_sharpness(tex) > laplacian_sharpness(blurred) > 0.0


def test_criterion_10_rd_monotonicity():
    clip = moving_square_video(n=30)
    rows = rd_sweep(clip, [1, 2, 3, 4], EncoderConfig(**FAST))
    bpps = [r.bpp for r in rows]
    psnrs = [r.psnr_db for r in rows]
    ssims = [r.ms_ssim for r in rows]
    assert all(x < y for x, y in zip(bpps, bpps[1:]))
    assert all(x <= y for x, y in zip(psnrs, psnrs[1:]))
    assert all(x <= y for x, y in zip(ssims, ssims[1:]))


def test_criterion_11_analyze_report(mixed_result, static_result):
    br, fr, fmv = mixed_result.budget.ratios
    assert abs(br + fr + fmv - 1.0) <= 1e-9
    assert min(br, fr, fmv) >= 0.0
    assert fr > 0.0 and fmv > 0.0

    sb, sf, sm = static_result.budget.ratios
    assert sf == 0.0 and sm == 0.0
    assert abs(sb - 1.0) <= 1e-9


def test_criterion_12_throughput_sanity():
    clip = moving_square_video(h=240, w=320, n=100, size=20, step=3)
    t0 = time.perf_counter()
    res = encode(clip, EncoderConfig(init_frames=50))
    dec = decode_bytes(res.data)
    wall = time.perf_counter() - t0
    assert len(dec.video.frames) == 100
    rows = [(label, 1000.0 * s / 100) for label, s in res.stage_s.items()]
    # the parent's wait on the forked background worker is a row of its own
    assert [label for label, _ in rows if label != "background wait"] == [
        "separation", "gate", "template coding", "region extraction",
        "motion estimation", "motion compensation", "residual codec",
        "container", "reconstruction"]
    rows.append(("two-stage decoding", 1000.0 * dec.decode_total_s / len(dec.video.frames)))
    assert all(np.isfinite(v) and v >= 0.0 for _, v in rows)
    for label, ms in rows:
        print(f"{label:>24}: {ms:8.2f} ms/frame")
    print(f"encode+decode wall time: {wall:.1f} s for 320x240x100")
    assert wall < 60.0


def test_static_stream_rate_at_contract_scale():
    n = 300
    clip = static_video(h=240, w=320, n=n, bg=gradient_background(240, 320))
    res = encode(clip, EncoderConfig(init_frames=50))
    assert len(res.stream.templates) == 1
    assert not res.stream.foregrounds
    assert res.stream.segments == ((0, n - 1),)
    assert bpp(len(res.data), 320, 240, n) < 0.01
