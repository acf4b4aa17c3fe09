"""Integer lifting transform, the quantizer and the residual codec built on them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbv.entropy import EntropyDecodeError
from fbv.residual import (ZIGZAG, QualityPoint, decode_residual, encode_residual,
                          fwd2d, fwd8, inv2d, inv8, quantize, reconstruct_foreground)

rng = np.random.default_rng(42)


def _patch(h=16, w=16, lo=-60, hi=60, seed=None):
    r = np.random.default_rng(seed) if seed is not None else rng
    return r.integers(lo, hi + 1, (3, h, w)).astype(np.int64)


class TestLiftingTransform:
    def test_inverse_of_forward_1d(self):
        for _ in range(200):
            x = rng.integers(-255, 256, (4, 8)).astype(np.int64)
            assert np.array_equal(inv8(fwd8(x)), x)

    @given(st.lists(st.integers(-100_000, 100_000), min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_bijective_on_wide_range(self, row):
        x = np.array([row], dtype=np.int64)
        assert np.array_equal(inv8(fwd8(x)), x)

    def test_inverse_of_forward_2d(self):
        blocks = rng.integers(-255, 256, (32, 8, 8)).astype(np.int64)
        assert np.array_equal(inv2d(fwd2d(blocks)), blocks)

    def test_constant_block_is_dc_only(self):
        block = np.full((1, 8, 8), 5, dtype=np.int64)
        coefs = fwd2d(block)[0]
        ac = coefs.copy()
        ac[0, 0] = 0
        assert (ac == 0).all()
        assert coefs[0, 0] == 5 * 16      # lifting DC gain: 4 per axis

    def test_zigzag_is_a_permutation_starting_at_dc(self):
        assert sorted(ZIGZAG.tolist()) == list(range(64))
        assert ZIGZAG[0] == 0 and ZIGZAG[1] in (1, 8)


# delta_fp = 25600 is a step of 100: an integer magnitude m sits at omega = m / 100
STEP_100 = 25600


def _oracle_hard(m: int, top: int) -> int:
    """Independent nearest-center rule on omega = m / 100, ties to the smaller index."""
    best, best_d = 0, abs(m)
    for c in range(1, top + 1):
        d = abs(m - 100 * c)
        if d < best_d:   # strict: equal distance keeps the smaller center
            best, best_d = c, d
    return best


class TestQuantize:
    """The hard rule, as the codec applies it: min(quantize(.), top) picks the
    center and the escape carries the rest."""

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_matches_nearest_center_oracle_on_fine_grid(self, levels):
        top = (1 << levels) - 1
        mags = np.arange(0, top * 100 + 1, dtype=np.int64)
        got = np.minimum(quantize(mags, STEP_100), top)
        assert got.tolist() == [_oracle_hard(int(m), top) for m in mags]

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_idempotent_on_grid(self, levels):
        top = (1 << levels) - 1
        once = np.minimum(quantize(np.arange(0, top * 100 + 1, dtype=np.int64), STEP_100), top)
        assert np.array_equal(quantize(100 * once, STEP_100), once)

    def test_ties_resolve_to_smaller_index(self):
        halves = np.array([50, 150, 250, 350, 450, 550, 650], dtype=np.int64)
        assert quantize(halves, STEP_100).tolist() == [0, 1, 2, 3, 4, 5, 6]

    def test_levels_above_the_top_center_are_not_clamped(self):
        # the top center's exp-Golomb escape codes level - top, so the
        # quantizer itself never clamps
        assert quantize(np.array([900, 1260], dtype=np.int64), STEP_100).tolist() == [9, 13]

    @given(st.integers(0, 2000), st.integers(1, 3))
    @settings(max_examples=300, deadline=None)
    def test_output_is_always_a_center(self, mag, levels):
        top = (1 << levels) - 1
        c = min(int(quantize(np.int64(mag), STEP_100)), top)
        assert 0 <= c <= top and c == _oracle_hard(mag, top)

    @given(st.integers(0, 1 << 20), st.integers(1, 0xFFFF))
    @settings(max_examples=300, deadline=None)
    def test_nearest_level_at_any_step(self, mag, delta_fp):
        # omega = 256 * mag / delta_fp; the level is within half a step, ties down
        lev = int(quantize(np.int64(mag), delta_fp))
        assert 512 * mag - delta_fp <= 2 * lev * delta_fp < 512 * mag + delta_fp


class TestQualityPoint:
    def test_fixed_point_step(self):
        q = QualityPoint(4.0, 2)
        assert q.delta_fp == 1024
        assert q.top_center == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            QualityPoint(0.0, 2)
        with pytest.raises(ValueError):
            QualityPoint(4.0, 0)
        with pytest.raises(ValueError):
            QualityPoint(4.0, 13)
        for delta in (0.001, 256.0, 300.0):   # delta_fp must fit 1..0xFFFF
            with pytest.raises(ValueError, match="8.8 fixed point"):
                QualityPoint(delta, 2)


class TestResidualCodec:
    def test_decoder_matches_encoder_reconstruction(self):
        patch = _patch(seed=1)
        q = QualityPoint(4.0, 2)
        payload, rec = encode_residual([patch], q)
        back = decode_residual(payload, [(16, 16)], q)
        assert np.array_equal(back[0], rec[0])

    def test_multi_patch_payload(self):
        patches = [_patch(8, 8, seed=2), _patch(16, 24, seed=3), _patch(8, 32, seed=4)]
        q = QualityPoint(2.0, 3)
        payload, rec = encode_residual(patches, q)
        back = decode_residual(payload, [(8, 8), (16, 24), (8, 32)], q)
        for a, b in zip(rec, back):
            assert np.array_equal(a, b)

    def test_unit_step_is_lossless_on_moderate_residuals(self):
        patch = _patch(16, 16, -40, 40, seed=5)
        q = QualityPoint(1.0, 6)
        payload, rec = encode_residual([patch], q)
        assert np.array_equal(rec[0], patch)
        back = decode_residual(payload, [(16, 16)], q)
        assert np.array_equal(back[0], patch)

    @pytest.mark.parametrize("delta,bound", [(1.0, 0), (4.0, 8), (8.0, 16)])
    def test_distortion_bounded_by_twice_the_step(self, delta, bound):
        patch = _patch(24, 24, -50, 50, seed=6)
        q = QualityPoint(delta, 6)
        _, rec = encode_residual([patch], q)
        assert int(np.abs(rec[0] - patch).max()) <= bound

    def test_rate_grows_as_step_shrinks(self):
        patch = _patch(32, 32, -60, 60, seed=7)
        sizes = []
        for delta in (8.0, 4.0, 2.0, 1.0):
            payload, _ = encode_residual([patch], QualityPoint(delta, 4))
            sizes.append(len(payload))
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]

    def test_reencoding_a_reconstruction_is_stable(self):
        # coding its own output again must change nothing: quantizer centers
        # map back to themselves through the closed loop
        patch = _patch(16, 16, seed=8)
        q = QualityPoint(4.0, 2)
        _, rec1 = encode_residual([patch], q)
        payload2, rec2 = encode_residual([rec1[0]], q)
        assert np.array_equal(rec2[0], rec1[0])
        back = decode_residual(payload2, [(16, 16)], q)
        assert np.array_equal(back[0], rec1[0])

    def test_escape_path_codes_large_magnitudes(self):
        patch = np.zeros((3, 8, 8), dtype=np.int64)
        patch[:, :, :] = 255      # saturates the center set at L=1
        q = QualityPoint(1.0, 1)
        payload, rec = encode_residual([patch], q)
        back = decode_residual(payload, [(8, 8)], q)
        assert np.array_equal(back[0], rec[0])
        assert int(np.abs(rec[0] - patch).max()) <= 1

    def test_zero_patch_is_tiny(self):
        patch = np.zeros((3, 16, 16), dtype=np.int64)
        payload, rec = encode_residual([patch], QualityPoint(4.0, 2))
        assert np.array_equal(rec[0], patch)
        assert len(payload) < 20

    def test_payload_is_deterministic(self):
        patch = _patch(seed=9)
        q = QualityPoint(4.0, 2)
        a, _ = encode_residual([patch], q)
        b, _ = encode_residual([patch], q)
        assert a == b

    def test_bad_patch_shapes_rejected(self):
        with pytest.raises(ValueError):
            encode_residual([np.zeros((1, 16, 16), dtype=np.int64)], QualityPoint(4.0, 2))

    def test_off_grid_patch_closed_loop(self):
        # 12x20 is padded to 16x24 inside the codec and cropped back on both sides
        patch = _patch(12, 20, seed=11)
        q = QualityPoint(4.0, 2)
        payload, rec = encode_residual([patch], q)
        back = decode_residual(payload, [(12, 20)], q)
        assert rec[0].shape == back[0].shape == (3, 12, 20)
        assert np.array_equal(back[0], rec[0])
        assert int(np.abs(rec[0] - patch).max()) <= 8

    def test_truncated_payload_never_decodes_silently(self):
        patch = _patch(seed=10)
        q = QualityPoint(4.0, 2)
        payload, _ = encode_residual([patch], q)
        with pytest.raises(EntropyDecodeError):
            decode_residual(payload[: len(payload) // 2], [(16, 16)], q)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_closed_loop_property_random_patches(self, seed):
        patch = _patch(16, 16, -255, 255, seed=seed)
        q = QualityPoint(4.0, 2)
        payload, rec = encode_residual([patch], q)
        back = decode_residual(payload, [(16, 16)], q)
        assert np.array_equal(back[0], rec[0])


class TestReconstruct:
    def test_masked_clamped_sum(self):
        pred = np.full((3, 16, 16), 250, dtype=np.uint8)
        res = np.full((3, 16, 16), 20, dtype=np.int64)
        mask = np.zeros((16, 16), dtype=bool)
        mask[:8] = True
        out = reconstruct_foreground(pred, res, mask)
        assert out.dtype == np.uint8
        assert (out[:, :8] == 255).all()   # clamped at the top
        assert (out[:, 8:] == 0).all()     # outside the mask

    def test_negative_residual_clamps_at_zero(self):
        pred = np.full((3, 16, 16), 10, dtype=np.uint8)
        res = np.full((3, 16, 16), -30, dtype=np.int64)
        out = reconstruct_foreground(pred, res, np.ones((16, 16), dtype=bool))
        assert (out == 0).all()
