"""Template chain: chained residual coding, the gate's outcomes, exact interpolation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbv.bgtemplate import (ANCHOR_INTERVAL, ANCHOR_VALUE, DEFAULT_GAMMA, TemplateChain,
                            decode_template, encode_template, interpolated_background)
from fbv.container import ContainerError, FbvStream, StreamHeader, write_stream
from fbv.core import FbvError, Frame
from fbv.metrics import ms_ssim
from fbv.pipeline import EncoderConfig, _bracket

from conftest import smooth_texture


def _frame(planes, index=0):
    return Frame(np.asarray(planes, dtype=np.uint8), index)


def _shift(frame, amount, index):
    planes = np.clip(frame.planes.astype(np.int64) + amount, 0, 255)
    return _frame(planes, index)


def _header(frame_count):
    return StreamHeader(width=64, height=64, fps_num=25, fps_den=1, frame_count=frame_count,
                        levels=1, delta_fp=2048, gamma_fp=9800)


@pytest.fixture(scope="module")
def textured():
    return _frame(smooth_texture(64, 64, seed=3), 0)


class TestCoding:
    def test_anchor_is_lossless(self):
        rng = np.random.default_rng(2)
        cand = _frame(rng.integers(0, 256, (3, 64, 64)), 7)
        _, image = encode_template(None, cand)
        assert image.frame_index == 7
        assert np.array_equal(image.planes, cand.planes)

    def test_decoder_mirrors_encoder_chain(self, textured):
        c2 = _shift(textured, 25, 40)
        c3 = _shift(textured, -13, 90)
        p1, i1 = encode_template(None, textured)
        p2, i2 = encode_template(i1, c2)
        p3, i3 = encode_template(i2, c3)
        h = w = 64
        d1 = decode_template(None, p1, 0, h, w)
        d2 = decode_template(d1, p2, 40, h, w)
        d3 = decode_template(d2, p3, 90, h, w)
        for image, d in ((i1, d1), (i2, d2), (i3, d3)):
            assert np.array_equal(d.planes, image.planes)
            assert d.frame_index == image.frame_index

    def test_unchanged_image_codes_tiny(self, textured):
        p1, i1 = encode_template(None, textured)
        p2, i2 = encode_template(i1, _frame(textured.planes, 10))
        assert np.array_equal(i2.planes, i1.planes)
        assert len(p2) < len(p1) / 10

    def test_off_grid_dimensions_round_trip(self):
        rng = np.random.default_rng(3)
        cand = _frame(rng.integers(0, 256, (3, 37, 29)), 0)
        payload, image = encode_template(None, cand)
        d = decode_template(None, payload, 0, 37, 29)
        assert np.array_equal(d.planes, image.planes)

    def test_payload_is_deterministic(self, textured):
        assert encode_template(None, textured)[0] == encode_template(None, textured)[0]

    def test_anchor_base_is_mid_gray(self):
        flat = _frame(np.full((3, 16, 16), ANCHOR_VALUE), 0)
        payload, _ = encode_template(None, flat)
        # zero residual against the anchor plane
        assert len(payload) < 20


class TestInterpolation:
    def test_endpoints_are_verbatim(self, textured):
        b_next = _shift(textured, 30, 12)
        assert interpolated_background(textured, b_next, 12, 0) is b_next
        assert interpolated_background(textured, b_next, 12, 12) is textured

    @given(st.integers(2, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_rational_oracle(self, m, seed):
        rng = np.random.default_rng(seed)
        prev = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
        nxt = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
        j = int(rng.integers(1, m))
        got = interpolated_background(_frame(prev, 0), _frame(nxt, m), m, j)
        k = m - j
        delta = nxt.astype(np.int64) - prev.astype(np.int64)
        want = np.empty_like(prev)
        for idx in np.ndindex(prev.shape):
            exact = Fraction(int(delta[idx]) * k, m) + Fraction(1, 2)
            want[idx] = int(prev[idx]) + (exact.numerator // exact.denominator)
        assert np.array_equal(got.planes, want)
        assert got.frame_index == m - j

    def test_midpoint_rounds_half_up(self):
        prev = _frame(np.full((3, 16, 16), 100), 0)
        nxt = _frame(np.full((3, 16, 16), 101), 2)
        mid = interpolated_background(prev, nxt, 2, 1)
        assert (mid.planes == 101).all()
        # negative delta rounds toward the larger value too
        down_prev = _frame(np.full((3, 16, 16), 101), 0)
        down_next = _frame(np.full((3, 16, 16), 100), 2)
        mid2 = interpolated_background(down_prev, down_next, 2, 1)
        assert (mid2.planes == 101).all()

    def test_validation(self, textured):
        with pytest.raises(ValueError):
            interpolated_background(textured, textured, 4, 5)


class TestGate:
    """The gate encode runs: a candidate whose MS-SSIM against the current
    template falls below gamma becomes the next template."""

    def test_identical_image_never_updates(self, textured):
        assert ms_ssim(textured, _frame(textured.planes, 1)) >= DEFAULT_GAMMA

    def test_large_brightness_shift_updates(self, textured):
        for amount in (40, -40):
            assert ms_ssim(textured, _shift(textured, amount, 1)) < DEFAULT_GAMMA

    def test_mild_noise_stays(self, textured):
        rng = np.random.default_rng(5)
        noise = rng.integers(-1, 2, textured.planes.shape)
        near = _frame(np.clip(textured.planes.astype(np.int64) + noise, 0, 255), 1)
        assert ms_ssim(textured, near) >= DEFAULT_GAMMA

    def test_gamma_validation(self):
        for gamma in (0.0, 1.0):
            with pytest.raises(ValueError, match="gamma"):
                EncoderConfig(gamma=gamma)

    def test_dimension_mismatch(self, textured):
        other = _frame(np.zeros((3, 32, 32)), 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            ms_ssim(textured, other)


class TestChain:
    def test_first_candidate_always_admitted_as_anchor(self, textured):
        chain = TemplateChain(ANCHOR_INTERVAL)
        chain.admit(textured)
        (record,) = chain.records
        assert record.anchor and record.frame_no == 0
        payload, image = encode_template(None, textured)
        assert record.residual == payload
        assert np.array_equal(chain.images[0].planes, image.planes)

    def test_gate_blocks_unchanged_candidate(self, textured):
        # the gate compares against the rebuilt image, not the candidate that was
        # coded: an unchanged scene must still pass it, or every frame re-admits
        chain = TemplateChain(ANCHOR_INTERVAL)
        chain.admit(textured)
        assert ms_ssim(chain.images[-1], _frame(textured.planes, 5)) >= DEFAULT_GAMMA

    def test_anchor_cadence(self, textured):
        chain = TemplateChain(anchor_interval=2)
        for i in range(4):
            chain.admit(_shift(textured, 40 * i * (-1) ** i, i * 10))
        assert [r.anchor for r in chain.records] == [True, False, True, False]
        assert [r.frame_no for r in chain.records] == [0, 10, 20, 30]
        # a chained template codes against the image of the one before it
        payload, _ = encode_template(chain.images[0], _shift(textured, -40, 10))
        assert chain.records[1].residual == payload

    def test_stale_frame_index_rejected(self, textured):
        # the chain codes what it is given; the container enforces the frame order
        chain = TemplateChain(ANCHOR_INTERVAL)
        chain.admit(_frame(textured.planes, 10))
        chain.admit(_shift(textured, 40, 10))
        with pytest.raises(ContainerError, match="increase strictly"):
            write_stream(FbvStream(_header(20), tuple(chain.records), ()))

    def test_bracket_spec(self, textured):
        chain = TemplateChain(ANCHOR_INTERVAL)
        for amount, index in ((0, 0), (40, 10), (80, 25)):
            chain.admit(_shift(textured, amount, index))
        tframes = [r.frame_no for r in chain.records]

        def bracket(t):
            i, k = _bracket(tframes, t)
            m, j = (tframes[k] - tframes[i], tframes[k] - t) if i != k else (1, 0)
            return tframes[i], tframes[k], m, j

        assert bracket(-3) == (0, 0, 1, 0)
        assert bracket(0) == (0, 0, 1, 0)
        assert bracket(5) == (0, 10, 10, 5)
        assert bracket(10) == (10, 10, 1, 0)
        assert bracket(17) == (10, 25, 15, 8)
        assert bracket(25) == (25, 25, 1, 0)
        assert bracket(99) == (25, 25, 1, 0)

    def test_empty_chain_has_no_bracket(self):
        # an empty chain has no background, and no stream can be written from it
        chain = TemplateChain(ANCHOR_INTERVAL)
        stream = FbvStream(_header(4), tuple(chain.records), ())
        with pytest.raises(FbvError, match="no background template"):
            write_stream(stream)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(gamma=1.5)
        with pytest.raises(ValueError, match="anchor_interval"):
            EncoderConfig(anchor_interval=0)
