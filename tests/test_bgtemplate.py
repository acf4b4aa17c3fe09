"""Template chain: gating, chained residual coding, exact interpolation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbv.bgtemplate import (ANCHOR_VALUE, TemplateChain, decode_template,
                            encode_template, interpolated_background)
from fbv.container import FbvStream, StreamHeader, build_segments, write_stream
from fbv.core import FbvError, Frame
from fbv.metrics import ms_ssim
from fbv.pipeline import _bracket

from conftest import smooth_texture


def _frame(planes, index=0):
    return Frame(np.asarray(planes, dtype=np.uint8), index)


def _shift(frame, amount, index):
    planes = np.clip(frame.planes.astype(np.int64) + amount, 0, 255)
    return _frame(planes, index)


def _gate(chain, candidate):
    """chain.admit with the score encode passes: MS-SSIM against the current
    template (an empty chain admits whatever the score)."""
    score = ms_ssim(chain.current.image, candidate) if chain.current else 0.0
    return chain.admit(candidate, score)


@pytest.fixture(scope="module")
def textured():
    return _frame(smooth_texture(64, 64, seed=3), 0)


class TestCoding:
    def test_anchor_is_lossless(self):
        rng = np.random.default_rng(2)
        cand = _frame(rng.integers(0, 256, (3, 64, 64)), 7)
        t = encode_template(None, cand)
        assert t.anchor
        assert t.frame_index == 7
        assert np.array_equal(t.image.planes, cand.planes)

    def test_decoder_mirrors_encoder_chain(self, textured):
        c2 = _shift(textured, 25, 40)
        c3 = _shift(textured, -13, 90)
        t1 = encode_template(None, textured)
        t2 = encode_template(t1, c2)
        t3 = encode_template(t2, c3)
        h = w = 64
        d1 = decode_template(None, t1.payload, 0, h, w)
        d2 = decode_template(d1, t2.payload, 40, h, w)
        d3 = decode_template(d2, t3.payload, 90, h, w)
        for t, d in ((t1, d1), (t2, d2), (t3, d3)):
            assert np.array_equal(d.image.planes, t.image.planes)
            assert d.frame_index == t.frame_index
            assert d.anchor == t.anchor

    def test_unchanged_image_codes_tiny(self, textured):
        t1 = encode_template(None, textured)
        t2 = encode_template(t1, _frame(textured.planes, 10))
        assert np.array_equal(t2.image.planes, t1.image.planes)
        assert len(t2.payload) < len(t1.payload) / 10

    def test_off_grid_dimensions_round_trip(self):
        rng = np.random.default_rng(3)
        cand = _frame(rng.integers(0, 256, (3, 37, 29)), 0)
        t = encode_template(None, cand)
        d = decode_template(None, t.payload, 0, 37, 29)
        assert np.array_equal(d.image.planes, t.image.planes)

    def test_payload_is_deterministic(self, textured):
        a = encode_template(None, textured)
        b = encode_template(None, textured)
        assert a.payload == b.payload

    def test_anchor_base_is_mid_gray(self):
        flat = _frame(np.full((3, 16, 16), ANCHOR_VALUE), 0)
        t = encode_template(None, flat)
        # zero residual against the anchor plane
        assert len(t.payload) < 20


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
    """The gate the encoder runs: TemplateChain.admit against the current template."""

    @staticmethod
    def _admit(current, candidate):
        chain = TemplateChain()
        _gate(chain, current)
        return _gate(chain, candidate)

    def test_identical_image_never_updates(self, textured):
        assert self._admit(textured, _frame(textured.planes, 1)) is None

    def test_large_brightness_shift_updates(self, textured):
        for amount in (40, -40):
            assert self._admit(textured, _shift(textured, amount, 1)) is not None

    def test_mild_noise_stays(self, textured):
        rng = np.random.default_rng(5)
        noise = rng.integers(-1, 2, textured.planes.shape)
        near = _frame(np.clip(textured.planes.astype(np.int64) + noise, 0, 255), 1)
        assert self._admit(textured, near) is None

    def test_gamma_validation(self):
        for gamma in (0.0, 1.0):
            with pytest.raises(ValueError):
                TemplateChain(gamma=gamma)

    def test_dimension_mismatch(self, textured):
        other = _frame(np.zeros((3, 32, 32)), 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            self._admit(textured, other)


class TestChain:
    def test_first_candidate_always_admitted_as_anchor(self, textured):
        chain = TemplateChain()
        assert chain.current is None
        t = _gate(chain, textured)
        assert t is not None and t.anchor
        assert chain.current is t

    def test_gate_blocks_unchanged_candidate(self, textured):
        chain = TemplateChain()
        _gate(chain, textured)
        assert _gate(chain, _frame(textured.planes, 5)) is None
        assert len(chain.templates) == 1

    def test_anchor_cadence(self, textured):
        chain = TemplateChain(anchor_interval=2)
        frames = [textured]
        for i in range(1, 4):
            frames.append(_shift(textured, 40 * i * (-1) ** i, i * 10))
        flags = []
        for f in frames:
            t = _gate(chain, f)
            assert t is not None
            flags.append(t.anchor)
        assert flags == [True, False, True, False]

    def test_stale_frame_index_rejected(self, textured):
        chain = TemplateChain()
        _gate(chain, _frame(textured.planes, 10))
        with pytest.raises(FbvError):
            _gate(chain, _shift(textured, 40, 10))

    def test_bracket_spec(self, textured):
        chain = TemplateChain()
        t0 = _gate(chain, _frame(textured.planes, 0))
        t1 = _gate(chain, _shift(textured, 40, 10))
        t2 = _gate(chain, _shift(textured, 80, 25))
        tframes = [t.frame_index for t in chain.templates]

        def bracket(t):
            i, k = _bracket(tframes, t)
            m, j = (tframes[k] - tframes[i], tframes[k] - t) if i != k else (1, 0)
            return chain.templates[i], chain.templates[k], m, j

        assert bracket(-3) == (t0, t0, 1, 0)
        assert bracket(0) == (t0, t0, 1, 0)
        assert bracket(5) == (t0, t1, 10, 5)
        assert bracket(10) == (t1, t1, 1, 0)
        assert bracket(17) == (t1, t2, 15, 8)
        assert bracket(25) == (t2, t2, 1, 0)
        assert bracket(99) == (t2, t2, 1, 0)

    def test_empty_chain_has_no_bracket(self):
        # an empty chain has no background, and no stream can be written from it
        chain = TemplateChain()
        assert chain.current is None
        stream = FbvStream(StreamHeader(width=16, height=16, fps_num=25, fps_den=1,
                                        frame_count=4, levels=1, delta_fp=2048,
                                        gamma_fp=9800),
                           tuple(chain.templates), (), build_segments(4, ()))
        with pytest.raises(FbvError, match="no background template"):
            write_stream(stream)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TemplateChain(gamma=1.5)
        with pytest.raises(ValueError):
            TemplateChain(anchor_interval=0)
