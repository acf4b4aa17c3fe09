"""Adaptive binary range coder: losslessness, rate, tamper detection, and
bit-for-bit agreement of the payload loops with the per-bin reference coder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refcoder
from fbv.core import Region, RegionSet
from fbv.entropy import (BitBudgetReport, ContextModel, EntropyDecodeError, bin_decoder,
                         decode_bits, decode_eg0, eg0_bins, encode_bins, encode_bits)
from fbv.motion import SEARCH_RANGE, FlowField, decode_flow, encode_flow
from fbv.residual import (_SIG_CTX, QualityPoint, _ceil8, compiled, decode_levels,
                          encode_residual, residual_context_model)


def _round_trip(bits, contexts=None, num_contexts=1):
    model = ContextModel(num_contexts)
    data = encode_bits(bits, model, contexts)
    back = decode_bits(data, ContextModel(num_contexts), len(bits), contexts)
    return data, back


class TestRoundTrip:
    @pytest.mark.parametrize("p", [0.02, 0.1, 0.5, 0.9, 0.98])
    def test_bernoulli_streams(self, p):
        rng = np.random.default_rng(int(p * 1000))
        bits = (rng.random(20_000) < p).astype(int).tolist()
        _, back = _round_trip(bits)
        assert back == bits

    def test_multi_context_streams(self):
        rng = np.random.default_rng(11)
        ctxs = rng.integers(0, 8, 30_000).tolist()
        bits = [(rng.random() < (0.05 + 0.12 * c)) * 1 for c in ctxs]
        _, back = _round_trip(bits, ctxs, num_contexts=8)
        assert back == bits

    def test_empty_stream(self):
        data, back = _round_trip([])
        assert back == []

    @given(st.lists(st.integers(0, 1), max_size=300))
    @settings(max_examples=120, deadline=None)
    def test_any_bit_pattern(self, bits):
        _, back = _round_trip(bits)
        assert back == bits


class TestRate:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_within_three_percent_of_empirical_entropy(self, p):
        rng = np.random.default_rng(int(p * 100) + 7)
        n = 10_000
        bits = (rng.random(n) < p).astype(int).tolist()
        data, back = _round_trip(bits)
        assert back == bits
        ones = sum(bits)
        p_hat = ones / n
        h = 0.0
        for q in (p_hat, 1 - p_hat):
            if q > 0:
                h -= q * math.log2(q)
        ideal = h * n
        actual = 8 * len(data)
        # small fixed overhead: termination plus the 16 check bits
        assert actual <= ideal * 1.03 + 64, (actual, ideal)

    def test_skewed_stream_is_much_smaller_than_raw(self):
        bits = ([0] * 99 + [1]) * 100
        data, _ = _round_trip(bits)
        assert len(data) < len(bits) / 8 / 4


class TestTamper:
    def _payload(self):
        rng = np.random.default_rng(3)
        bits = (rng.random(4000) < 0.3).astype(int).tolist()
        model = ContextModel(1)
        return bits, encode_bits(bits, model)

    def test_check_bits_catch_truncation(self):
        bits, data = self._payload()
        with pytest.raises(EntropyDecodeError):
            decode_bits(data[:-2], ContextModel(1), len(bits))

    def test_check_bits_catch_corruption_or_decode_differs(self):
        bits, data = self._payload()
        caught = 0
        changed = 0
        for pos in range(0, len(data), max(1, len(data) // 64)):
            bad = bytearray(data)
            bad[pos] ^= 0x40
            try:
                back = decode_bits(bytes(bad), ContextModel(1), len(bits))
                if back != bits:
                    changed += 1
            except EntropyDecodeError:
                caught += 1
        assert caught + changed > 0
        assert caught > 0   # the final check bits fire for at least some flips

    # An empty payload is 7 bytes: the preamble, then one byte for each of the
    # two renormalizations of the termination (after check bits 9 and 16).
    # Preamble code 0x00010000 passes check bits 1-9; the first termination
    # byte (0) makes it 0x01000000, which fails check bit 16 alone, the one
    # whose renormalization would read the missing seventh byte. Code
    # 0x0000FFFF instead passes all 16 and runs out at that read.
    @pytest.mark.parametrize("data, message", [
        (bytes([0, 0, 1, 0, 0, 0]), "termination check failed: payload corrupt"),
        (bytes([0, 0, 0, 0xFF, 0xFF, 0]), "payload truncated mid-symbol"),
    ], ids=["check bit 16 fails", "all check bits pass"])
    def test_a_check_bit_is_checked_before_its_renormalization_reads(self, data, message):
        decoders = [lambda: decode_bits(data, ContextModel(1), 0),
                    lambda: refcoder.RangeDecoder(data, ContextModel(1)).finish(),
                    lambda: decode_levels(data, [0], 3)]
        rc = compiled()
        if rc is not None:
            decoders.append(lambda: rc.decode_levels(data, [0], 3))
        for decode in decoders:
            with pytest.raises(EntropyDecodeError) as exc:
                decode()
            assert str(exc.value) == message


class TestContextPlan:
    """Every bit has exactly one context, and every context is in the model."""

    def test_encode_refuses_fewer_contexts_than_bits(self):
        with pytest.raises(ValueError):
            encode_bits([1, 0, 1, 1, 0], ContextModel(2), [0, 1])

    def test_encode_refuses_more_contexts_than_bits(self):
        with pytest.raises(ValueError):
            encode_bits([1, 0], ContextModel(2), [0, 1, 1])

    def test_decode_refuses_a_plan_of_another_length(self):
        data = encode_bits([1, 0, 1, 1, 0], ContextModel(2), [0, 1, 0, 1, 0])
        with pytest.raises(ValueError):
            decode_bits(data, ContextModel(2), 5, [0, 1])

    @pytest.mark.parametrize("ctx", [-1, 2, 7])
    def test_contexts_outside_the_model_are_refused(self, ctx):
        with pytest.raises(ValueError):
            encode_bits([1, 0, 1], ContextModel(2), [0, ctx, 1])
        data = encode_bits([1, 0, 1], ContextModel(2), [0, 1, 1])
        with pytest.raises(ValueError):
            decode_bits(data, ContextModel(2), 3, [0, ctx, 1])


class TestExpGolomb:
    @given(st.lists(st.integers(0, 5000), max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_eg0_round_trip(self, values):
        ctxs, bits = [], []
        for v in values:
            eg0_bins(ctxs, bits, v, 0, 4, 3)
        data = encode_bins(ctxs, bits, ContextModel(6))
        decode, finish = bin_decoder(data, ContextModel(6))
        got = [decode_eg0(decode, 0, 4, 3) for _ in values]
        finish()
        assert got == values

    def test_runaway_prefix_rejected(self):
        # a stream of ones never terminates the unary prefix within MAX_EG0_PREFIX
        data = encode_bits([1] * 80, ContextModel(2))
        decode, _ = bin_decoder(data, ContextModel(2))
        with pytest.raises(EntropyDecodeError):
            decode_eg0(decode, 0, 1, 1)


def _outcome(fn):
    """What a decode gives: its value, or the class of the error it raises."""
    try:
        return fn()
    except EntropyDecodeError as exc:
        return type(exc)


def _damaged(data: bytes, rng) -> list[bytes]:
    """Truncations and single-bit flips of a payload."""
    cuts = [data[:n] for n in sorted({0, 4, 5, len(data) // 2, len(data) - 1})]
    flips = []
    for _ in range(6):
        bad = bytearray(data)
        bad[int(rng.integers(len(bad)))] ^= 1 << int(rng.integers(8))
        flips.append(bytes(bad))
    return cuts + flips


def _shapes_and_blocks(patches):
    shapes = [p.shape[1:] for p in patches]
    return shapes, [(_ceil8(h) // 8) * (_ceil8(w) // 8) for h, w in shapes]


class TestAgainstReference:
    """The payload loops give the per-bin reference coder's bytes and values."""

    @given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 1)),
                                        max_size=400), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_bins(self, num_contexts, pairs, seed):
        ctxs = [c % num_contexts for c, _ in pairs]
        bits = [b for _, b in pairs]
        data = encode_bins(ctxs, bits, ContextModel(num_contexts))
        assert data == refcoder.encode_bins(ctxs, bits, ContextModel(num_contexts))
        assert decode_bits(data, ContextModel(num_contexts), len(bits), ctxs) == bits
        for bad in _damaged(data, np.random.default_rng(seed)):
            assert _outcome(lambda: decode_bits(bad, ContextModel(num_contexts),
                                                len(bits), ctxs)) == \
                _outcome(lambda: refcoder.decode_bins(bad, ContextModel(num_contexts), ctxs))

    def test_counter_halving(self):
        # long runs in one context pass the 2**14 total several times
        rng = np.random.default_rng(5)
        bits = (rng.random(60_000) < 0.97).astype(int).tolist()
        ctxs = [0] * len(bits)
        data = encode_bins(ctxs, bits, ContextModel(1))
        assert data == refcoder.encode_bins(ctxs, bits, ContextModel(1))
        assert decode_bits(data, ContextModel(1), len(bits)) == bits

    @pytest.mark.parametrize("levels", [1, 2, 6, 12])
    @pytest.mark.parametrize("seed", range(4))
    def test_residual_payloads(self, levels, seed):
        rng = np.random.default_rng(100 * levels + seed)
        q = QualityPoint(float(rng.choice([0.5, 1.0, 3.0, 8.0])), levels)
        patches = []
        for _ in range(int(rng.integers(1, 4))):
            h, w = (int(v) for v in rng.integers(1, 30, 2))
            spread = int(rng.choice([2, 40, 400]))
            patch = rng.integers(-spread, spread + 1, (3, h, w))
            patch[:, rng.random((h, w)) < 0.5] = 0      # zero blocks and short runs too
            patches.append(patch)
        data, decoded = encode_residual(patches, q)
        ref_data, ref_levels = refcoder.encode_residual(patches, q)
        assert data == ref_data
        shapes, blocks = _shapes_and_blocks(patches)
        flat = np.concatenate([lv.ravel() for lv in ref_levels]).tolist()
        assert decode_levels(data, blocks, q.top_center) == flat
        for bad in _damaged(data, rng):
            got = _outcome(lambda: decode_levels(bad, blocks, q.top_center))
            want = _outcome(lambda: np.concatenate(
                [lv.ravel() for lv in refcoder.decode_levels(bad, shapes, q.top_center)]).tolist())
            assert got == want

    @pytest.mark.parametrize("levels", [1, 2, 12])
    def test_escapes_beyond_the_top_center(self, levels):
        # a step of 1/256 puts lifted magnitudes far above every top center
        q = QualityPoint(1 / 256, levels)
        patch = np.random.default_rng(levels).integers(-255, 256, (3, 8, 16))
        data, _ = encode_residual([patch], q)
        ref_data, (ref_levels,) = refcoder.encode_residual([patch], q)
        assert data == ref_data
        assert np.abs(ref_levels).max() > 1000
        assert decode_levels(data, [2], q.top_center) == ref_levels.ravel().tolist()

    @pytest.mark.parametrize("case,error", [("prefix", "prefix overrun"),
                                            ("magnitude", "exceeds center range"),
                                            ("empty", "no coefficients")])
    def test_corrupt_residual_bins_fail_on_both_sides(self, case, error):
        # one luma block at levels 2 (top 3): zero flag, significance, sign, then
        # the magnitude's exp-Golomb prefix (contexts 28, 29, 30) and suffix (31)
        coefficient = [(0, 0), (_SIG_CTX[0][0], 1), (26, 0), (28, 1), (29, 1)]
        bins = {"prefix": coefficient + [(30, 1)] * 80,
                "magnitude": coefficient + [(30, 0), (31, 1), (31, 1)],     # center 7
                "empty": [(0, 0)] + [(ctx, 0) for ctx in _SIG_CTX[0]]}[case]
        data = encode_bins([c for c, _ in bins], [b for _, b in bins], residual_context_model())
        with pytest.raises(EntropyDecodeError, match=error):
            decode_levels(data, [1], 3)
        with pytest.raises(EntropyDecodeError, match=error):
            refcoder.decode_levels(data, [(8, 8)], 3)
        if compiled() is not None:      # the compiled coder, where it loads, fails alike
            with pytest.raises(EntropyDecodeError, match=error):
                compiled().decode_levels(data, [1], 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_flow_payloads(self, seed):
        rng = np.random.default_rng(seed)
        regions = []
        for i in range(int(rng.integers(1, 4))):        # one region per 64-pixel column
            x, y = 64 * i + int(rng.integers(8)), int(rng.integers(64))
            w, h = (int(v) for v in rng.integers(1, 57, 2))
            regions.append(Region(x, y, w, h))
        lim = int(rng.choice([1, 4, 2 * SEARCH_RANGE]))
        grids = tuple(rng.integers(-lim, lim + 1, (-(-r.h // 8), -(-r.w // 8), 2))
                      .astype(np.int16) for r in regions)
        flow = FlowField(tuple(regions), grids)
        rs = RegionSet(tuple(regions), 128, 192)
        data = encode_flow(flow)
        assert data == refcoder.encode_flow(flow)
        back = decode_flow(data, rs)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(back.vectors, refcoder.decode_flow(data, rs).vectors))
        assert all(np.array_equal(a, b) for a, b in zip(back.vectors, grids))
        for bad in _damaged(data, rng):
            got = _outcome(lambda: [v.tolist() for v in decode_flow(bad, rs).vectors])
            want = _outcome(lambda: [v.tolist() for v in refcoder.decode_flow(bad, rs).vectors])
            assert got == want


class TestBudget:
    def test_ratios_sum_to_one(self):
        rep = BitBudgetReport(100, 300, 50)
        assert sum(rep.ratios) == pytest.approx(1.0, abs=1e-12)

    def test_empty_budget_reports_zero_ratios(self):
        assert BitBudgetReport(0, 0, 0).ratios == (0.0, 0.0, 0.0)
