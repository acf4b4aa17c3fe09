"""Adaptive binary range coder: losslessness, rate, tamper detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbv.entropy import (BitBudgetReport, ContextModel, EntropyDecodeError,
                         RangeDecoder, RangeEncoder, decode_bits,
                         decode_unary_eg0, encode_bits, encode_unary_eg0)


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


class TestExpGolomb:
    @given(st.lists(st.integers(0, 5000), max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_eg0_round_trip(self, values):
        model = ContextModel(6)
        enc = RangeEncoder(model)
        for v in values:
            encode_unary_eg0(enc, v, 0, 4, prefix_span=3)
        data = enc.finish()
        dec = RangeDecoder(data, ContextModel(6))
        got = [decode_unary_eg0(dec, 0, 4, prefix_span=3) for _ in values]
        dec.finish()
        assert got == values

    def test_runaway_prefix_rejected(self):
        # a stream of ones never terminates the unary prefix within MAX_EG0_PREFIX
        model = ContextModel(2)
        enc = RangeEncoder(model)
        for _ in range(80):
            enc.encode(0, 1)
        data = enc.finish()
        dec = RangeDecoder(data, ContextModel(2))
        with pytest.raises(EntropyDecodeError):
            decode_unary_eg0(dec, 0, 1, prefix_span=1)


class TestBudget:
    def test_ratios_sum_to_one(self):
        rep = BitBudgetReport(100, 300, 50)
        assert sum(rep.ratios) == pytest.approx(1.0, abs=1e-12)

    def test_empty_budget_reports_zero_ratios(self):
        assert BitBudgetReport(0, 0, 0).ratios == (0.0, 0.0, 0.0)
