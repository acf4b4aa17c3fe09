"""Context-adaptive binary range coding.

Normative coder description
---------------------------
32-bit range coder with carry propagation and byte-wise renormalization
(low/cache/cache_size scheme). Probabilities come from per-context
(zero_count, one_count) counters, both initialized to 1; after each coded
bit the matching counter is incremented and, when the total reaches 2**14,
both counters are halved (rounding up, so they stay >= 1). The zero
probability used for the split is (c0 * 2048) // (c0 + c1) clamped to
[1, 2047]; the split point is (range >> 11) * p0. Renormalization emits a
byte whenever range < 2**24. Termination appends 16 zero bits coded at a
fixed half/half split, then flushes five bytes; the decoder verifies the
check bits and treats any byte read past the payload end as corruption.

Encoder and decoder must derive probabilities through the same code path;
any divergence desynchronizes the interval walk.
"""

from __future__ import annotations

from dataclasses import dataclass

_TOP = 1 << 32
_BOT = 1 << 24
_PROB_BITS = 11
_PROB_SCALE = 1 << _PROB_BITS
_HALVE_AT = 1 << 14


class EntropyDecodeError(Exception):
    """Payload truncated or corrupt: interval walk left the valid region."""


class ContextModel:
    """Adaptive per-context bit counters shared by one encode/decode pass."""

    __slots__ = ("c0", "c1")

    def __init__(self, num_contexts: int) -> None:
        if num_contexts < 1:
            raise ValueError("need at least one context")
        self.c0 = [1] * num_contexts
        self.c1 = [1] * num_contexts


class RangeEncoder:
    def __init__(self, model: ContextModel) -> None:
        self.model = model
        self.low = 0
        self.range = _TOP - 1
        self.cache = 0
        self.cache_size = 1
        self.out = bytearray()

    def encode(self, ctx: int, bit: int) -> None:
        c0 = self.model.c0
        c1 = self.model.c1
        n0 = c0[ctx]
        n1 = c1[ctx]
        p0 = (n0 * _PROB_SCALE) // (n0 + n1)
        if p0 < 1:
            p0 = 1
        elif p0 > _PROB_SCALE - 1:
            p0 = _PROB_SCALE - 1
        bound = (self.range >> _PROB_BITS) * p0
        if bit:
            self.low += bound
            self.range -= bound
            c1[ctx] = n1 + 1
        else:
            self.range = bound
            c0[ctx] = n0 + 1
        if n0 + n1 + 1 >= _HALVE_AT:
            c0[ctx] = (c0[ctx] + 1) >> 1
            c1[ctx] = (c1[ctx] + 1) >> 1
        while self.range < _BOT:
            self._shift_low()
            self.range <<= 8

    def encode_half(self, bit: int) -> None:
        """Fixed 1/2-1/2 split, no adaptation (termination check bits)."""
        bound = self.range >> 1
        if bit:
            self.low += bound
            self.range -= bound
        else:
            self.range = bound
        while self.range < _BOT:
            self._shift_low()
            self.range <<= 8

    def _shift_low(self) -> None:
        if self.low < 0xFF000000 or self.low >= _TOP:
            carry = self.low >> 32
            out = self.out
            out.append((self.cache + carry) & 0xFF)
            filler = (0xFF + carry) & 0xFF
            for _ in range(self.cache_size - 1):
                out.append(filler)
            self.cache = (self.low >> 24) & 0xFF
            self.cache_size = 0
        self.cache_size += 1
        self.low = (self.low << 8) & 0xFFFFFFFF

    def finish(self) -> bytes:
        for _ in range(16):
            self.encode_half(0)
        for _ in range(5):
            self._shift_low()
        return bytes(self.out)


class RangeDecoder:
    def __init__(self, data: bytes, model: ContextModel) -> None:
        self.model = model
        self.data = data
        self.pos = 0
        self.range = _TOP - 1
        if len(data) < 5:
            raise EntropyDecodeError("payload shorter than coder preamble")
        code = 0
        for _ in range(5):
            code = (code << 8) | data[self.pos]
            self.pos += 1
        self.code = code & 0xFFFFFFFF

    def _next_byte(self) -> int:
        if self.pos >= len(self.data):
            raise EntropyDecodeError("payload truncated mid-symbol")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def decode(self, ctx: int) -> int:
        c0 = self.model.c0
        c1 = self.model.c1
        n0 = c0[ctx]
        n1 = c1[ctx]
        p0 = (n0 * _PROB_SCALE) // (n0 + n1)
        if p0 < 1:
            p0 = 1
        elif p0 > _PROB_SCALE - 1:
            p0 = _PROB_SCALE - 1
        bound = (self.range >> _PROB_BITS) * p0
        if self.code < bound:
            bit = 0
            self.range = bound
            c0[ctx] = n0 + 1
        else:
            bit = 1
            self.code -= bound
            self.range -= bound
            c1[ctx] = n1 + 1
        if n0 + n1 + 1 >= _HALVE_AT:
            c0[ctx] = (c0[ctx] + 1) >> 1
            c1[ctx] = (c1[ctx] + 1) >> 1
        while self.range < _BOT:
            self.code = ((self.code << 8) | self._next_byte()) & 0xFFFFFFFF
            self.range <<= 8
        return bit

    def decode_half(self) -> int:
        bound = self.range >> 1
        if self.code < bound:
            bit = 0
            self.range = bound
        else:
            bit = 1
            self.code -= bound
            self.range -= bound
        while self.range < _BOT:
            self.code = ((self.code << 8) | self._next_byte()) & 0xFFFFFFFF
            self.range <<= 8
        return bit

    def finish(self) -> None:
        """Verify the 16 termination check bits."""
        for _ in range(16):
            if self.decode_half() != 0:
                raise EntropyDecodeError("termination check failed: payload corrupt")


def encode_unary_eg0(enc: RangeEncoder, value: int, ctx_prefix: int, ctx_suffix: int,
                     prefix_span: int = 1) -> None:
    """Order-0 exp-Golomb binarization of value >= 0.

    Prefix: k one-bits then a zero, where k = bit_length(value + 1) - 1;
    the first `prefix_span` prefix bins get consecutive contexts starting
    at ctx_prefix, later bins reuse the last one. Suffix: k raw bins at
    ctx_suffix.
    """
    n = value + 1
    k = n.bit_length() - 1
    for i in range(k):
        enc.encode(ctx_prefix + min(i, prefix_span - 1), 1)
    enc.encode(ctx_prefix + min(k, prefix_span - 1), 0)
    for i in range(k - 1, -1, -1):
        enc.encode(ctx_suffix, (n >> i) & 1)


def decode_unary_eg0(dec: RangeDecoder, ctx_prefix: int, ctx_suffix: int,
                     prefix_span: int = 1, max_k: int = 40) -> int:
    k = 0
    while dec.decode(ctx_prefix + min(k, prefix_span - 1)):
        k += 1
        if k > max_k:
            raise EntropyDecodeError("exp-Golomb prefix overrun: payload corrupt")
    n = 1
    for _ in range(k):
        n = (n << 1) | dec.decode(ctx_suffix)
    return n - 1


def encode_bits(bits, model: ContextModel, contexts=None) -> bytes:
    """Code a flat bit sequence; contexts defaults to context 0 for all."""
    enc = RangeEncoder(model)
    if contexts is None:
        for b in bits:
            enc.encode(0, b)
    else:
        for ctx, b in zip(contexts, bits):
            enc.encode(ctx, b)
    return enc.finish()


def decode_bits(data: bytes, model: ContextModel, n: int, contexts=None) -> list[int]:
    """Inverse of encode_bits for the same model shape and context plan."""
    dec = RangeDecoder(data, model)
    if contexts is None:
        out = [dec.decode(0) for _ in range(n)]
    else:
        out = [dec.decode(ctx) for ctx, _ in zip(contexts, range(n))]
    dec.finish()
    return out


@dataclass(frozen=True)
class BitBudgetReport:
    """Where the coded bits went: background residual, foreground residual,
    foreground motion. Ratios are over the categorized payload bits only."""

    bits_bg_residual: int
    bits_fg_residual: int
    bits_fg_motion: int

    @property
    def total_bits(self) -> int:
        return self.bits_bg_residual + self.bits_fg_residual + self.bits_fg_motion

    @property
    def ratios(self) -> tuple[float, float, float]:
        t = self.total_bits
        if t == 0:
            return (0.0, 0.0, 0.0)
        return (self.bits_bg_residual / t, self.bits_fg_residual / t, self.bits_fg_motion / t)
