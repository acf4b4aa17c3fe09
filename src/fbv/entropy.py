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
fixed half/half split, then flushes five bytes; the decoder verifies each
check bit before it reads the bytes that bit's renormalization needs, and
treats any byte read past the payload end as corruption.

Encoder and decoder must derive probabilities through the same code path;
any divergence desynchronizes the interval walk.

Payloads are coded as CABAC does it: binarization apart from the coding
engine. A payload's symbols are first binarized into flat (context, bit)
lists (`eg0_bins` gives the order-0 exp-Golomb bins), and `encode_bins`
then codes the whole payload in one loop. Every Python decode reads its
bins through `bin_decoder`, whose closure decodes one bin with the coder
state in the closure, and `decode_eg0` on top of it: residual levels, flow
fields and plain bit lists alike. Nothing else in Python inlines the bin
decode, so this module is the one that holds the probability rule, the
renormalization and the termination. The residual payload loops have a
second implementation in C (`_rc.c`, see `residual.compiled`), which codes
and decodes residual payloads wherever it is built; tests/test_rc.py holds
it to the Python loops' bytes, levels and errors.
"""

from __future__ import annotations

from dataclasses import dataclass

_TOP = 1 << 32
_RANGE_MIN = 1 << 24     # renormalize whenever range drops below this
_PROB_BITS = 11          # probabilities are in units of 2**-11
_HALVE_AT = 1 << 14      # a context's counters halve when their total reaches this
MAX_EG0_PREFIX = 40      # an exp-Golomb prefix longer than this means a corrupt payload


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


def _check_contexts(ctxs, num_contexts: int) -> None:
    if len(ctxs) and not (0 <= min(ctxs) and max(ctxs) < num_contexts):
        raise ValueError(f"context outside [0, {num_contexts})")


def _shift_low(out: bytearray, low: int, cache: int, cache_size: int) -> tuple[int, int, int]:
    """Move the top byte of low out. The last byte a carry could still change
    waits in cache, with cache_size - 1 0xFF bytes behind it."""
    if low < 0xFF000000 or low >= _TOP:
        carry = low >> 32
        out.append((cache + carry) & 0xFF)
        for _ in range(cache_size - 1):
            out.append((0xFF + carry) & 0xFF)
        return (low << 8) & 0xFFFFFFFF, (low >> 24) & 0xFF, 1
    return (low << 8) & 0xFFFFFFFF, cache, cache_size + 1


def encode_bins(ctxs, bits, model: ContextModel) -> bytes:
    """Code bits[i] under context ctxs[i], in order, then the termination.

    A payload's binarization (the flat context and bit lists) is built
    first; this one loop then runs the whole arithmetic-coding engine.
    """
    if len(ctxs) != len(bits):
        raise ValueError(f"{len(ctxs)} contexts for {len(bits)} bits")
    c0, c1 = model.c0, model.c1
    _check_contexts(ctxs, len(c0))
    out = bytearray()
    low, rng, cache, cache_size = 0, _TOP - 1, 0, 1
    for ctx, bit in zip(ctxs, bits):
        n0 = c0[ctx]
        n1 = c1[ctx]
        # n1 >= 1 keeps p0 <= 2047, so only the floor needs a clamp
        t = n0 + n1
        bound = (rng >> _PROB_BITS) * ((n0 << _PROB_BITS) // t or 1)
        if bit:
            low += bound
            rng -= bound
            c1[ctx] = n1 + 1
        else:
            rng = bound
            c0[ctx] = n0 + 1
        if t + 1 >= _HALVE_AT:
            c0[ctx] = (c0[ctx] + 1) >> 1
            c1[ctx] = (c1[ctx] + 1) >> 1
        while rng < _RANGE_MIN:
            low, cache, cache_size = _shift_low(out, low, cache, cache_size)
            rng <<= 8
    for _ in range(16):
        rng >>= 1
        while rng < _RANGE_MIN:
            low, cache, cache_size = _shift_low(out, low, cache, cache_size)
            rng <<= 8
    for _ in range(5):
        low, cache, cache_size = _shift_low(out, low, cache, cache_size)
    return bytes(out)


def bin_decoder(data: bytes, model: ContextModel):
    """(decode, finish) over one payload: decode(ctx) returns its next bin
    coded under ctx, finish() checks the termination. The coder state lives
    in the closures, so a payload loop calls no method."""
    if len(data) < 5:
        raise EntropyDecodeError("payload shorter than coder preamble")
    c0, c1 = model.c0, model.c1
    pos, code, rng = 5, int.from_bytes(data[:5], "big") & 0xFFFFFFFF, _TOP - 1

    def refill() -> None:
        # shift payload bytes into code until rng >= _RANGE_MIN again
        nonlocal pos, code, rng
        while rng < _RANGE_MIN:
            if pos >= len(data):
                raise EntropyDecodeError("payload truncated mid-symbol")
            code = ((code << 8) | data[pos]) & 0xFFFFFFFF
            pos += 1
            rng <<= 8

    def decode(ctx: int) -> int:
        nonlocal code, rng
        n0 = c0[ctx]
        n1 = c1[ctx]
        t = n0 + n1
        bound = (rng >> _PROB_BITS) * ((n0 << _PROB_BITS) // t or 1)
        if code < bound:
            bit = 0
            rng = bound
            c0[ctx] = n0 + 1
        else:
            bit = 1
            code -= bound
            rng -= bound
            c1[ctx] = n1 + 1
        if t + 1 >= _HALVE_AT:
            c0[ctx] = (c0[ctx] + 1) >> 1
            c1[ctx] = (c1[ctx] + 1) >> 1
        if rng < _RANGE_MIN:
            refill()
        return bit

    def finish() -> None:
        # the 16 termination check bins, each a zero at a fixed half/half split
        nonlocal rng
        for _ in range(16):
            rng >>= 1
            if code >= rng:
                raise EntropyDecodeError("termination check failed: payload corrupt")
            if rng < _RANGE_MIN:
                refill()

    return decode, finish


def decode_eg0(decode, ctx_prefix: int, ctx_suffix: int, prefix_span: int) -> int:
    """Order-0 exp-Golomb value >= 0 read through decode: a prefix of k one
    bins ended by a zero (bin i under ctx_prefix + min(i, prefix_span - 1)),
    then k suffix bins under ctx_suffix, most significant first; the value is
    the suffix with a leading one, minus one."""
    k = 0
    last = prefix_span - 1
    while decode(ctx_prefix + (k if k < last else last)):
        k += 1
        if k > MAX_EG0_PREFIX:
            raise EntropyDecodeError("exp-Golomb prefix overrun: payload corrupt")
    n = 1
    for _ in range(k):
        n = (n << 1) | decode(ctx_suffix)
    return n - 1


def eg0_bins(ctxs: list, bits: list, value: int, ctx_prefix: int, ctx_suffix: int,
             prefix_span: int) -> None:
    """Append value's order-0 exp-Golomb bins (see decode_eg0) to ctxs and bits."""
    n = value + 1
    k = n.bit_length() - 1
    last = prefix_span - 1
    if k <= last:
        ctxs.extend(range(ctx_prefix, ctx_prefix + k + 1))
    else:
        ctxs.extend(range(ctx_prefix, ctx_prefix + last))
        ctxs.extend([ctx_prefix + last] * (k + 1 - last))
    ctxs.extend([ctx_suffix] * k)
    bits.extend([1] * k)
    bits.append(0)
    bits.extend(map(int, bin(n)[3:]))       # the k bits below n's leading one


def encode_bits(bits, model: ContextModel, contexts=None) -> bytes:
    """Code a flat bit sequence; contexts defaults to context 0 for all."""
    return encode_bins([0] * len(bits) if contexts is None else contexts, bits, model)


def decode_bits(data: bytes, model: ContextModel, n: int, contexts=None) -> list[int]:
    """Inverse of encode_bits for the same model shape and context plan."""
    if contexts is None:
        contexts = [0] * n
    elif len(contexts) != n:
        raise ValueError(f"{len(contexts)} contexts for {n} bits")
    _check_contexts(contexts, len(model.c0))
    decode, finish = bin_decoder(data, model)
    out = [decode(ctx) for ctx in contexts]
    finish()
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
