"""Reference entropy coding: the per-bin coder the payload loops must match.

A straightforward realization of the normative description in
`fbv.entropy`: one method call per bin on a coder object, order-0
exp-Golomb helpers on top of it, and the residual block and flow
binarizations written bin by bin. It is slow and kept only as the oracle
for `tests/test_entropy.py` and `tests/test_rc.py`: the payload loops in
`fbv.entropy`, `fbv.residual` and `fbv.motion` must produce the same payload
bytes and decode the same values, and fail with the same error.
"""

from __future__ import annotations

import numpy as np

from fbv import motion
from fbv.entropy import MAX_EG0_PREFIX, ContextModel, EntropyDecodeError
from fbv.motion import SEARCH_RANGE, FlowField, _grid_shape, flow_context_model
from fbv.residual import (_BAND_GROUP, _CTX_ESC_PREFIX, _CTX_LAST, _CTX_MAG_PREFIX,
                          _CTX_SIG, _CTX_SIGN, _CTX_ZERO_BLOCK, ZIGZAG, _ceil8, fwd2d,
                          quantize, residual_context_model)

_TOP = 1 << 32
_BOT = 1 << 24
_PROB_BITS = 11
_PROB_SCALE = 1 << _PROB_BITS
_HALVE_AT = 1 << 14


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

    def finish(self) -> None:
        """Verify the 16 termination check bits, each one before the bytes
        its renormalization reads."""
        for _ in range(16):
            bound = self.range >> 1
            if self.code >= bound:
                raise EntropyDecodeError("termination check failed: payload corrupt")
            self.range = bound
            while self.range < _BOT:
                self.code = ((self.code << 8) | self._next_byte()) & 0xFFFFFFFF
                self.range <<= 8


def encode_unary_eg0(enc: RangeEncoder, value: int, ctx_prefix: int, ctx_suffix: int,
                     prefix_span: int) -> None:
    n = value + 1
    k = n.bit_length() - 1
    for i in range(k):
        enc.encode(ctx_prefix + min(i, prefix_span - 1), 1)
    enc.encode(ctx_prefix + min(k, prefix_span - 1), 0)
    for i in range(k - 1, -1, -1):
        enc.encode(ctx_suffix, (n >> i) & 1)


def decode_unary_eg0(dec: RangeDecoder, ctx_prefix: int, ctx_suffix: int,
                     prefix_span: int) -> int:
    k = 0
    while dec.decode(ctx_prefix + min(k, prefix_span - 1)):
        k += 1
        if k > MAX_EG0_PREFIX:
            raise EntropyDecodeError("exp-Golomb prefix overrun: payload corrupt")
    n = 1
    for _ in range(k):
        n = (n << 1) | dec.decode(ctx_suffix)
    return n - 1


def encode_bins(ctxs, bits, model: ContextModel) -> bytes:
    enc = RangeEncoder(model)
    for ctx, bit in zip(ctxs, bits, strict=True):
        enc.encode(ctx, bit)
    return enc.finish()


def decode_bins(data: bytes, model: ContextModel, ctxs) -> list[int]:
    dec = RangeDecoder(data, model)
    out = [dec.decode(ctx) for ctx in ctxs]
    dec.finish()
    return out


# ---- residual payloads --------------------------------------------------------

def _encode_block(enc: RangeEncoder, levels: np.ndarray, signs: np.ndarray,
                  cc: int, top: int) -> None:
    nz = np.flatnonzero(levels)
    if nz.size == 0:
        enc.encode(_CTX_ZERO_BLOCK + cc, 1)
        return
    enc.encode(_CTX_ZERO_BLOCK + cc, 0)
    last = int(nz[-1])
    prev_sig = 0
    for i in range(last + 1):
        lev = int(levels[i])
        band = int(_BAND_GROUP[i])
        sig = 1 if lev else 0
        enc.encode(_CTX_SIG + cc * 8 + band * 2 + prev_sig, sig)
        prev_sig = sig
        if not sig:
            continue
        enc.encode(_CTX_SIGN + cc, 0 if signs[i] > 0 else 1)
        c = min(lev, top)
        if top > 1:
            base = _CTX_MAG_PREFIX + cc * 4
            encode_unary_eg0(enc, c - 1, base, base + 3, prefix_span=3)
        if c == top:
            base = _CTX_ESC_PREFIX + cc * 3
            encode_unary_eg0(enc, lev - top, base, base + 2, prefix_span=2)
        if i < 63:
            enc.encode(_CTX_LAST + cc * 4 + band, 1 if i == last else 0)


def _decode_block(dec: RangeDecoder, out_zz: np.ndarray, cc: int, top: int) -> None:
    if dec.decode(_CTX_ZERO_BLOCK + cc):
        return
    prev_sig = 0
    seen_any = False
    for i in range(64):
        band = int(_BAND_GROUP[i])
        sig = dec.decode(_CTX_SIG + cc * 8 + band * 2 + prev_sig)
        prev_sig = sig
        if not sig:
            if i == 63 and not seen_any:
                raise EntropyDecodeError("non-zero block decoded with no coefficients")
            continue
        seen_any = True
        sign = -1 if dec.decode(_CTX_SIGN + cc) else 1
        if top > 1:
            base = _CTX_MAG_PREFIX + cc * 4
            c = decode_unary_eg0(dec, base, base + 3, prefix_span=3) + 1
            if c > top:
                raise EntropyDecodeError("magnitude exceeds center range")
        else:
            c = 1
        lev = c
        if c == top:
            base = _CTX_ESC_PREFIX + cc * 3
            lev = top + decode_unary_eg0(dec, base, base + 2, prefix_span=2)
        out_zz[i] = sign * lev
        if i < 63 and dec.decode(_CTX_LAST + cc * 4 + band):
            return


def patch_levels(patch: np.ndarray, delta_fp: int) -> tuple[np.ndarray, np.ndarray]:
    """(levels, signs) of one (3, h, w) patch, each (3, blocks, 64) in zigzag order."""
    _, h, w = patch.shape
    padded = np.pad(np.asarray(patch, dtype=np.int64),
                    ((0, 0), (0, _ceil8(h) - h), (0, _ceil8(w) - w)), mode="edge")
    blocks = padded.reshape(3, _ceil8(h) // 8, 8, -1, 8).swapaxes(2, 3)
    flat = fwd2d(blocks).reshape(3, -1, 64)[..., ZIGZAG]
    return quantize(np.abs(flat), delta_fp), np.sign(flat)


def encode_residual(patches, q) -> tuple[bytes, list[np.ndarray]]:
    """The payload and each patch's signed zigzag levels."""
    enc = RangeEncoder(residual_context_model())
    signed = []
    for patch in patches:
        levels, signs = patch_levels(patch, q.delta_fp)
        for ch in range(3):
            cc = 0 if ch == 0 else 1
            for b in range(levels.shape[1]):
                _encode_block(enc, levels[ch, b], signs[ch, b], cc, q.top_center)
        signed.append(signs * levels)
    return enc.finish(), signed


def decode_levels(data: bytes, shapes, top: int) -> list[np.ndarray]:
    """Each patch's signed zigzag levels, (3, blocks, 64)."""
    dec = RangeDecoder(data, residual_context_model())
    out = []
    for (h, w) in shapes:
        levels = np.zeros((3, (_ceil8(h) // 8) * (_ceil8(w) // 8), 64), dtype=np.int64)
        for ch in range(3):
            cc = 0 if ch == 0 else 1
            for b in range(levels.shape[1]):
                _decode_block(dec, levels[ch, b], cc, top)
        out.append(levels)
    dec.finish()
    return out


# ---- flow payloads ------------------------------------------------------------

def _predicted(grid_part: np.ndarray, by: int, bx: int, comp: int, bw: int) -> int:
    left = int(grid_part[by, bx - 1, comp]) if bx > 0 else 0
    above = int(grid_part[by - 1, bx, comp]) if by > 0 else 0
    above_r = int(grid_part[by - 1, bx + 1, comp]) if by > 0 and bx + 1 < bw else 0
    return sorted((left, above, above_r))[1]


def encode_flow(flow: FlowField) -> bytes:
    enc = RangeEncoder(flow_context_model())
    for region, grid in zip(flow.regions, flow.vectors):
        bh, bw = _grid_shape(region)
        for by in range(bh):
            for bx in range(bw):
                for comp in range(2):
                    pred = _predicted(grid, by, bx, comp, bw)
                    d = int(grid[by, bx, comp]) - pred
                    if d == 0:
                        enc.encode(motion._CTX_ZERO + comp, 1)
                        continue
                    enc.encode(motion._CTX_ZERO + comp, 0)
                    enc.encode(motion._CTX_SIGN + comp, 0 if d > 0 else 1)
                    base = motion._CTX_EG_PREFIX + comp * 4
                    encode_unary_eg0(enc, abs(d) - 1, base, base + 3, prefix_span=3)
    return enc.finish()


def decode_flow(data: bytes, regions) -> FlowField:
    dec = RangeDecoder(data, flow_context_model())
    grids = []
    for region in regions.regions:
        bh, bw = _grid_shape(region)
        grid = np.zeros((bh, bw, 2), dtype=np.int16)
        for by in range(bh):
            for bx in range(bw):
                for comp in range(2):
                    pred = _predicted(grid, by, bx, comp, bw)
                    if dec.decode(motion._CTX_ZERO + comp):
                        grid[by, bx, comp] = pred
                        continue
                    sign = -1 if dec.decode(motion._CTX_SIGN + comp) else 1
                    base = motion._CTX_EG_PREFIX + comp * 4
                    mag = decode_unary_eg0(dec, base, base + 3, prefix_span=3) + 1
                    v = pred + sign * mag
                    if abs(v) > 2 * SEARCH_RANGE:
                        raise EntropyDecodeError(f"flow component {v} out of range")
                    grid[by, bx, comp] = v
        grids.append(grid)
    dec.finish()
    return FlowField(regions.regions, tuple(grids))
