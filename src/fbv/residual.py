"""Block residual codec: integer lifting transform + center quantization.

Normative transform
-------------------
The 8-point transform is a bijective integer lifting realization of the
type-II cosine transform. Every step is either a Haar lifting pair

    s = a + b;  d = b - (s >> 1)          (undone by b = d + (s >> 1); a = s - b)

or a plane rotation realized as three dyadic shears

    x += (p*y + 128) >> 8;  y += (u*x + 128) >> 8;  x += (p*y + 128) >> 8

with 16-bit constants p = round(256*tan(theta/2)), u = round(-256*sin(theta)).
Shifts are arithmetic (floor), so the integer inverse undoes each step
exactly: inverse(forward(x)) == x and forward(inverse(X)) == X for every
integer block. Per-axis output scales relative to the orthonormal cosine
transform are approximately [1.414, 0.707, 1.0, 0.707, 2.828, 0.707, 1.0,
0.707] by band; quantization operates on these lifted coefficients directly.

Quantization
------------
Each coefficient is split into sign and magnitude. The magnitude divided
by the step delta is hard-quantized against the centers {0..2^L - 1} with
midpoints resolved toward the smaller center. A magnitude that saturates
the top center carries an exp-Golomb escape extension (level - top), so
arbitrarily large coefficients stay representable at every L. Dequantization
is level * delta rounded half up. Both run in exact integer arithmetic on
the 8.8 fixed-point delta.

Patches of any size are coded: a patch is edge-padded to whole 8x8 blocks
and its reconstruction cropped back. `quantize` is the one quantizer and
`_synthesize` (dequantize, inverse transform, clip, unblock, crop) the one
reconstruction of a residual; the encoder takes its reference from
`_synthesize` on the levels it codes, the decoder on the levels it decodes,
so the two agree bit for bit. `add_residual` adds a residual to its
prediction, for foreground regions and background templates alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entropy import (HALVE_AT, MAX_EG0_PREFIX, PROB_BITS, RANGE_MIN, ContextModel,
                      EntropyDecodeError, check_termination, decode_start, eg0_bins,
                      encode_bins, renormalize)

# rotation schedule for the odd half: ('rot', j, i, p, u) or ('neg2', j, i)
_ODD_OPS = (
    ("rot", 2, 3, 94, -166),
    ("rot", 1, 3, -53, 102),
    ("neg2", 1, 2),
    ("rot", 1, 2, 142, -217),
    ("rot", 0, 3, 18, -35),
    ("rot", 0, 2, 53, -102),
    ("neg2", 0, 1),
    ("rot", 0, 1, -94, 166),
)
_EVEN_P, _EVEN_U = 51, -98  # rotation by pi/8 for bands 2 and 6


def _shear(x: np.ndarray, k: int, y: np.ndarray) -> np.ndarray:
    return x + ((k * y + 128) >> 8)


def fwd8(x: np.ndarray) -> np.ndarray:
    """Forward lifting transform along the last axis (int64 in, int64 out)."""
    x0, x1, x2, x3, x4, x5, x6, x7 = (np.ascontiguousarray(x[..., i]) for i in range(8))
    s0 = x0 + x7; o0 = x7 - (s0 >> 1)
    s1 = x1 + x6; o1 = x6 - (s1 >> 1)
    s2 = x2 + x5; o2 = x5 - (s2 >> 1)
    s3 = x3 + x4; o3 = x4 - (s3 >> 1)
    c0 = s0 + s3; e0 = s3 - (c0 >> 1)
    c1 = s1 + s2; e1 = s2 - (c1 >> 1)
    b4 = c0 - c1; b0 = c1 + (b4 >> 1)
    e0 = _shear(e0, _EVEN_P, e1); e1 = _shear(e1, _EVEN_U, e0); e0 = _shear(e0, _EVEN_P, e1)
    b2 = -e0; b6 = e1
    v = [o0, o1, o2, o3]
    for op in _ODD_OPS:
        if op[0] == "neg2":
            _, j, i = op
            v[j] = -v[j]; v[i] = -v[i]
        else:
            _, j, i, p, u = op
            v[j] = _shear(v[j], p, v[i]); v[i] = _shear(v[i], u, v[j]); v[j] = _shear(v[j], p, v[i])
    return np.stack([b0, v[0], b2, v[1], b4, v[2], b6, v[3]], axis=-1)


def inv8(t: np.ndarray) -> np.ndarray:
    """Exact inverse of fwd8."""
    b0, x1, b2, x3, b4, x5, b6, x7 = (np.ascontiguousarray(t[..., i]) for i in range(8))
    v = [x1, x3, x5, x7]
    for op in reversed(_ODD_OPS):
        if op[0] == "neg2":
            _, j, i = op
            v[j] = -v[j]; v[i] = -v[i]
        else:
            _, j, i, p, u = op
            v[j] = v[j] - ((p * v[i] + 128) >> 8)
            v[i] = v[i] - ((u * v[j] + 128) >> 8)
            v[j] = v[j] - ((p * v[i] + 128) >> 8)
    o0, o1, o2, o3 = v
    e0 = -b2; e1 = b6
    e0 = e0 - ((_EVEN_P * e1 + 128) >> 8)
    e1 = e1 - ((_EVEN_U * e0 + 128) >> 8)
    e0 = e0 - ((_EVEN_P * e1 + 128) >> 8)
    c1 = b0 - (b4 >> 1); c0 = b4 + c1
    s3 = e0 + (c0 >> 1); s0 = c0 - s3
    s2 = e1 + (c1 >> 1); s1 = c1 - s2
    x7_ = o0 + (s0 >> 1); x0_ = s0 - x7_
    x6_ = o1 + (s1 >> 1); x1_ = s1 - x6_
    x5_ = o2 + (s2 >> 1); x2_ = s2 - x5_
    x4_ = o3 + (s3 >> 1); x3_ = s3 - x4_
    return np.stack([x0_, x1_, x2_, x3_, x4_, x5_, x6_, x7_], axis=-1)


def fwd2d(blocks: np.ndarray) -> np.ndarray:
    """Separable 2D forward over the trailing (8, 8) axes."""
    t = fwd8(blocks.astype(np.int64))
    t = np.swapaxes(t, -1, -2)
    t = fwd8(t)
    return np.swapaxes(t, -1, -2)


def inv2d(coefs: np.ndarray) -> np.ndarray:
    t = np.swapaxes(coefs.astype(np.int64), -1, -2)
    t = inv8(t)
    t = np.swapaxes(t, -1, -2)
    return inv8(t)


def _zigzag_order() -> np.ndarray:
    order = sorted(((r + c, c if (r + c) % 2 else r, r, c)
                    for r in range(8) for c in range(8)))
    return np.array([r * 8 + c for _, _, r, c in order], dtype=np.int64)


ZIGZAG = _zigzag_order()

# band group per zigzag position: DC, low, mid, high
_BAND_GROUP = np.array([0] + [1] * 5 + [2] * 15 + [3] * 43, dtype=np.int64)


@dataclass(frozen=True)
class QualityPoint:
    """Rate-distortion operating point: step delta_q and center bits levels."""

    delta_q: float
    levels: int

    def __post_init__(self) -> None:
        if not (0 < self.delta_q < float("inf")):
            raise ValueError("delta_q must be finite and > 0")
        if not (1 <= self.levels <= 12):
            raise ValueError("levels must be in 1..12")
        # bounded before delta_fp rounds it: a huge step would overflow the rounding
        if not (self.delta_q < 256 and 1 <= self.delta_fp <= 0xFFFF):
            raise ValueError("delta_q out of range for 8.8 fixed point (1/256 .. 255.99)")

    @property
    def delta_fp(self) -> int:
        """delta_q in 8.8 fixed point, the form carried by the container."""
        return int(round(self.delta_q * 256))

    @property
    def top_center(self) -> int:
        return (1 << self.levels) - 1


# context layout for one residual payload
_CTX_ZERO_BLOCK = 0            # +cc (2)
_CTX_SIG = 2                   # +cc*8 + band_group*2 + prev_sig (16)
_CTX_LAST = 18                 # +cc*4 + band_group (8)
_CTX_SIGN = 26                 # +cc (2)
_CTX_MAG_PREFIX = 28           # +cc*4, span 3 prefix + 1 suffix (8)
_CTX_ESC_PREFIX = 36           # +cc*3, span 2 prefix + 1 suffix (6)
NUM_RESIDUAL_CONTEXTS = 42


def residual_context_model() -> ContextModel:
    return ContextModel(NUM_RESIDUAL_CONTEXTS)


def quantize(mag: np.ndarray, delta_fp: int) -> np.ndarray:
    """Level of each magnitude: mag * 256 / delta_fp rounded half down,
    i.e. the nearest center with ties to the smaller one, before the top
    center's escape."""
    return (2 * mag * 256 + delta_fp - 1) // (2 * delta_fp)


def _ceil8(n: int) -> int:
    return n + (-n) % 8


def _synthesize(signed_levels_zz: np.ndarray, delta_fp: int, h: int, w: int) -> np.ndarray:
    """(3, blocks, 64) signed zigzag levels -> the (3, h, w) reconstruction."""
    coefs = np.empty_like(signed_levels_zz)
    coefs[..., ZIGZAG] = np.sign(signed_levels_zz) * (
        (np.abs(signed_levels_zz) * delta_fp + 128) >> 8)
    spatial = np.clip(inv2d(coefs.reshape(3, -1, 8, 8)), -255, 255)
    ph, pw = _ceil8(h), _ceil8(w)
    planes = spatial.reshape(3, ph // 8, pw // 8, 8, 8).swapaxes(2, 3).reshape(3, ph, pw)
    return planes[:, :h, :w]


# per coefficient contexts by zigzag position, luma then chroma
_SIG_CTX = tuple(tuple(_CTX_SIG + cc * 8 + g * 2 for g in _BAND_GROUP.tolist()) for cc in (0, 1))
_LAST_CTX = tuple(tuple(_CTX_LAST + cc * 4 + g for g in _BAND_GROUP.tolist()) for cc in (0, 1))


def encode_residual(patches: Sequence[np.ndarray],
                    q: QualityPoint) -> tuple[bytes, list[np.ndarray]]:
    """Code (3, h, w) residual patches into one entropy payload.

    Returns (payload, decoded_patches): the decoded side is what
    decode_residual returns for the payload.
    """
    ctxs: list[int] = []
    bits: list[int] = []
    decoded: list[np.ndarray] = []
    for patch in patches:
        if patch.ndim != 3 or patch.shape[0] != 3:
            raise ValueError("residual patch must be (3, h, w)")
        _, h, w = patch.shape
        padded = np.pad(np.asarray(patch, dtype=np.int64),
                        ((0, 0), (0, _ceil8(h) - h), (0, _ceil8(w) - w)), mode="edge")
        blocks = padded.reshape(3, _ceil8(h) // 8, 8, -1, 8).swapaxes(2, 3)
        flat = fwd2d(blocks).reshape(3, -1, 64)[..., ZIGZAG]
        levels = quantize(np.abs(flat), q.delta_fp)
        signs = np.sign(flat)
        _binarize(levels, signs, q.top_center, ctxs, bits)
        decoded.append(_synthesize(signs * levels, q.delta_fp, h, w))
    return encode_bins(ctxs, bits, residual_context_model()), decoded


def _binarize(levels: np.ndarray, signs: np.ndarray, top: int,
              ctxs: list[int], bits: list[int]) -> None:
    """Append the bins of one patch's (3, blocks, 64) zigzag levels and signs.

    Per block: a zero-block flag; for a non-zero block, per coefficient up
    to the last non-zero one, a significance bin (context by band group and
    the previous coefficient's significance) and, for a non-zero one, its
    sign, its center index minus one as exp-Golomb when top > 1, the escape
    level - top as exp-Golomb when it saturates top, and a last flag before
    position 63.
    """
    nz = levels != 0
    lasts = np.where(nz.any(axis=2), 63 - np.argmax(nz[..., ::-1], axis=2), -1)
    cx, bx = ctxs.append, bits.append
    for ch, (lev_ch, neg_ch, last_ch) in enumerate(zip(levels.tolist(), (signs < 0).tolist(),
                                                        lasts.tolist())):
        cc = 0 if ch == 0 else 1
        zero_ctx, sign_ctx = _CTX_ZERO_BLOCK + cc, _CTX_SIGN + cc
        mag, esc = _CTX_MAG_PREFIX + cc * 4, _CTX_ESC_PREFIX + cc * 3
        sig_ctx, last_ctx = _SIG_CTX[cc], _LAST_CTX[cc]
        for lev_b, neg_b, last in zip(lev_ch, neg_ch, last_ch):
            cx(zero_ctx)
            if last < 0:
                bx(1)
                continue
            bx(0)
            prev = 0
            for i in range(last + 1):
                lev = lev_b[i]
                cx(sig_ctx[i] + prev)
                if not lev:
                    bx(0)
                    prev = 0
                    continue
                bx(1)
                prev = 1
                cx(sign_ctx)
                bx(1 if neg_b[i] else 0)
                c = lev if lev < top else top
                if top > 1:
                    eg0_bins(ctxs, bits, c - 1, mag, mag + 3, 3)
                if c == top:
                    eg0_bins(ctxs, bits, lev - top, esc, esc + 2, 2)
                if i < 63:
                    cx(last_ctx[i])
                    bx(1 if i == last else 0)


def decode_residual(data: bytes, shapes: Sequence[tuple[int, int]],
                    q: QualityPoint) -> list[np.ndarray]:
    """Inverse of encode_residual; shapes lists each patch's (h, w)."""
    blocks = [(_ceil8(h) // 8) * (_ceil8(w) // 8) for h, w in shapes]
    levels = np.array(decode_levels(data, blocks, q.top_center), dtype=np.int64)
    patches: list[np.ndarray] = []
    at = 0
    for (h, w), n in zip(shapes, blocks):
        patches.append(_synthesize(levels[at:at + 192 * n].reshape(3, n, 64), q.delta_fp, h, w))
        at += 192 * n
    return patches


# what the next bin of a block codes, in decode_levels
_ZERO, _SIG, _SIGN, _PREFIX, _SUFFIX, _LAST = range(6)


def decode_levels(data: bytes, blocks: Sequence[int], top: int) -> list[int]:
    """A payload's signed zigzag levels, 64 per 8x8 block, in coding order:
    patch by patch, plane by plane, blocks[p] blocks per plane of patch p.

    One loop decodes every bin of the payload. The coder state (pos, code,
    rng and the model's counters) lives in local variables, and the bin
    decode, written once, follows the coder description in `fbv.entropy`.
    `step` names the element of the binarization (see `_binarize`) the bin
    belongs to; after each bin it picks the next step and context.
    """
    model = residual_context_model()
    c0, c1 = model.c0, model.c1
    pos, code, rng = decode_start(data)
    out = [0] * (192 * sum(blocks))
    at = 0
    for n in blocks:
        for ch in range(3):
            cc = 0 if ch == 0 else 1
            zero_ctx, sign_ctx = _CTX_ZERO_BLOCK + cc, _CTX_SIGN + cc
            mag, esc = _CTX_MAG_PREFIX + cc * 4, _CTX_ESC_PREFIX + cc * 3
            sig_ctx, last_ctx = _SIG_CTX[cc], _LAST_CTX[cc]
            for _ in range(n):
                step, ctx, i = _ZERO, zero_ctx, 0
                while True:
                    n0 = c0[ctx]
                    n1 = c1[ctx]
                    # n1 >= 1 keeps p0 <= 2047, so only the floor needs a clamp
                    t = n0 + n1
                    bound = (rng >> PROB_BITS) * ((n0 << PROB_BITS) // t or 1)
                    if code < bound:
                        bit = 0
                        rng = bound
                        c0[ctx] = n0 + 1
                    else:
                        bit = 1
                        code -= bound
                        rng -= bound
                        c1[ctx] = n1 + 1
                    if t + 1 >= HALVE_AT:
                        c0[ctx] = (c0[ctx] + 1) >> 1
                        c1[ctx] = (c1[ctx] + 1) >> 1
                    if rng < RANGE_MIN:
                        pos, code, rng = renormalize(data, pos, code, rng)

                    if step == _PREFIX:             # exp-Golomb: k one bins, then a zero
                        if bit:
                            k += 1
                            if k > MAX_EG0_PREFIX:
                                raise EntropyDecodeError(
                                    "exp-Golomb prefix overrun: payload corrupt")
                            ctx = prefix + (k if k < cap else cap)
                            continue
                        value = 1
                        if k:
                            step, ctx = _SUFFIX, suffix
                            continue
                    elif step == _SIG:
                        if bit:
                            step, ctx = _SIGN, sign_ctx
                        elif i < 63:
                            i += 1
                            ctx = sig_ctx[i]
                        elif any(out[at:at + 64]):    # position 63 ends the block
                            break
                        else:
                            raise EntropyDecodeError("non-zero block decoded with no coefficients")
                        continue
                    elif step == _SUFFIX:           # k bins, most significant first
                        value = (value << 1) | bit
                        k -= 1
                        if k:
                            continue
                    elif step == _SIGN:
                        neg = bit
                        escape = False
                        if top > 1:
                            step, ctx, k = _PREFIX, mag, 0
                            prefix, cap, suffix = mag, 2, mag + 3
                            continue
                        value = 1                   # at levels 1 the center index is 1
                    elif step == _LAST:
                        if bit:
                            break
                        i += 1
                        step, ctx = _SIG, sig_ctx[i] + 1
                        continue
                    elif bit:                       # _ZERO: an all-zero block
                        break
                    else:
                        step, ctx = _SIG, sig_ctx[0]
                        continue
                    # a center index (value) or an escape (value - 1) is complete
                    if escape:
                        c = top + value - 1
                    else:
                        c = value
                        if c > top:
                            raise EntropyDecodeError("magnitude exceeds center range")
                        if c == top:
                            escape = True
                            step, ctx, k = _PREFIX, esc, 0
                            prefix, cap, suffix = esc, 1, esc + 2
                            continue
                    out[at + i] = -c if neg else c
                    if i == 63:
                        break
                    step, ctx = _LAST, last_ctx[i]
                at += 64
    check_termination(data, pos, code, rng)
    return out


def add_residual(prediction: np.ndarray | int, residual: np.ndarray) -> np.ndarray:
    """The one reconstruction rule: clip(prediction + residual, 0, 255) as uint8."""
    return np.clip(prediction + residual, 0, 255).astype(np.uint8)
