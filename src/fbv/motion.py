"""Block motion estimation, flow coding, and backward warping.

Flow is estimated per 8x8 block on luma by exhaustive search over integer
displacements within +/-SEARCH_RANGE pels, then refined to half-pel
precision against the same integer bilinear sampler the warper uses.
Candidates tie-break by (SAD, |v|^2, v_y, v_x), so flat blocks come out
(0, 0) and results are order-free. Components are stored in half-pel units.

The search runs over a whole region at once. For each vertical offset, a
window sliding along x over the region's edge-padded source rows gives the
SAD of every block at every horizontal offset; the tie-break is packed into
one integer key per candidate, SAD * (candidate count) + rank of
(|v|^2, v_y, v_x), and an argmin per block picks the winner. The half-pel
step keys the 3x3 neighbours of every block's winner the same way. All of
it is integer arithmetic, so batching the search changes no choice.

Warping is backward, one (3, h, w) prediction per region: the value at target
(x, y) is fetched from the previous foreground's uint8 planes at (x, y) - v
with edge-clamped, bilinear half-pel sampling. The half-pel sample is

    ((a*(2-fx) + b*fx)*(2-fy) + (c*(2-fx) + d*fx)*fy + 2) >> 2

with fx, fy in {0, 1} half steps, which reduces to round-half-up averaging
on the lattice, all in integer arithmetic.

Flow fields are coded predictively: per component, the median of the left,
above, and above-right block values (absent neighbors read 0) predicts each
block in raster order; the difference is sent as a zero flag, a sign, and an
order-0 exp-Golomb magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Frame, Region, RegionSet
from .entropy import (ContextModel, EntropyDecodeError, bin_decoder, decode_eg0, eg0_bins,
                      encode_bins)

BLOCK = 8
SEARCH_RANGE = 16  # integer pels each side

# flow payload contexts: per component, zero flag / sign / eg0 prefix+suffix
_CTX_ZERO = 0      # +comp (2)
_CTX_SIGN = 2      # +comp (2)
_CTX_EG_PREFIX = 4  # +comp*4, span 3 prefix + 1 suffix (8)
NUM_FLOW_CONTEXTS = 12


def flow_context_model() -> ContextModel:
    return ContextModel(NUM_FLOW_CONTEXTS)


def _grid_shape(region: Region) -> tuple[int, int]:
    return -(-region.h // BLOCK), -(-region.w // BLOCK)


@dataclass(frozen=True)
class FlowField:
    """Per-region grids of (v_x, v_y) in half-pel units."""

    regions: tuple[Region, ...]
    vectors: tuple[np.ndarray, ...]  # each (bh, bw, 2) int16, [vx, vy]

    def __post_init__(self) -> None:
        if len(self.regions) != len(self.vectors):
            raise ValueError("one vector grid per region required")
        for r, v in zip(self.regions, self.vectors):
            if v.shape != (*_grid_shape(r), 2):
                raise ValueError(f"vector grid {v.shape} does not tile region {r}")
            if np.abs(v).max(initial=0) > 2 * SEARCH_RANGE:
                raise ValueError("flow component out of range")


def _pad_to_block(patch: np.ndarray) -> np.ndarray:
    h, w = patch.shape[-2:]
    ph = (-h) % BLOCK
    pw = (-w) % BLOCK
    if not ph and not pw:
        return patch
    pad = [(0, 0)] * (patch.ndim - 2) + [(0, ph), (0, pw)]
    return np.pad(patch, pad, mode="edge")


def _sample_halfpel(plane: np.ndarray, pos_y: np.ndarray, pos_x: np.ndarray) -> np.ndarray:
    """Edge-clamped bilinear fetch at half-pel coordinates (any integer plane in, int64 out)."""
    h, w = plane.shape
    pos_y = np.clip(pos_y, 0, 2 * (h - 1))
    pos_x = np.clip(pos_x, 0, 2 * (w - 1))
    iy, fy = pos_y >> 1, pos_y & 1
    ix, fx = pos_x >> 1, pos_x & 1
    iy1 = np.minimum(iy + 1, h - 1)
    ix1 = np.minimum(ix + 1, w - 1)
    a = plane[iy, ix]
    b = plane[iy, ix1]
    c = plane[iy1, ix]
    d = plane[iy1, ix1]
    return ((a * (2 - fx) + b * fx) * (2 - fy) + (c * (2 - fx) + d * fx) * fy + 2) >> 2


_WIN = 2 * SEARCH_RANGE + 1       # integer offsets per axis
_BAND = 1 << 19                   # difference samples per integer-search pass
_HALF_BAND = 1 << 16              # warped samples per half-pel pass
_DY = np.repeat(np.arange(-1, 2), 3)   # the 3x3 half-pel neighbourhood
_DX = np.tile(np.arange(-1, 2), 3)


def _tie_rank(radius: int) -> np.ndarray:
    """Rank of every vector with both components in [-radius, radius] under
    the order (|v|^2, v_y, v_x), indexed [radius - v_y, radius - v_x]."""
    v = radius - np.arange(2 * radius + 1)
    vy, vx = np.meshgrid(v, v, indexing="ij")
    order = np.lexsort((vx.ravel(), vy.ravel(), (vy * vy + vx * vx).ravel()))
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return rank.reshape(vy.shape)


# a search keys each candidate as sad * (candidate count) + rank, so one argmin
# applies the whole (SAD, |v|^2, v_y, v_x) order
_INT_RANK = _tie_rank(SEARCH_RANGE)
_HALF_RANK = _tie_rank(2 * SEARCH_RANGE)


def _block_sums(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum each BLOCK-long run along axis; explicit adds beat a strided reduce."""
    runs = a.reshape(a.shape[:axis] + (-1, BLOCK) + a.shape[axis + 1:])
    lead = (slice(None),) * (axis + 1)
    out = runs[lead + (0,)] + runs[lead + (1,)]
    for k in range(2, BLOCK):
        out += runs[lead + (k,)]
    return out


def _per_pixel(grid: np.ndarray) -> np.ndarray:
    """Expand per-block values over each block's pixels (last two axes)."""
    return np.repeat(np.repeat(grid, BLOCK, -2), BLOCK, -1)


def _integer_search(prev_padded: np.ndarray, target: np.ndarray,
                    y: int, x: int) -> tuple[np.ndarray, np.ndarray]:
    """Best integer (v_y, v_x) of every block of one region.

    prev_padded is the previous luma (int16) edge-padded by SEARCH_RANGE +
    BLOCK on every side; target is the region's block-padded luma (int16) at
    (y, x). For a band of vertical offsets at a time, a window sliding along
    x gives every block's SAD at every horizontal offset. A band holds at
    most _BAND samples or one offset, so beside the region's
    (bh, bw, _WIN, _WIN) key volume the temporaries stay within the larger
    of 1 MB and half that volume.
    """
    h8, w8 = target.shape
    bh, bw = h8 // BLOCK, w8 // BLOCK
    rows = prev_padded[y + BLOCK:y + BLOCK + 2 * SEARCH_RANGE + h8,
                       x + BLOCK:x + BLOCK + 2 * SEARCH_RANGE + w8]
    # wins[i, r, j, c] is prev[y + r + i - R, x + c + j - R], matched to target[r, c]
    wins = np.lib.stride_tricks.sliding_window_view(rows, (h8, w8)).transpose(0, 2, 1, 3)
    key = np.empty((bh, bw, _WIN, _WIN), dtype=np.int64)
    by_offset = key.transpose(2, 0, 3, 1)
    step = min(_WIN, max(1, _BAND // (h8 * _WIN * w8)))
    diff = np.empty((step, h8, _WIN, w8), dtype=np.int16)
    for i in range(0, _WIN, step):
        d = diff[:min(step, _WIN - i)]
        np.subtract(wins[i:i + len(d)], target[:, None, :], out=d)
        np.abs(d, out=d)
        # a block SAD fits int16: 64 * 255 < 2**15
        by_offset[i:i + len(d)] = _block_sums(_block_sums(d, 1), 3)
    key *= _WIN * _WIN
    key += _INT_RANK
    best = key.reshape(bh, bw, -1).argmin(axis=-1)
    return SEARCH_RANGE - best // _WIN, SEARCH_RANGE - best % _WIN


def _halfpel_search(prev: np.ndarray, target: np.ndarray, y: int, x: int,
                    hvy: np.ndarray, hvx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refine every block's half-pel vector (hvy, hvx) to the best of its 3x3
    neighbourhood, dropping candidates beyond +/-2*SEARCH_RANGE."""
    h8, w8 = target.shape
    lim = 2 * SEARCH_RANGE
    cy = hvy + _DY[:, None, None]          # (9, bh, bw)
    cx = hvx + _DX[:, None, None]
    pos_y = 2 * (y + np.arange(h8, dtype=np.int64))[:, None]
    pos_x = 2 * (x + np.arange(w8, dtype=np.int64))[None, :]
    sad = np.empty(cy.shape, dtype=np.int64)
    step = max(1, _HALF_BAND // (h8 * w8))
    for k in range(0, len(_DY), step):
        warped = _sample_halfpel(prev, pos_y - _per_pixel(cy[k:k + step]),
                                 pos_x - _per_pixel(cx[k:k + step]))
        sad[k:k + step] = _block_sums(_block_sums(np.abs(warped - target), 1), 2)
    rank = _HALF_RANK[np.clip(lim - cy, 0, 2 * lim), np.clip(lim - cx, 0, 2 * lim)]
    valid = (np.abs(cy) <= lim) & (np.abs(cx) <= lim)
    key = np.where(valid, sad * _HALF_RANK.size + rank, np.iinfo(np.int64).max)
    best = key.argmin(axis=0)
    return hvy + _DY[best], hvx + _DX[best]


def estimate_flow(prev_fg: Frame, cur_fg: Frame, regions: RegionSet) -> FlowField:
    """Half-pel block flow minimizing luma SAD of the backward warp."""
    if prev_fg.planes.shape != cur_fg.planes.shape:
        raise ValueError("foreground dimensions differ")
    if not regions.regions:
        raise ValueError("empty region set")
    prev = prev_fg.planes[0]
    cur = cur_fg.planes[0].astype(np.int16)
    prev_padded = np.pad(prev_fg.planes[0].astype(np.int16), SEARCH_RANGE + BLOCK, mode="edge")
    grids = []
    for region in regions.regions:
        target = _pad_to_block(cur[region.y:region.y2, region.x:region.x2])
        vy, vx = _integer_search(prev_padded, target, region.y, region.x)
        hvy, hvx = _halfpel_search(prev, target, region.y, region.x, 2 * vy, 2 * vx)
        grids.append(np.stack([hvx, hvy], axis=-1).astype(np.int16))
    return FlowField(regions.regions, tuple(grids))


def warp(prev_fg: Frame, flow: FlowField) -> list[np.ndarray]:
    """Backward-warp the previous foreground onto each of the flow's regions:
    one (3, h, w) int64 prediction per region, in region order."""
    predictions = []
    for region, grid in zip(flow.regions, flow.vectors):
        h, w = region.h, region.w
        yy, xx = np.mgrid[region.y:region.y2, region.x:region.x2]
        pos_y = 2 * yy - _per_pixel(grid[:, :, 1])[:h, :w]
        pos_x = 2 * xx - _per_pixel(grid[:, :, 0])[:h, :w]
        predictions.append(np.stack([_sample_halfpel(plane, pos_y, pos_x)
                                     for plane in prev_fg.planes]))
    return predictions


def _median3(a: int, b: int, c: int) -> int:
    return sorted((a, b, c))[1]


def _predicted(grid_part: np.ndarray, by: int, bx: int, comp: int, bw: int) -> int:
    left = int(grid_part[by, bx - 1, comp]) if bx > 0 else 0
    above = int(grid_part[by - 1, bx, comp]) if by > 0 else 0
    above_r = int(grid_part[by - 1, bx + 1, comp]) if by > 0 and bx + 1 < bw else 0
    return _median3(left, above, above_r)


def encode_flow(flow: FlowField) -> bytes:
    """Predictively code all region grids into one entropy payload."""
    ctxs: list[int] = []
    bits: list[int] = []
    for region, grid in zip(flow.regions, flow.vectors):
        bh, bw = _grid_shape(region)
        for by in range(bh):
            for bx in range(bw):
                for comp in range(2):
                    d = int(grid[by, bx, comp]) - _predicted(grid, by, bx, comp, bw)
                    ctxs.append(_CTX_ZERO + comp)
                    if d == 0:
                        bits.append(1)
                        continue
                    bits.append(0)
                    ctxs.append(_CTX_SIGN + comp)
                    bits.append(0 if d > 0 else 1)
                    base = _CTX_EG_PREFIX + comp * 4
                    eg0_bins(ctxs, bits, abs(d) - 1, base, base + 3, 3)
    return encode_bins(ctxs, bits, flow_context_model())


def decode_flow(data: bytes, regions: RegionSet) -> FlowField:
    """Inverse of encode_flow for the same region list."""
    decode, finish = bin_decoder(data, flow_context_model())
    grids = []
    for region in regions.regions:
        bh, bw = _grid_shape(region)
        grid = np.zeros((bh, bw, 2), dtype=np.int16)
        for by in range(bh):
            for bx in range(bw):
                for comp in range(2):
                    pred = _predicted(grid, by, bx, comp, bw)
                    if decode(_CTX_ZERO + comp):
                        grid[by, bx, comp] = pred
                        continue
                    sign = -1 if decode(_CTX_SIGN + comp) else 1
                    base = _CTX_EG_PREFIX + comp * 4
                    v = pred + sign * (decode_eg0(decode, base, base + 3, 3) + 1)
                    if abs(v) > 2 * SEARCH_RANGE:
                        raise EntropyDecodeError(f"flow component {v} out of range")
                    grid[by, bx, comp] = v
        grids.append(grid)
    finish()
    return FlowField(regions.regions, tuple(grids))
