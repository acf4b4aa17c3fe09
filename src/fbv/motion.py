"""Block motion estimation, flow coding, and backward warping.

Flow is estimated per 8x8 block on luma by exhaustive search over integer
displacements within +/-SEARCH_RANGE pels, then refined to half-pel
precision against the same integer bilinear sampler the warper uses.
Candidates tie-break by (SAD, |v|^2, v_y, v_x), so flat blocks come out
(0, 0) and results are order-free. Components are stored in half-pel units.

Warping is backward: the value at target (x, y) is fetched from the previous
foreground at (x, y) - v with edge-clamped, bilinear half-pel sampling, and
zeroed outside the region mask. The half-pel sample is

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

from .core import Frame, Region
from .entropy import (ContextModel, EntropyDecodeError, RangeDecoder, RangeEncoder,
                      decode_unary_eg0, encode_unary_eg0)
from .fgregion import RegionSet

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
    """Edge-clamped bilinear fetch at half-pel coordinates (int64 in/out)."""
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


def _block_sad_volume(prev_padded: np.ndarray, target: np.ndarray,
                      y0: int, x0: int) -> np.ndarray:
    """SAD of every integer displacement in the +/-SEARCH_RANGE window.

    prev_padded is the previous luma edge-padded by SEARCH_RANGE + BLOCK on
    every side, so off-grid edge blocks stay in range.
    """
    r = SEARCH_RANGE
    patch = prev_padded[y0 + BLOCK:y0 + 2 * r + 2 * BLOCK,
                        x0 + BLOCK:x0 + 2 * r + 2 * BLOCK]
    wins = np.lib.stride_tricks.sliding_window_view(patch, (BLOCK, BLOCK))
    return np.abs(wins.astype(np.int64) - target[None, None]).sum(axis=(2, 3))


_WIN = 2 * SEARCH_RANGE + 1
_VY_INT = (SEARCH_RANGE - np.arange(_WIN))[:, None] + np.zeros(_WIN, dtype=np.int64)[None]
_VX_INT = np.zeros(_WIN, dtype=np.int64)[:, None] + (SEARCH_RANGE - np.arange(_WIN))[None]


def _pick(sad: np.ndarray, vy: np.ndarray, vx: np.ndarray) -> int:
    v2 = vy * vy + vx * vx
    order = np.lexsort((vx.ravel(), vy.ravel(), v2.ravel(), sad.ravel()))
    return int(order[0])


def estimate_flow(prev_fg: Frame, cur_fg: Frame, regions: RegionSet) -> FlowField:
    """Half-pel block flow minimizing luma SAD of the backward warp."""
    if prev_fg.planes.shape != cur_fg.planes.shape:
        raise ValueError("foreground dimensions differ")
    if not regions.regions:
        raise ValueError("empty region set")
    prev = prev_fg.planes[0].astype(np.int64)
    cur = cur_fg.planes[0].astype(np.int64)
    prev_padded = np.pad(prev, SEARCH_RANGE + BLOCK, mode="edge")
    grids = []
    for region in regions.regions:
        bh, bw = _grid_shape(region)
        grid = np.zeros((bh, bw, 2), dtype=np.int16)
        patch = _pad_to_block(cur[region.y:region.y2, region.x:region.x2])
        for by in range(bh):
            for bx in range(bw):
                y0 = region.y + by * BLOCK
                x0 = region.x + bx * BLOCK
                target = patch[by * BLOCK:(by + 1) * BLOCK, bx * BLOCK:(bx + 1) * BLOCK]
                sad = _block_sad_volume(prev_padded, target, y0, x0)
                best = _pick(sad, _VY_INT, _VX_INT)
                vy = int(_VY_INT.ravel()[best])
                vx = int(_VX_INT.ravel()[best])
                hvx, hvy = _refine_halfpel(prev, target, y0, x0, 2 * vx, 2 * vy)
                grid[by, bx] = (hvx, hvy)
        grids.append(grid)
    return FlowField(regions.regions, tuple(grids))


_BY, _BX = np.mgrid[0:BLOCK, 0:BLOCK].astype(np.int64)


def _refine_halfpel(prev: np.ndarray, target: np.ndarray,
                    y0: int, x0: int, hvx: int, hvy: int) -> tuple[int, int]:
    cands = []
    lim = 2 * SEARCH_RANGE
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            cy, cx = hvy + dy, hvx + dx
            if abs(cy) > lim or abs(cx) > lim:
                continue
            pos_y = 2 * (y0 + _BY) - cy
            pos_x = 2 * (x0 + _BX) - cx
            warped = _sample_halfpel(prev, pos_y, pos_x)
            sad = int(np.abs(warped - target).sum())
            cands.append((sad, cy * cy + cx * cx, cy, cx))
    cands.sort()
    _, _, best_y, best_x = cands[0]
    return best_x, best_y


def warp(prev_fg: Frame, flow: FlowField) -> Frame:
    """Backward-warp the previous foreground onto the flow's regions."""
    out = np.zeros_like(prev_fg.planes, dtype=np.int64)
    prev = prev_fg.planes.astype(np.int64)
    for region, grid in zip(flow.regions, flow.vectors):
        h, w = region.h, region.w
        vy = np.repeat(np.repeat(grid[:, :, 1], BLOCK, 0), BLOCK, 1)[:h, :w].astype(np.int64)
        vx = np.repeat(np.repeat(grid[:, :, 0], BLOCK, 0), BLOCK, 1)[:h, :w].astype(np.int64)
        yy, xx = np.mgrid[region.y:region.y2, region.x:region.x2]
        pos_y = 2 * yy - vy
        pos_x = 2 * xx - vx
        for ch in range(3):
            out[ch, region.y:region.y2, region.x:region.x2] = _sample_halfpel(
                prev[ch], pos_y, pos_x)
    return Frame(out.astype(np.uint8), prev_fg.frame_index)


def _median3(a: int, b: int, c: int) -> int:
    return sorted((a, b, c))[1]


def _predicted(grid_part: np.ndarray, by: int, bx: int, comp: int, bw: int) -> int:
    left = int(grid_part[by, bx - 1, comp]) if bx > 0 else 0
    above = int(grid_part[by - 1, bx, comp]) if by > 0 else 0
    above_r = int(grid_part[by - 1, bx + 1, comp]) if by > 0 and bx + 1 < bw else 0
    return _median3(left, above, above_r)


def encode_flow(flow: FlowField) -> bytes:
    """Predictively code all region grids into one entropy payload."""
    enc = RangeEncoder(flow_context_model())
    for region, grid in zip(flow.regions, flow.vectors):
        bh, bw = _grid_shape(region)
        for by in range(bh):
            for bx in range(bw):
                for comp in range(2):
                    pred = _predicted(grid, by, bx, comp, bw)
                    d = int(grid[by, bx, comp]) - pred
                    if d == 0:
                        enc.encode(_CTX_ZERO + comp, 1)
                        continue
                    enc.encode(_CTX_ZERO + comp, 0)
                    enc.encode(_CTX_SIGN + comp, 0 if d > 0 else 1)
                    base = _CTX_EG_PREFIX + comp * 4
                    encode_unary_eg0(enc, abs(d) - 1, base, base + 3, prefix_span=3)
    return enc.finish()


def decode_flow(data: bytes, regions: RegionSet) -> FlowField:
    """Inverse of encode_flow for the same region list."""
    dec = RangeDecoder(data, flow_context_model())
    grids = []
    for region in regions.regions:
        bh, bw = _grid_shape(region)
        grid = np.zeros((bh, bw, 2), dtype=np.int16)
        for by in range(bh):
            for bx in range(bw):
                for comp in range(2):
                    pred = _predicted(grid, by, bx, comp, bw)
                    if dec.decode(_CTX_ZERO + comp):
                        grid[by, bx, comp] = pred
                        continue
                    sign = -1 if dec.decode(_CTX_SIGN + comp) else 1
                    base = _CTX_EG_PREFIX + comp * 4
                    mag = decode_unary_eg0(dec, base, base + 3, prefix_span=3) + 1
                    v = pred + sign * mag
                    if abs(v) > 2 * SEARCH_RANGE:
                        raise EntropyDecodeError(f"flow component {v} out of range")
                    grid[by, bx, comp] = v
        grids.append(grid)
    dec.finish()
    return FlowField(regions.regions, tuple(grids))
