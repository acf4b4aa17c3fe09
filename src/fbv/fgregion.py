"""Foreground region extraction: raw points -> rectangular coding regions.

The cleanup pipeline runs, in order: 3x3 majority vote (a pixel survives when
at least MAJORITY_VOTES of its 9-neighborhood are set), morphological open
with an OPEN_SIZE square, dilate with a DILATE_SIZE square, 8-connected
component labeling, per component an axis-aligned bounding rectangle,
rectangle snapping to the GRID-pixel grid, then transitive merging of
rectangles that overlap or touch. Merging after snapping guarantees the
emitted rectangles are pairwise disjoint. No component is too small to keep:
the opening leaves whole 3x3 blocks, which the dilation grows to at least
5x5 pixels inside any frame (core.MIN_DIM is 16).

Snapping moves the origin down and the far edge up to multiples of 8 and
clamps to the frame. When a frame dimension is not a multiple of 8 the
clamped edge region may be off-grid; downstream coders pad such patches by
edge replication. A clamp that would leave less than 8 pixels slides the
origin inward instead, so every region is at least 8x8.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush

import numpy as np
from scipy import ndimage

from .core import Frame, Region, RegionSet

MAJORITY_VOTES = 5
OPEN_SIZE = 3
DILATE_SIZE = 5
GRID = 8

_CONN8 = np.ones((3, 3), dtype=bool)


def _majority(points: np.ndarray) -> np.ndarray:
    counts = ndimage.convolve(points.astype(np.int64), np.ones((3, 3), dtype=np.int64),
                              mode="constant", cval=0)
    return counts >= MAJORITY_VOTES


def _snap(r: Region, height: int, width: int) -> Region:
    x1 = (r.x // GRID) * GRID
    y1 = (r.y // GRID) * GRID
    x2 = min(-(-r.x2 // GRID) * GRID, width)
    y2 = min(-(-r.y2 // GRID) * GRID, height)
    # keep at least one grid cell when the clamp ate the rounding slack
    if x2 - x1 < GRID:
        x1 = max(0, x2 - GRID)
    if y2 - y1 < GRID:
        y1 = max(0, y2 - GRID)
    return Region(x1, y1, x2 - x1, y2 - y1)


def _merge_pass(rects: list[Region]) -> list[Region]:
    """One sweep down the rows: each rectangle absorbs the live boxes it
    overlaps or touches. Live boxes' x-intervals stay sorted and apart, so
    those a rectangle touches are a contiguous run around its insertion point."""
    boxes: list[Region | None] = []             # None once absorbed
    active: list[tuple[int, int, int]] = []     # (x, x2, box), sorted
    leaving: list[tuple[int, int]] = []         # heap of (y2, box)
    for r in sorted(rects, key=lambda r: r.y):
        while leaving and leaving[0][0] < r.y:
            b = heappop(leaving)[1]
            if boxes[b] is not None:
                del active[bisect_left(active, (boxes[b].x, boxes[b].x2, b))]
        lo = hi = bisect_left(active, (r.x,))
        while lo and active[lo - 1][1] >= r.x:
            lo -= 1
        while hi < len(active) and active[hi][0] <= r.x2:
            hi += 1
        for _, _, b in active[lo:hi]:
            r, boxes[b] = r.union(boxes[b]), None
        active[lo:hi] = [(r.x, r.x2, len(boxes))]
        heappush(leaving, (r.y2, len(boxes)))
        boxes.append(r)
    return [b for b in boxes if b is not None]


def _merge_transitive(rects: list[Region]) -> list[Region]:
    """Merge overlapping or touching rectangles until no two touch. The result
    is the finest such grouping, whatever order the merges happen in."""
    while len(merged := _merge_pass(rects)) < len(rects):
        rects = merged
    return sorted(rects, key=lambda r: (r.y, r.x))


def fp(frame: Frame, points: np.ndarray) -> RegionSet:
    """Raw foreground points -> cleaned, grid-aligned, disjoint regions."""
    h, w = frame.height, frame.width
    if points.shape != (h, w):
        raise ValueError("points mask does not match frame dimensions")
    if not points.any():        # every cleanup stage maps an empty mask to no regions
        return RegionSet((), h, w)
    m = _majority(points.astype(bool))
    o = np.ones((OPEN_SIZE, OPEN_SIZE), dtype=bool)
    m = ndimage.binary_opening(m, structure=o)
    d = np.ones((DILATE_SIZE, DILATE_SIZE), dtype=bool)
    m = ndimage.binary_dilation(m, structure=d)
    labels, _ = ndimage.label(m, structure=_CONN8)
    rects: list[Region] = []
    for ys, xs in ndimage.find_objects(labels):
        raw = Region(xs.start, ys.start, xs.stop - xs.start, ys.stop - ys.start)
        rects.append(_snap(raw, h, w))
    return RegionSet(tuple(_merge_transitive(rects)), h, w)


def combine_regions(fp_prev: RegionSet, fp_cur: RegionSet) -> RegionSet:
    """Union of the two region sets, re-merged into disjoint rectangles."""
    if (fp_prev.height, fp_prev.width) != (fp_cur.height, fp_cur.width):
        raise ValueError("region sets have different frame dimensions")
    rects = list(fp_prev.regions) + list(fp_cur.regions)
    return RegionSet(tuple(_merge_transitive(rects)), fp_cur.height, fp_cur.width)
