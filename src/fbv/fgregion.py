"""Foreground region extraction: raw points -> rectangular coding regions.

The cleanup pipeline runs, in order: 3x3 majority vote (a pixel survives when
at least 5 of its 9-neighborhood are set), morphological open with a 3x3
square, dilate with a 5x5 square, 8-connected component labeling, per
component an axis-aligned bounding rectangle (components under
min_component_pixels are dropped), rectangle snapping to the 8-pixel grid,
then transitive merging of rectangles that overlap or touch. Merging after
snapping guarantees the emitted rectangles are pairwise disjoint.

Snapping moves the origin down and the far edge up to multiples of 8 and
clamps to the frame. When a frame dimension is not a multiple of 8 the
clamped edge region may be off-grid; downstream coders pad such patches by
edge replication. A clamp that would leave less than 8 pixels slides the
origin inward instead, so every region is at least 8x8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import Frame, Region

_CONN8 = np.ones((3, 3), dtype=bool)


@dataclass(frozen=True)
class FgParams:
    majority_votes: int = 5
    open_size: int = 3
    dilate_size: int = 5
    min_component_pixels: int = 16
    grid: int = 8

    def __post_init__(self) -> None:
        if not (1 <= self.majority_votes <= 9):
            raise ValueError("majority_votes must be in 1..9")
        if self.open_size < 1 or self.dilate_size < 1:
            raise ValueError("element sizes must be >= 1")
        if self.min_component_pixels < 1:
            raise ValueError("min_component_pixels must be >= 1")
        if self.grid < 1:
            raise ValueError("grid must be >= 1")


@dataclass(frozen=True)
class RegionSet:
    """Disjoint rectangles plus the frame geometry they live in."""

    regions: tuple[Region, ...]
    height: int
    width: int

    def __post_init__(self) -> None:
        for r in self.regions:
            if r.x2 > self.width or r.y2 > self.height:
                raise ValueError(f"region {r} exceeds {self.width}x{self.height}")
        for i, a in enumerate(self.regions):
            for b in self.regions[i + 1:]:
                if a.overlaps(b):
                    raise ValueError(f"regions overlap: {a} / {b}")

    def __len__(self) -> int:
        return len(self.regions)

    @property
    def mask(self) -> np.ndarray:
        m = np.zeros((self.height, self.width), dtype=bool)
        for r in self.regions:
            m[r.y:r.y2, r.x:r.x2] = True
        return m

    @property
    def area(self) -> int:
        return sum(r.area for r in self.regions)


def _majority(points: np.ndarray, votes: int) -> np.ndarray:
    counts = ndimage.convolve(points.astype(np.int64), np.ones((3, 3), dtype=np.int64),
                              mode="constant", cval=0)
    return counts >= votes


def _snap(r: Region, height: int, width: int, grid: int) -> Region:
    x1 = (r.x // grid) * grid
    y1 = (r.y // grid) * grid
    x2 = min(-(-r.x2 // grid) * grid, width)
    y2 = min(-(-r.y2 // grid) * grid, height)
    # keep at least one grid cell when the clamp ate the rounding slack
    if x2 - x1 < grid:
        x1 = max(0, x2 - grid)
    if y2 - y1 < grid:
        y1 = max(0, y2 - grid)
    return Region(x1, y1, x2 - x1, y2 - y1)


def _merge_transitive(rects: list[Region]) -> list[Region]:
    rects = list(rects)
    merged = True
    while merged:
        merged = False
        out: list[Region] = []
        for r in rects:
            for i, q in enumerate(out):
                if r.overlaps(q) or r.touches(q):
                    out[i] = q.union(r)
                    merged = True
                    break
            else:
                out.append(r)
        rects = out
    return sorted(rects, key=lambda r: (r.y, r.x))


def fp(frame: Frame, points: np.ndarray, params: FgParams = FgParams()) -> RegionSet:
    """Raw foreground points -> cleaned, grid-aligned, disjoint regions."""
    h, w = frame.height, frame.width
    if points.shape != (h, w):
        raise ValueError("points mask does not match frame dimensions")
    m = _majority(points.astype(bool), params.majority_votes)
    o = np.ones((params.open_size, params.open_size), dtype=bool)
    m = ndimage.binary_opening(m, structure=o)
    d = np.ones((params.dilate_size, params.dilate_size), dtype=bool)
    m = ndimage.binary_dilation(m, structure=d)
    labels, count = ndimage.label(m, structure=_CONN8)
    rects: list[Region] = []
    if count:
        sizes = ndimage.sum_labels(m, labels, index=np.arange(1, count + 1))
        slices = ndimage.find_objects(labels)
        for size, sl in zip(sizes, slices):
            if size < params.min_component_pixels:
                continue
            ys, xs = sl
            raw = Region(xs.start, ys.start, xs.stop - xs.start, ys.stop - ys.start)
            rects.append(_snap(raw, h, w, params.grid))
    return RegionSet(tuple(_merge_transitive(rects)), h, w)


def combine_regions(fp_prev: RegionSet, fp_cur: RegionSet) -> RegionSet:
    """Union of the two region sets, re-merged into disjoint rectangles."""
    if (fp_prev.height, fp_prev.width) != (fp_cur.height, fp_cur.width):
        raise ValueError("region sets have different frame dimensions")
    rects = list(fp_prev.regions) + list(fp_cur.regions)
    return RegionSet(tuple(_merge_transitive(rects)), fp_cur.height, fp_cur.width)
