"""Region extraction against a from-scratch scalar pipeline."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from fbv import fgregion
from fbv.core import Frame, Region
from fbv.fgregion import (DILATE_SIZE, GRID, MAJORITY_VOTES, OPEN_SIZE, RegionSet,
                          combine_regions, fp)


def _frame(h, w, index=0):
    return Frame(np.full((3, h, w), 90, dtype=np.uint8), index)


# ---------------------------------------------------------------- oracle ---

def _o_majority(m, votes):
    h, w = m.shape
    out = np.zeros_like(m, dtype=bool)
    for y in range(h):
        for x in range(w):
            c = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and m[yy, xx]:
                        c += 1
            out[y, x] = c >= votes
    return out


def _o_erode(m, size):
    h, w = m.shape
    r = size // 2
    out = np.zeros_like(m, dtype=bool)
    for y in range(h):
        for x in range(w):
            keep = True
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    yy, xx = y + dy, x + dx
                    if not (0 <= yy < h and 0 <= xx < w) or not m[yy, xx]:
                        keep = False
                        break
                if not keep:
                    break
            out[y, x] = keep
    return out


def _o_dilate(m, size):
    h, w = m.shape
    r = size // 2
    out = np.zeros_like(m, dtype=bool)
    for y in range(h):
        for x in range(w):
            hit = False
            for dy in range(-r, r + 1):
                for dx in range(-r, r + 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w and m[yy, xx]:
                        hit = True
                        break
                if hit:
                    break
            out[y, x] = hit
    return out


def _o_components(m):
    """8-connected components by BFS; returns lists of (y, x) pixels."""
    h, w = m.shape
    seen = np.zeros_like(m, dtype=bool)
    comps = []
    for y in range(h):
        for x in range(w):
            if not m[y, x] or seen[y, x]:
                continue
            queue = [(y, x)]
            seen[y, x] = True
            pixels = []
            while queue:
                cy, cx = queue.pop()
                pixels.append((cy, cx))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = cy + dy, cx + dx
                        if 0 <= yy < h and 0 <= xx < w and m[yy, xx] and not seen[yy, xx]:
                            seen[yy, xx] = True
                            queue.append((yy, xx))
            comps.append(pixels)
    return comps


def _o_snap(box, h, w, grid):
    y1, x1, y2, x2 = box
    sx1 = grid * math.floor(x1 / grid)
    sy1 = grid * math.floor(y1 / grid)
    sx2 = min(grid * math.ceil(x2 / grid), w)
    sy2 = min(grid * math.ceil(y2 / grid), h)
    if sx2 - sx1 < grid:
        sx1 = max(0, sx2 - grid)
    if sy2 - sy1 < grid:
        sy1 = max(0, sy2 - grid)
    return (sy1, sx1, sy2, sx2)


def _o_merge(boxes):
    """Fixpoint union of boxes whose closed extents intersect."""
    boxes = list(boxes)
    changed = True
    while changed:
        changed = False
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                ay1, ax1, ay2, ax2 = boxes[i]
                by1, bx1, by2, bx2 = boxes[j]
                if ax1 <= bx2 and bx1 <= ax2 and ay1 <= by2 and by1 <= ay2:
                    boxes[i] = (min(ay1, by1), min(ax1, bx1),
                                max(ay2, by2), max(ax2, bx2))
                    del boxes[j]
                    changed = True
                    break
            if changed:
                break
    return sorted(boxes)


def _o_pipeline(points, h, w):
    m = _o_majority(points, MAJORITY_VOTES)
    m = _o_dilate(_o_erode(m, OPEN_SIZE), OPEN_SIZE)
    m = _o_dilate(m, DILATE_SIZE)
    boxes = []
    for pixels in _o_components(m):
        ys = [p[0] for p in pixels]
        xs = [p[1] for p in pixels]
        box = (min(ys), min(xs), max(ys) + 1, max(xs) + 1)
        boxes.append(_o_snap(box, h, w, GRID))
    return _o_merge(boxes)


def _o_disjoint(regions):
    """Pairwise: no two rectangles share an interior point."""
    return not any(a.overlaps(b) for i, a in enumerate(regions) for b in regions[i + 1:])


def _as_boxes(rs):
    return sorted((r.y, r.x, r.y2, r.x2) for r in rs.regions)


# ----------------------------------------------------------------- tests ---

class TestAgainstOracle:
    @pytest.mark.parametrize("seed,density", [(1, 0.2), (2, 0.4), (3, 0.6),
                                              (4, 0.8), (5, 0.5)])
    def test_random_masks_match(self, seed, density):
        rng = np.random.default_rng(seed)
        h = w = 32
        points = rng.random((h, w)) < density
        got = fp(_frame(h, w), points)
        want = _o_pipeline(points, h, w)
        assert _as_boxes(got) == want

    def test_off_grid_frame_dimensions(self):
        rng = np.random.default_rng(11)
        h, w = 37, 29
        points = rng.random((h, w)) < 0.55
        got = fp(_frame(h, w), points)
        want = _o_pipeline(points, h, w)
        assert _as_boxes(got) == want

    def test_two_separated_blobs(self):
        h = w = 48
        points = np.zeros((h, w), dtype=bool)
        points[4:12, 4:12] = True
        points[30:40, 32:44] = True
        got = fp(_frame(h, w), points)
        want = _o_pipeline(points, h, w)
        assert _as_boxes(got) == want
        assert len(got.regions) == 2


class TestCleanupStages:
    def test_isolated_speckle_removed(self):
        points = np.zeros((32, 32), dtype=bool)
        points[10, 10] = True
        points[20, 5] = True
        assert fp(_frame(32, 32), points).regions == ()

    def test_solid_blob_survives_and_expands(self):
        points = np.zeros((32, 32), dtype=bool)
        points[10:18, 10:18] = True
        rs = fp(_frame(32, 32), points)
        # majority trims the corners, dilation adds two rings, snap to grid
        assert rs.regions == (Region(8, 8, 16, 16),)

    def test_thin_line_erased_by_opening(self):
        points = np.zeros((32, 32), dtype=bool)
        points[16, 2:30] = True
        assert fp(_frame(32, 32), points).regions == ()

    @given(st.integers(0, 2**32 - 1), st.integers(16, 39), st.integers(16, 39),
           st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_every_component_has_at_least_25_pixels(self, seed, h, w, density):
        # why fp needs no minimum component size: the opening leaves whole
        # 3x3 blocks and the dilation grows each to at least 5x5 in frame
        rng = np.random.default_rng(seed)
        points = rng.random((h, w)) < density
        for _ in range(rng.integers(0, 6)):      # small blocks make small components
            y, x = rng.integers(0, h), rng.integers(0, w)
            points[y:y + rng.integers(2, 6), x:x + rng.integers(2, 6)] = True
        cleaned = []
        label = ndimage.label
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fgregion.ndimage, "label",
                       lambda m, **kw: cleaned.append(m) or label(m, **kw))
            fp(_frame(h, w), points)
        labels, count = label(cleaned[0], structure=np.ones((3, 3), dtype=bool))
        sizes = np.bincount(labels.ravel(), minlength=count + 1)[1:]
        assert (sizes >= 25).all()


class TestRegionSetProperties:
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold(self, seed, density):
        rng = np.random.default_rng(seed)
        h, w = 40, 56
        points = rng.random((h, w)) < density
        rs = fp(_frame(h, w), points)
        for r in rs.regions:
            assert r.w >= 8 and r.h >= 8
            assert 0 <= r.x and r.x2 <= w
            assert 0 <= r.y and r.y2 <= h
            # off-grid only where the frame edge forces it
            assert r.x % 8 == 0 or r.x2 == w
            assert r.y % 8 == 0 or r.y2 == h
        for i, a in enumerate(rs.regions):
            for b in rs.regions[i + 1:]:
                assert not _o_touch(a, b)

    def test_mask_and_area_agree(self):
        rng = np.random.default_rng(7)
        points = rng.random((40, 40)) < 0.6
        rs = fp(_frame(40, 40), points)
        assert rs.mask.sum() == sum(r.w * r.h for r in rs.regions)

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ValueError):
            RegionSet((Region(0, 0, 16, 16), Region(8, 8, 16, 16)), 64, 64)

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                              st.integers(1, 6), st.integers(1, 6)), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_overlap_check_agrees_with_pairwise_oracle(self, boxes):
        regions = tuple(Region(x, y, w, h) for x, y, w, h in boxes)
        try:
            RegionSet(regions, 18, 18)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == _o_disjoint(regions)

    def test_overlap_check_is_fast_on_many_regions(self):
        # 4096 disjoint 8x8 tiles; a pairwise check makes 8.4 M comparisons
        tiles = tuple(Region(8 * (i % 64), 8 * (i // 64), 8, 8) for i in range(4096))
        t0 = time.process_time()
        RegionSet(tiles, 512, 512)
        assert time.process_time() - t0 < 0.5

    def test_out_of_frame_region_rejected(self):
        with pytest.raises(ValueError):
            RegionSet((Region(56, 0, 16, 16),), 64, 64)

    def test_mismatched_points_shape_rejected(self):
        with pytest.raises(ValueError):
            fp(_frame(32, 32), np.zeros((16, 16), dtype=bool))


class TestCombine:
    def test_disjoint_sets_concatenate(self):
        a = RegionSet((Region(0, 0, 8, 8),), 64, 64)
        b = RegionSet((Region(32, 32, 8, 8),), 64, 64)
        c = combine_regions(a, b)
        assert _as_boxes(c) == [(0, 0, 8, 8), (32, 32, 40, 40)]

    def test_touching_sets_merge(self):
        a = RegionSet((Region(0, 0, 8, 8),), 64, 64)
        b = RegionSet((Region(8, 0, 8, 8),), 64, 64)
        c = combine_regions(a, b)
        assert _as_boxes(c) == [(0, 0, 8, 16)]

    def test_chain_merges_transitively(self):
        # a touches b, b touches c: all three collapse into one rectangle
        a = RegionSet((Region(0, 0, 8, 8), Region(16, 0, 8, 8)), 64, 64)
        b = RegionSet((Region(8, 0, 8, 8),), 64, 64)
        c = combine_regions(a, b)
        assert _as_boxes(c) == [(0, 0, 8, 24)]

    def test_dimension_mismatch_rejected(self):
        a = RegionSet((), 64, 64)
        b = RegionSet((), 32, 32)
        with pytest.raises(ValueError):
            combine_regions(a, b)


def _o_touch(a, b):
    """Overlapping or edge/corner adjacent (closed-interval intersection)."""
    return a.x <= b.x2 and b.x <= a.x2 and a.y <= b.y2 and b.y <= a.y2


def _o_merge_transitive(rects):
    """The pairwise merge that preceded the sweep: repeated passes, each one
    comparing every rectangle with every kept one."""
    rects = list(rects)
    merged = True
    while merged:
        merged = False
        out = []
        for r in rects:
            for i, q in enumerate(out):
                if _o_touch(r, q):
                    out[i] = q.union(r)
                    merged = True
                    break
            else:
                out.append(r)
        rects = out
    return sorted(rects, key=lambda r: (r.y, r.x))


class TestMergeTransitive:
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40),
                              st.integers(1, 12), st.integers(1, 12)), max_size=30))
    @settings(max_examples=400, deadline=None)
    def test_matches_pairwise_oracle(self, boxes):
        rects = [Region(x, y, w, h) for x, y, w, h in boxes]
        assert fgregion._merge_transitive(rects) == _o_merge_transitive(rects)

    def test_fast_on_many_regions(self):
        # 2048 disjoint 8x8 tiles, 8 pixels apart: nothing merges
        tiles = [Region(16 * (i % 64), 16 * (i // 64), 8, 8) for i in range(2048)]
        t0 = time.process_time()
        out = fgregion._merge_transitive(tiles)
        assert time.process_time() - t0 < 0.1
        assert out == sorted(tiles, key=lambda r: (r.y, r.x))
