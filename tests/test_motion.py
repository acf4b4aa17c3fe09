"""Block motion search, half-pel warping, and flow coding."""

import tracemalloc

import numpy as np
import pytest

from fbv.core import Frame, Region
from fbv.fgregion import RegionSet
from fbv.motion import (BLOCK, SEARCH_RANGE, FlowField, decode_flow,
                        encode_flow, estimate_flow, warp)


def _fg(luma, index=0):
    planes = np.stack([luma, luma // 2, luma // 3]).astype(np.uint8)
    return Frame(planes, index)


def _texture(h, w, seed):
    return np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)


# ---------------------------------------------------------------- oracle ---

def _o_target(cur, region, y0, x0):
    """The 8x8 block at (y0, x0) of the region patch, edge-padded past the
    region's bottom and right sides."""
    ys = np.minimum(np.arange(y0, y0 + BLOCK), region.y2 - 1)
    xs = np.minimum(np.arange(x0, x0 + BLOCK), region.x2 - 1)
    return cur[np.ix_(ys, xs)].astype(np.int64)


def _o_sad(prev, tgt, y0, x0, vy, vx):
    """SAD of a backward displacement with per-sample edge clamping."""
    ys = np.clip(np.arange(y0, y0 + BLOCK) - vy, 0, prev.shape[0] - 1)
    xs = np.clip(np.arange(x0, x0 + BLOCK) - vx, 0, prev.shape[1] - 1)
    ref = prev[np.ix_(ys, xs)].astype(np.int64)
    return int(np.abs(ref - tgt).sum())


def _o_sample(plane, py, px):
    h, w = plane.shape
    py = min(max(py, 0), 2 * (h - 1))
    px = min(max(px, 0), 2 * (w - 1))
    iy, fy = py >> 1, py & 1
    ix, fx = px >> 1, px & 1
    iy1 = min(iy + 1, h - 1)
    ix1 = min(ix + 1, w - 1)
    a = int(plane[iy, ix])
    b = int(plane[iy, ix1])
    c = int(plane[iy1, ix])
    d = int(plane[iy1, ix1])
    return ((a * (2 - fx) + b * fx) * (2 - fy) + (c * (2 - fx) + d * fx) * fy + 2) >> 2


def _o_halfpel_sad(prev, tgt, y0, x0, hvy, hvx):
    total = 0
    for i in range(BLOCK):
        for j in range(BLOCK):
            got = _o_sample(prev, 2 * (y0 + i) - hvy, 2 * (x0 + j) - hvx)
            total += abs(got - int(tgt[i, j]))
    return total


def _o_block_flow(prev, tgt, y0, x0):
    """Exhaustive integer search then half-pel refinement, scalar rules."""
    best = None
    for vy in range(-SEARCH_RANGE, SEARCH_RANGE + 1):
        for vx in range(-SEARCH_RANGE, SEARCH_RANGE + 1):
            key = (_o_sad(prev, tgt, y0, x0, vy, vx), vy * vy + vx * vx, vy, vx)
            if best is None or key < best:
                best = key
    _, _, vy, vx = best
    cands = []
    lim = 2 * SEARCH_RANGE
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            cy, cx = 2 * vy + dy, 2 * vx + dx
            if abs(cy) > lim or abs(cx) > lim:
                continue
            cands.append((_o_halfpel_sad(prev, tgt, y0, x0, cy, cx),
                          cy * cy + cx * cx, cy, cx))
    cands.sort()
    _, _, hy, hx = cands[0]
    return hx, hy


def _o_flow(prev, cur, regions):
    """The oracle's (bh, bw, 2) grid of [vx, vy] for every region, in order."""
    prev = prev.astype(np.int64)
    grids = []
    for r in regions:
        bh, bw = -(-r.h // BLOCK), -(-r.w // BLOCK)
        grid = np.zeros((bh, bw, 2), dtype=np.int64)
        for by in range(bh):
            for bx in range(bw):
                y0, x0 = r.y + by * BLOCK, r.x + bx * BLOCK
                grid[by, bx] = _o_block_flow(prev, _o_target(cur, r, y0, x0), y0, x0)
        grids.append(grid)
    return grids


def _assert_matches_oracle(prev, cur, regions, h, w):
    flow = estimate_flow(_fg(prev, 0), _fg(cur, 1), RegionSet(regions, h, w))
    for got, want in zip(flow.vectors, _o_flow(prev, cur, regions), strict=True):
        assert np.array_equal(got, want)
    return flow


# ----------------------------------------------------------------- tests ---

class TestEstimateAgainstOracle:
    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_random_frames_one_region(self, seed):
        rng = np.random.default_rng(seed)
        h = w = 40
        prev = rng.integers(0, 256, (h, w), dtype=np.uint8)
        # correlated current frame so the search surface is non-trivial
        cur = np.clip(prev.astype(np.int64) + rng.integers(-25, 26, (h, w)),
                      0, 255).astype(np.uint8)
        _assert_matches_oracle(prev, cur, (Region(8, 8, 16, 16),), h, w)

    def test_corner_region_with_clamping(self):
        _assert_matches_oracle(_texture(32, 32, 7), _texture(32, 32, 8),
                               (Region(0, 0, 8, 8),), 32, 32)

    @pytest.mark.parametrize("seed", [111, 112])
    def test_off_grid_region_at_the_bottom_right_edges(self, seed):
        # 19x13 ends on the frame's last column and row: the partial blocks'
        # targets are the edge-padded region patch, their sources clamp
        rng = np.random.default_rng(seed)
        h, w = 37, 45
        prev = rng.integers(0, 256, (h, w), dtype=np.uint8)
        cur = np.clip(np.roll(prev, (2, -3), axis=(0, 1)).astype(np.int64)
                      + rng.integers(-12, 13, (h, w)), 0, 255).astype(np.uint8)
        flow = _assert_matches_oracle(prev, cur, (Region(26, 24, 19, 13),), h, w)
        assert flow.vectors[0].shape == (2, 3, 2)

    def test_several_regions(self):
        rng = np.random.default_rng(121)
        h, w = 48, 56
        prev = rng.integers(0, 256, (h, w), dtype=np.uint8)
        cur = np.clip(np.roll(prev, (1, 2), axis=(0, 1)).astype(np.int64)
                      + rng.integers(-20, 21, (h, w)), 0, 255).astype(np.uint8)
        regions = (Region(0, 0, 16, 8), Region(24, 8, 9, 11), Region(40, 32, 16, 16))
        _assert_matches_oracle(prev, cur, regions, h, w)

    @pytest.mark.parametrize("transpose,flip", [(False, False), (False, True),
                                                (True, False), (True, True)])
    def test_half_pel_neighbours_past_the_range_are_dropped(self, transpose, flip):
        # the current frame is the previous one moved 16.5 pels along a ramp:
        # 33 half-pels would match exactly, but the range ends at 32
        x = np.arange(64, dtype=np.int64)
        prev = np.tile(2 * x + 40, (64, 1))
        cur = np.tile(2 * x + 40 - 33, (64, 1))
        if flip:
            prev, cur = prev[:, ::-1], cur[:, ::-1]
        if transpose:
            prev, cur = prev.T, cur.T
        flow = _assert_matches_oracle(prev.astype(np.uint8), cur.astype(np.uint8),
                                      (Region(24, 24, 16, 16),), 64, 64)
        want = (-32 if flip else 32, 0)
        assert (flow.vectors[0] == (want[::-1] if transpose else want)).all()

    @pytest.mark.parametrize("prev_level,cur_level", [(77, 77), (77, 90)])
    def test_flat_tied_surfaces_give_zero(self, prev_level, cur_level):
        h, w = 37, 45
        prev = np.full((h, w), prev_level, dtype=np.uint8)
        cur = np.full((h, w), cur_level, dtype=np.uint8)
        regions = (Region(0, 0, 16, 16), Region(26, 24, 19, 13))
        flow = _assert_matches_oracle(prev, cur, regions, h, w)
        assert all((v == 0).all() for v in flow.vectors)

    def test_equal_length_ties_order_by_v_y_then_v_x(self):
        # an inverted checkerboard matches exactly at every odd shift; of the
        # four shortest, (v_y, v_x) = (-1, 0) comes first
        yy, xx = np.mgrid[0:48, 0:48]
        prev = (255 * ((yy + xx) % 2)).astype(np.uint8)
        cur = 255 - prev
        flow = _assert_matches_oracle(prev, cur, (Region(16, 16, 16, 8),), 48, 48)
        assert (flow.vectors[0] == (0, -2)).all()

    def test_all_zero_reference_gives_zero(self):
        # each foreground run starts from an all-zero reference: every
        # candidate ties, so the flow is zero
        h, w = 40, 48
        zero = np.zeros((h, w), dtype=np.uint8)
        regions = (Region(8, 0, 16, 16), Region(32, 24, 16, 13))
        flow = _assert_matches_oracle(zero, _texture(h, w, 131), regions, h, w)
        assert all((v == 0).all() for v in flow.vectors)

    def test_full_frame_region_temporaries_stay_within_the_sad_volume(self):
        # 320x240: a (33, 33, 240, 320) int16 difference volume would be 167 MB;
        # the search must stay near one region's (30, 40, 33, 33) int64 key volume
        h, w = 240, 320
        prev = _texture(h, w, 141)
        cur = np.roll(prev, (3, -5), axis=(0, 1))
        rs = RegionSet((Region(0, 0, w, h),), h, w)
        key_bytes = (h // BLOCK) * (w // BLOCK) * (2 * SEARCH_RANGE + 1) ** 2 * 8
        tracemalloc.start()
        try:
            flow = estimate_flow(_fg(prev, 0), _fg(cur, 1), rs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * key_bytes
        assert (flow.vectors[0][1:-1, 1:-1] == (-10, 6)).all()


class TestTranslationRecovery:
    @pytest.mark.parametrize("seed", range(12))
    def test_integer_shift_recovered_exactly(self, seed):
        rng = np.random.default_rng(1000 + seed)
        vy, vx = rng.integers(-SEARCH_RANGE, SEARCH_RANGE + 1, 2)
        base = rng.integers(0, 256, (3, 64, 64), dtype=np.uint8)
        shifted = np.roll(base, (int(vy), int(vx)), axis=(1, 2))
        prev = Frame(base, 0)
        cur = Frame(shifted, 1)
        rs = RegionSet((Region(24, 24, 16, 16),), 64, 64)
        flow = estimate_flow(prev, cur, rs)
        assert (flow.vectors[0][:, :, 0] == 2 * vx).all()
        assert (flow.vectors[0][:, :, 1] == 2 * vy).all()
        warped = warp(prev, flow)
        mask = rs.mask
        assert np.array_equal(warped.planes[:, mask], shifted[:, mask])
        assert (warped.planes[:, ~mask] == 0).all()

    def test_half_pel_ramp(self):
        # current frame sits half a pel to the right of a linear ramp
        x = np.arange(64, dtype=np.int64)
        prev = np.tile(2 * x, (64, 1)).astype(np.uint8)
        cur = np.tile(np.maximum(2 * x - 1, 0), (64, 1)).astype(np.uint8)
        rs = RegionSet((Region(24, 24, 16, 16),), 64, 64)
        flow = estimate_flow(_fg(prev, 0), _fg(cur, 1), rs)
        assert (flow.vectors[0][:, :, 0] == 1).all()
        assert (flow.vectors[0][:, :, 1] == 0).all()
        warped = warp(_fg(prev, 0), flow)
        mask = rs.mask
        want = _fg(cur, 0).planes
        assert np.array_equal(warped.planes[0][mask], want[0][mask])

    def test_flat_block_prefers_zero(self):
        flat = np.full((3, 48, 48), 77, dtype=np.uint8)
        rs = RegionSet((Region(16, 16, 8, 8),), 48, 48)
        flow = estimate_flow(Frame(flat, 0), Frame(flat, 1), rs)
        assert (flow.vectors[0] == 0).all()


class TestWarp:
    def test_zero_flow_is_identity_inside_regions(self):
        rng = np.random.default_rng(5)
        planes = rng.integers(0, 256, (3, 48, 48), dtype=np.uint8)
        prev = Frame(planes, 3)
        rs = RegionSet((Region(0, 0, 16, 16), Region(32, 24, 16, 16)), 48, 48)
        flow = FlowField(rs.regions, tuple(np.zeros((2, 2, 2), dtype=np.int16)
                                           for _ in rs.regions))
        out = warp(prev, flow)
        mask = rs.mask
        assert np.array_equal(out.planes[:, mask], planes[:, mask])
        assert (out.planes[:, ~mask] == 0).all()

    def test_matches_scalar_sampler_with_clamping(self):
        rng = np.random.default_rng(9)
        planes = rng.integers(0, 256, (3, 24, 24), dtype=np.uint8)
        prev = Frame(planes, 0)
        rs = RegionSet((Region(0, 0, 8, 8),), 24, 24)
        grid = np.array([[[-31, 27]]], dtype=np.int16)   # half-pel, clamps hard
        flow = FlowField(rs.regions, (grid,))
        out = warp(prev, flow)
        for ch in range(3):
            for y in range(8):
                for x in range(8):
                    want = _o_sample(planes[ch], 2 * y - 27, 2 * x - (-31))
                    assert out.planes[ch, y, x] == want


class TestFlowCodec:
    @pytest.mark.parametrize("seed", [21, 22, 23, 24])
    def test_round_trip_random_fields(self, seed):
        rng = np.random.default_rng(seed)
        regions = (Region(0, 0, 16, 24), Region(32, 8, 8, 8), Region(8, 40, 24, 16))
        grids = tuple(
            rng.integers(-2 * SEARCH_RANGE, 2 * SEARCH_RANGE + 1,
                         (-(-r.h // BLOCK), -(-r.w // BLOCK), 2)).astype(np.int16)
            for r in regions)
        rs = RegionSet(regions, 64, 64)
        flow = FlowField(regions, grids)
        data = encode_flow(flow)
        back = decode_flow(data, rs)
        assert back.regions == regions
        for a, b in zip(grids, back.vectors):
            assert np.array_equal(a, b)

    def test_zero_field_codes_small(self):
        regions = (Region(0, 0, 32, 32),)
        rs = RegionSet(regions, 64, 64)
        flow = FlowField(regions, (np.zeros((4, 4, 2), dtype=np.int16),))
        data = encode_flow(flow)
        assert len(data) <= 16
        back = decode_flow(data, rs)
        assert (back.vectors[0] == 0).all()

    def test_encoding_is_deterministic(self):
        rng = np.random.default_rng(31)
        regions = (Region(0, 0, 16, 16),)
        grid = rng.integers(-32, 33, (2, 2, 2)).astype(np.int16)
        flow = FlowField(regions, (grid,))
        assert encode_flow(flow) == encode_flow(flow)


class TestValidation:
    def test_grid_count_mismatch(self):
        with pytest.raises(ValueError):
            FlowField((Region(0, 0, 8, 8),), ())

    def test_grid_shape_mismatch(self):
        with pytest.raises(ValueError):
            FlowField((Region(0, 0, 16, 16),),
                      (np.zeros((1, 1, 2), dtype=np.int16),))

    def test_out_of_range_component(self):
        grid = np.zeros((1, 1, 2), dtype=np.int16)
        grid[0, 0, 0] = 2 * SEARCH_RANGE + 1
        with pytest.raises(ValueError):
            FlowField((Region(0, 0, 8, 8),), (grid,))

    def test_dimension_mismatch_rejected(self):
        a = Frame(np.zeros((3, 16, 16), dtype=np.uint8), 0)
        b = Frame(np.zeros((3, 24, 24), dtype=np.uint8), 1)
        rs = RegionSet((Region(0, 0, 8, 8),), 16, 16)
        with pytest.raises(ValueError):
            estimate_flow(a, b, rs)

    def test_empty_region_set_rejected(self):
        f = Frame(np.zeros((3, 16, 16), dtype=np.uint8), 0)
        with pytest.raises(ValueError):
            estimate_flow(f, f, RegionSet((), 16, 16))


class TestOffGridRegion:
    def test_estimate_and_warp_cover_odd_sizes(self):
        rng = np.random.default_rng(41)
        planes = rng.integers(0, 256, (3, 40, 40), dtype=np.uint8)
        prev = Frame(planes, 0)
        cur = Frame(np.roll(planes, (0, 2, 3), axis=(0, 1, 2)), 1)
        rs = RegionSet((Region(8, 8, 20, 12),), 40, 40)
        flow = estimate_flow(prev, cur, rs)
        assert flow.vectors[0].shape == (2, 3, 2)
        out = warp(prev, flow)
        mask = rs.mask
        assert (out.planes[:, ~mask] == 0).all()
        data = encode_flow(flow)
        back = decode_flow(data, rs)
        assert np.array_equal(back.vectors[0], flow.vectors[0])
