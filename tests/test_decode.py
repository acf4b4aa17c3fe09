"""Composite assembly and boundary feathering."""

import numpy as np
import pytest

from fbv.core import Frame, Region, RegionSet
from fbv.decode import BAND, composite, enhance


def _frame(value, h=32, w=32, index=0):
    return Frame(np.full((3, h, w), value, dtype=np.uint8), index)


def _two_tone(region, fg=200, bg=100, h=32, w=32):
    planes = np.full((3, h, w), bg, dtype=np.uint8)
    planes[:, region.y:region.y2, region.x:region.x2] = fg
    return Frame(planes, 0)


class TestComposite:
    def test_mask_selects_per_pixel(self):
        rng = np.random.default_rng(3)
        fg = Frame(rng.integers(0, 256, (3, 16, 16), dtype=np.uint8), 7)
        bg = Frame(rng.integers(0, 256, (3, 16, 16), dtype=np.uint8), 7)
        mask = rng.random((16, 16)) < 0.5
        comp = composite(fg, bg, mask)
        assert isinstance(comp, Frame)
        assert np.array_equal(comp.planes[:, mask], fg.planes[:, mask])
        assert np.array_equal(comp.planes[:, ~mask], bg.planes[:, ~mask])
        assert comp.frame_index == 7

    def test_dimension_checks(self):
        fg = _frame(1, 16, 16)
        bg = _frame(2, 32, 32)
        with pytest.raises(ValueError):
            composite(fg, bg, np.zeros((16, 16), dtype=bool))
        with pytest.raises(ValueError):
            composite(fg, _frame(2, 16, 16), np.zeros((8, 8), dtype=bool))


class TestFeatherRamp:
    def test_linear_ramp_outside_edge(self):
        region = Region(12, 12, 8, 8)
        comp = _two_tone(region)
        out = enhance(comp, RegionSet((region,), 32, 32))
        # right of the region edge: D = 1, 2, 3 then untouched
        row = out.planes[0, 15, :]
        assert row[19] == 200                       # inside, unmodified
        assert [row[20], row[21], row[22]] == [175, 150, 125]
        assert row[23] == 100                       # anchor distance, untouched
        assert row[24] == 100

    def test_corner_pixel_uses_chebyshev_distance(self):
        region = Region(12, 12, 8, 8)
        comp = _two_tone(region)
        out = enhance(comp, RegionSet((region,), 32, 32))
        # diagonal corner at (20, 20): Chebyshev D = 1
        assert out.planes[0, 20, 20] == 175
        assert out.planes[0, 22, 22] == 125

    def test_inside_and_far_pixels_unchanged(self):
        region = Region(12, 12, 8, 8)
        comp = _two_tone(region)
        out = enhance(comp, RegionSet((region,), 32, 32))
        inside = RegionSet((region,), 32, 32).mask
        far = np.ones((32, 32), dtype=bool)
        far[8:24, 8:24] = False
        assert np.array_equal(out.planes[:, inside], comp.planes[:, inside])
        assert np.array_equal(out.planes[:, far], comp.planes[:, far])

    def test_idempotent_away_from_borders(self):
        region = Region(12, 12, 8, 8)
        comp = _two_tone(region)
        rs = RegionSet((region,), 32, 32)
        once = enhance(comp, rs)
        twice = enhance(once, rs)
        assert np.array_equal(once.planes, twice.planes)

    def test_default_band(self):
        # the ramp reaches exactly BAND pixels out from the region edge
        region = Region(12, 12, 8, 8)
        comp = _two_tone(region)
        out = enhance(comp, RegionSet((region,), 32, 32))
        changed = np.nonzero(out.planes[0, 15, 20:] != comp.planes[0, 15, 20:])[0]
        assert BAND == 3
        assert changed.tolist() == list(range(BAND))


class TestFeatherEdgeCases:
    def test_no_regions_is_identity(self):
        comp = _two_tone(Region(12, 12, 8, 8))
        out = enhance(comp, RegionSet((), 32, 32))
        assert out is comp

    def test_region_flush_to_frame_edge(self):
        # no outside pixels on the flush sides; the open side still ramps
        region = Region(0, 0, 8, 8)
        comp = _two_tone(region)
        out = enhance(comp, RegionSet((region,), 32, 32))
        assert np.array_equal(out.planes[:, 0:8, 0:8], comp.planes[:, 0:8, 0:8])
        row = out.planes[0, 4, :]
        assert [row[8], row[9], row[10]] == [175, 150, 125]

    def test_anchor_clamps_at_frame_border(self):
        # band pixels exist but the BAND+1 anchor would fall off the frame:
        # the anchor clamps to the border pixel
        h = w = 16
        region = Region(0, 0, 14, 8)    # only 2 columns to the right
        planes = np.full((3, h, w), 100, dtype=np.uint8)
        planes[:, 0:8, 0:14] = 200
        comp = Frame(planes, 0)
        out = enhance(comp, RegionSet((region,), h, w))
        # x=14 -> D=1, anchor clamps from x=17 to x=15 (value 100)
        assert out.planes[0, 4, 14] == 175
        assert out.planes[0, 4, 15] == 150

    def test_whole_frame_region_is_untouched(self):
        region = Region(0, 0, 32, 32)
        comp = _two_tone(region, fg=137)
        out = enhance(comp, RegionSet((region,), 32, 32))
        assert np.array_equal(out.planes, comp.planes)


class TestMultiRegion:
    def test_nearest_region_owns_each_band_pixel(self):
        a = Region(8, 8, 8, 8)
        b = Region(21, 8, 8, 8)     # 5-column gap: the two bands meet
        planes = np.full((3, 32, 48), 100, dtype=np.uint8)
        planes[:, 8:16, 8:16] = 200
        planes[:, 8:16, 21:29] = 60
        comp = Frame(planes, 0)
        out = enhance(comp, RegionSet((a, b), 32, 48))
        row = out.planes[0, 12, :]
        # left half of the gap blends from a (f=200), right half from b (f=60);
        # anchors read the original composite, not feathered values
        assert row[16] == 175       # D=1 from a
        assert row[17] == 150       # D=2 from a
        assert row[18] == 125       # D=3 from both, first region wins the tie
        assert row[19] == 80        # D=2 from b
        assert row[20] == 70        # D=1 from b

    def test_disjoint_regions_do_not_interact(self):
        a = Region(4, 4, 8, 8)
        b = Region(20, 20, 8, 8)
        planes = np.full((3, 32, 32), 100, dtype=np.uint8)
        planes[:, 4:12, 4:12] = 200
        planes[:, 20:28, 20:28] = 200
        comp = Frame(planes, 0)
        both = enhance(comp, RegionSet((a, b), 32, 32))
        only_a = enhance(_two_tone(a), RegionSet((a,), 32, 32))
        assert np.array_equal(both.planes[:, 0:16, 0:16],
                              only_a.planes[:, 0:16, 0:16])
