"""Frame, region, rounding, and Y4M serialization basics."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbv import core
from fbv.core import (MIN_DIM, Frame, Region, VideoFormatError, VideoSequence,
                      frame_from_planes, read_y4m, round_half_up, write_y4m)


def _frame(h=24, w=32, fill=7, index=0):
    return Frame(np.full((3, h, w), fill, dtype=np.uint8), index)


class TestFrame:
    def test_geometry_and_luma(self):
        f = _frame(24, 32)
        assert (f.height, f.width) == (24, 32)
        assert f.planes[0].shape == (24, 32)

    def test_planes_are_frozen(self):
        f = _frame()
        with pytest.raises(ValueError):
            f.planes[0, 0, 0] = 1

    def test_minimum_dimensions(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((3, MIN_DIM - 1, 64), dtype=np.uint8), 0)

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ValueError):
            Frame(np.zeros((3, 24, 24), dtype=np.int32), 0)

    def test_from_planes(self):
        y = np.full((16, 16), 9, np.uint8)
        f = frame_from_planes(y, y, y, frame_index=4)
        assert f.frame_index == 4
        assert np.array_equal(f.planes[2], y)


class TestRegion:
    def test_bounds_and_area(self):
        r = Region(4, 8, 16, 24)
        assert (r.x2, r.y2) == (20, 32)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Region(0, 0, 0, 8)

    def test_overlap_touch_union(self):
        a = Region(0, 0, 8, 8)
        b = Region(8, 0, 8, 8)   # flush right edge: touching, not overlapping
        c = Region(4, 4, 8, 8)
        assert not a.overlaps(b)
        assert a.overlaps(c)
        assert a.union(b) == Region(0, 0, 16, 8)
        assert a.union(c) == Region(0, 0, 12, 12)


class TestRounding:
    def test_half_up_on_halves(self):
        vals = np.array([-2.5, -1.5, -0.5, 0.5, 1.5, 2.5])
        assert round_half_up(vals).tolist() == [-2, -1, 0, 1, 2, 3]

    @given(st.integers(-10**6, 10**6), st.integers(1, 999))
    @settings(max_examples=200, deadline=None)
    def test_half_up_matches_rational_rule(self, num, den):
        from fractions import Fraction
        x = num / den
        want = (Fraction(num, den) + Fraction(1, 2)).__floor__()
        # float division can land on either side of an exact half; only
        # compare when the float is far enough from the tie point
        if abs(x - (want - 0.5)) > 1e-9 and abs(x - (want + 0.5)) > 1e-9:
            assert int(round_half_up(np.array([x]))[0]) == want


class TestVideoSequence:
    def test_uniform_geometry_enforced(self):
        with pytest.raises(ValueError):
            VideoSequence((_frame(24, 32), _frame(32, 32)), 25, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VideoSequence((), 25, 1)


class TestY4m:
    def _sequence(self, h=16, w=16, n=3):
        rng = np.random.default_rng(5)
        frames = tuple(
            Frame(rng.integers(0, 256, (3, h, w), dtype=np.uint8).astype(np.uint8), t)
            for t in range(n))
        return VideoSequence(frames, 30, 1)

    def test_444_round_trip_exact(self):
        seq = self._sequence()
        buf = io.BytesIO()
        write_y4m(seq, buf, force_444=True)
        back = read_y4m(buf.getvalue())
        assert len(back.frames) == 3
        assert (back.fps_num, back.fps_den) == (30, 1)
        for a, b in zip(seq.frames, back.frames):
            assert np.array_equal(a.planes, b.planes)

    def test_420_round_trip_preserves_luma(self):
        seq = self._sequence()
        buf = io.BytesIO()
        write_y4m(seq, buf)     # even geometry: subsampled chroma
        back = read_y4m(buf.getvalue())
        for a, b in zip(seq.frames, back.frames):
            assert np.array_equal(a.planes[0], b.planes[0])

    def test_path_source_is_closed(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(core, "open", recording_open, raising=False)
        buf = io.BytesIO()
        write_y4m(self._sequence(), buf, force_444=True)
        good, cut = tmp_path / "good.y4m", tmp_path / "cut.y4m"
        good.write_bytes(buf.getvalue())
        cut.write_bytes(buf.getvalue()[:-10])
        assert len(read_y4m(str(good)).frames) == 3
        with pytest.raises(VideoFormatError, match="truncated payload in frame 2"):
            read_y4m(str(cut))
        assert len(opened) == 2
        assert all(fh.closed for fh in opened)

    def test_frames_written_as_they_come(self, tmp_path):
        seq = self._sequence()
        whole, streamed = io.BytesIO(), io.BytesIO()
        write_y4m(seq, whole)
        pulled = []

        def frames():
            for f in seq.frames:
                pulled.append(streamed.tell())     # bytes written before this frame
                yield f

        write_y4m(frames(), streamed, fps=(30, 1))
        assert streamed.getvalue() == whole.getvalue()
        assert pulled[0] == 0 and pulled[1] < pulled[2]
        for bad, match in (([], "at least one frame"), ([_frame(16, 16), _frame(16, 32)],
                                                         "one geometry")):
            path = tmp_path / "bad.y4m"
            with pytest.raises(ValueError, match=match):
                write_y4m(iter(bad), str(path), fps=(30, 1))
            assert not path.exists()
        for frames, fps, match in ((seq.frames, (0, 1), "must be positive"),
                                   (seq.frames, None, "need a frame rate"),
                                   (seq, (30, 1), "carries its own frame rate")):
            with pytest.raises(ValueError, match=match):
                write_y4m(frames, io.BytesIO(), fps=fps)

    def test_failed_write_removes_the_partial_file(self, tmp_path):
        path = tmp_path / "cut.y4m"

        def frames():
            yield from self._sequence().frames
            raise VideoFormatError("damaged frame 3")

        with pytest.raises(VideoFormatError, match="damaged frame 3"):
            write_y4m(frames(), str(path), fps=(30, 1))
        assert not path.exists()
        # a file that was there is left as it was, and no temporary file is left beside it
        path.write_bytes(b"kept")
        with pytest.raises(VideoFormatError, match="damaged frame 3"):
            write_y4m(frames(), str(path), fps=(30, 1))
        assert path.read_bytes() == b"kept"
        assert [p.name for p in tmp_path.iterdir()] == ["cut.y4m"]

    def test_rewrite_keeps_the_file_mode(self, tmp_path):
        path = tmp_path / "out.y4m"
        path.write_bytes(b"old")
        path.chmod(0o640)
        write_y4m(self._sequence(), str(path))
        assert path.stat().st_mode & 0o777 == 0o640
        assert read_y4m(str(path)).frames[0].width == self._sequence().width

    def test_a_path_that_is_not_a_regular_file_is_written_in_place(self, tmp_path):
        target, link = tmp_path / "target.y4m", tmp_path / "link.y4m"
        target.write_bytes(b"")
        link.symlink_to(target)

        def frames():
            yield from self._sequence().frames
            raise VideoFormatError("damaged frame 3")

        with pytest.raises(VideoFormatError, match="damaged frame 3"):
            write_y4m(frames(), str(link), fps=(30, 1))
        assert link.is_symlink()                     # not removed, written through
        assert target.read_bytes().startswith(b"YUV4MPEG2 ")
        write_y4m(self._sequence(), str(link))
        assert link.is_symlink() and len(read_y4m(str(target)).frames) == 3

    def test_bad_magic_rejected(self):
        from fbv.core import VideoFormatError
        with pytest.raises(VideoFormatError):
            read_y4m(b"NOTY4M W16 H16 F25:1\n")
