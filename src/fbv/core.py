"""Frame primitives and Y4M video I/O.

Frames are 8-bit Y'CbCr at full (4:4:4) resolution internally; 4:2:0 input
is upsampled by sample duplication at ingest and downsampled by 2x2 mean at
export. A frame's pixel data is immutable once constructed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import re
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

MIN_DIM = 16


class FbvError(Exception):
    """Base for all package errors."""


class ConfigError(FbvError, ValueError):
    """A setting or a reference video that does not fit the input."""


class VideoFormatError(FbvError):
    """Malformed or unsupported raw-video input."""


def round_half_up(x: np.ndarray) -> np.ndarray:
    """Round to nearest integer, halves toward +infinity. Returns int64."""
    return np.floor(np.asarray(x, dtype=np.float64) + 0.5).astype(np.int64)


@dataclass(frozen=True)
class Frame:
    """One Y'CbCr 4:4:4 frame: planes shaped (3, height, width), dtype uint8."""

    planes: np.ndarray
    frame_index: int = 0

    def __post_init__(self) -> None:
        p = self.planes
        if p.ndim != 3 or p.shape[0] != 3:
            raise ValueError(f"planes must be (3, H, W), got {p.shape}")
        if p.dtype != np.uint8:
            raise ValueError(f"planes must be uint8, got {p.dtype}")
        if p.shape[1] < MIN_DIM or p.shape[2] < MIN_DIM:
            raise ValueError(f"frame dimensions must be >= {MIN_DIM}, got {p.shape[2]}x{p.shape[1]}")
        if self.frame_index < 0:
            raise ValueError("frame_index must be >= 0")
        p.setflags(write=False)

    @property
    def height(self) -> int:
        return self.planes.shape[1]

    @property
    def width(self) -> int:
        return self.planes.shape[2]


def frame_from_planes(y: np.ndarray, cb: np.ndarray, cr: np.ndarray, frame_index: int = 0) -> Frame:
    return Frame(np.stack([y, cb, cr]).astype(np.uint8), frame_index)


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle: x/y top-left, w/h extent, all in pixels."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"region extent must be positive: {self}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"region origin must be >= 0: {self}")

    @property
    def x2(self) -> int:  # exclusive
        return self.x + self.w

    @property
    def y2(self) -> int:  # exclusive
        return self.y + self.h

    def overlaps(self, other: "Region") -> bool:
        """Strict interior overlap."""
        return self.x < other.x2 and other.x < self.x2 and self.y < other.y2 and other.y < self.y2

    def union(self, other: "Region") -> "Region":
        x1 = min(self.x, other.x)
        y1 = min(self.y, other.y)
        return Region(x1, y1, max(self.x2, other.x2) - x1, max(self.y2, other.y2) - y1)


@dataclass(frozen=True)
class VideoSequence:
    """Ordered frames with a common geometry and frame rate."""

    frames: tuple[Frame, ...]
    fps_num: int = 25
    fps_den: int = 1

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("sequence must contain at least one frame")
        if self.fps_num <= 0 or self.fps_den <= 0:
            raise ValueError("frame rate must be positive")
        w, h = self.frames[0].width, self.frames[0].height
        for f in self.frames:
            if f.width != w or f.height != h:
                raise ValueError("all frames must share one geometry")

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height


def _upsample_420(chroma: np.ndarray) -> np.ndarray:
    """Quarter-resolution plane to full resolution by sample duplication."""
    return np.repeat(np.repeat(chroma, 2, axis=0), 2, axis=1)


def _downsample_420(chroma: np.ndarray) -> np.ndarray:
    """Full-resolution plane to quarter resolution by 2x2 mean, half up."""
    h, w = chroma.shape
    c = chroma.astype(np.uint32).reshape(h // 2, 2, w // 2, 2)
    return ((c.sum(axis=(1, 3)) + 2) >> 2).astype(np.uint8)


_Y4M_MAGIC = b"YUV4MPEG2"


def _parse_y4m_header(line: bytes) -> tuple[int, int, int, int, str]:
    tokens = line.split(b" ")
    if tokens[0] != _Y4M_MAGIC:
        raise VideoFormatError("not a YUV4MPEG2 stream (bad magic)")
    dims = {b"W": 0, b"H": 0}
    fps_num, fps_den = 25, 1
    chroma = "420"
    for tok in tokens[1:]:
        if not tok:
            continue
        key, val = tok[:1], tok[1:].decode("ascii", "replace")
        if key in dims:
            if not val.isdigit():
                raise VideoFormatError(f"bad dimension token {key.decode()}{val}")
            dims[key] = int(val)
        elif key == b"F":
            m = re.fullmatch(r"(\d+):(\d+)", val)
            if not m or int(m.group(1)) == 0 or int(m.group(2)) == 0:
                raise VideoFormatError(f"bad frame-rate token F{val}")
            fps_num, fps_den = int(m.group(1)), int(m.group(2))
        elif key == b"C":
            chroma = val
        # interlacing / aspect tokens are accepted and ignored
    width, height = dims[b"W"], dims[b"H"]
    if width < MIN_DIM or height < MIN_DIM:
        raise VideoFormatError(f"header W and H must be >= {MIN_DIM}, got {width}x{height}")
    return width, height, fps_num, fps_den, chroma


def read_y4m(source: str | bytes | BinaryIO) -> VideoSequence:
    """Parse a YUV4MPEG2 stream into a 4:4:4 sequence.

    Supports C420* (upsampled by duplication) and C444 tags. A frame payload
    cut short raises an error naming the last complete frame.
    """
    if isinstance(source, str):
        with open(source, "rb") as fh:
            return read_y4m(fh)
    stream = io.BytesIO(bytes(source)) if isinstance(source, (bytes, bytearray)) else source
    header = _read_line(stream, "stream header")
    width, height, fps_num, fps_den, chroma = _parse_y4m_header(header)
    if chroma.startswith("420"):
        subsampled = True
        if width % 2 or height % 2:
            raise VideoFormatError("4:2:0 requires even dimensions")
    elif chroma == "444":
        subsampled = False
    else:
        raise VideoFormatError(f"unsupported chroma mode C{chroma}")

    frames: list[Frame] = []
    while True:
        marker = stream.readline()
        if marker == b"":
            break
        if not marker.startswith(b"FRAME"):
            raise VideoFormatError(f"expected FRAME marker before frame {len(frames)}")
        frames.append(_read_frame_payload(stream, width, height, subsampled, len(frames)))
    if not frames:
        raise VideoFormatError("stream contains no frames")
    return VideoSequence(tuple(frames), fps_num, fps_den)


def _read_line(stream: BinaryIO, what: str) -> bytes:
    line = stream.readline()
    if not line.endswith(b"\n"):
        raise VideoFormatError(f"truncated {what}")
    return line[:-1]


def _read_frame_payload(stream: BinaryIO, width: int, height: int,
                        subsampled: bool, index: int) -> Frame:
    ysize = width * height
    csize = ysize // 4 if subsampled else ysize
    need = ysize + 2 * csize
    buf = stream.read(need)
    if len(buf) != need:
        prev = f"frame {index - 1}" if index else "no complete frame"
        raise VideoFormatError(f"truncated payload in frame {index}; last complete: {prev}")
    y = np.frombuffer(buf, np.uint8, ysize).reshape(height, width)
    if subsampled:
        cb = np.frombuffer(buf, np.uint8, csize, ysize).reshape(height // 2, width // 2)
        cr = np.frombuffer(buf, np.uint8, csize, ysize + csize).reshape(height // 2, width // 2)
        cb, cr = _upsample_420(cb), _upsample_420(cr)
    else:
        cb = np.frombuffer(buf, np.uint8, csize, ysize).reshape(height, width)
        cr = np.frombuffer(buf, np.uint8, csize, ysize + csize).reshape(height, width)
    return frame_from_planes(y.copy(), cb.copy(), cr.copy(), index)


def write_y4m(seq: VideoSequence | Iterable[Frame], target: str | BinaryIO,
              force_444: bool = False, *, fps: tuple[int, int] | None = None) -> None:
    """Serialize to YUV4MPEG2; 4:2:0 for even geometries unless force_444.

    seq is a sequence, or an iterable of frames of one geometry whose rate fps
    (num, den) must then be given; the iterable's frames are written one at a
    time as it yields them. A path that names a regular file, or nothing yet,
    is written through a temporary file beside it that replaces it only once
    every frame is written, so a write that raises (a frame that fails to
    decode included) leaves the path as it was. Any other path (a device, a
    pipe, a symlink) is written in place and never removed.
    """
    if isinstance(seq, VideoSequence):
        if fps is not None:
            raise ValueError("a sequence carries its own frame rate")
        frames, fps = iter(seq.frames), (seq.fps_num, seq.fps_den)
    elif fps is None:
        raise ValueError("frames without a sequence need a frame rate")
    else:
        frames = iter(seq)
    first = next(frames, None)
    if first is None:
        raise ValueError("sequence must contain at least one frame")
    if fps[0] <= 0 or fps[1] <= 0:
        raise ValueError("frame rate must be positive")
    frames = itertools.chain([first], frames)
    if not isinstance(target, str):
        _write_frames(target, first, frames, fps, force_444)
        return
    try:
        mode = os.lstat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "wb") as stream:
            _write_frames(stream, first, frames, fps, force_444)
        return
    part = f"{target}.{os.urandom(4).hex()}.part"
    stream = open(part, "xb")
    try:
        with stream:
            _write_frames(stream, first, frames, fps, force_444)
        if mode is not None:
            os.chmod(part, stat.S_IMODE(mode))
        os.replace(part, target)
    except BaseException:
        with contextlib.suppress(OSError):   # never in place of the error that got here
            os.remove(part)
        raise


def _write_frames(stream: BinaryIO, first: Frame, frames: Iterator[Frame],
                  fps: tuple[int, int], force_444: bool) -> None:
    """The header from first, then every frame of frames (first among them)."""
    subsample = not force_444 and first.width % 2 == 0 and first.height % 2 == 0
    ctag = "C420jpeg" if subsample else "C444"
    stream.write(f"YUV4MPEG2 W{first.width} H{first.height} F{fps[0]}:{fps[1]} Ip A1:1 {ctag}\n"
                 .encode("ascii"))
    for frame in frames:
        if frame.planes.shape != first.planes.shape:
            raise ValueError("all frames must share one geometry")
        stream.write(b"FRAME\n")
        stream.write(frame.planes[0].tobytes())
        for c in (1, 2):
            plane = frame.planes[c]
            stream.write((_downsample_420(plane) if subsample else plane).tobytes())
