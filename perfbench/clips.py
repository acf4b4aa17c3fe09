"""Seeded synthetic clips for the benchmark's three workloads.

Every clip is 4:4:4 at 25 fps and is a pure function of (workload, seed,
scale). Scale is the fraction of 320x240 on each side: 1.0 is the test
suite's size, 0.4 (128x96, the benchmark default) keeps a whole run within
the benchmark's time budget. Seed 0 is the reference seed: at scale 1 it
reproduces the test suite's clips exactly (`square` is acceptance criterion
12's moving square, `static` the 300-frame static-contract scene).

Other seeds vary the square's texture, colour and start position, the
static scene's blob position, the lobby objects' start positions and
colours, and the seek targets. They never vary the clip size, the object
count, the frames objects enter and leave on, or the encoder config. Each
generator keeps its variation small where a larger one moved the codec's
work from seed to seed (see the comments in `static` and `lobby`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fbv.core import Frame, VideoSequence
from fbv.pipeline import EncoderConfig

WORKLOADS = ("square", "static", "lobby")
FULL_HEIGHT, FULL_WIDTH = 240, 320
FPS = (25, 1)
INIT_FRAMES = 50
BENCH_SCALE = 0.4
SEEKS_PER_ROUND = 21    # ten samples lie beyond the median of every round
TINT = 10               # largest seeded change of an object colour channel
SQUARE_COLOUR = (230, 60, 120)
SQUARE_JITTER = 12      # largest seeded shift, in pixels, of the square's path


@dataclass(frozen=True)
class Clip:
    name: str
    video: VideoSequence
    config: EncoderConfig
    background: np.ndarray               # the scenery before any lighting change
    brightness: tuple[int, ...]          # global level added to the scenery per frame
    schedule: tuple[tuple[int, int], ...]  # (first, last) frame of each object


def smooth_texture(h: int, w: int, seed: int = 3, lo: int = 40, hi: int = 200) -> np.ndarray:
    """Blocky random field smoothed twice (the test suite's texture, same arithmetic)."""
    r = np.random.default_rng(seed)
    base = r.integers(lo, hi, (3, h // 8 + 2, w // 8 + 2)).astype(np.float64)
    out = np.empty((3, h, w))
    for c in range(3):
        big = np.kron(base[c], np.ones((8, 8)))[: h + 8, : w + 8]
        for _ in range(2):
            big = (big[:-1, :-1] + big[1:, :-1] + big[:-1, 1:] + big[1:, 1:]) / 4.0
        out[c] = big[:h, :w]
    return np.clip(out, 0, 255).astype(np.uint8)


def gradient_background(h: int, w: int, cy: float | None = None,
                        cx: float | None = None) -> np.ndarray:
    """Vertical luma ramp plus one soft blob at (cy, cx); the default is the test suite's scene."""
    cy = h / 3 if cy is None else cy
    cx = w / 2 if cx is None else cx
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    base = 60 + 120 * yy / max(h - 1, 1)
    blob = 40 * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (0.02 * h * w)))
    plane = np.clip(base + blob, 0, 255)
    return np.stack([plane, np.full((h, w), 128.0), np.full((h, w), 128.0)]).astype(np.uint8)


def _paint(planes: np.ndarray, y: int, x: int, hh: int, ww: int, color) -> None:
    for c in range(3):
        planes[c, y:y + hh, x:x + ww] = color[c]


def _tint(rng: np.random.Generator, colour) -> tuple[int, int, int]:
    """The colour moved by at most TINT levels per channel."""
    return tuple(int(v) for v in np.clip(np.add(colour, rng.integers(-TINT, TINT + 1, 3)), 0, 255))


def _dims(scale: float) -> tuple[int, int]:
    if not 0.1 <= scale <= 1.0:
        raise ValueError("scale must be in [0.1, 1]")
    return round(FULL_HEIGHT * scale), round(FULL_WIDTH * scale)


def square(seed: int, scale: float = BENCH_SCALE) -> Clip:
    """100 frames of one square (20 px at scale 1, step 3) over a smooth texture."""
    h, w = _dims(scale)
    n, size, step = 100, max(round(20 * scale), 6), 3
    period_y, period_x = max(h - size - 14, 1), max(w - size - 8, 1)
    color, oy, ox = SQUARE_COLOUR, 0, 0
    if seed == 0:
        tex_seed = 3
    else:
        # small moves only: where the square wraps round the frame, and how
        # it contrasts with the texture, set how much the foreground costs
        rng = np.random.default_rng([seed, 1])
        tex_seed = int(rng.integers(1 << 31))
        color = _tint(rng, color)
        oy, ox = (int(v) for v in rng.integers(0, SQUARE_JITTER + 1, 2))
    bg = smooth_texture(h, w, seed=tex_seed)
    frames = []
    for t in range(n):
        planes = bg.copy()
        _paint(planes, 10 + (3 * t + oy) % period_y, (8 + step * t + ox) % period_x,
               size, size, color)
        frames.append(Frame(planes, t))
    return Clip("square", VideoSequence(tuple(frames), *FPS),
                EncoderConfig(init_frames=INIT_FRAMES), bg, (0,) * n, ((0, n - 1),))


def static(seed: int, scale: float = BENCH_SCALE) -> Clip:
    """300 identical frames of a smooth gradient scene: no motion at all."""
    h, w = _dims(scale)
    n = 300
    if seed == 0:
        bg = gradient_background(h, w)
    else:
        rng = np.random.default_rng([seed, 2])
        # only the blob moves: the ramp, the blob's shape and the chroma set
        # the template's cost, which should not depend on the seed
        bg = gradient_background(
            h, w, cy=float(rng.uniform(0.3, 0.37)) * h, cx=float(rng.uniform(0.45, 0.55)) * w)
    frames = tuple(Frame(bg.copy(), t) for t in range(n))
    return Clip("static", VideoSequence(frames, *FPS),
                EncoderConfig(init_frames=INIT_FRAMES), bg, (0,) * n, ())


# (first, last, width, height, vx, vy) at scale 1; start positions come from the seed
LOBBY_OBJECTS = (
    (4, 38, 20, 44, 5, 0),
    (10, 44, 24, 36, -5, 1),
    (58, 92, 28, 24, 5, -1),
    (64, 99, 20, 40, -5, 0),
)
LOBBY_DEFAULT_STARTS = ((20, 60), (260, 120), (40, 150), (280, 40))   # (x, y) at scale 1
LOBBY_DEFAULT_COLOURS = ((230, 60, 120), (30, 200, 90), (15, 15, 240), (250, 220, 10))
LOBBY_JITTER = 8    # pixels at scale 1 around each default start


def lobby(seed: int, scale: float = BENCH_SCALE) -> Clip:
    """100 frames: four rectangles in two visits, a foreground-free gap, rising light."""
    h, w = _dims(scale)
    n = 100
    objs = [(x0, y0, colour) for (x0, y0), colour
            in zip(LOBBY_DEFAULT_STARTS, LOBBY_DEFAULT_COLOURS)]
    if seed != 0:
        rng = np.random.default_rng([seed, 3])
        for i, (x0, y0, colour) in enumerate(objs):
            dx, dy = (int(v) for v in rng.integers(-LOBBY_JITTER, LOBBY_JITTER + 1, 2))
            objs[i] = (x0 + dx, y0 + dy, _tint(rng, colour))
    # The scenery is the same for every seed, and the seed only jitters the
    # objects: the template chain comes from the background model absorbing
    # parts of the objects where they cross, and a new texture per seed
    # moved its length (17-33 templates) and the seek cost with it.
    bg = smooth_texture(h, w, seed=21)
    brightness = tuple(t // 2 for t in range(n))
    frames = []
    for t in range(n):
        planes = np.clip(bg.astype(np.int16) + brightness[t], 0, 255).astype(np.uint8)
        for (first, last, ow, oh, vx, vy), (x0, y0, colour) in zip(LOBBY_OBJECTS, objs):
            if first <= t <= last:
                k = t - first
                _paint(planes, int((y0 + vy * k) * scale), int((x0 + vx * k) * scale),
                       max(round(oh * scale), 4), max(round(ow * scale), 4), colour)
        frames.append(Frame(planes, t))
    return Clip("lobby", VideoSequence(tuple(frames), *FPS),
                EncoderConfig(init_frames=INIT_FRAMES, learning_rate=0.05), bg,
                brightness, tuple((first, last) for first, last, *_ in LOBBY_OBJECTS))


GENERATORS = {"square": square, "static": static, "lobby": lobby}


def make_clip(workload: str, seed: int, scale: float = BENCH_SCALE) -> Clip:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return GENERATORS[workload](seed, scale)


def seek_targets(seed: int, frame_count: int, count: int = SEEKS_PER_ROUND,
                 round_no: int = 0) -> list[int]:
    """One round of stratified seek targets, in seeded order.

    The round takes one frame near the centre of each of `count` equal
    slices of the clip, moved by a seeded jitter of at most one frame. Seek
    cost grows with the target's depth in its foreground run, so the median
    latency then stays a property of the code, not of where one seed's
    targets happened to fall.
    """
    rng = np.random.default_rng([seed, 4, round_no])
    centres = [(2 * i + 1) * frame_count // (2 * count) for i in range(count)]
    jitter = rng.integers(-1, 2, count)
    picks = [min(max(c + int(j), 0), frame_count - 1) for c, j in zip(centres, jitter)]
    return [int(t) for t in rng.permutation(picks)]
