"""Shared synthetic fixtures: textured stills and moving-object sequences."""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from fbv import residual
from fbv.core import Frame, VideoSequence


def smooth_texture(h, w, seed=3, lo=40, hi=200):
    """Blocky random field smoothed twice; enough detail to cost real bits."""
    r = np.random.default_rng(seed)
    base = r.integers(lo, hi, (3, h // 8 + 2, w // 8 + 2)).astype(np.float64)
    out = np.empty((3, h, w))
    for c in range(3):
        big = np.kron(base[c], np.ones((8, 8)))[: h + 8, : w + 8]
        for _ in range(2):
            big = (big[:-1, :-1] + big[1:, :-1] + big[:-1, 1:] + big[1:, 1:]) / 4.0
        out[c] = big[:h, :w]
    return np.clip(out, 0, 255).astype(np.uint8)


def gradient_background(h, w):
    """Smooth, cheap-to-code scenery: vertical ramp plus one soft blob."""
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    base = 60 + 120 * yy / max(h - 1, 1)
    blob = 40 * np.exp(-(((yy - h / 3) ** 2 + (xx - w / 2) ** 2) / (0.02 * h * w)))
    plane = np.clip(base + blob, 0, 255)
    return np.stack([plane, np.full((h, w), 128.0), np.full((h, w), 128.0)]).astype(np.uint8)


def paint_square(planes, y, x, size, color=(230, 60, 120)):
    out = planes.copy()
    for c in range(3):
        out[c, y : y + size, x : x + size] = color[c]
    return out


def moving_square_video(h=64, w=64, n=30, size=12, bg=None, fps=(25, 1),
                        step=2, hold_first=0):
    """One square gliding over a static background; optional still prefix."""
    if bg is None:
        bg = smooth_texture(h, w)
    frames = []
    for t in range(n):
        if t < hold_first:
            frames.append(Frame(bg.copy(), t))
            continue
        k = t - hold_first
        y = 10 + (3 * k) % max(h - size - 14, 1)
        x = (8 + step * k) % max(w - size - 8, 1)
        frames.append(Frame(paint_square(bg, y, x, size), t))
    return VideoSequence(tuple(frames), *fps)


def static_video(h=64, w=64, n=20, bg=None, fps=(25, 1)):
    if bg is None:
        bg = smooth_texture(h, w)
    return VideoSequence(tuple(Frame(bg.copy(), t) for t in range(n)), *fps)


def step_video(h=48, w=48, n=40, shifts=((12, -45), (24, 45))):
    """Static scene whose global brightness jumps at the given frames."""
    bg = smooth_texture(h, w, seed=6)
    frames = []
    level = 0
    table = dict(shifts)
    for t in range(n):
        level = table.get(t, level)
        planes = np.clip(bg.astype(np.int64) + level, 0, 255).astype(np.uint8)
        frames.append(Frame(planes, t))
    return VideoSequence(tuple(frames), 25, 1)


@pytest.fixture(scope="session")
def square_clip():
    return moving_square_video()


@pytest.fixture(scope="session")
def static_clip():
    return static_video()


def counting_read_stream(monkeypatch):
    """Count container.read_stream calls through every fbv module that binds the name;
    returns the list that gains one entry per call."""
    import fbv.cli  # noqa: F401  (loads every module that calls read_stream)
    from fbv.container import read_stream as real

    calls = []

    def counted(data):
        calls.append(len(data))
        return real(data)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fbv" and getattr(module, "read_stream", None) is real:
            monkeypatch.setattr(module, "read_stream", counted)
    return calls


@contextmanager
def one_process():
    """Run the block with a second thread parked, so that every encode and decode
    walk in it runs both halves in this process: fbv.pipeline forks no worker
    while another thread runs."""
    release = threading.Event()
    parked = threading.Thread(target=release.wait, name="parked")
    parked.start()
    try:
        yield
    finally:
        release.set()
        parked.join()


@pytest.fixture
def in_one_process():
    """The whole test under one_process()."""
    with one_process():
        yield


@contextmanager
def python_coder():
    """Run the block with the compiled coder set aside, so that the Python loops
    of fbv.residual code and decode every residual payload (in a forked worker
    too, which inherits the setting)."""
    saved = residual._rc
    residual._rc = None
    try:
        yield
    finally:
        residual._rc = saved
