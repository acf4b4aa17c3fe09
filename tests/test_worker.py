"""Encode's background half in one forked worker: the same encode as in one
process, the worker's errors raised here, and no worker left behind."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from fbv import pipeline
from fbv.core import FbvError
from fbv.pipeline import EncoderConfig, encode

from conftest import moving_square_video, static_video, step_video

FAST = dict(init_frames=8)

# name: (clip builder, config)
CASES = {
    "moving": (lambda: moving_square_video(n=24), EncoderConfig(**FAST)),
    # brightness steps admit several templates; cadence 2 makes anchors among them
    "templates": (step_video, EncoderConfig(anchor_interval=2, learning_rate=0.2, **FAST)),
    "static": (lambda: static_video(n=12), EncoderConfig(**FAST)),
}

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the worker is forked")


@pytest.fixture(autouse=True)
def two_workers(monkeypatch):
    monkeypatch.setattr(pipeline, "WORKERS", 2)
    yield
    assert _no_child_left()


def _no_child_left() -> bool:
    """True when this process has no child, running or exited and unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("name", sorted(CASES))
def test_one_and_two_workers_encode_the_same(name, monkeypatch):
    make, config = CASES[name]
    video = make()
    two = encode(video, config)
    monkeypatch.setattr(pipeline, "WORKERS", 1)
    one = encode(video, config)
    assert two.data == one.data
    assert two.gate_trace == one.gate_trace
    assert len(two.recon) == len(one.recon) == len(video.frames)
    for a, b in zip(two.recon, one.recon):
        assert a.frame_index == b.frame_index and np.array_equal(a.planes, b.planes)
    assert "background wait" not in one.stage_s
    assert [s for s in two.stage_s if s != "background wait"] == list(one.stage_s)
    if name == "templates":
        assert len(one.stream.templates) >= 3


def test_an_error_in_the_worker_is_raised_here(monkeypatch):
    def broken(state, frame):
        raise ValueError(f"no update of frame {frame.frame_index} in {os.getpid()}")

    monkeypatch.setattr(pipeline, "gmm_update", broken)
    with pytest.raises(ValueError) as err:
        encode(moving_square_video(n=12), EncoderConfig(**FAST))
    assert type(err.value) is ValueError
    message, pid = str(err.value).rsplit(" in ", 1)
    assert message == "no update of frame 0"
    assert int(pid) != os.getpid()


def test_a_worker_that_dies_is_an_error_here(monkeypatch):
    parent = os.getpid()

    def dies(state, frame):
        if os.getpid() == parent:
            raise AssertionError("the background half ran in this process")
        os._exit(1)

    monkeypatch.setattr(pipeline, "gmm_update", dies)
    t0 = time.perf_counter()
    with pytest.raises(FbvError, match="background worker exited with code 1"):
        encode(moving_square_video(n=12), EncoderConfig(**FAST))
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_an_error_here_reaps_the_worker(monkeypatch, error):
    def broken(*args):
        raise error("no flow")

    monkeypatch.setattr(pipeline, "estimate_flow", broken)
    with pytest.raises(error, match="no flow"):
        encode(moving_square_video(n=24), EncoderConfig(**FAST))


def test_a_daemonic_process_encodes_in_itself():
    # a daemonic process may not start children, so its encode runs both halves
    video, config = moving_square_video(n=12), EncoderConfig(**FAST)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(encode(video, config).data), daemon=True)
    child.start()
    try:
        send.close()
        assert recv.poll(60)
        data = recv.recv()
    finally:
        recv.close()
        child.join(60)
    assert child.exitcode == 0
    assert data == encode(video, config).data
