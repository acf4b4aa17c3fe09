"""The background half in one forked worker, for encode and for decode: the
same bytes and frames as in one process, the worker's errors raised here as
they would be there, both halves here wherever a fork is unsafe or fails, and
no worker left behind."""

import dataclasses
import errno
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from contextlib import nullcontext
from functools import lru_cache

import numpy as np
import pytest

from fbv import pipeline
from fbv.cli import EXIT_OK, main
from fbv.container import FbvStream, read_stream, write_stream
from fbv.core import FbvError
from fbv.entropy import EntropyDecodeError
from fbv.pipeline import Decoder, EncoderConfig, decode_bytes, decode_frame, encode, output_frames

from conftest import moving_square_video, one_process, static_video, step_video

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
def no_child_left():
    assert threading.active_count() == 1        # so a walk or an encode may fork
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
def test_one_and_two_workers_encode_the_same(name):
    make, config = CASES[name]
    video = make()
    two = encode(video, config)
    with one_process():
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


def test_a_sigint_in_the_worker_leaves_the_encode_alone(monkeypatch, starts):
    # the caller, not the worker, answers Ctrl-C: it kills the worker on every exit
    parent, sent = os.getpid(), []
    update = pipeline.gmm_update

    def interrupted(state, frame):
        if os.getpid() != parent and not sent:
            sent.append(frame.frame_index)
            os.kill(os.getpid(), signal.SIGINT)
        return update(state, frame)

    monkeypatch.setattr(pipeline, "gmm_update", interrupted)
    make, config = CASES["moving"]
    assert encode(make(), config).data == _stream("moving")
    assert len(starts) == 1


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


@lru_cache(maxsize=None)
def _stream(name: str) -> bytes:
    make, config = CASES[name]
    return encode(make(), config).data


@pytest.fixture
def starts(monkeypatch):
    """The list that gains one entry per worker started, once the streams are encoded."""
    for name in CASES:
        _stream(name)
    started = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda self: started.append(self) or start(self))
    return started


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        x.frame_index == y.frame_index and np.array_equal(x.planes, y.planes)
        for x, y in zip(a, b))


def test_one_and_two_workers_decode_the_same(starts):
    data = _stream("templates")
    two = decode_bytes(data)
    assert len(starts) == 1                 # the template chain decoded beside the walk
    with one_process():
        one = decode_bytes(data)
    assert len(starts) == 1
    assert _same(two.pre_enhance, one.pre_enhance)
    assert _same(two.video.frames, one.video.frames)


def test_reverse_seeks_match_under_both(starts):
    data = _stream("templates")
    want = decode_bytes(data).video.frames
    for one in (False, True):
        stream = read_stream(data)
        with one_process() if one else nullcontext():
            got = [decode_frame(stream, t) for t in reversed(range(stream.header.frame_count))]
        assert _same(got[::-1], want), one
    assert starts                           # a cold seek replays its run beside the chain


def _late_template_flipped(data: bytes) -> bytes:
    """The stream with a byte of its last template's payload flipped, so that
    template's decode raises."""
    stream = read_stream(data)
    last = stream.templates[-1]
    payload = bytearray(last.residual)
    payload[1] ^= 0xFF
    templates = stream.templates[:-1] + (dataclasses.replace(last, residual=bytes(payload)),)
    return write_stream(FbvStream(stream.header, templates, stream.foregrounds))


def test_a_late_template_error_is_raised_where_one_process_raises_it(starts):
    bad = read_stream(_late_template_flipped(_stream("templates")))
    outcomes = []
    for one in (False, True):
        walked = []
        with pytest.raises(EntropyDecodeError) as err, one_process() if one else nullcontext():
            for frame, _ in Decoder(bad).frames():
                walked.append(frame)
        outcomes.append((type(err.value), str(err.value), walked))
        assert _no_child_left()
    (cls2, msg2, walked2), (cls1, msg1, walked1) = outcomes
    assert (cls2, msg2) == (cls1, msg1)
    assert 0 < len(walked1) < bad.header.frame_count
    assert _same(walked2, walked1)
    assert len(starts) == 1


def test_an_abandoned_walk_kills_and_reaps_its_worker(monkeypatch, starts):
    data = _stream("templates")
    stream = read_stream(data)
    assert [r.frame_no for r in stream.foregrounds[:3]] == [12, 13, 14]
    last = stream.templates[-1].frame_no
    assert last > 14
    decode_template = pipeline.decode_template

    def slow(prev, payload, frame_index, height, width):
        if frame_index == last:         # keeps the worker busy past what the walk needs
            time.sleep(30)
        return decode_template(prev, payload, frame_index, height, width)

    monkeypatch.setattr(pipeline, "decode_template", slow)
    t0 = time.perf_counter()
    decode_frame(stream, 14)            # a cold seek that replays frames 12 and 13
    assert len(starts) == 1 and _no_child_left()
    walk = output_frames(read_stream(data))
    for _ in range(3):                  # past the first frame, the chain goes to the worker
        next(walk)
    assert len(starts) == 2
    walk.close()
    assert _no_child_left()
    assert time.perf_counter() - t0 < 10.0


def test_no_worker_without_work_to_overlap(starts):
    # one template, the first frame's: a foreground record on every frame
    moving = read_stream(_stream("moving"))
    decode_bytes(write_stream(FbvStream(moving.header, moving.templates[:1],
                                        moving.foregrounds)))
    # several templates but no foreground record to decode beside them
    stream = read_stream(_stream("templates"))
    assert len(stream.templates) >= 3
    decode_bytes(write_stream(FbvStream(stream.header, stream.templates, ())))
    decode_bytes(_stream("static"))
    # a warm decoder: every template kept by an earlier walk
    stream = read_stream(_stream("templates"))
    list(output_frames(stream))
    assert len(starts) == 1
    list(output_frames(stream))
    for t in reversed(range(stream.header.frame_count)):
        decode_frame(stream, t)
    assert len(starts) == 1


@pytest.mark.parametrize("fallback", ["parked thread", "failed fork"])
def test_both_halves_run_here_when_a_fork_is_unsafe_or_fails(monkeypatch, starts, fallback):
    make, config = CASES["templates"]
    with one_process():
        want = decode_bytes(_stream("templates"))
    pipes, refused = [], []
    pipe = multiprocessing.connection.Pipe
    monkeypatch.setattr(multiprocessing.connection, "Pipe",
                        lambda duplex=True: pipes.append(pipe(duplex)) or pipes[-1])

    def no_process_id(process):         # as a fork fails when no process id is free
        refused.append(process)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    if fallback == "failed fork":
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process_id)
    with one_process() if fallback == "parked thread" else nullcontext():
        data = encode(make(), config).data
        got = decode_bytes(data)
    assert starts == []
    assert data == _stream("templates")
    assert _same(got.pre_enhance, want.pre_enhance)
    assert _same(got.video.frames, want.video.frames)
    # a failed fork closes both ends of the worker's pipe: one for encode, one for the walk
    assert len(refused) == len(pipes) == (2 if fallback == "failed fork" else 0)
    assert all(end.closed for ends in pipes for end in ends)


def test_a_template_worker_that_dies_costs_no_frame(monkeypatch, starts, tmp_path):
    data = _stream("templates")
    stream = read_stream(data)
    last = stream.templates[-1].frame_no
    # a cold seek to t replays the record before it, and t's bracket ends at the last template
    t = stream.foregrounds[-1].frame_no
    assert stream.foregrounds[-2].frame_no == t - 1 and t < last
    src, one, out = tmp_path / "in.fbv", tmp_path / "one.y4m", tmp_path / "out.y4m"
    src.write_bytes(data)
    with one_process():
        want = decode_bytes(data)
        assert main(["decode", "-i", str(src), "-o", str(one)]) == EXIT_OK
    parent, here = os.getpid(), []
    decode_template = pipeline.decode_template

    def dies(prev, payload, frame_index, height, width):
        if frame_index == last:
            if os.getpid() != parent:
                os._exit(1)
            here.append(frame_index)
        return decode_template(prev, payload, frame_index, height, width)

    monkeypatch.setattr(pipeline, "decode_template", dies)
    walked = [frame for frame, _ in Decoder(read_stream(data)).frames()]
    assert _same(walked, want.pre_enhance)
    assert _same([decode_frame(read_stream(data), t)], [want.video.frames[t]])
    assert main(["decode", "-i", str(src), "-o", str(out)]) == EXIT_OK
    assert out.read_bytes() == one.read_bytes()
    # each of the three forked, and each decoded here what its dead worker did not send
    assert len(starts) == 3 and here == [last] * 3
