"""Every valid clip round-trips: drawn clips through encode, the container and
both decodes.

Hypothesis draws small clips, most of whose sides are not multiples of 8, with
up to two rectangles that move and stop at the frame's edges, so foreground
regions meet the right and bottom borders and runs start, stop and restart.
Each clip must encode to the same bytes forked and in one process, survive a
container round trip byte for byte, decode to the encoder's reconstruction,
and give every frame the same way through a seek, in any order.
"""

from datetime import timedelta

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fbv.container import read_stream, write_stream
from fbv.core import Frame, VideoSequence
from fbv.pipeline import EncoderConfig, decode_bytes, decode_frame, encode, ladder_point

from conftest import one_process, smooth_texture


def _rectangle(h, w):
    """(height, width, top, left, (step y, step x), colour) of one moving rectangle."""
    return st.tuples(st.integers(4, h // 2), st.integers(4, w // 2),
                     st.integers(0, h - 4), st.integers(0, w - 4),
                     st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any),
                     st.tuples(*[st.integers(0, 255)] * 3))


@st.composite
def clips(draw):
    """(video, config, seek order): a drawn clip and an encoder config for it."""
    h, w = draw(st.integers(16, 48)), draw(st.integers(16, 48))
    n = draw(st.integers(6, 12))
    init_frames = draw(st.integers(2, 4))
    point = draw(st.integers(1, 4))
    rects = draw(st.lists(_rectangle(h, w), max_size=2))
    bg = smooth_texture(h, w, seed=draw(st.integers(0, 2 ** 16)))
    frames = []
    for t in range(n):
        planes = bg.copy()
        for rh, rw, y, x, (vy, vx), colour in rects:
            # a rectangle stops where it meets an edge, so it dwells on the border
            top = int(np.clip(y + vy * t, 0, h - rh))
            left = int(np.clip(x + vx * t, 0, w - rw))
            planes[:, top:top + rh, left:left + rw] = np.array(colour, np.uint8)[:, None, None]
        frames.append(Frame(planes, t))
    q = ladder_point(point)
    config = EncoderConfig(init_frames=init_frames, delta_q=q.delta_q, levels=q.levels)
    return VideoSequence(tuple(frames)), config, draw(st.permutations(range(n)))


@settings(max_examples=16, derandomize=True, database=None, deadline=timedelta(seconds=20))
@given(clips())
def test_every_drawn_clip_round_trips(clip):
    video, config, order = clip
    result = encode(video, config)
    with one_process():
        assert encode(video, config).data == result.data
    data = result.data
    assert write_stream(read_stream(data)) == data

    decoded = decode_bytes(data)
    assert len(decoded.pre_enhance) == len(result.recon)
    for pre, recon in zip(decoded.pre_enhance, result.recon):
        assert np.array_equal(pre.planes, recon.planes)

    stream = read_stream(data)
    for t in order:
        assert np.array_equal(decode_frame(stream, t).planes, decoded.video.frames[t].planes), t
