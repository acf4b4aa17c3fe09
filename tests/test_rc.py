"""The compiled residual coder (`src/fbv/_rc.c`) against the Python coder and
the per-bin reference.

The C loop is a second implementation of `fbv.entropy`'s coder description
and `fbv.residual._binarize`'s order. On drawn multi-patch payloads at levels
1-12, escapes included, its bytes equal those of `_binarize` + `encode_bins`
and of `tests/refcoder.py`, and it decodes the levels both decode. Every
truncation and every single-bit flip of a drawn payload, and seeded
truncations and flips of every template and foreground payload of the golden
streams, give the same outcome on both paths: the same levels, or the same
exception class and message. (Every truncation of the golden streams'
7.9 KB anchor templates alone would cost the Python loop minutes, so those
are sampled.)

The drawn-payload test needs no compiler: it holds the Python loop to
`tests/refcoder.py` on the intact payload and on every truncation and
single-bit flip (the same levels, or the same exception class and message),
and the compiled coder joins that comparison wherever it is built. Every
other parity test skips, with the reason, where the compiled coder cannot
be built or loaded; the Python coder is then the only one and the rest of
the suite runs on it. A build that fails, for want of a working compiler or
of a writable cache, leaves the Python coder in use, silently.
"""

import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refcoder
from fbv import residual
from fbv.bgtemplate import TEMPLATE_QUALITY
from fbv.container import read_stream
from fbv.entropy import EntropyDecodeError, encode_bins
from fbv.residual import _binarize, _ceil8, decode_levels, residual_context_model

from conftest import python_coder

RC = residual.compiled()
needs_core = pytest.mark.skipif(
    RC is None, reason="the compiled coder could not be built or loaded "
                       "(no gcc, no Python.h or no writable cache): only the Python coder runs")

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent


def _outcome(fn):
    """What a decode gives: its value, or the class and message of its error."""
    try:
        return fn()
    except EntropyDecodeError as exc:
        return type(exc), str(exc)


def _core_levels(data, blocks, top):
    return np.frombuffer(RC.decode_levels(data, blocks, top), dtype=np.int64).tolist()


def _python_bytes(patches, top):
    ctxs, bits = [], []
    for lv in patches:
        _binarize(np.abs(lv), np.sign(lv), top, ctxs, bits)
    return encode_bins(ctxs, bits, residual_context_model())


def _reference_bytes(patches, top):
    enc = refcoder.RangeEncoder(residual_context_model())
    for lv in patches:
        for ch in range(3):
            for b in range(lv.shape[1]):
                refcoder._encode_block(enc, np.abs(lv[ch, b]), np.sign(lv[ch, b]),
                                       0 if ch == 0 else 1, top)
    return enc.finish()


def _same_outcome(data, blocks, top):
    assert _outcome(lambda: _core_levels(data, blocks, top)) == \
        _outcome(lambda: decode_levels(data, blocks, top))


# mostly small levels, some beyond every top center (escapes), a few huge
VALUES = st.one_of(st.integers(-3, 3), st.integers(-40, 40), st.integers(-5000, 5000),
                   st.integers(-2 ** 30, 2 ** 30))


@st.composite
def payloads(draw):
    """(levels, per patch (3, blocks, 64) signed zigzag levels)."""
    patches = []
    for _ in range(draw(st.integers(1, 3))):
        lv = np.zeros((3, draw(st.integers(0, 2)), 64), dtype=np.int64)
        for block in lv.reshape(-1, 64):
            for pos, value in draw(st.lists(st.tuples(st.integers(0, 63), VALUES), max_size=5)):
                block[pos] = value
        patches.append(lv)
    return draw(st.integers(1, 12)), patches


def _reference_levels(data, blocks, top):
    shapes = [(8, 8 * n) for n in blocks]
    return np.concatenate([lv.ravel() for lv in refcoder.decode_levels(data, shapes, top)]
                          ).tolist()


@given(payloads())
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_drawn_payloads_code_alike_on_every_path(drawn):
    # needs no compiler: the compiled coder joins in only where it is built
    levels, patches = drawn
    top = (1 << levels) - 1
    blocks = [lv.shape[1] for lv in patches]
    flat = np.concatenate([lv.ravel() for lv in patches])
    data = _reference_bytes(patches, top)
    assert _python_bytes(patches, top) == data
    want = flat.tolist()
    assert decode_levels(data, blocks, top) == _reference_levels(data, blocks, top) == want
    if RC is not None:
        assert RC.encode_levels(flat, blocks, top) == data
        assert _core_levels(data, blocks, top) == want
    damaged = [data[:n] for n in range(len(data))]
    for at in range(len(data)):
        for bit in range(8):
            bad = bytearray(data)
            bad[at] ^= 1 << bit
            damaged.append(bytes(bad))
    for bad in damaged:
        got = _outcome(lambda: decode_levels(bad, blocks, top))
        assert got == _outcome(lambda: _reference_levels(bad, blocks, top))
        if RC is not None:
            assert got == _outcome(lambda: _core_levels(bad, blocks, top))


@lru_cache(maxsize=None)
def _golden_payloads():
    """(payload, blocks, top) of every distinct template and foreground
    residual payload of the golden streams."""
    import test_golden
    seen = {}
    for name, point in sorted(test_golden.GOLDEN):
        stream = read_stream(test_golden._stream(name, point))
        h, w = stream.header.height, stream.header.width
        for tr in stream.templates:
            seen.setdefault(tr.residual, ([(_ceil8(h) // 8) * (_ceil8(w) // 8)],
                                          TEMPLATE_QUALITY.top_center))
        for rec in stream.foregrounds:
            seen.setdefault(rec.residual, ([(_ceil8(r.h) // 8) * (_ceil8(r.w) // 8)
                                            for r in rec.regions],
                                           stream.header.quality.top_center))
    return [(data, blocks, top) for data, (blocks, top) in seen.items()]


@needs_core
def test_golden_payloads_decode_alike():
    payloads = _golden_payloads()
    assert len(payloads) > 50
    for data, blocks, top in payloads:
        assert _core_levels(data, blocks, top) == decode_levels(data, blocks, top)


@needs_core
def test_damaged_golden_payloads_fail_alike():
    rng = np.random.default_rng(32)
    for data, blocks, top in _golden_payloads():
        cuts = set(range(7)) | {int(n) for n in rng.integers(7, len(data), 3)} | {len(data) - 1}
        for n in sorted(cuts):
            _same_outcome(data[:n], blocks, top)
        for _ in range(6):
            bad = bytearray(data)
            bad[int(rng.integers(len(bad)))] ^= 1 << int(rng.integers(8))
            _same_outcome(bytes(bad), blocks, top)


@needs_core
def test_arguments_are_checked():
    with pytest.raises(ValueError, match="bytes of levels"):
        RC.encode_levels(np.zeros(64, dtype=np.int64), [1], 3)
    with pytest.raises(ValueError, match="block counts"):
        RC.decode_levels(bytes(8), [-1], 3)
    with pytest.raises(ValueError, match="top center"):
        RC.decode_levels(bytes(8), [1], 0)
    with pytest.raises(EntropyDecodeError, match="shorter than coder preamble"):
        RC.decode_levels(bytes(4), [1], 3)


@needs_core
def test_tracemalloc_sees_the_decoded_levels():
    data, blocks, top = max(_golden_payloads(), key=lambda p: sum(p[1]))
    tracemalloc.start()
    try:
        RC.decode_levels(data, blocks, top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak >= 192 * sum(blocks) * 8


@needs_core
def test_encode_and_decode_use_the_core_unless_it_is_set_aside(monkeypatch):
    calls = []
    monkeypatch.setattr(residual, "_rc", type("Counted", (), {
        "encode_levels": staticmethod(lambda *a: calls.append("encode") or RC.encode_levels(*a)),
        "decode_levels": staticmethod(lambda *a: calls.append("decode") or RC.decode_levels(*a)),
    }))
    patch = np.random.default_rng(0).integers(-40, 41, (3, 9, 17))
    q = residual.QualityPoint(2.0, 3)
    data, (decoded,) = residual.encode_residual([patch], q)
    (back,) = residual.decode_residual(data, [(9, 17)], q)
    assert calls == ["encode", "decode"]
    with python_coder():
        assert residual.encode_residual([patch], q)[0] == data
        (py_back,) = residual.decode_residual(data, [(9, 17)], q)
    assert calls == ["encode", "decode"]
    assert np.array_equal(back, decoded) and np.array_equal(py_back, decoded)


# encode and decode the golden square clip at ladder point 1 in a fresh
# interpreter, warnings as errors, and print the two digests
_FALLBACK_PROBE = """\
import hashlib
from fbv import residual
from fbv.pipeline import EncoderConfig, decode_bytes, encode, ladder_point
from conftest import moving_square_video
q = ladder_point(1)
data = encode(moving_square_video(n=12), EncoderConfig(delta_q=q.delta_q, levels=q.levels,
                                                       init_frames=8)).data
frames = decode_bytes(data).video.frames
assert residual._rc is None, residual._rc
print(hashlib.sha256(data).hexdigest(), hashlib.sha256(b"".join(f.planes.tobytes()
                                                                for f in frames)).hexdigest())
"""


@pytest.mark.parametrize("failure", ["compiler exits 1", "unwritable cache"])
def test_a_failed_build_falls_back_to_python_silently(failure, tmp_path):
    import test_golden
    bin_dir, cache = tmp_path / "bin", tmp_path / "cache"
    bin_dir.mkdir()
    tried = tmp_path / "tried"
    gcc = bin_dir / "gcc"
    gcc.write_text(f"#!/bin/sh\n: > '{tried}'\nexit 1\n")
    gcc.chmod(0o755)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    if failure == "compiler exits 1":
        cache.mkdir()
        env.update(PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
                   XDG_CACHE_HOME=str(cache))
    else:
        cache.write_bytes(b"")          # a file where the cache directory would go
        env.update(XDG_CACHE_HOME=str(cache))
    run = subprocess.run([sys.executable, "-W", "error", "-W", "error::ResourceWarning",
                          "-c", _FALLBACK_PROBE], env=env, capture_output=True, text=True,
                         timeout=300, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert tuple(run.stdout.split()) == test_golden.GOLDEN["square", 1]
    if failure == "compiler exits 1":
        assert tried.exists()
        assert list(cache.rglob("*")) == [cache / "fbv"]
