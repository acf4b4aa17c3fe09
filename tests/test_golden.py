"""Golden stream digests: the bitstream and its decode, pinned across changes.

Each case encodes a small deterministic clip at one ladder point and checks
the SHA-256 of the `.fbv` bytes and of the decoded (enhanced) frames against
values recorded when this file was added. A change that alters either digest
changed the bitstream or the decoder's output; it must then say so and
record new digests here, rather than pass unnoticed. The clips cover the
three shapes of stream: a moving square (foreground runs and a template
chain), a static scene (background only), an illumination step (gated
template updates on global brightness) and a 44x60 moving square whose
templates and some foreground regions are not multiples of 8 (the residual
codec's edge padding and crop). Each stream is pinned twice: encoded and
decoded with the background half in its forked worker (the default in a
process that runs one thread) and with both halves in one process (with a
second thread parked).

Random access is pinned too: seeking every frame of a stream in reverse
order on one opened stream must hash to the same frames digest, in one
process or two.

The scores are pinned the same way, through the command line: the
`fbv rd-sweep` CSV and the `fbv decode --report` rows of the square clip
must match at the precision they are printed with.

The same streams, damaged by a seeded mutation fuzzer, must decode or fail
with a format error (ContainerError or EntropyDecodeError) within a CPU time
bound that counts the decode's template workers too: nothing else may escape
the decoder.
"""

import hashlib
import os
import threading
import time
from contextlib import nullcontext
from functools import lru_cache

import numpy as np
import pytest

from fbv.cli import EXIT_OK, main
from fbv.container import ContainerError, read_stream, write_stream
from fbv.core import write_y4m
from fbv.entropy import EntropyDecodeError
from fbv.pipeline import EncoderConfig, decode_bytes, decode_frame, encode, ladder_point

from conftest import moving_square_video, one_process, static_video, step_video

# name: (clip builder, encoder overrides)
CLIPS = {
    "square": (lambda: moving_square_video(n=12), {}),
    "static": (lambda: static_video(n=10), {}),
    "step": (lambda: step_video(h=64, w=64, n=20, shifts=((10, -45), (15, 45))),
             {"learning_rate": 0.2}),
    "offgrid": (lambda: moving_square_video(h=44, w=60, n=12, size=16), {}),
}

# (clip, ladder point): (sha256 of the stream, sha256 of the decoded frames)
GOLDEN = {
    ("square", 1): ('c572e0c0c8c7764dc3a041ee9bc970e3d207a0b91bf5ef689240fab7eab44bed', '058859b2ce8dc33794a3e03fc10ca311a651d72b3fc4db241fb84b74cf6d2af5'),
    ("square", 2): ('66dc48be74fe8bc10710cc6a7fb2b7c5f1035e1d2cb73b11106ae3a73799fbc3', '12e4106955338f5d749ae07c3c42f1a516d3b8768f5d44c5c7fa79db3c12e72c'),
    ("square", 3): ('ae0ee357469051b2a1f0a2fe57e494405adce36d1aaac93f9f31b2ae0f9f26f8', 'd9d2a78e8d6ea3a8d94855056a527c650b2e28bc977c5ef79e930ce4c16b20c1'),
    ("square", 4): ('1d6108ec6c6674ace43e83cf8116db71227f88c8fcc2994c327788b0326ee5a3', '4b840f8b0eedd378c06bab3b73db8da02d57fcf89123e3da6ae41a55ab8f178e'),
    ("static", 1): ('3882c451e6ae6c8dca7820828fad5fc5eb96b40833856389aa572cf12d61fe1a', 'bce13b2555a94c35f4e4fc7bd776a6f70f5c9069de3001fed5ee7b554ae1bf94'),
    ("static", 2): ('ba4abee284d5f6000ed0e5fd7de643de809a4479ec9cb5a04a9b10461efe25fc', 'bce13b2555a94c35f4e4fc7bd776a6f70f5c9069de3001fed5ee7b554ae1bf94'),
    ("static", 3): ('0f937080ccd84624a52c0d79a730a29f886040754893b5d62312554ba753c6d9', 'bce13b2555a94c35f4e4fc7bd776a6f70f5c9069de3001fed5ee7b554ae1bf94'),
    ("static", 4): ('c79f23550759bc2daf87df910d6db5562db570207deb8acadcb277ecef39dfda', 'bce13b2555a94c35f4e4fc7bd776a6f70f5c9069de3001fed5ee7b554ae1bf94'),
    ("step", 1): ('77048fc5247b68babbb0b75824280eb64c273dbb4531d2e729835926bdeee6c0', '9798cf4158524f448830bb9d281fbe68dea1c971d778f900937ba09a13c6254a'),
    ("step", 2): ('3eaba7dc0bb6d230452a0455f8ee2f53e67e675e13785fb54a4c8f03fbc1f5a7', '57eb30a49faecc7ca3c5c46544f083058459e3761569ed9695fc9c3c4659e817'),
    ("step", 3): ('ce69b995852d0e01c5617deb75d56903937d2b828d105703e24317dcfb7384d9', '5cbdc6a9c3488dd294dad0631bb30f249427ccf4cb85adbe2263e62a832e5107'),
    ("step", 4): ('18a6535fee6ec00d18bc99fd8d713c1cc063c1bc6d0563a92657a75e3b21390a', 'bd8ee37553ec9f442004088ac00cc7375e4717be589c5d35c6f3e9c31af98910'),
    ("offgrid", 1): ('443ba975578d2f3a17f0e4d09865ca90f9979be0561d9a68b8e1057182b2282e', 'd9dc5fc88972d98cf4146a46ce2383336724fb9cbabeef1e0c72170994cdac8d'),
    ("offgrid", 2): ('f69d90fc7cdc20326aa433beeb70db1793d8e6e61d564ee1af74ab7b8e742bda', '83703cbdae03f58b4704631589af6ab8e759bf45ddd9441bccfec7d49386436a'),
    ("offgrid", 3): ('1e95e8bf0bf0b39ee5e265ac97b703e075438ef78ab15520eb0b8c0f1bfbac77', 'fae64c24e3898574acc48b1199e7a661f2fcac8e40a0f8b216d4dcfe711d3180'),
    ("offgrid", 4): ('a0b23f722e5ae4e534ba62fa424f64912545ca41bf7b64a9e9044a739c59f5e8', '36c6a194979e566d5866d3f7df90efb5a93e9f0d7b0d21d67593a777e9f12e9d'),
}


@lru_cache(maxsize=None)
def _clip(name):
    return CLIPS[name][0]()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@lru_cache(maxsize=None)
def _stream(name: str, point: int, one: bool = False) -> bytes:
    q = ladder_point(point)
    cfg = EncoderConfig(delta_q=q.delta_q, levels=q.levels, init_frames=8, **CLIPS[name][1])
    with one_process() if one else nullcontext():
        return encode(_clip(name), cfg).data


def _digests(name: str, point: int, one: bool = False) -> tuple[str, str]:
    data = _stream(name, point, one)
    with one_process() if one else nullcontext():
        frames = decode_bytes(data).video.frames
    return _sha(data), _sha(b"".join(f.planes.tobytes() for f in frames))


@pytest.mark.parametrize("name,point", sorted(GOLDEN))
def test_golden_digests(name, point):
    # the background half in its forked worker: no other thread runs
    assert threading.active_count() == 1
    assert _digests(name, point) == GOLDEN[name, point]


@pytest.mark.parametrize("name,point", sorted(GOLDEN))
def test_golden_digests_in_one_process(name, point):
    assert _digests(name, point, one=True) == GOLDEN[name, point]


def test_golden_table_covers_every_clip_and_ladder_point():
    assert set(GOLDEN) == {(n, p) for n in CLIPS for p in (1, 2, 3, 4)}


# `fbv rd-sweep --qualities 1,4` of the square clip
SWEEP_CSV = """\
delta_q,levels,bpp,psnr_db,ms_ssim,fb_mixture
8,1,2.703451,35.3147,0.990672,0.998963
1,4,3.967611,35.6582,0.991166,0.999110
"""

# `fbv decode --report` of the square clip at ladder point 1
REPORT_ROWS = """\
frame,psnr_db,ms_ssim
0,31.6674,0.982651
1,38.1850,0.996823
2,36.4847,0.996528
3,36.1407,0.996965
4,37.1037,0.997435
5,37.0944,0.997357
6,35.0979,0.990861
7,35.1473,0.990457
8,35.0794,0.990580
9,34.1119,0.985089
10,33.8070,0.982008
11,33.8572,0.981306
summary,bpp,2.703451
summary,fb_mixture,0.998963
summary,sharpness,592.9641
""".splitlines()


@pytest.fixture(scope="module")
def square_y4m(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "square.y4m"
    write_y4m(_clip("square"), str(path), force_444=True)
    return path


def test_rd_sweep_scores(square_y4m, capsys):
    rc = main(["rd-sweep", "-i", str(square_y4m), "--qualities", "1,4", "--init-frames", "8"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == SWEEP_CSV


def test_decode_report_scores(square_y4m, tmp_path):
    fbv, report = tmp_path / "square.fbv", tmp_path / "report.csv"
    assert main(["encode", "-i", str(square_y4m), "-o", str(fbv),
                 "--quality", "1", "--init-frames", "8"]) == EXIT_OK
    assert main(["decode", "-i", str(fbv), "-o", str(tmp_path / "out.y4m"),
                 "--reference", str(square_y4m), "--report", str(report)]) == EXIT_OK
    rows = report.read_text().splitlines()
    assert [r for r in rows if not r.startswith("summary,rd_objective,")] == REPORT_ROWS


# the mutation fuzz corpus: streams with foreground runs, templates and edge crops
FUZZ_STREAMS = [(name, point) for name in ("square", "offgrid", "step") for point in (1, 4)]


def _mutate(data: bytes, rng) -> bytes:
    """1-3 flipped bits, a truncation, or 8 bytes spliced in from elsewhere."""
    out = bytearray(data)
    kind = int(rng.integers(3))
    if kind == 0:
        for _ in range(int(rng.integers(1, 4))):
            out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
    elif kind == 1:
        del out[int(rng.integers(len(out))):]
    else:
        src, dst = (int(i) for i in rng.integers(0, len(out) - 8, 2))
        out[dst:dst + 8] = data[src:src + 8]
    return bytes(out)


@pytest.mark.parametrize("name,point", FUZZ_STREAMS)
def test_reverse_seeks_match_the_golden_frames(name, point):
    for one in (True, False):
        stream = read_stream(_stream(name, point))
        with one_process() if one else nullcontext():
            frames = [decode_frame(stream, t) for t in reversed(range(stream.header.frame_count))]
        assert (_sha(b"".join(f.planes.tobytes() for f in reversed(frames)))
                == GOLDEN[name, point][1]), one


@pytest.mark.parametrize("name,point", FUZZ_STREAMS)
def test_mutated_streams_fail_cleanly(name, point):
    """A damaged stream decodes or raises a format error, and does so quickly;
    one that reads is the canonical form of what it reads as."""
    data = _stream(name, point)
    rng = np.random.default_rng(1000 + FUZZ_STREAMS.index((name, point)))
    for case in range(20):
        bad = _mutate(data, rng)
        # the CPU of this process and of the template workers its decode reaped
        t0, c0 = time.process_time(), os.times()
        try:
            decode_bytes(bad)
        except (ContainerError, EntropyDecodeError):
            pass
        c1 = os.times()
        children = c1.children_user + c1.children_system - c0.children_user - c0.children_system
        assert time.process_time() - t0 + children < 2.0, f"case {case} took too long"
        try:
            stream = read_stream(bad)
        except ContainerError:
            continue
        assert write_stream(stream) == bad, f"case {case} read a non-canonical stream"
