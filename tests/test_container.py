"""Wire format: round trips, validation taxonomy, bit budgets."""

import os
import resource
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fbv.container import (TAG_FOREGROUND, TAG_TEMPLATE, FbvStream, ForegroundRecord,
                           StreamHeader, TemplateRecord, budget_of, build_segments,
                           foreground_payload, read_stream, template_payload,
                           write_stream, ContainerError)
from fbv.core import Region
from fbv.pipeline import _bracket, decode_frame
from fbv.residual import QualityPoint

SRC = Path(__file__).resolve().parent.parent / "src"


def _header(frame_count=20, **kw):
    base = dict(width=64, height=48, fps_num=25, fps_den=1,
                frame_count=frame_count, levels=3, delta_fp=2048,
                gamma_fp=9800, flags=0)
    base.update(kw)
    return StreamHeader(**base)


def _bytes(rng, n):
    return rng.integers(0, 256, int(n), dtype=np.uint8).tobytes()


def _simple_stream(frame_count=20, t_frames=(0, 10), fg_frames=(5, 6), seed=0):
    rng = np.random.default_rng(seed)
    templates = tuple(
        TemplateRecord(fn, anchor=(i == 0), residual=_bytes(rng, rng.integers(4, 40)))
        for i, fn in enumerate(t_frames))
    foregrounds = tuple(
        ForegroundRecord(fn, regions=(Region(0, 0, 8, 8), Region(16, 8, 8, 8)),
                         flow=_bytes(rng, rng.integers(2, 20)),
                         residual=_bytes(rng, rng.integers(2, 30)))
        for fn in fg_frames)
    return FbvStream(_header(frame_count), templates, foregrounds)


def _random_stream(rng):
    width = 16 * int(rng.integers(1, 6))
    height = 16 * int(rng.integers(1, 6))
    frame_count = int(rng.integers(1, 40))
    t_count = int(rng.integers(1, min(frame_count, 6) + 1))
    t_frames = sorted(rng.choice(frame_count, t_count, replace=False).tolist())
    anchors = [i == 0 or rng.random() < 0.3 for i in range(t_count)]
    fg_count = int(rng.integers(0, frame_count + 1))
    fg_frames = sorted(rng.choice(frame_count, fg_count, replace=False).tolist())
    slots = width // 16
    templates = tuple(
        TemplateRecord(fn, anchors[i], _bytes(rng, rng.integers(0, 50)))
        for i, fn in enumerate(t_frames))
    fgs = []
    for fn in fg_frames:
        k = int(rng.integers(1, min(slots, 3) + 1))
        chosen = sorted(rng.choice(slots, k, replace=False).tolist())
        regions = tuple(Region(16 * s, 0, int(rng.integers(8, 17)),
                               int(rng.integers(8, min(height, 16) + 1)))
                        for s in chosen)
        fgs.append(ForegroundRecord(fn, regions, _bytes(rng, rng.integers(0, 30)),
                                    _bytes(rng, rng.integers(0, 40))))
    header = StreamHeader(width, height, int(rng.integers(1, 100)),
                          int(rng.integers(1, 4)), frame_count,
                          int(rng.integers(1, 13)), int(rng.integers(1, 0x10000)),
                          int(rng.integers(1, 10000)), int(rng.integers(0, 256)))
    return FbvStream(header, templates, tuple(fgs))


def _assemble(stream, records, segments=None) -> bytes:
    """The wire layout by hand, with the records in the order given and the
    segment list given (the stream's own by default)."""
    out = bytearray(write_stream(stream)[:23])      # preamble and header
    index = {TAG_TEMPLATE: [], TAG_FOREGROUND: []}
    for rec in records:
        tag = TAG_TEMPLATE if isinstance(rec, TemplateRecord) else TAG_FOREGROUND
        payload = template_payload(rec) if tag == TAG_TEMPLATE else foreground_payload(rec)
        index[tag].append((rec.frame_no, len(out)))
        out += struct.pack("<BII", tag, rec.frame_no, len(payload)) + payload
    offsets = []
    for tag in (TAG_TEMPLATE, TAG_FOREGROUND):
        offsets.append(len(out))
        out += struct.pack("<I", len(index[tag]))
        out += b"".join(struct.pack("<IQ", *entry) for entry in index[tag])
    segments = stream.segments if segments is None else segments
    out += struct.pack("<I", len(segments))
    out += b"".join(struct.pack("<II", *seg) for seg in segments)
    return bytes(out + struct.pack("<QQ4s", *offsets, b"FBIX"))


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_streams_survive_the_wire(self, seed):
        stream = _random_stream(np.random.default_rng(seed))
        data = write_stream(stream)
        back = read_stream(data)
        assert back.header == stream.header
        assert back.templates == stream.templates
        assert back.foregrounds == stream.foregrounds
        assert back.segments == stream.segments

    def test_serialization_is_canonical(self):
        stream = _simple_stream()
        a = write_stream(stream)
        b = write_stream(read_stream(a))
        assert a == b

    def test_empty_payloads_allowed(self):
        stream = FbvStream(
            _header(frame_count=2),
            (TemplateRecord(0, True, b""),),
            (ForegroundRecord(1, (Region(0, 0, 8, 8),), b"", b""),))
        back = read_stream(write_stream(stream))
        assert back.templates[0].residual == b""
        assert back.foregrounds[0].flow == b""


class TestHeaderValidation:
    def test_dimension_bounds(self):
        with pytest.raises(ContainerError, match="invalid frame dimensions"):
            _header(width=8)

    def test_frame_count_positive(self):
        with pytest.raises(ContainerError, match="frame_count"):
            _header(frame_count=0)

    def test_level_range(self):
        with pytest.raises(ContainerError, match="invalid level count"):
            _header(levels=13)

    def test_quantizer_step_positive(self):
        with pytest.raises(ContainerError, match="invalid quantizer step"):
            _header(delta_fp=0)

    def test_gamma_range(self):
        with pytest.raises(ContainerError, match="invalid update threshold"):
            _header(gamma_fp=10000)

    def test_decoded_quality_point(self):
        h = _header(levels=4, delta_fp=1024, gamma_fp=9800)
        assert h.quality == QualityPoint(4.0, 4)
        assert h.gamma == pytest.approx(0.98)


class TestStreamValidation:
    def test_no_templates(self):
        s = FbvStream(_header(1), (), ())
        with pytest.raises(ContainerError, match="no background template"):
            write_stream(s)

    def test_first_template_not_anchor(self):
        s = FbvStream(_header(1), (TemplateRecord(0, False, b""),), ())
        with pytest.raises(ContainerError, match="first template must be an anchor"):
            write_stream(s)

    def test_template_frames_strictly_increase(self):
        s = FbvStream(_header(5),
                      (TemplateRecord(2, True, b""), TemplateRecord(2, False, b"")), ())
        with pytest.raises(ContainerError, match="increase strictly"):
            write_stream(s)

    def test_template_frame_out_of_range(self):
        s = FbvStream(_header(5), (TemplateRecord(5, True, b""),), ())
        with pytest.raises(ContainerError, match="out of range"):
            write_stream(s)

    def test_foreground_without_regions(self):
        s = FbvStream(_header(2), (TemplateRecord(0, True, b""),),
                      (ForegroundRecord(1, (), b"", b""),))
        with pytest.raises(ContainerError, match="no regions is illegal"):
            write_stream(s)

    def test_overlapping_regions_in_record(self):
        s = FbvStream(
            _header(2), (TemplateRecord(0, True, b""),),
            (ForegroundRecord(1, (Region(0, 0, 16, 16), Region(8, 8, 16, 16)),
                              b"", b""),))
        with pytest.raises(ContainerError, match="invalid region list"):
            write_stream(s)


def _anchor_only(side, payload=b""):
    """A one-frame stream of side x side frames whose anchor payload is payload."""
    return write_stream(FbvStream(_header(1, width=side, height=side),
                                  (TemplateRecord(0, True, payload),), ()))


def _capped(argv, stdin=b""):
    """Run argv with fbv importable and its address space capped at 3 GiB."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run(argv, input=stdin, capture_output=True, env=env,
                          preexec_fn=cap, timeout=120)


class TestWireErrors:
    def test_huge_claimed_frame_count_costs_only_the_input(self):
        # under 100 bytes, yet the header claims 4 M frames; the last
        # segment ends one frame short, so the stream is not canonical
        n = 4_000_000
        data = bytearray(write_stream(FbvStream(
            _header(n), (TemplateRecord(0, True, b""),), ())))
        assert len(data) < 100
        struct.pack_into("<I", data, len(data) - 20 - 4, n - 2)
        tracemalloc.start()
        try:
            t0 = time.process_time()
            with pytest.raises(ContainerError, match="not in canonical form"):
                read_stream(bytes(data))
            elapsed = time.process_time() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("side", [2048, 65535])
    def test_huge_claimed_frame_size_costs_only_the_input(self, side, tmp_path):
        # 89 bytes: one anchor template with an empty payload, yet the header
        # claims side x side frames. The anchor's prediction is one value, so
        # the decode fails on the payload before allocating a frame.
        data = _anchor_only(side)
        assert len(data) == 89
        # a regression would allocate GiBs at 65535: the decode runs in a child
        # whose address space is capped, and measures itself there
        probe = ("import sys, tracemalloc; from fbv.pipeline import decode_bytes\n"
                 "from fbv.entropy import EntropyDecodeError\n"
                 "data = sys.stdin.buffer.read(); tracemalloc.start()\n"
                 "try:\n    decode_bytes(data)\n"
                 "except EntropyDecodeError:\n"
                 "    print(tracemalloc.get_traced_memory()[1])\n")
        run = _capped([sys.executable, "-c", probe], data)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 4 * 2 ** 20
        src, out = tmp_path / "huge.fbv", tmp_path / "huge.y4m"
        src.write_bytes(data)
        run = _capped([sys.executable, "-m", "fbv.cli", "decode", "-i", str(src), "-o", str(out)])
        assert run.returncode == 3, run.stderr
        assert b"payload shorter than coder preamble" in run.stderr
        assert list(tmp_path.iterdir()) == [src]

    @pytest.mark.parametrize("coder", ["default", "python"])
    @pytest.mark.parametrize("side", [2048, 65535])
    def test_huge_claimed_frame_size_with_a_payload_costs_only_the_input(self, side, coder,
                                                                         tmp_path):
        # 94 bytes: the anchor payload is 5 zero bytes, which pass the coder's
        # preamble check, so the levels decode starts; its output grows with the
        # blocks it decodes, not with the side x side the header claims. Both
        # coders, the compiled one (where it loads) and the Python one.
        data = _anchor_only(side, bytes(5))
        assert len(data) == 94
        setup = "import sys, fbv.residual\n" + (
            "fbv.residual._rc = None\n" if coder == "python" else "")
        probe = setup + ("import tracemalloc; from fbv.pipeline import decode_bytes\n"
                         "from fbv.entropy import EntropyDecodeError\n"
                         "data = sys.stdin.buffer.read(); tracemalloc.start()\n"
                         "try:\n    decode_bytes(data)\n"
                         "except EntropyDecodeError:\n"
                         "    print(tracemalloc.get_traced_memory()[1])\n")
        run = _capped([sys.executable, "-c", probe], data)
        assert run.returncode == 0, run.stderr
        assert int(run.stdout) < 4 * 2 ** 20
        src, out = tmp_path / "huge.fbv", tmp_path / "huge.y4m"
        src.write_bytes(data)
        cli = setup + "from fbv.cli import main\nraise SystemExit(main(sys.argv[1:]))\n"
        run = _capped([sys.executable, "-c", cli, "decode", "-i", str(src), "-o", str(out)])
        assert run.returncode == 3, run.stderr
        assert b"payload truncated mid-symbol" in run.stderr
        assert list(tmp_path.iterdir()) == [src]

    def test_bad_magic(self):
        with pytest.raises(ContainerError, match="bad magic"):
            read_stream(b"YUV4MPEG2 " + b"\x00" * 60)

    def test_unsupported_version(self):
        data = bytearray(write_stream(_simple_stream()))
        data[4] = 2
        with pytest.raises(ContainerError, match="unsupported version 2"):
            read_stream(bytes(data))

    def test_bad_footer_magic(self):
        data = bytearray(write_stream(_simple_stream()))
        data[-1] ^= 0xFF
        with pytest.raises(ContainerError, match="bad index footer"):
            read_stream(bytes(data))

    def test_unknown_record_tag(self):
        data = bytearray(write_stream(_simple_stream()))
        data[23] = 0x07    # first record tag right after preamble + header
        with pytest.raises(ContainerError, match="unknown record tag"):
            read_stream(bytes(data))

    def test_index_offset_mismatch(self):
        data = bytearray(write_stream(_simple_stream()))
        bg_off, _, _ = struct.unpack_from("<QQ4s", data, len(data) - 20)
        # corrupt the offset field of the first background index entry
        data[bg_off + 4 + 4] ^= 0x01
        with pytest.raises(ContainerError, match="not in canonical form"):
            read_stream(bytes(data))

    def test_split_segment_rejected(self):
        # one background run written as two adjacent segments: valid, not canonical
        stream = FbvStream(_header(10), (TemplateRecord(0, True, b"ab"),), ())
        assert stream.segments == ((0, 9),)
        assert _assemble(stream, stream.templates) == write_stream(stream)
        data = _assemble(stream, stream.templates, segments=((0, 4), (5, 9)))
        with pytest.raises(ContainerError, match="not in canonical form"):
            read_stream(data)

    def test_records_out_of_frame_order_rejected(self):
        stream = _simple_stream(frame_count=10, t_frames=(0, 5), fg_frames=(2,))
        (t0, t5), (f2,) = stream.templates, stream.foregrounds
        # the assembler reproduces the writer in canonical order, so its
        # indexes, segments and footer are consistent with any order it is given
        assert _assemble(stream, (t0, f2, t5)) == write_stream(stream)
        with pytest.raises(ContainerError, match="not in canonical form"):
            read_stream(_assemble(stream, (t0, t5, f2)))

    def test_every_prefix_truncation_is_caught(self):
        data = write_stream(_simple_stream(frame_count=6, t_frames=(0,),
                                           fg_frames=(2,), seed=3))
        for cut in range(len(data)):
            with pytest.raises(ContainerError):
                read_stream(data[:cut])

    @pytest.mark.parametrize("seed", range(8))
    def test_byte_corruption_never_silent(self, seed):
        stream = _simple_stream(seed=seed)
        data = write_stream(stream)
        rng = np.random.default_rng(300 + seed)
        for _ in range(40):
            pos = int(rng.integers(0, len(data)))
            bit = 1 << int(rng.integers(0, 8))
            corrupted = bytearray(data)
            corrupted[pos] ^= bit
            try:
                back = read_stream(bytes(corrupted))
            except ContainerError:
                continue
            assert back != stream, f"silent corruption at byte {pos}"


class TestSegments:
    def test_no_foreground_is_one_segment(self):
        assert build_segments(10, ()) == ((0, 9),)

    def test_all_foreground_is_no_segment(self):
        assert build_segments(3, (0, 1, 2)) == ()

    def test_runs_split_correctly(self):
        assert build_segments(10, (0, 4, 5, 9)) == ((1, 3), (6, 8))


class TestLookup:
    """How the decoder locates a frame's records in a stream's indexes."""

    @pytest.fixture()
    def stream(self):
        rng = np.random.default_rng(1)
        templates = (TemplateRecord(100, True, _bytes(rng, 10)),
                     TemplateRecord(140, False, _bytes(rng, 10)),
                     TemplateRecord(180, True, _bytes(rng, 10)))
        fgs = (ForegroundRecord(120, (Region(0, 0, 8, 8),),
                                _bytes(rng, 4), _bytes(rng, 6)),)
        return read_stream(write_stream(FbvStream(
            _header(frame_count=200), templates, fgs)))

    def test_between_templates(self, stream):
        tframes = [t.frame_no for t in stream.templates]
        i, k = _bracket(tframes, 120)
        assert (tframes[i], tframes[k]) == (100, 140)
        assert (tframes[k] - tframes[i], tframes[k] - 120) == (40, 20)
        assert [f.frame_no for f in stream.foregrounds] == [120]
        assert stream.segments == ((0, 119), (121, 199))

    def test_out_of_range(self, stream):
        with pytest.raises(ContainerError, match="out of range"):
            decode_frame(stream, -1)
        with pytest.raises(ContainerError, match="out of range"):
            decode_frame(stream, 200)


class TestBudget:
    def test_totals_count_payload_bits(self):
        stream = _simple_stream()
        budget = budget_of(stream)
        assert budget.bits_bg_residual == 8 * sum(len(t.residual)
                                                  for t in stream.templates)
        assert budget.bits_fg_residual == 8 * sum(len(f.residual)
                                                  for f in stream.foregrounds)
        assert budget.bits_fg_motion == 8 * sum(len(f.flow)
                                                for f in stream.foregrounds)
