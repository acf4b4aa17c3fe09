"""Indexed bitstream: records, retrieval indexes, and the wire format.

All integers are little-endian. Layout:

    magic "FBVC", version u8 = 1
    header  {width u16, height u16, fps_num u16, fps_den u16,
             frame_count u32, levels u8, delta_q u16 (8.8 fixed point),
             gamma u16 (x 10^4), flags u8}
    records, each {tag u8, frame_no u32, payload_len u32, payload}
        tag 0x01 template payload: {anchor u8, residual_len u32, residual}
        tag 0x02 foreground payload: {region_count u16,
             per region {x u16, y u16, w u16, h u16},
             flow_len u32, flow bytes, residual_len u32, residual bytes}
    background index: count u32 + {frame_no u32, offset u64} ...
    foreground index: count u32 + {frame_no u32, offset u64} ...
    segment list:    count u32 + {start u32, end u32} ... (inclusive ranges)
    footer {bg_index_offset u64, fg_index_offset u64, magic "FBIX"}

Offsets address the record's tag byte from the start of the stream. Every
frame number below frame_count appears either in the foreground index or in
exactly one non-foreground segment, never both; an empty-region foreground
record is illegal (such frames belong in a segment instead). Templates chain
by residual prediction; records flagged as anchors restart the chain, so a
seek decodes only the templates from the nearest anchor at or before the
bracketing pair.

Every stream has exactly one valid byte form, the one write_stream gives:
records sorted by (frame_no, kind) with templates first, anchor flags 0 or 1,
payload lengths that match their bodies, both indexes in record order, the
segments that build_segments derives from the foreground frames, and nothing
between the segment list and the footer. read_stream parses the header, the
records and the footer's bg_index_offset, and accepts the input only if
writing the parsed stream gives the same bytes back; the indexes and the
segment list are written for readers that seek by offset and are checked by
that comparison, not parsed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .core import FbvError, MIN_DIM, Region, RegionSet
from .entropy import BitBudgetReport
from .residual import QualityPoint

MAGIC = b"FBVC"
FOOTER_MAGIC = b"FBIX"
VERSION = 1
TAG_TEMPLATE = 0x01
TAG_FOREGROUND = 0x02
GAMMA_SCALE = 10_000      # the header's gamma is gamma_fp / GAMMA_SCALE

_PREAMBLE = struct.Struct("<4sB")
_HEADER = struct.Struct("<HHHHIBHHB")
_RECORD_HEAD = struct.Struct("<BII")
_TEMPLATE_HEAD = struct.Struct("<BI")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_REGION = struct.Struct("<HHHH")
_INDEX_ENTRY = struct.Struct("<IQ")
_SEGMENT = struct.Struct("<II")
_FOOTER = struct.Struct("<QQ4s")


class ContainerError(FbvError):
    pass


@dataclass(frozen=True)
class StreamHeader:
    width: int
    height: int
    fps_num: int
    fps_den: int
    frame_count: int
    levels: int
    delta_fp: int          # quantizer step x 256
    gamma_fp: int          # update threshold x GAMMA_SCALE
    flags: int = 0

    def __post_init__(self) -> None:
        if not (MIN_DIM <= self.width <= 0xFFFF and MIN_DIM <= self.height <= 0xFFFF):
            raise ContainerError("invalid frame dimensions")
        if not (1 <= self.fps_num <= 0xFFFF and 1 <= self.fps_den <= 0xFFFF):
            raise ContainerError("invalid frame rate")
        if not (1 <= self.frame_count <= 0xFFFFFFFF):
            raise ContainerError("frame_count must be positive")
        if not (1 <= self.levels <= 12):
            raise ContainerError("invalid level count")
        if not (1 <= self.delta_fp <= 0xFFFF):
            raise ContainerError("invalid quantizer step")
        if not (0 < self.gamma_fp < GAMMA_SCALE):
            raise ContainerError("invalid update threshold")
        if not (0 <= self.flags <= 0xFF):
            raise ContainerError("invalid flags")

    @property
    def quality(self) -> QualityPoint:
        return QualityPoint(self.delta_fp / 256.0, self.levels)

    @property
    def gamma(self) -> float:
        return self.gamma_fp / GAMMA_SCALE


@dataclass(frozen=True)
class TemplateRecord:
    frame_no: int
    anchor: bool
    residual: bytes


@dataclass(frozen=True)
class ForegroundRecord:
    frame_no: int
    regions: tuple[Region, ...]
    flow: bytes
    residual: bytes


@dataclass(frozen=True)
class FbvStream:
    header: StreamHeader
    templates: tuple[TemplateRecord, ...]
    foregrounds: tuple[ForegroundRecord, ...]

    @property
    def segments(self) -> tuple[tuple[int, int], ...]:
        """The non-foreground runs, worked out from the foreground records."""
        return build_segments(self.header.frame_count, (f.frame_no for f in self.foregrounds))

    def validate(self) -> None:
        h = self.header
        if not self.templates:
            raise ContainerError("stream carries no background template")
        if not self.templates[0].anchor:
            raise ContainerError("first template must be an anchor")
        last = -1
        for t in self.templates:
            if not (0 <= t.frame_no < h.frame_count):
                raise ContainerError("template frame number out of range")
            if t.frame_no <= last:
                raise ContainerError("template frame numbers must increase strictly")
            last = t.frame_no
        last = -1
        for f in self.foregrounds:
            if not (0 <= f.frame_no < h.frame_count):
                raise ContainerError("foreground frame number out of range")
            if f.frame_no <= last:
                raise ContainerError("foreground frame numbers must increase strictly")
            last = f.frame_no
            if not f.regions:
                raise ContainerError("foreground record with no regions is illegal")
            try:
                RegionSet(f.regions, h.height, h.width)
            except ValueError as e:
                raise ContainerError(f"invalid region list: {e}") from e


def build_segments(frame_count: int, fg_frames) -> tuple[tuple[int, int], ...]:
    """Canonical non-foreground segments: maximal runs of frames below frame_count
    that are not foreground. The walk is over the sorted foreground frames, so
    its cost follows their count, never frame_count."""
    segments = []
    start = 0
    for t in sorted(set(fg_frames)):
        if start < t:
            segments.append((start, t - 1))
        start = t + 1
    if start < frame_count:
        segments.append((start, frame_count - 1))
    return tuple(segments)


def template_payload(t: TemplateRecord) -> bytes:
    return _TEMPLATE_HEAD.pack(1 if t.anchor else 0, len(t.residual)) + t.residual


def foreground_payload(f: ForegroundRecord) -> bytes:
    parts = [_U16.pack(len(f.regions))]
    for r in f.regions:
        parts.append(_REGION.pack(r.x, r.y, r.w, r.h))
    parts.append(_U32.pack(len(f.flow)))
    parts.append(f.flow)
    parts.append(_U32.pack(len(f.residual)))
    parts.append(f.residual)
    return b"".join(parts)


def write_stream(stream: FbvStream) -> bytes:
    """Serialize to the wire format, computing both indexes and the footer."""
    stream.validate()
    h = stream.header
    out = bytearray()
    out += _PREAMBLE.pack(MAGIC, VERSION)
    out += _HEADER.pack(h.width, h.height, h.fps_num, h.fps_den, h.frame_count,
                        h.levels, h.delta_fp, h.gamma_fp, h.flags)

    records = [(t.frame_no, 0, TAG_TEMPLATE, template_payload(t)) for t in stream.templates]
    records += [(f.frame_no, 1, TAG_FOREGROUND, foreground_payload(f)) for f in stream.foregrounds]
    records.sort(key=lambda r: (r[0], r[1]))

    bg_index: list[tuple[int, int]] = []
    fg_index: list[tuple[int, int]] = []
    for frame_no, _, tag, payload in records:
        offset = len(out)
        (bg_index if tag == TAG_TEMPLATE else fg_index).append((frame_no, offset))
        out += _RECORD_HEAD.pack(tag, frame_no, len(payload))
        out += payload

    bg_index_offset = len(out)
    out += _U32.pack(len(bg_index))
    for frame_no, offset in bg_index:
        out += _INDEX_ENTRY.pack(frame_no, offset)
    fg_index_offset = len(out)
    out += _U32.pack(len(fg_index))
    for frame_no, offset in fg_index:
        out += _INDEX_ENTRY.pack(frame_no, offset)
    out += _U32.pack(len(stream.segments))
    for start, end in stream.segments:
        out += _SEGMENT.pack(start, end)
    out += _FOOTER.pack(bg_index_offset, fg_index_offset, FOOTER_MAGIC)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise ContainerError(f"truncated stream while reading {what}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, st: struct.Struct, what: str):
        return st.unpack(self.take(st.size, what))


def _parse_template_payload(payload: bytes, frame_no: int) -> TemplateRecord:
    r = _Reader(payload)
    anchor, _ = r.unpack(_TEMPLATE_HEAD, "template header")
    return TemplateRecord(frame_no, bool(anchor), payload[r.pos:])


def _parse_foreground_payload(payload: bytes, frame_no: int) -> ForegroundRecord:
    r = _Reader(payload)
    (count,) = r.unpack(_U16, "region count")
    regions = []
    for _ in range(count):
        x, y, w, h = r.unpack(_REGION, "region")
        try:
            regions.append(Region(x, y, w, h))
        except ValueError as e:
            raise ContainerError(f"invalid region: {e}") from e
    (flow_len,) = r.unpack(_U32, "flow length")
    flow = r.take(flow_len, "flow payload")
    (res_len,) = r.unpack(_U32, "residual length")
    residual = r.take(res_len, "residual payload")
    return ForegroundRecord(frame_no, tuple(regions), flow, residual)


def read_stream(data: bytes) -> FbvStream:
    """Parse a wire-format stream; only the bytes write_stream gives back are
    accepted (the canonical form, see the module docstring)."""
    if len(data) < _PREAMBLE.size + _HEADER.size + _FOOTER.size:
        raise ContainerError("truncated stream: too short for header and footer")
    magic, version = _PREAMBLE.unpack_from(data)
    if magic != MAGIC:
        raise ContainerError("bad magic: not an fbv stream")
    if version != VERSION:
        raise ContainerError(f"unsupported version {version}")
    header = StreamHeader(*_HEADER.unpack_from(data, _PREAMBLE.size))

    records_end, _, footer_magic = _FOOTER.unpack_from(data, len(data) - _FOOTER.size)
    if footer_magic != FOOTER_MAGIC:
        raise ContainerError("bad index footer")
    if not (_PREAMBLE.size + _HEADER.size <= records_end <= len(data) - _FOOTER.size):
        raise ContainerError("bad index footer: offsets out of bounds")

    r = _Reader(data)
    r.pos = _PREAMBLE.size + _HEADER.size
    templates: list[TemplateRecord] = []
    foregrounds: list[ForegroundRecord] = []
    while r.pos < records_end:
        tag, frame_no, payload_len = r.unpack(_RECORD_HEAD, "record header")
        payload = r.take(payload_len, "record payload")
        if tag == TAG_TEMPLATE:
            templates.append(_parse_template_payload(payload, frame_no))
        elif tag == TAG_FOREGROUND:
            foregrounds.append(_parse_foreground_payload(payload, frame_no))
        else:
            raise ContainerError(f"unknown record tag 0x{tag:02x}")

    stream = FbvStream(header, tuple(templates), tuple(foregrounds))
    if write_stream(stream) != data:
        raise ContainerError("stream is not in canonical form: "
                             "its bytes differ from the re-encoded records")
    return stream


def budget_of(stream: FbvStream) -> BitBudgetReport:
    """Entropy-payload bit totals by component (wrapper bytes excluded)."""
    return BitBudgetReport(
        bits_bg_residual=sum(8 * len(t.residual) for t in stream.templates),
        bits_fg_residual=sum(8 * len(f.residual) for f in stream.foregrounds),
        bits_fg_motion=sum(8 * len(f.flow) for f in stream.foregrounds))
