"""Background template chain: residual coding and interpolation.

The encoder's gate (pipeline.encode) admits a new template when the luma
MS-SSIM between the current template and the candidate background drops
below the updating threshold gamma (default 0.98). Templates are
residual-coded against the previous reconstructed template; the first
template (and periodic anchors) code against the constant mid-gray value
128, so the dependency chain can be re-entered without replaying the whole
stream. Both sides rebuild a template from its prediction and residual with
residual.add_residual, the rule that also rebuilds foreground regions.
Template coding always uses a fine fixed quality point: background fidelity
is prioritized over rate because every interpolated frame inherits the
template's errors.

Backgrounds between two templates are never coded. Both sides recompute
them by per-pixel linear interpolation

    value = prev + (next - prev) * k / m,   k = 1 .. m-1

with round-half-up, evaluated in exact integer arithmetic, so encoder and
decoder agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .container import TemplateRecord
from .core import Frame
from .residual import QualityPoint, add_residual, decode_residual, encode_residual

TEMPLATE_QUALITY = QualityPoint(1.0, 6)
ANCHOR_VALUE = 128
DEFAULT_GAMMA = 0.98
ANCHOR_INTERVAL = 16


def encode_template(prev: Frame | None, candidate: Frame) -> tuple[bytes, Frame]:
    """Code candidate against the previous template's image prev (the mid-gray
    anchor value when prev is None); returns the payload and the image both
    sides rebuild from it."""
    prediction = ANCHOR_VALUE if prev is None else prev.planes
    # formed in int64: uint8 planes minus the prediction would wrap
    residual = candidate.planes.astype(np.int64) - prediction
    payload, (decoded,) = encode_residual([residual], TEMPLATE_QUALITY)
    return payload, Frame(add_residual(prediction, decoded), candidate.frame_index)


def decode_template(prev: Frame | None, payload: bytes,
                    frame_index: int, height: int, width: int) -> Frame:
    """Decoder mirror of encode_template; bit-identical reconstruction."""
    prediction = ANCHOR_VALUE if prev is None else prev.planes
    (decoded,) = decode_residual(payload, [(height, width)], TEMPLATE_QUALITY)
    return Frame(add_residual(prediction, decoded), frame_index)


def interpolated_background(b_prev: Frame, b_next: Frame, m: int, j: int) -> Frame:
    """Single background at offset j templates back from b_next (j=0 -> b_next)."""
    if not (0 <= j <= m):
        raise ValueError("offset j must be in [0, m]")
    if j == 0:
        return b_next
    if j == m:
        return b_prev
    prev = b_prev.planes.astype(np.int64)
    delta = b_next.planes.astype(np.int64) - prev
    k = m - j
    planes = prev + (2 * delta * k + m) // (2 * m)
    return Frame(planes.astype(np.uint8), b_next.frame_index - j)


@dataclass
class TemplateChain:
    """The encoder's templates: the records the stream carries and the images
    both sides rebuild from them, one per record."""

    anchor_interval: int
    records: list[TemplateRecord] = field(default_factory=list)
    images: list[Frame] = field(default_factory=list)

    def admit(self, candidate: Frame) -> None:
        """Code candidate as the next template; every anchor_interval-th
        template (the first included) is an anchor, coded against mid-gray."""
        anchor = len(self.records) % self.anchor_interval == 0
        payload, image = encode_template(None if anchor else self.images[-1], candidate)
        self.records.append(TemplateRecord(candidate.frame_index, anchor, payload))
        self.images.append(image)
