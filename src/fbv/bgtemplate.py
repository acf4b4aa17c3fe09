"""Background template chain: gated updates, residual coding, interpolation.

A new template is admitted when the luma MS-SSIM between the current
template and the candidate background drops below the updating threshold
gamma (default 0.98). Templates are residual-coded against the previous
reconstructed template; the first template (and periodic anchors) code
against a constant mid-gray 128 plane so the dependency chain can be
re-entered without replaying the whole stream. Template coding always uses
a fine fixed quality point: background fidelity is prioritized over rate
because every interpolated frame inherits the template's errors.

Backgrounds between two templates are never coded. Both sides recompute
them by per-pixel linear interpolation

    value = prev + (next - prev) * k / m,   k = 1 .. m-1

with round-half-up, evaluated in exact integer arithmetic, so encoder and
decoder agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Frame, FbvError
from .residual import QualityPoint, decode_residual, encode_residual

TEMPLATE_QUALITY = QualityPoint(1.0, 6)
ANCHOR_VALUE = 128
DEFAULT_GAMMA = 0.98
ANCHOR_INTERVAL = 16


@dataclass(frozen=True)
class BackgroundTemplate:
    """One stored template: reconstructed image plus its coded payload."""

    frame_index: int
    image: Frame
    payload: bytes
    anchor: bool


def _base_planes(prev: BackgroundTemplate | None, shape: tuple[int, ...]) -> np.ndarray:
    if prev is None:
        return np.full(shape, ANCHOR_VALUE, dtype=np.int64)
    return prev.image.planes.astype(np.int64)


def _reconstruct(prev: BackgroundTemplate | None, base: np.ndarray, decoded: np.ndarray,
                 payload: bytes, frame_index: int) -> BackgroundTemplate:
    rec = np.clip(base + decoded, 0, 255).astype(np.uint8)
    return BackgroundTemplate(frame_index=frame_index, image=Frame(rec, frame_index),
                              payload=payload, anchor=prev is None)


def encode_template(prev: BackgroundTemplate | None, candidate: Frame) -> BackgroundTemplate:
    """Code candidate against prev (or the mid-gray anchor when prev is None)."""
    base = _base_planes(prev, candidate.planes.shape)
    residual = candidate.planes.astype(np.int64) - base
    payload, (decoded,) = encode_residual([residual], TEMPLATE_QUALITY)
    return _reconstruct(prev, base, decoded, payload, candidate.frame_index)


def decode_template(prev: BackgroundTemplate | None, payload: bytes,
                    frame_index: int, height: int, width: int) -> BackgroundTemplate:
    """Decoder mirror of encode_template; bit-identical reconstruction."""
    base = _base_planes(prev, (3, height, width))
    (decoded,) = decode_residual(payload, [(height, width)], TEMPLATE_QUALITY)
    return _reconstruct(prev, base, decoded, payload, frame_index)


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
    """Ordered templates plus the gate threshold that grew the chain."""

    gamma: float = DEFAULT_GAMMA
    anchor_interval: int = ANCHOR_INTERVAL
    templates: list[BackgroundTemplate] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must be in (0, 1)")
        if self.anchor_interval < 1:
            raise ValueError("anchor_interval must be >= 1")

    @property
    def current(self) -> BackgroundTemplate | None:
        return self.templates[-1] if self.templates else None

    def admit(self, candidate: Frame, score: float) -> BackgroundTemplate | None:
        """Gate the candidate by score, its MS-SSIM against the current template
        (an empty chain admits any); append and return a new template if admitted."""
        cur = self.current
        if cur is not None:
            if not score < self.gamma:
                return None
            if candidate.frame_index <= cur.frame_index:
                raise FbvError("template frame indices must increase strictly")
        use_anchor = len(self.templates) % self.anchor_interval == 0
        tmpl = encode_template(None if use_anchor else cur, candidate)
        self.templates.append(tmpl)
        return tmpl
