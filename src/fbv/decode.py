"""Coarse-to-fine frame assembly: composite, then boundary feathering.

Stage one pastes the reconstructed foreground over the interpolated
background through the region mask. Stage two softens the rectangular
seams: every pixel outside the mask within Chebyshev distance D <= BAND of
some region is replaced by a blend of its nearest inside value f and an
outside anchor value g sampled BAND+1 pixels out,

    out = floor(((BAND+1-D) * f + D * g) / (BAND+1) + 1/2)

(the blend rounded half up), so the values ramp linearly from
nearly-foreground at the region edge down to the untouched surround. Pixels
inside the mask and pixels farther than BAND are never modified, and the
blend sources (inside pixels, anchors at distance BAND+1) are themselves
unmodified, which makes the filter idempotent away from frame borders. The enhancer runs decoder-side only;
prediction references the pre-enhancement reconstruction.
"""

from __future__ import annotations

import numpy as np

from .core import Frame, RegionSet

BAND = 3      # feathering width in pixels outside each region edge


def composite(fg: Frame, bg: Frame, mask: np.ndarray) -> Frame:
    """Per-pixel select: mask ? fg : bg."""
    if fg.planes.shape != bg.planes.shape:
        raise ValueError("foreground and background dimensions differ")
    if mask.shape != fg.planes.shape[1:]:
        raise ValueError("mask does not match frame dimensions")
    planes = np.where(mask[None], fg.planes, bg.planes)
    return Frame(planes, bg.frame_index)


def _chebyshev_to_rect(region, height: int, width: int):
    """Distance map and window slice for pixels within BAND of one rectangle."""
    y1 = max(region.y - BAND, 0)
    y2 = min(region.y2 + BAND, height)
    x1 = max(region.x - BAND, 0)
    x2 = min(region.x2 + BAND, width)
    yy, xx = np.mgrid[y1:y2, x1:x2]
    dy = np.maximum(np.maximum(region.y - yy, yy - (region.y2 - 1)), 0)
    dx = np.maximum(np.maximum(region.x - xx, xx - (region.x2 - 1)), 0)
    return np.maximum(dy, dx), (slice(y1, y2), slice(x1, x2))


def enhance(image: Frame, regions: RegionSet) -> Frame:
    """Feather the outside of every region edge over a BAND-wide ramp."""
    if not regions.regions:
        return image
    h, w = image.height, image.width
    dist = np.full((h, w), BAND + 1, dtype=np.int64)
    owner = np.full((h, w), -1, dtype=np.int64)
    for i, region in enumerate(regions.regions):
        d, window = _chebyshev_to_rect(region, h, w)
        better = d < dist[window]
        dist[window] = np.where(better, d, dist[window])
        owner[window] = np.where(better, i, owner[window])

    ys, xs = np.nonzero((dist >= 1) & (dist <= BAND))
    if ys.size == 0:
        return image
    src = image.planes.astype(np.int64)
    out = src.copy()
    d = dist[ys, xs]
    for i, region in enumerate(regions.regions):
        sel = owner[ys, xs] == i
        if not sel.any():
            continue
        py, px, pd = ys[sel], xs[sel], d[sel]
        ny = np.clip(py, region.y, region.y2 - 1)
        nx = np.clip(px, region.x, region.x2 - 1)
        ay = np.clip(ny + (BAND + 1) * np.sign(py - ny), 0, h - 1)
        ax = np.clip(nx + (BAND + 1) * np.sign(px - nx), 0, w - 1)
        lam = BAND + 1 - pd
        for ch in range(3):
            f = src[ch, ny, nx]
            g = src[ch, ay, ax]
            num = lam * f + pd * g
            out[ch, py, px] = (2 * num + (BAND + 1)) // (2 * (BAND + 1))
    return Frame(np.clip(out, 0, 255).astype(np.uint8), image.frame_index)
