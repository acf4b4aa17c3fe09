"""Per-image quality and rate metrics: PSNR, MS-SSIM, the fg/bg mixture, sharpness, bpp.

PSNR is computed over all three channels and capped at 99 dB for identical
inputs. MS-SSIM runs on luma with the standard 5-scale exponents, an 11x11
Gaussian window (sigma 1.5) and stabilizers C1=(0.01*255)^2, C2=(0.03*255)^2;
inputs too small for all five scales use a truncated scale list with the
exponents renormalized to sum to one. The luminance term participates at
every scale (not only the coarsest), which keeps the score sensitive to
global intensity drift; the template-update gate depends on that
sensitivity to notice brightness changes of a few dozen codes.

MS-SSIM is split into a reference side and a scoring side. The reference
side (ms_ssim_reference) holds the first image's per-scale luma, filtered
mean and variance; ms_ssim(a, b) scores b against the reference of a, and a
may be a prepared reference, so the gate filters each template once rather
than once per frame. Every float operation runs in the same order either
way, so a prepared reference gives the same score to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d

from .core import Frame

PSNR_CAP_DB = 99.0

MS_SSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2
_WIN_SIZE = 11


def _as_planes(a) -> np.ndarray:
    if isinstance(a, Frame):
        return a.planes
    arr = np.asarray(a)
    if arr.ndim == 2:
        return arr[None, :, :]
    return arr


def _as_luma(a) -> np.ndarray:
    if isinstance(a, Frame):
        return a.planes[0]
    arr = np.asarray(a)
    if arr.ndim == 3:
        return arr[0]
    return arr


def psnr(a, b) -> float:
    """10*log10(255^2 / MSE) over all channels, capped at PSNR_CAP_DB."""
    pa, pb = _as_planes(a), _as_planes(b)
    if pa.shape != pb.shape:
        raise ValueError(f"dimension mismatch: {pa.shape} vs {pb.shape}")
    diff = pa.astype(np.float64) - pb.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse <= 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, 10.0 * np.log10(255.0 ** 2 / mse))


_HALF = _WIN_SIZE // 2
_GAUSS = np.exp(-np.arange(-_HALF, _HALF + 1) ** 2 / (2.0 * 1.5 ** 2))
_GAUSS /= _GAUSS.sum()


def _filter_valid(img: np.ndarray) -> np.ndarray:
    # the window is separable; the zero padding only reaches the border the crop drops
    out = correlate1d(img, _GAUSS, axis=0, mode="constant")
    out = correlate1d(out, _GAUSS, axis=1, mode="constant")
    return out[_HALF:img.shape[0] - _HALF, _HALF:img.shape[1] - _HALF]


def _downsample2(img: np.ndarray) -> np.ndarray:
    h, w = img.shape
    img = img[: h - (h % 2), : w - (w % 2)]
    return (img[0::2, 0::2] + img[0::2, 1::2] + img[1::2, 0::2] + img[1::2, 1::2]) / 4.0


@dataclass(frozen=True)
class SsimReference:
    """The reference side of MS-SSIM: per scale, the luma, its filtered mean
    and its variance, for scoring many images against one."""

    shape: tuple[int, int]
    weights: tuple[float, ...]
    scales: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]   # (x, mu_x, var_x)


def ms_ssim_reference(a) -> SsimReference:
    """Prepare a (a Frame or array) as the first argument of ms_ssim."""
    x = _as_luma(a).astype(np.float64)
    shape = x.shape
    # keep only scales where the window still fits after repeated halving
    weights = [w for s, w in enumerate(MS_SSIM_WEIGHTS)
               if min(shape) // (2 ** s) >= _WIN_SIZE]
    if not weights:
        raise ValueError(f"frame too small for MS-SSIM: {shape}")
    if len(weights) < len(MS_SSIM_WEIGHTS):
        total = sum(weights)
        weights = [w / total for w in weights]
    scales = []
    for s in range(len(weights)):
        if s:
            x = _downsample2(x)
        mu_x = _filter_valid(x)
        scales.append((x, mu_x, _filter_valid(x * x) - mu_x * mu_x))
    return SsimReference(shape, tuple(weights), tuple(scales))


def ms_ssim(a, b) -> float:
    """Multiscale structural similarity of b against a on luma, in [0, 1].

    a may be an SsimReference from ms_ssim_reference, so one reference is
    filtered once however many images are scored against it.
    """
    ref = a if isinstance(a, SsimReference) else ms_ssim_reference(a)
    y = _as_luma(b).astype(np.float64)
    if ref.shape != y.shape:
        raise ValueError(f"dimension mismatch: {ref.shape} vs {y.shape}")
    value = 1.0
    for s, ((x, mu_x, var_x), weight) in enumerate(zip(ref.scales, ref.weights)):
        if s:
            y = _downsample2(y)
        mu_y = _filter_valid(y)
        var_y = _filter_valid(y * y) - mu_y * mu_y
        cov = _filter_valid(x * y) - mu_x * mu_y
        lum = (2.0 * mu_x * mu_y + _C1) / (mu_x * mu_x + mu_y * mu_y + _C1)
        cs = (2.0 * cov + _C2) / (var_x + var_y + _C2)
        value *= max(float(np.mean(lum)) * float(np.mean(cs)), 0.0) ** weight
    return float(min(max(value, 0.0), 1.0))


def fb_mixture(m_f: float, m_b: float, r_f: float, r_b: float) -> float:
    """Cross-weighted mixture r_b*M_f + r_f*M_b of the two region scores."""
    if r_f < 0 or r_b < 0 or abs(r_f + r_b - 1.0) > 1e-9:
        raise ValueError("area ratios must be nonnegative and sum to 1")
    return r_b * m_f + r_f * m_b


def laplacian_sharpness(frame) -> float:
    """Variance of the 3x3 Laplacian response over interior luma pixels."""
    luma = _as_luma(frame).astype(np.float64)
    if luma.shape[0] < 3 or luma.shape[1] < 3:
        return 0.0
    # kernel [[0, 1, 0], [1, -4, 1], [0, 1, 0]]; integer-valued inputs keep every sum exact
    resp = (luma[:-2, 1:-1] + luma[2:, 1:-1] + luma[1:-1, :-2] + luma[1:-1, 2:]
            - 4 * luma[1:-1, 1:-1])
    return float(np.var(resp))


def bpp(total_bytes: int, width: int, height: int, frame_count: int) -> float:
    """8 * container bytes (headers and indexes included) per pixel per frame."""
    if frame_count <= 0:
        raise ValueError("frame_count must be positive")
    return 8.0 * total_bytes / (width * height * frame_count)
