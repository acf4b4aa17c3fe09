"""Per-image quality and rate metrics: PSNR, MS-SSIM, the fg/bg mixture, sharpness, bpp.

PSNR is computed over all three channels and capped at 99 dB for identical
inputs. MS-SSIM runs on luma with the standard 5-scale exponents, an 11x11
Gaussian window (sigma 1.5) and stabilizers C1=(0.01*255)^2, C2=(0.03*255)^2;
inputs too small for all five scales use a truncated scale list with the
exponents renormalized to sum to one. The luminance term participates at
every scale (not only the coarsest), which keeps the score sensitive to
global intensity drift; the template-update gate depends on that
sensitivity to notice brightness changes of a few dozen codes.
"""

from __future__ import annotations

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


def _ssim_terms(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    mu_x = _filter_valid(x)
    mu_y = _filter_valid(y)
    var_x = _filter_valid(x * x) - mu_x * mu_x
    var_y = _filter_valid(y * y) - mu_y * mu_y
    cov = _filter_valid(x * y) - mu_x * mu_y
    lum = (2.0 * mu_x * mu_y + _C1) / (mu_x * mu_x + mu_y * mu_y + _C1)
    cs = (2.0 * cov + _C2) / (var_x + var_y + _C2)
    return float(np.mean(lum)), float(np.mean(cs))


def _downsample2(img: np.ndarray) -> np.ndarray:
    h, w = img.shape
    img = img[: h - (h % 2), : w - (w % 2)]
    return (img[0::2, 0::2] + img[0::2, 1::2] + img[1::2, 0::2] + img[1::2, 1::2]) / 4.0


def ms_ssim(a, b) -> float:
    """Multiscale structural similarity on luma, in [0, 1]."""
    x = _as_luma(a).astype(np.float64)
    y = _as_luma(b).astype(np.float64)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    # keep only scales where the window still fits after repeated halving
    scales = [w for s, w in enumerate(MS_SSIM_WEIGHTS)
              if min(x.shape) // (2 ** s) >= _WIN_SIZE]
    if not scales:
        raise ValueError(f"frame too small for MS-SSIM: {x.shape}")
    if len(scales) < len(MS_SSIM_WEIGHTS):
        total = sum(scales)
        scales = [w / total for w in scales]
    value = 1.0
    for s, weight in enumerate(scales):
        lum, cs = _ssim_terms(x, y)
        value *= max(lum * cs, 0.0) ** weight
        if s < len(scales) - 1:
            x = _downsample2(x)
            y = _downsample2(y)
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
