"""Quality and rate metrics: PSNR, MS-SSIM, sharpness, bpp, rate-distortion.

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

import json
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import correlate1d
from scipy.signal import convolve2d

from .core import Frame
from .entropy import BitBudgetReport

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


_LAPLACIAN = np.array([[0, 1, 0], [1, -4, 1], [0, 1, 0]], dtype=np.float64)


def laplacian_sharpness(frame) -> float:
    """Variance of the 3x3 Laplacian response over interior luma pixels."""
    luma = _as_luma(frame).astype(np.float64)
    if luma.shape[0] < 3 or luma.shape[1] < 3:
        return 0.0
    resp = convolve2d(luma, _LAPLACIAN, mode="valid")
    return float(np.var(resp))


def _mse(a: np.ndarray, b: np.ndarray) -> float:
    d = a.astype(np.float64) - b.astype(np.float64)
    return float(np.mean(d * d))


def rd_objective(x, x_hat, f, f_hat, bits: BitBudgetReport,
                 alpha: float = 1.0, beta: float = 16.0, theta: float = 0.1,
                 mask: np.ndarray | None = None) -> float:
    """alpha*MSE(frame) + beta*MSE(foreground) + theta*(fg motion + residual bits).

    The foreground error is averaged over mask pixels only when a mask is
    given; an empty mask contributes zero.
    """
    px, pxh = _as_planes(x), _as_planes(x_hat)
    pf, pfh = _as_planes(f), _as_planes(f_hat)
    if px.shape != pxh.shape or pf.shape != pfh.shape:
        raise ValueError("geometry mismatch")
    full_term = _mse(px, pxh)
    if mask is None:
        fg_term = _mse(pf, pfh)
    elif not mask.any():
        fg_term = 0.0
    else:
        fg_term = _mse(pf[:, mask], pfh[:, mask])
    rate_term = float(bits.bits_fg_motion + bits.bits_fg_residual)
    return alpha * full_term + beta * fg_term + theta * rate_term


def bpp(total_bytes: int, width: int, height: int, frame_count: int) -> float:
    """8 * container bytes (headers and indexes included) per pixel per frame."""
    if frame_count <= 0:
        raise ValueError("frame_count must be positive")
    return 8.0 * total_bytes / (width * height * frame_count)


@dataclass(frozen=True)
class QualityReport:
    """Per-sequence quality summary produced by the encoder or analyzer."""

    psnr_per_frame: tuple[float, ...]
    ms_ssim_per_frame: tuple[float, ...]
    bpp: float
    fb_mixture: float
    sharpness: float
    rd_objective: float

    @property
    def psnr_mean(self) -> float:
        return float(np.mean(self.psnr_per_frame)) if self.psnr_per_frame else 0.0

    @property
    def ms_ssim_mean(self) -> float:
        return float(np.mean(self.ms_ssim_per_frame)) if self.ms_ssim_per_frame else 0.0


def quality_csv(report: QualityReport) -> str:
    """One row per frame plus summary rows; the CLI report file format."""
    lines = ["frame,psnr_db,ms_ssim"]
    for t, (p, s) in enumerate(zip(report.psnr_per_frame,
                                   report.ms_ssim_per_frame)):
        lines.append(f"{t},{p:.4f},{s:.6f}")
    lines.append(f"summary,bpp,{report.bpp:.6f}")
    lines.append(f"summary,fb_mixture,{report.fb_mixture:.6f}")
    lines.append(f"summary,sharpness,{report.sharpness:.4f}")
    lines.append(f"summary,rd_objective,{report.rd_objective:.4f}")
    return "\n".join(lines) + "\n"


def summary_json(report: QualityReport) -> str:
    """Single-line JSON of the sequence-level numbers."""
    return json.dumps({
        "frames": len(report.psnr_per_frame),
        "psnr_db": round(report.psnr_mean, 4),
        "ms_ssim": round(report.ms_ssim_mean, 6),
        "bpp": round(report.bpp, 6),
        "fb_mixture": round(report.fb_mixture, 6),
        "sharpness": round(report.sharpness, 4),
        "rd_objective": round(report.rd_objective, 4),
    })
