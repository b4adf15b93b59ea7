"""SSIM and its relatives: SSIM, MS-SSIM, IW-SSIM and UQI.

All operate on 2D real grids (8-bit data as float). Local statistics are
computed with valid-mode window filtering; the SSIM map uses the two-factor
form l * cs with cs = (2*cov + C2)/(var_r + var_d + C2), which is the exact
algebraic reduction of the luminance/contrast/structure product when
C3 = C2/2 and the exponents are (1, 1, 1). The constants are the standard
ones for 8-bit input (dynamic range L = 255).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

from ..errors import DegenerateReference, DimMismatch, InputTooSmall
from .params import from_scratch

_WIN = 11                   # Gaussian window side
_WIN_SIGMA = 1.5
_C1 = (0.01 * 255.0) ** 2
_C2 = (0.03 * 255.0) ** 2
# MS-SSIM / IW-SSIM exponent weights, finest scale first; one scale each
_MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
_UQI_BLOCK = 8


def _check_pair(ref, dist):
    ref = np.asarray(ref, dtype=np.float64)
    dist = np.asarray(dist, dtype=np.float64)
    if ref.shape != dist.shape:
        raise DimMismatch(f"shape mismatch: {ref.shape} vs {dist.shape}")
    return ref, dist


def gaussian_window(size: int, sigma: float) -> np.ndarray:
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    win = np.outer(g, g)
    return win / win.sum()


def fftconvolve(img: np.ndarray, win: np.ndarray, mode: str) -> np.ndarray:
    """2-D linear convolution of real ``img`` with the smaller real ``win``,
    cut to its "valid" or "same" region. Bit for bit
    ``scipy.signal.fftconvolve(img, win, mode)``: the same padded ``rfftn``
    pair, ``irfftn`` of their product and centred slice."""
    full = [a + b - 1 for a, b in zip(img.shape, win.shape)]
    fshape = [sp_fft.next_fast_len(n, True) for n in full]
    out = sp_fft.irfftn(sp_fft.rfftn(img, fshape) * sp_fft.rfftn(win, fshape), fshape)
    shape = (img.shape if mode == "same"
             else [a - b + 1 for a, b in zip(img.shape, win.shape)])
    cut = tuple(slice((f - n) // 2, (f - n) // 2 + n) for f, n in zip(full, shape))
    return out[cut].copy()


def _local_stats(ref, dist, win):
    """Valid-mode local means, variances and covariance under window ``win``."""
    mu_r = fftconvolve(ref, win, mode="valid")
    mu_d = fftconvolve(dist, win, mode="valid")
    var_r = fftconvolve(ref * ref, win, mode="valid") - mu_r * mu_r
    var_d = fftconvolve(dist * dist, win, mode="valid") - mu_d * mu_d
    cov = fftconvolve(ref * dist, win, mode="valid") - mu_r * mu_d
    return mu_r, mu_d, var_r, var_d, cov


def _lcs_maps(ref, dist, scratch: dict | None = None):
    """Luminance map and combined contrast-structure map (C3 = C2/2 form);
    SSIM, MS-SSIM and IW-SSIM share the full-size pair's through ``scratch``."""
    def compute():
        win = gaussian_window(_WIN, _WIN_SIGMA)
        mu_r, mu_d, var_r, var_d, cov = _local_stats(ref, dist, win)
        lum = (2.0 * mu_r * mu_d + _C1) / (mu_r * mu_r + mu_d * mu_d + _C1)
        cs = (2.0 * cov + _C2) / (var_r + var_d + _C2)
        return lum, cs
    return from_scratch(scratch, "lcs", compute)


def ssim_map(ref, dist, scratch: dict | None = None) -> np.ndarray:
    """Local SSIM quality map (valid region of the 11x11 Gaussian window)."""
    ref, dist = _check_pair(ref, dist)
    if ref.shape[0] < _WIN or ref.shape[1] < _WIN:
        raise InputTooSmall(f"input {ref.shape} smaller than {_WIN}x{_WIN} window")
    lum, cs = _lcs_maps(ref, dist, scratch)
    return lum * cs


def ssim(ref, dist, scratch: dict | None = None) -> float:
    return float(ssim_map(ref, dist, scratch).mean())


def _downsample2(img: np.ndarray) -> np.ndarray:
    """2x2 average filter followed by dyadic decimation."""
    r = img.shape[0] // 2 * 2
    c = img.shape[1] // 2 * 2
    img = img[:r, :c]
    return 0.25 * (img[0::2, 0::2] + img[1::2, 0::2] + img[0::2, 1::2] + img[1::2, 1::2])


def _check_scales(shape, scales: int) -> None:
    if min(shape) < _WIN * 2 ** (scales - 1):
        raise InputTooSmall(
            f"input {shape} too small for {scales} scales of a {_WIN}x{_WIN} window"
        )


def ms_ssim(ref, dist, scratch: dict | None = None) -> float:
    """Multi-scale SSIM: contrast/structure at every scale, full SSIM at the
    coarsest, combined with the standard exponent weights.

    With the single weight (1,) this reduces exactly to plain SSIM (the
    luminance comparison then lives at the only scale).
    """
    ref, dist = _check_pair(ref, dist)
    weights = _MSSSIM_WEIGHTS
    scales = len(weights)
    _check_scales(ref.shape, scales)
    score = 1.0
    for j in range(scales):
        lum, cs = _lcs_maps(ref, dist, scratch if j == 0 else None)
        if j == scales - 1:
            factor = float((lum * cs).mean())
        else:
            factor = float(cs.mean())
            ref = _downsample2(ref)
            dist = _downsample2(dist)
        score *= max(factor, 0.0) ** weights[j]
    return score


# information-content weighting -------------------------------------------

_IW_SIGMA_NSQ = 0.4    # HVS noise power of the scalar GSM model (8-bit data)
_IW_WIN = 3


def _info_weight_map(band_r: np.ndarray, band_d: np.ndarray) -> np.ndarray:
    """Information-content weight from a scalar Gaussian-scale-mixture local
    model (3x3 windows, no parent band): the information the reference band
    carries plus the information surviving the gain/additive-noise channel to
    the distorted band. Non-negative and finite by construction."""
    win = np.full((_IW_WIN, _IW_WIN), 1.0 / (_IW_WIN * _IW_WIN))
    _, _, var_r, var_d, cov = _local_stats(band_r, band_d, win)
    var_r, var_d = np.maximum(var_r, 0.0), np.maximum(var_d, 0.0)
    gain = np.where(var_r > 0, cov / np.maximum(var_r, np.finfo(float).tiny), 0.0)
    vv = np.maximum(var_d - gain * cov, 0.0)
    c = _IW_SIGMA_NSQ
    return np.log2(1.0 + var_r / c) + np.log2(1.0 + gain * gain * var_r / (vv + c))


def _upsample2(img: np.ndarray, shape) -> np.ndarray:
    up = np.zeros(shape)
    sub = up[0::2, 0::2]
    r = min(sub.shape[0], img.shape[0])
    c = min(sub.shape[1], img.shape[1])
    sub[:r, :c] = img[:r, :c]
    k = np.array([0.5, 1.0, 0.5])
    return fftconvolve(up, k[:, None] * k[None, :], mode="same")


def iw_ssim(ref, dist, scratch: dict | None = None) -> float:
    """Information-content-weighted multi-scale SSIM over a Laplacian-style
    pyramid. Per-scale contrast/structure maps are pooled with information
    weights derived from the detail bands; the coarsest scale contributes a
    full (weighted) SSIM term."""
    ref, dist = _check_pair(ref, dist)
    weights = _MSSSIM_WEIGHTS
    scales = len(weights)
    _check_scales(ref.shape, scales)
    margin = (_WIN - 1) // 2
    iw_margin = (_IW_WIN - 1) // 2

    score = 1.0
    for j in range(scales):
        lum, cs = _lcs_maps(ref, dist, scratch if j == 0 else None)
        qmap = lum * cs if j == scales - 1 else cs
        if j == scales - 1:
            band_r, band_d = ref, dist
        else:
            low_r, low_d = _downsample2(ref), _downsample2(dist)
            band_r = ref - _upsample2(low_r, ref.shape)
            band_d = dist - _upsample2(low_d, dist.shape)
            ref, dist = low_r, low_d
        wmap = _info_weight_map(band_r, band_d)
        # align the (3x3-valid) weight map with the (11x11-valid) quality map
        trim = margin - iw_margin
        wmap = wmap[trim:-trim, trim:-trim] if trim > 0 else wmap
        wsum = wmap.sum()
        factor = float((wmap * qmap).sum() / wsum) if wsum > 0 else float(qmap.mean())
        score *= max(factor, 0.0) ** weights[j]
    return score


def uqi(ref, dist) -> float:
    """Universal Quality Index: unregularized SSIM on sliding 8x8 blocks.

    Blocks with a zero denominator contribute the limit value 1 when both
    blocks are the same constant, and are skipped otherwise.
    """
    ref, dist = _check_pair(ref, dist)
    b = _UQI_BLOCK
    if ref.shape[0] < b or ref.shape[1] < b:
        raise InputTooSmall(f"input {ref.shape} smaller than {b}x{b} block")
    win = np.full((b, b), 1.0 / (b * b))
    mu_r, mu_d, var_r, var_d, cov = _local_stats(ref, dist, win)
    den_l = mu_r * mu_r + mu_d * mu_d
    den_cs = var_r + var_d
    defined = (den_l != 0.0) & (den_cs != 0.0)
    lum = 2.0 * mu_r * mu_d / np.where(den_l != 0.0, den_l, 1.0)
    cs = 2.0 * cov / np.where(den_cs != 0.0, den_cs, 1.0)
    # zero variance sum and equal means: identical constant blocks, limit 1
    identical_const = (den_cs == 0.0) & (mu_r == mu_d)
    values = np.where(defined, lum * cs, 1.0)
    keep = defined | identical_const
    if not np.any(keep):
        raise DegenerateReference("no UQI block has a defined score")
    return float(values[keep].mean())
