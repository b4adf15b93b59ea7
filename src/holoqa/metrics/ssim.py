"""SSIM and its relatives: SSIM, MS-SSIM, IW-SSIM and UQI.

All operate on 2D real grids (8-bit data as float). Local statistics are
computed with valid-mode window filtering; the SSIM map uses the two-factor
form l * cs with cs = (2*cov + C2)/(var_r + var_d + C2), which is the exact
algebraic reduction of the luminance/contrast/structure product when
C3 = C2/2 and the exponents are (1, 1, 1).
"""

from __future__ import annotations

import numpy as np
from scipy.signal import fftconvolve

from ..errors import DegenerateReference, DimMismatch, InputTooSmall
from .params import DEFAULT_PARAMS, MetricParams, MetricScore, ScoreMode, from_scratch


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


def _local_stats(ref, dist, win):
    """Valid-mode local means, variances and covariance under window ``win``."""
    mu_r = fftconvolve(ref, win, mode="valid")
    mu_d = fftconvolve(dist, win, mode="valid")
    var_r = fftconvolve(ref * ref, win, mode="valid") - mu_r * mu_r
    var_d = fftconvolve(dist * dist, win, mode="valid") - mu_d * mu_d
    cov = fftconvolve(ref * dist, win, mode="valid") - mu_r * mu_d
    return mu_r, mu_d, var_r, var_d, cov


def _lcs_maps(ref, dist, params: MetricParams, scratch: dict | None = None):
    """Luminance map and combined contrast-structure map (C3 = C2/2 form);
    SSIM, MS-SSIM and IW-SSIM share the full-size pair's through ``scratch``."""
    def compute():
        win = gaussian_window(params.ssim_window, params.ssim_sigma)
        mu_r, mu_d, var_r, var_d, cov = _local_stats(ref, dist, win)
        c1, c2 = params.c1, params.c2
        lum = (2.0 * mu_r * mu_d + c1) / (mu_r * mu_r + mu_d * mu_d + c1)
        cs = (2.0 * cov + c2) / (var_r + var_d + c2)
        return lum, cs
    return from_scratch(scratch, ("lcs", params), compute)


def ssim_map(ref, dist, params: MetricParams = DEFAULT_PARAMS,
             scratch: dict | None = None) -> np.ndarray:
    """Local SSIM quality map (valid region of the 11x11 Gaussian window)."""
    ref, dist = _check_pair(ref, dist)
    w = params.ssim_window
    if ref.shape[0] < w or ref.shape[1] < w:
        raise InputTooSmall(f"input {ref.shape} smaller than {w}x{w} window")
    lum, cs = _lcs_maps(ref, dist, params, scratch)
    a, b, _ = params.ssim_exponents
    if (a, b) == (1.0, 1.0):
        return lum * cs
    return np.sign(lum) * np.abs(lum) ** a * np.sign(cs) * np.abs(cs) ** b


def ssim(ref, dist, params: MetricParams = DEFAULT_PARAMS,
         scratch: dict | None = None) -> MetricScore:
    return MetricScore("ssim", ScoreMode.REAL, float(ssim_map(ref, dist, params, scratch).mean()))


def _downsample2(img: np.ndarray) -> np.ndarray:
    """2x2 average filter followed by dyadic decimation."""
    r = img.shape[0] // 2 * 2
    c = img.shape[1] // 2 * 2
    img = img[:r, :c]
    return 0.25 * (img[0::2, 0::2] + img[1::2, 0::2] + img[0::2, 1::2] + img[1::2, 1::2])


def ms_ssim(ref, dist, params: MetricParams = DEFAULT_PARAMS,
            scratch: dict | None = None) -> MetricScore:
    """Multi-scale SSIM: contrast/structure at every scale, full SSIM at the
    coarsest, combined with the standard exponent weights.

    At scales=1 with weight (1,) this reduces exactly to plain SSIM (the
    luminance comparison then lives at the only scale).
    """
    ref, dist = _check_pair(ref, dist)
    scales = params.msssim_scales
    weights = params.msssim_weights[:scales]
    w = params.ssim_window
    if min(ref.shape) < w * 2 ** (scales - 1):
        raise InputTooSmall(
            f"input {ref.shape} too small for {scales} scales of a {w}x{w} window"
        )
    score = 1.0
    for j in range(scales):
        lum, cs = _lcs_maps(ref, dist, params, scratch if j == 0 else None)
        if j == scales - 1:
            factor = float((lum * cs).mean())
        else:
            factor = float(cs.mean())
            ref = _downsample2(ref)
            dist = _downsample2(dist)
        score *= max(factor, 0.0) ** weights[j]
    return MetricScore("msssim", ScoreMode.REAL, score)


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


def iw_ssim(ref, dist, params: MetricParams = DEFAULT_PARAMS,
            scratch: dict | None = None) -> MetricScore:
    """Information-content-weighted multi-scale SSIM over a Laplacian-style
    pyramid. Per-scale contrast/structure maps are pooled with information
    weights derived from the detail bands; the coarsest scale contributes a
    full (weighted) SSIM term."""
    ref, dist = _check_pair(ref, dist)
    scales = params.iwssim_scales
    weights = params.msssim_weights[:scales]
    w = params.ssim_window
    if min(ref.shape) < w * 2 ** (scales - 1):
        raise InputTooSmall(
            f"input {ref.shape} too small for {scales} scales of a {w}x{w} window"
        )
    margin = (w - 1) // 2
    iw_margin = (_IW_WIN - 1) // 2

    score = 1.0
    for j in range(scales):
        lum, cs = _lcs_maps(ref, dist, params, scratch if j == 0 else None)
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
    return MetricScore("iwssim", ScoreMode.REAL, score)


def uqi(ref, dist, params: MetricParams = DEFAULT_PARAMS) -> MetricScore:
    """Universal Quality Index: unregularized SSIM on sliding 8x8 blocks.

    Blocks with a zero denominator contribute the limit value 1 when both
    blocks are the same constant, and are skipped otherwise.
    """
    ref, dist = _check_pair(ref, dist)
    b = params.uqi_block
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
    return MetricScore("uqi", ScoreMode.REAL, float(values[keep].mean()))
