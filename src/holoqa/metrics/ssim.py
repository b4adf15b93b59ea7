"""SSIM and its relatives: SSIM, MS-SSIM, IW-SSIM and UQI.

All operate on 2D real grids (8-bit data as float). Local statistics are
computed with valid-mode window filtering. Every SSIM, MS-SSIM and IW-SSIM
window (and VIFp's) is the outer product of 1-D taps, so it runs as two 1-D
passes (``separable_filter``); UQI's 8x8 box still goes through
``fftconvolve``. The SSIM map uses the two-factor form l * cs with
cs = (2*cov + C2)/(var_r + var_d + C2), which is the exact algebraic
reduction of the luminance/contrast/structure product when C3 = C2/2 and the
exponents are (1, 1, 1). The constants are the standard ones for 8-bit input
(dynamic range L = 255).
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import fft as sp_fft
from scipy.ndimage import correlate1d

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
    """Normalized 1-D Gaussian taps; the 2-D window is their outer product."""
    ax = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(ax * ax) / (2.0 * sigma * sigma))
    return g / g.sum()


def separable_filter(img: np.ndarray, taps: np.ndarray, mode: str = "valid") -> np.ndarray:
    """2-D filtering of ``img`` with the window ``outer(taps, taps)`` (odd,
    symmetric ``taps``) as two 1-D passes: zero-padded and cut to the "valid"
    region or kept whole for "same" (zero padding is fftconvolve's "same"),
    or kept whole and mirrored at the borders for "reflect"."""
    pad = "reflect" if mode == "reflect" else "constant"
    h = len(taps) // 2 if mode == "valid" else 0
    out = correlate1d(img, taps, axis=0, mode=pad)[h:img.shape[0] - h]
    return correlate1d(out, taps, axis=1, mode=pad)[:, h:img.shape[1] - h]


@functools.lru_cache(maxsize=4)
def _window_spectrum(win_bytes: bytes, win_shape: tuple, fshape: tuple) -> np.ndarray:
    """Read-only ``rfftn`` of a float64 window (given by its bytes and shape)
    padded to ``fshape``."""
    win = np.frombuffer(win_bytes, dtype=np.float64).reshape(win_shape)
    spectrum = sp_fft.rfftn(win, fshape)
    spectrum.flags.writeable = False
    return spectrum


def fftconvolve(img: np.ndarray, win: np.ndarray, mode: str) -> np.ndarray:
    """2-D linear convolution of real ``img`` with the smaller real ``win``,
    cut to its "valid" or "same" region. Bit for bit
    ``scipy.signal.fftconvolve(img, win, mode)``: the same padded ``rfftn``
    pair, ``irfftn`` of their product and centred slice. The window's
    spectrum is computed once per (window, padded shape)."""
    win = np.asarray(win, dtype=np.float64)
    full = [a + b - 1 for a, b in zip(img.shape, win.shape)]
    fshape = tuple(sp_fft.next_fast_len(n, True) for n in full)
    spectrum = sp_fft.rfftn(img, fshape)
    spectrum *= _window_spectrum(win.tobytes(), win.shape, fshape)
    out = sp_fft.irfftn(spectrum, fshape, overwrite_x=True)
    shape = (img.shape if mode == "same"
             else [a - b + 1 for a, b in zip(img.shape, win.shape)])
    cut = tuple(slice((f - n) // 2, (f - n) // 2 + n) for f, n in zip(full, shape))
    return out[cut].copy()


def _local_stats(ref, dist, filt):
    """Local means, variances and covariance under the window filter ``filt``
    (one image in, its filtered valid region out). Every caller passes a
    ``separable_filter`` but ``uqi``, whose 8x8 box stays on ``fftconvolve``
    until its raw-score goldens are re-recorded (ROADMAP item 7)."""
    mu_r = filt(ref)
    mu_d = filt(dist)
    var_r = filt(ref * ref) - mu_r * mu_r
    var_d = filt(dist * dist) - mu_d * mu_d
    cov = filt(ref * dist) - mu_r * mu_d
    return mu_r, mu_d, var_r, var_d, cov


def _lcs_maps(ref, dist, taps):
    """Luminance map and combined contrast-structure map (C3 = C2/2 form)."""
    mu_r, mu_d, var_r, var_d, cov = _local_stats(
        ref, dist, lambda x: separable_filter(x, taps))
    lum = (2.0 * mu_r * mu_d + _C1) / (mu_r * mu_r + mu_d * mu_d + _C1)
    cs = (2.0 * cov + _C2) / (var_r + var_d + _C2)
    return lum, cs


def _downsample2(img: np.ndarray) -> np.ndarray:
    """2x2 average filter followed by dyadic decimation."""
    r = img.shape[0] // 2 * 2
    c = img.shape[1] // 2 * 2
    img = img[:r, :c]
    return 0.25 * (img[0::2, 0::2] + img[1::2, 0::2] + img[0::2, 1::2] + img[1::2, 1::2])


def _scales(ref, dist, n: int, scratch: dict | None):
    """``(ref_j, dist_j, lum_j, cs_j)`` for the first ``n`` dyadic scales,
    finest first. SSIM, MS-SSIM and IW-SSIM share the full-size maps through
    ``scratch``; the coarse scales are computed on each call."""
    side = _WIN * 2 ** (n - 1)
    if min(ref.shape) < side:
        raise InputTooSmall(f"input {ref.shape} too small: {n} scale(s) of a "
                            f"{_WIN}x{_WIN} window need {side}x{side}")
    taps = gaussian_window(_WIN, _WIN_SIGMA)
    scales = [(ref, dist, *from_scratch(scratch, "lcs", lambda: _lcs_maps(ref, dist, taps)))]
    for _ in range(n - 1):
        ref, dist = _downsample2(ref), _downsample2(dist)
        scales.append((ref, dist, *_lcs_maps(ref, dist, taps)))
    return scales


def ssim_map(ref, dist, scratch: dict | None = None) -> np.ndarray:
    """Local SSIM quality map (valid region of the 11x11 Gaussian window)."""
    ref, dist = _check_pair(ref, dist)
    _, _, lum, cs = _scales(ref, dist, 1, scratch)[0]
    return lum * cs


def ssim(ref, dist, scratch: dict | None = None) -> float:
    return float(ssim_map(ref, dist, scratch).mean())


def ms_ssim(ref, dist, scratch: dict | None = None) -> float:
    """Multi-scale SSIM: contrast/structure at every scale, full SSIM at the
    coarsest, combined with the standard exponent weights.

    With the single weight (1,) this reduces exactly to plain SSIM (the
    luminance comparison then lives at the only scale).
    """
    ref, dist = _check_pair(ref, dist)
    weights = _MSSSIM_WEIGHTS
    scales = _scales(ref, dist, len(weights), scratch)
    score = 1.0
    for j, (_, _, lum, cs) in enumerate(scales):
        qmap = lum * cs if j == len(scales) - 1 else cs
        score *= max(float(qmap.mean()), 0.0) ** weights[j]
    return score


# information-content weighting -------------------------------------------

_IW_SIGMA_NSQ = 0.4    # HVS noise power of the scalar GSM model (8-bit data)
_IW_WIN = 3
# rows/columns a 3x3-valid weight map has beyond an 11x11-valid quality map
_IW_TRIM = (_WIN - _IW_WIN) // 2


def _info_weight_map(band_r: np.ndarray, band_d: np.ndarray) -> np.ndarray:
    """Information-content weight from a scalar Gaussian-scale-mixture local
    model (3x3 windows, no parent band): the information the reference band
    carries plus the information surviving the gain/additive-noise channel to
    the distorted band. Non-negative and finite by construction."""
    taps = np.full(_IW_WIN, 1.0 / _IW_WIN)
    _, _, var_r, var_d, cov = _local_stats(band_r, band_d,
                                           lambda x: separable_filter(x, taps))
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
    return separable_filter(up, np.array([0.5, 1.0, 0.5]), mode="same")


def iw_ssim(ref, dist, scratch: dict | None = None) -> float:
    """Information-content-weighted multi-scale SSIM over a Laplacian-style
    pyramid. Per-scale contrast/structure maps are pooled with information
    weights derived from the detail bands; the coarsest scale contributes a
    full (weighted) SSIM term."""
    ref, dist = _check_pair(ref, dist)
    weights = _MSSSIM_WEIGHTS
    scales = _scales(ref, dist, len(weights), scratch)
    score = 1.0
    for j, (ref_j, dist_j, lum, cs) in enumerate(scales):
        if j == len(scales) - 1:
            qmap, band_r, band_d = lum * cs, ref_j, dist_j
        else:
            low_r, low_d = scales[j + 1][:2]
            qmap = cs
            band_r = ref_j - _upsample2(low_r, ref_j.shape)
            band_d = dist_j - _upsample2(low_d, dist_j.shape)
        wmap = _info_weight_map(band_r, band_d)[_IW_TRIM:-_IW_TRIM, _IW_TRIM:-_IW_TRIM]
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
    mu_r, mu_d, var_r, var_d, cov = _local_stats(ref, dist,
                                                 lambda x: fftconvolve(x, win, "valid"))
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
