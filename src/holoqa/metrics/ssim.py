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
from .params import from_ref_scratch, from_scratch

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


def _ref_stats(ref, filt):
    """The reference half of ``_local_stats``: its local mean and variance."""
    mu_r = filt(ref)
    return mu_r, filt(ref * ref) - mu_r * mu_r


def _local_stats(ref, dist, filt, ref_stats=None):
    """Local means, variances and covariance under the window filter ``filt``
    (one image in, its filtered valid region out). ``ref_stats`` is the
    reference's ``_ref_stats`` under the same filter, when a reference
    scratch keeps it. Every caller passes a ``separable_filter`` but ``uqi``,
    whose 8x8 box stays on ``fftconvolve`` until its raw-score goldens are
    re-recorded (ROADMAP item 7). The distorted mean is filtered last, as
    it needs no product image, and the variance and covariance subtract
    into their filtered maps, so at most four maps are alive at once."""
    mu_r, var_r = _ref_stats(ref, filt) if ref_stats is None else ref_stats
    var_d = filt(dist * dist)
    cov = filt(ref * dist)
    mu_d = filt(dist)
    var_d -= mu_d * mu_d
    cov -= mu_r * mu_d
    return mu_r, mu_d, var_r, var_d, cov


def _lcs_maps(ref, dist, taps, ref_stats, with_lum: bool):
    """Luminance map (None unless ``with_lum``) and combined
    contrast-structure map (C3 = C2/2 form)."""
    mu_r, mu_d, var_r, var_d, cov = _local_stats(
        ref, dist, lambda x: separable_filter(x, taps), ref_stats)
    lum = None
    if with_lum:
        lum = (2.0 * mu_r * mu_d + _C1) / (mu_r * mu_r + mu_d * mu_d + _C1)
    cs = (2.0 * cov + _C2) / (var_r + var_d + _C2)
    return lum, cs


def _downsample2(img: np.ndarray) -> np.ndarray:
    """2x2 average filter followed by dyadic decimation."""
    r = img.shape[0] // 2 * 2
    c = img.shape[1] // 2 * 2
    img = img[:r, :c]
    return 0.25 * (img[0::2, 0::2] + img[1::2, 0::2] + img[0::2, 1::2] + img[1::2, 1::2])


def _scales(ref, dist, n: int, scratch: dict | None, ref_scratch: dict | None):
    """``(ref_j, dist_j, lum_j, cs_j)`` for the first ``n`` dyadic scales,
    finest first. The reference's scales and their (mean, variance) are kept
    in ``ref_scratch`` ("scales") and the pair's scales and maps in
    ``scratch`` ("lcs"), so SSIM, MS-SSIM and IW-SSIM compute each scale
    once; each list grows to the most scales a metric asked for. ``lum_j``
    is None but at scale 0 (SSIM's) and at MS-SSIM's coarsest, the only
    luminance maps a metric reads."""
    side = _WIN * 2 ** (n - 1)
    if min(ref.shape) < side:
        raise InputTooSmall(f"input {ref.shape} too small: {n} scale(s) of a "
                            f"{_WIN}x{_WIN} window need {side}x{side}")
    taps = gaussian_window(_WIN, _WIN_SIGMA)
    refs = from_ref_scratch(ref_scratch, "scales", list)
    pair = from_scratch(scratch, "lcs", list)
    while len(refs) < n:
        ref_j = _downsample2(refs[-1][0]) if refs else ref
        refs.append((ref_j, _ref_stats(ref_j, lambda x: separable_filter(x, taps))))
    for j in range(len(pair), n):
        dist_j = _downsample2(pair[-1][0]) if pair else dist
        pair.append((dist_j, *_lcs_maps(refs[j][0], dist_j, taps, refs[j][1],
                                        j in (0, len(_MSSSIM_WEIGHTS) - 1))))
    return [(ref_j, *maps) for (ref_j, _), maps in zip(refs, pair[:n])]


def ssim_map(ref, dist, scratch: dict | None = None,
             ref_scratch: dict | None = None) -> np.ndarray:
    """Local SSIM quality map (valid region of the 11x11 Gaussian window)."""
    ref, dist = _check_pair(ref, dist)
    _, _, lum, cs = _scales(ref, dist, 1, scratch, ref_scratch)[0]
    return lum * cs


def ssim(ref, dist, scratch: dict | None = None, ref_scratch: dict | None = None) -> float:
    return float(ssim_map(ref, dist, scratch, ref_scratch).mean())


def ms_ssim(ref, dist, scratch: dict | None = None,
            ref_scratch: dict | None = None) -> float:
    """Multi-scale SSIM: contrast/structure at every scale, full SSIM at the
    coarsest, combined with the standard exponent weights.

    With the single weight (1,) this reduces exactly to plain SSIM (the
    luminance comparison then lives at the only scale).
    """
    ref, dist = _check_pair(ref, dist)
    weights = _MSSSIM_WEIGHTS
    scales = _scales(ref, dist, len(weights), scratch, ref_scratch)
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
_IW_TAPS = np.full(_IW_WIN, 1.0 / _IW_WIN)


def _iw_filter(img: np.ndarray) -> np.ndarray:
    return separable_filter(img, _IW_TAPS)


def _info_weight_map(band_r: np.ndarray, band_d: np.ndarray) -> np.ndarray:
    """Information-content weight from a scalar Gaussian-scale-mixture local
    model (3x3 windows, no parent band): the information the reference band
    carries plus the information surviving the gain/additive-noise channel to
    the distorted band. Non-negative and finite by construction.

    It is log2(1 + var_r/c) + log2(1 + gain^2 var_r/(vv + c)) with var_r
    and var_d clipped at 0, each step written into a map this call owns:
    gain reads the unclipped var_r, as max(max(v, 0), tiny) is max(v, tiny)
    and max(v, 0) > 0 is v > 0, and the clipped var_r takes the spent
    covariance's map."""
    var_r, var_d, cov = _local_stats(band_r, band_d, _iw_filter)[2:]
    np.maximum(var_d, 0.0, out=var_d)
    gain = np.maximum(var_r, np.finfo(float).tiny)
    np.divide(cov, gain, out=gain)
    gain[~(var_r > 0)] = 0.0
    vv = var_d
    vv -= np.multiply(gain, cov, out=cov)
    np.maximum(vv, 0.0, out=vv)
    var_r = np.maximum(var_r, 0.0, out=cov)
    c = _IW_SIGMA_NSQ
    info_d = np.multiply(gain, gain, out=gain)
    info_d *= var_r
    vv += c
    info_d /= vv
    del vv, var_d
    info_d = np.log2(np.add(1.0, info_d, out=info_d), out=info_d)
    info_r = var_r / c
    info_r = np.log2(np.add(1.0, info_r, out=info_r), out=info_r)
    info_r += info_d
    return info_r


# rows of a weight map formed at once, so a band's 3x3 statistics are never
# held for the whole band
_IW_STRIP = 32


def _info_weights(band_r: np.ndarray, band_d: np.ndarray) -> np.ndarray:
    """``_info_weight_map(band_r, band_d)`` cut to the region of the
    11x11-valid quality map, formed ``_IW_STRIP`` rows at a time. A strip
    reads only the band samples its 3x3 windows cover, so its values are
    those of the whole map; the strips fill a whole 3x3-valid map, and the
    cut is a view of it, so sums over it run in the same order."""
    h, t = _IW_WIN // 2, _IW_TRIM
    rows, cols = (n - 2 * h for n in band_r.shape)
    out = np.empty((rows, cols))
    for r0 in range(t, rows - t, _IW_STRIP):
        r1 = min(r0 + _IW_STRIP, rows - t)
        window = (slice(r0, r1 + 2 * h), slice(t, cols - t + 2 * h))
        out[r0:r1, t:cols - t] = _info_weight_map(band_r[window], band_d[window])
    return out[t:rows - t, t:cols - t]


def _upsample2(img: np.ndarray, shape) -> np.ndarray:
    up = np.zeros(shape)
    sub = up[0::2, 0::2]
    r = min(sub.shape[0], img.shape[0])
    c = min(sub.shape[1], img.shape[1])
    sub[:r, :c] = img[:r, :c]
    return separable_filter(up, np.array([0.5, 1.0, 0.5]), mode="same")


def _detail_band(scales, j: int) -> np.ndarray:
    """Detail band ``j`` of one image's ``scales`` (finest first): scale j
    less scale j + 1 upsampled; the coarsest scale is its own band."""
    img = scales[j]
    if j == len(scales) - 1:
        return img
    band = _upsample2(scales[j + 1], img.shape)
    return np.subtract(img, band, out=band)


def iw_ssim(ref, dist, scratch: dict | None = None,
            ref_scratch: dict | None = None) -> float:
    """Information-content-weighted multi-scale SSIM over a Laplacian-style
    pyramid. Per-scale contrast/structure maps are pooled with information
    weights derived from the detail bands; the coarsest scale contributes a
    full (weighted) SSIM term. Each detail band, the reference's too, is
    formed at its own scale and dropped after it."""
    ref, dist = _check_pair(ref, dist)
    weights = _MSSSIM_WEIGHTS
    scales = _scales(ref, dist, len(weights), scratch, ref_scratch)
    refs = [ref_j for ref_j, _, _, _ in scales]
    dists = [dist_j for _, dist_j, _, _ in scales]
    score = 1.0
    for j, (_, _, lum, cs) in enumerate(scales):
        qmap = lum * cs if j == len(scales) - 1 else cs
        wmap = _info_weights(_detail_band(refs, j), _detail_band(dists, j))
        wsum = wmap.sum()
        factor = float((wmap * qmap).sum() / wsum) if wsum > 0 else float(qmap.mean())
        score *= max(factor, 0.0) ** weights[j]
    return score


def uqi(ref, dist, ref_scratch: dict | None = None) -> float:
    """Universal Quality Index: unregularized SSIM on sliding 8x8 blocks.

    Blocks with a zero denominator contribute the limit value 1 when both
    blocks are the same constant, and are skipped otherwise. The reference's
    block means and variances are kept in ``ref_scratch`` ("blocks").
    """
    ref, dist = _check_pair(ref, dist)
    b = _UQI_BLOCK
    if ref.shape[0] < b or ref.shape[1] < b:
        raise InputTooSmall(f"input {ref.shape} smaller than {b}x{b} block")
    filt = functools.partial(fftconvolve, win=np.full((b, b), 1.0 / (b * b)), mode="valid")
    ref_stats = from_ref_scratch(ref_scratch, "blocks", lambda: _ref_stats(ref, filt))
    mu_r, mu_d, var_r, var_d, cov = _local_stats(ref, dist, filt, ref_stats)
    # each map below is written into one this call owns, never into ref_stats
    den_l = mu_r * mu_r + mu_d * mu_d
    den_cs = np.add(var_r, var_d, out=var_d)
    defined = (den_l != 0.0) & (den_cs != 0.0)
    # zero variance sum and equal means: identical constant blocks, limit 1
    keep = defined | ((den_cs == 0.0) & (mu_r == mu_d))
    den_l[den_l == 0.0] = 1.0
    lum = np.multiply(2.0, mu_r)
    lum *= mu_d
    lum /= den_l
    del mu_d, den_l
    den_cs[den_cs == 0.0] = 1.0
    cs = np.multiply(2.0, cov, out=cov)
    cs /= den_cs
    values = np.multiply(lum, cs, out=lum)
    values[~defined] = 1.0
    if not np.any(keep):
        raise DegenerateReference("no UQI block has a defined score")
    return float(values[keep].mean())
