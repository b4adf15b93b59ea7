"""Gradient- and phase-congruency-based metrics: GMSD and FSIM."""

from __future__ import annotations

import functools
import threading

import numpy as np
from scipy import fft as sp_fft
from scipy.ndimage import correlate1d

from .params import from_ref_scratch
from .ssim import _check_pair

# the smoothing taps of each x-gradient window outer(smooth, _DIFF)
_PREWITT = np.array([1.0, 1.0, 1.0]) / 3.0
_SCHARR = np.array([3.0, 10.0, 3.0]) / 16.0
_DIFF = np.array([1.0, 0.0, -1.0])
_GMSD_T = 170.0
_FSIM_T1 = 0.85
_FSIM_T2 = 160.0


def _gradient_magnitude(img: np.ndarray, smooth: np.ndarray) -> np.ndarray:
    """Magnitude of the gradient under the windows outer(smooth, _DIFF) (x)
    and its transpose (y), each as two 1-D passes mirrored at the borders."""
    gx = correlate1d(correlate1d(img, smooth, axis=0, mode="reflect"), _DIFF, axis=1,
                     mode="reflect")
    gy = correlate1d(correlate1d(img, _DIFF, axis=0, mode="reflect"), smooth, axis=1,
                     mode="reflect")
    return np.sqrt(gx * gx + gy * gy)


def gmsd_map(ref, dist, ref_scratch: dict | None = None) -> np.ndarray:
    """Gradient-magnitude similarity map (Prewitt gradients, constant T).
    The reference's gradient magnitude is kept in ``ref_scratch``."""
    ref, dist = _check_pair(ref, dist)
    g_r = from_ref_scratch(ref_scratch, "prewitt", lambda: _gradient_magnitude(ref, _PREWITT))
    g_d = _gradient_magnitude(dist, _PREWITT)
    t = _GMSD_T
    return (2.0 * g_r * g_d + t) / (g_r * g_r + g_d * g_d + t)


def gmsd(ref, dist, ref_scratch: dict | None = None) -> float:
    """Population standard deviation of the similarity map; 0 is perfect."""
    return float(gmsd_map(ref, dist, ref_scratch).std())


# ---------------------------------------------------------------------------
# phase congruency via a log-Gabor filter bank

_PC_SCALES = 4
_PC_ORIENTS = 4
_PC_MIN_WAVELENGTH = 6.0
_PC_MULT = 2.0
_PC_SIGMA_ONF = 0.55
_PC_DTHETA_ON_SIGMA = 1.2
_PC_EPS = 1e-4


# held around the cache lookup, so two plane threads that miss it together
# build one bank, not two
_BANK_LOCK = threading.Lock()


def _quadrant_blocks(n: int, q: int):
    """(axis slice, quadrant slice) pairs that tile an axis of ``n`` FFT
    frequencies from its first ``q = n // 2 + 1``: ``fftfreq`` is
    sign-symmetric, so entry k >= q has the magnitude of entry n - k."""
    return (slice(0, q), slice(None)), (slice(q, None), slice(n - q, 0, -1))


@functools.lru_cache(maxsize=2)
def _log_gabor_factors(rows: int, cols: int):
    """Read-only angular spreads (per orientation) and radial profiles (per
    scale) of the log-Gabor bank; filter (o, s) is ``radials[s] * spreads[o]``
    (``_filtered_spectrum``). A radial profile depends on |frequency| only,
    so just its quadrant ``[:rows // 2 + 1, :cols // 2 + 1]`` is kept: the
    bank holds about 5 planes, not the 8 of full profiles or the 16 of whole
    filters."""
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.fftfreq(cols)[None, :]
    qy, qx = fy[: rows // 2 + 1], fx[:, : cols // 2 + 1]
    radius = np.sqrt(qx * qx + qy * qy)
    radius[0, 0] = 1.0  # avoid log(0); the DC entry is zeroed below
    theta = np.arctan2(-fy, fx)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    del theta

    sigma_theta = np.pi / _PC_ORIENTS / _PC_DTHETA_ON_SIGMA
    log_sigma = np.log(_PC_SIGMA_ONF)

    spreads = []
    for o in range(_PC_ORIENTS):
        angle = o * np.pi / _PC_ORIENTS
        ds = sin_t * np.cos(angle) - cos_t * np.sin(angle)
        dc = cos_t * np.cos(angle) + sin_t * np.sin(angle)
        # exp(-(dtheta^2) / (2 sigma^2)) with dtheta = |arctan2(ds, dc)|,
        # each step written into ds
        spread = np.abs(np.arctan2(ds, dc, out=ds), out=ds)
        del dc
        spread *= spread
        np.negative(spread, out=spread)
        spread /= 2.0 * sigma_theta * sigma_theta
        spreads.append(np.exp(spread, out=spread))
    radials = []
    for s in range(_PC_SCALES):
        f0 = 1.0 / (_PC_MIN_WAVELENGTH * _PC_MULT ** s)
        radial = np.exp(-(np.log(radius / f0) ** 2) / (2.0 * log_sigma * log_sigma))
        radial[0, 0] = 0.0
        radials.append(radial)
    for arr in spreads + radials:
        arr.flags.writeable = False
    return tuple(spreads), tuple(radials)


def _filtered_spectrum(spectrum: np.ndarray, radial: np.ndarray,
                       spread: np.ndarray) -> np.ndarray:
    """``spectrum * (radial * spread)`` as a new array, ``radial`` being
    mirrored out of its quadrant: the filter is formed block by block in the
    real part of a zeroed complex array, which the spectrum then multiplies
    in place."""
    out = np.zeros(spectrum.shape, dtype=np.complex128)
    filt = out.real
    for rows, q_rows in _quadrant_blocks(spectrum.shape[0], radial.shape[0]):
        for cols, q_cols in _quadrant_blocks(spectrum.shape[1], radial.shape[1]):
            np.multiply(radial[q_rows, q_cols], spread[rows, cols], out=filt[rows, cols])
    return np.multiply(spectrum, out, out=out)


# row blocks in which a response's magnitude is summed, so the magnitude
# is never held for a whole plane
_PC_ABS_BLOCKS = 4


def phase_congruency(img: np.ndarray) -> np.ndarray:
    """Phase-congruency map in [0, 1] from a 4-scale, 4-orientation log-Gabor
    bank: per orientation, the magnitude of the summed complex responses over
    the summed response magnitudes, accumulated over orientations. The
    responses are summed as complex numbers (component-wise, so the real and
    imaginary sums are those of separate real sums); each response is
    dropped before the next is formed."""
    img = np.asarray(img, dtype=np.float64)
    spectrum = sp_fft.fft2(img)
    energy = np.zeros(img.shape)
    amp_sum = np.zeros(img.shape)
    step = -(-img.shape[0] // _PC_ABS_BLOCKS)
    with _BANK_LOCK:
        spreads, radials = _log_gabor_factors(*img.shape)
    for spread in spreads:
        total = np.zeros(img.shape, dtype=np.complex128)
        for radial in radials:
            resp = sp_fft.ifft2(_filtered_spectrum(spectrum, radial, spread),
                                overwrite_x=True)
            total += resp
            for r in range(0, img.shape[0], step):
                amp_sum[r:r + step] += np.abs(resp[r:r + step])
            del resp
        energy += np.sqrt(total.real * total.real + total.imag * total.imag)
    return energy / (amp_sum + _PC_EPS)


def fsim(ref, dist, ref_scratch: dict | None = None) -> float:
    """Feature similarity: phase congruency and Scharr gradient similarity,
    pooled with max(PC_ref, PC_dist) weights. Grayscale only (T3 unused).
    The reference's phase congruency and gradient magnitude are kept in
    ``ref_scratch``."""
    ref, dist = _check_pair(ref, dist)
    pc_r = from_ref_scratch(ref_scratch, "pc", lambda: phase_congruency(ref))
    pc_d = phase_congruency(dist)
    g_r = from_ref_scratch(ref_scratch, "scharr", lambda: _gradient_magnitude(ref, _SCHARR))
    g_d = _gradient_magnitude(dist, _SCHARR)
    t1, t2 = _FSIM_T1, _FSIM_T2
    s_pc = (2.0 * pc_r * pc_d + t1) / (pc_r * pc_r + pc_d * pc_d + t1)
    s_g = (2.0 * g_r * g_d + t2) / (g_r * g_r + g_d * g_d + t2)
    pcm = np.maximum(pc_r, pc_d)
    weight = pcm.sum()
    if weight == 0.0:
        # featureless pair (constant images): similarity maps are all 1
        return float((s_pc * s_g).mean())
    return float((s_pc * s_g * pcm).sum() / weight)
