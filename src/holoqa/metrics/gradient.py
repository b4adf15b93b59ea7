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


def gmsd_map(ref, dist) -> np.ndarray:
    """Gradient-magnitude similarity map (Prewitt gradients, constant T)."""
    ref, dist = _check_pair(ref, dist)
    g_r = _gradient_magnitude(ref, _PREWITT)
    g_d = _gradient_magnitude(dist, _PREWITT)
    t = _GMSD_T
    return (2.0 * g_r * g_d + t) / (g_r * g_r + g_d * g_d + t)


def gmsd(ref, dist) -> float:
    """Population standard deviation of the similarity map; 0 is perfect."""
    return float(gmsd_map(ref, dist).std())


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


@functools.lru_cache(maxsize=2)
def _log_gabor_factors(rows: int, cols: int):
    """Read-only angular spreads (per orientation) and radial profiles (per
    scale) of the log-Gabor bank; filter (o, s) is ``radials[s] * spreads[o]``.
    Caching these, not the 16 filters, halves the memory held per shape."""
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.fftfreq(cols)[None, :]
    radius = np.sqrt(fx * fx + fy * fy)
    radius[0, 0] = 1.0  # avoid log(0); the DC entry is zeroed below
    theta = np.arctan2(-fy, fx)
    sin_t, cos_t = np.sin(theta), np.cos(theta)

    sigma_theta = np.pi / _PC_ORIENTS / _PC_DTHETA_ON_SIGMA
    log_sigma = np.log(_PC_SIGMA_ONF)

    spreads = []
    for o in range(_PC_ORIENTS):
        angle = o * np.pi / _PC_ORIENTS
        ds = sin_t * np.cos(angle) - cos_t * np.sin(angle)
        dc = cos_t * np.cos(angle) + sin_t * np.sin(angle)
        dtheta = np.abs(np.arctan2(ds, dc))
        spreads.append(np.exp(-(dtheta * dtheta) / (2.0 * sigma_theta * sigma_theta)))
    radials = []
    for s in range(_PC_SCALES):
        f0 = 1.0 / (_PC_MIN_WAVELENGTH * _PC_MULT ** s)
        radial = np.exp(-(np.log(radius / f0) ** 2) / (2.0 * log_sigma * log_sigma))
        radial[0, 0] = 0.0
        radials.append(radial)
    for arr in spreads + radials:
        arr.flags.writeable = False
    return tuple(spreads), tuple(radials)


def phase_congruency(img: np.ndarray) -> np.ndarray:
    """Phase-congruency map in [0, 1] from a 4-scale, 4-orientation log-Gabor
    bank: per orientation, the magnitude of the summed complex responses over
    the summed response magnitudes, accumulated over orientations."""
    img = np.asarray(img, dtype=np.float64)
    spectrum = sp_fft.fft2(img)
    energy = np.zeros(img.shape)
    amp_sum = np.zeros(img.shape)
    with _BANK_LOCK:
        spreads, radials = _log_gabor_factors(*img.shape)
    for spread in spreads:
        sum_re = np.zeros(img.shape)
        sum_im = np.zeros(img.shape)
        for radial in radials:
            resp = sp_fft.ifft2(spectrum * (radial * spread), overwrite_x=True)
            sum_re += resp.real
            sum_im += resp.imag
            amp_sum += np.abs(resp)
        energy += np.sqrt(sum_re * sum_re + sum_im * sum_im)
    return energy / (amp_sum + _PC_EPS)


def fsim(ref, dist, ref_scratch: dict | None = None) -> float:
    """Feature similarity: phase congruency and Scharr gradient similarity,
    pooled with max(PC_ref, PC_dist) weights. Grayscale only (T3 unused).
    The reference's phase congruency is kept in ``ref_scratch``."""
    ref, dist = _check_pair(ref, dist)
    pc_r = from_ref_scratch(ref_scratch, "pc", lambda: phase_congruency(ref))
    pc_d = phase_congruency(dist)
    g_r = _gradient_magnitude(ref, _SCHARR)
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
