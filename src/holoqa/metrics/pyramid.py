"""Normalized Laplacian pyramid distance (NLPD)."""

from __future__ import annotations

import numpy as np
from scipy.ndimage import correlate

from .params import from_ref_scratch
from .ssim import _check_pair

_BINOMIAL = np.outer([1.0, 4.0, 6.0, 4.0, 1.0], [1.0, 4.0, 6.0, 4.0, 1.0]) / 256.0

# divisive-normalization stabilizer of each band, for input scaled to [0, 1]:
# the four bandpass bands (finest first), then the lowpass band
_SIGMAS = (0.0248, 0.0185, 0.0179, 0.0191, 0.2782)
_LEVELS = len(_SIGMAS)
_DN_WIN = np.full((3, 3), 1.0 / 9.0)
_DN_WIN[1, 1] = 0.0


def _blur(img: np.ndarray) -> np.ndarray:
    return correlate(img, _BINOMIAL, mode="reflect")


def _upsample(img: np.ndarray, shape) -> np.ndarray:
    up = np.zeros(shape)
    up[0::2, 0::2] = img
    return correlate(up, 4.0 * _BINOMIAL, mode="reflect")


def _normalized_pyramid(img: np.ndarray):
    """Laplacian pyramid whose bands are divisively normalized by a local
    average of their own magnitude plus a per-band stabilizer."""
    bands = []
    current = img
    for _ in range(_LEVELS - 1):
        low = _blur(current)[0::2, 0::2]
        bands.append(current - _upsample(low, current.shape))
        current = low
    bands.append(current)

    out = []
    for band, sigma in zip(bands, _SIGMAS):
        local_amp = correlate(np.abs(band), _DN_WIN, mode="reflect")
        out.append(band / (sigma + local_amp))
    return out


def nlpd(ref, dist, ref_scratch: dict | None = None) -> float:
    """Mean over pyramid levels of the RMS difference between the normalized
    bands; 0 is perfect. Inputs are scaled by the 8-bit dynamic range first.
    The reference's normalized pyramid is kept in ``ref_scratch``."""
    ref, dist = _check_pair(ref, dist)
    pyr_r = from_ref_scratch(ref_scratch, "pyramid",
                             lambda: _normalized_pyramid(ref / 255.0))
    pyr_d = _normalized_pyramid(dist / 255.0)
    dists = [np.sqrt(np.mean((a - b) ** 2)) for a, b in zip(pyr_r, pyr_d)]
    return float(np.mean(dists))
