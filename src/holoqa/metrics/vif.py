"""Pixel-domain Visual Information Fidelity (VIFp).

Multi-scale Gaussian decomposition; per scale the distortion channel is
modeled as a local gain plus additive noise and the score is the ratio of
the information the distorted image retains about the source to the
information content of the reference.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateReference
from .ssim import _check_pair, _local_stats, fftconvolve, gaussian_window

_SIGMA_NSQ = 2.0
_VAR_EPS = 1e-10
_SCALES = 4


def vifp(ref, dist) -> float:
    ref, dist = _check_pair(ref, dist)
    num = 0.0
    den = 0.0
    tiny = np.finfo(np.float64).tiny
    for scale in range(1, _SCALES + 1):
        n = 2 ** (_SCALES - scale + 1) + 1
        win = gaussian_window(n, n / 5.0)
        if scale > 1:
            ref = fftconvolve(ref, win, mode="valid")[::2, ::2]
            dist = fftconvolve(dist, win, mode="valid")[::2, ::2]
        if ref.shape[0] < n or ref.shape[1] < n:
            break
        _, _, var_r, var_d, cov = _local_stats(ref, dist, win)
        var_r, var_d = np.maximum(var_r, 0.0), np.maximum(var_d, 0.0)
        # roundoff-scale variances on flat regions carry no information
        var_r[var_r < _VAR_EPS] = 0.0
        var_d[var_d < _VAR_EPS] = 0.0

        gain = np.where(var_r > 0, cov / np.maximum(var_r, tiny), 0.0)
        gain = np.maximum(gain, 0.0)
        noise = np.maximum(var_d - gain * cov, 0.0)

        num += float(np.sum(np.log10(1.0 + gain * gain * var_r / (noise + _SIGMA_NSQ))))
        den += float(np.sum(np.log10(1.0 + var_r / _SIGMA_NSQ)))
    if den == 0.0:
        raise DegenerateReference("reference has no information content for VIFp")
    return num / den
