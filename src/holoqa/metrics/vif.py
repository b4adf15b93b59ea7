"""Pixel-domain Visual Information Fidelity (VIFp).

Multi-scale Gaussian decomposition; per scale the distortion channel is
modeled as a local gain plus additive noise and the score is the ratio of
the information the distorted image retains about the source to the
information content of the reference.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateReference
from .params import from_ref_scratch
from .ssim import _check_pair, _local_stats, _ref_stats, gaussian_window, separable_filter

_SIGMA_NSQ = 2.0
_VAR_EPS = 1e-10
_SCALES = 4


def _ref_scales(ref: np.ndarray) -> list:
    """(taps, ref_s, ``_ref_stats`` under the taps) of each scale the
    reference is large enough for, finest first: scale s > 1 is scale s-1
    filtered with its own taps and decimated by 2."""
    out = []
    for scale in range(1, _SCALES + 1):
        n = 2 ** (_SCALES - scale + 1) + 1
        taps = gaussian_window(n, n / 5.0)
        if scale > 1:
            ref = separable_filter(ref, taps)[::2, ::2]
        if ref.shape[0] < n or ref.shape[1] < n:
            break
        out.append((taps, ref, _ref_stats(ref, lambda x: separable_filter(x, taps))))
    return out


def vifp(ref, dist, ref_scratch: dict | None = None) -> float:
    """VIFp over the reference's scales; those scales and their local
    statistics are kept in ``ref_scratch`` ("vif_scales"). Each scale's
    chain is written into maps this call owns: a copy of the reference
    variance (the scratch's stays as it is), the distorted variance and
    the covariance; each sum runs over a whole contiguous map."""
    ref, dist = _check_pair(ref, dist)
    num = 0.0
    den = 0.0
    tiny = np.finfo(np.float64).tiny
    for scale, (taps, ref_s, stats) in enumerate(
            from_ref_scratch(ref_scratch, "vif_scales", lambda: _ref_scales(ref))):
        if scale:
            dist = separable_filter(dist, taps)[::2, ::2]
        var_r, var_d, cov = _local_stats(
            ref_s, dist, lambda x: separable_filter(x, taps), stats)[2:]
        var_r = np.maximum(var_r, 0.0)
        np.maximum(var_d, 0.0, out=var_d)
        # roundoff-scale variances on flat regions carry no information
        var_r[var_r < _VAR_EPS] = 0.0
        var_d[var_d < _VAR_EPS] = 0.0

        # gain = max(cov / max(var_r, tiny), 0) where var_r > 0, else 0
        gain = np.maximum(var_r, tiny)
        np.divide(cov, gain, out=gain)
        gain[~(var_r > 0)] = 0.0
        np.maximum(gain, 0.0, out=gain)
        # noise = max(var_d - gain * cov, 0)
        noise = var_d
        noise -= np.multiply(gain, cov, out=cov)
        np.maximum(noise, 0.0, out=noise)
        del cov

        info = np.multiply(gain, gain, out=gain)
        info *= var_r
        noise += _SIGMA_NSQ
        info /= noise
        del noise, var_d
        num += float(np.sum(np.log10(np.add(1.0, info, out=info), out=info)))
        del info
        info_r = np.divide(var_r, _SIGMA_NSQ, out=var_r)
        den += float(np.sum(np.log10(np.add(1.0, info_r, out=info_r), out=info_r)))
    if den == 0.0:
        raise DegenerateReference("reference has no information content for VIFp")
    return num / den
