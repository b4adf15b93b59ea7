"""Adaptive local Wiener despeckling of reconstructed amplitude views.

The estimate is y = mu + max(var - nv, 0) / var * (x - mu) with mu/var the
local window moments (symmetric boundary padding) and nv the noise variance.
With nv = AUTO the noise variance is the mean of all local variances; the
bench harness resolves AUTO once from the reference reconstruction and
reuses the resolved value for the distorted member of a pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import uniform_filter

from .errors import InvalidField, WindowTooLarge

AUTO = "auto"


@dataclass(frozen=True)
class WienerParams:
    window: int = 5           # side of the square window
    noise_variance: float | str = AUTO

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise InvalidField(f"window must be odd and >= 3, got {self.window}")
        nv = self.noise_variance
        if nv != AUTO and not (isinstance(nv, (int, float)) and nv >= 0):
            raise InvalidField(f"noise_variance must be >= 0 or 'auto', got {nv!r}")


def local_moments(img, window_h, window_w):
    """Local mean and variance over a window_h x window_w sliding window with
    symmetric boundary padding. Returns (mean, var), same shape as img."""
    img = np.asarray(img, dtype=np.float64)
    size = (window_h, window_w)
    mean = uniform_filter(img, size=size, mode="reflect")
    mean_sq = uniform_filter(img * img, size=size, mode="reflect")
    var = np.maximum(mean_sq - mean * mean, 0.0)
    return mean, var


def estimate_noise_variance(image: np.ndarray, params: WienerParams) -> float:
    """AUTO rule: mean of the local window variances of the image."""
    image = np.asarray(image, dtype=np.float64)
    _check_window(image, params)
    _, var = local_moments(image, params.window, params.window)
    return float(var.mean())


def resolve_params(reference: np.ndarray, params: WienerParams) -> WienerParams:
    """Resolve AUTO against the reference image so a stimulus pair shares one
    concrete noise variance."""
    if params.noise_variance != AUTO:
        return params
    return replace(params, noise_variance=estimate_noise_variance(reference, params))


def _check_window(image: np.ndarray, params: WienerParams) -> None:
    if params.window > min(image.shape):
        raise WindowTooLarge(f"window {params.window}x{params.window} exceeds image "
                             f"{image.shape[0]}x{image.shape[1]}")


def wiener_denoise(image: np.ndarray, params: WienerParams) -> np.ndarray:
    """Pixel-wise adaptive Wiener estimate; output has the input's shape."""
    image = np.asarray(image, dtype=np.float64)
    if not np.all(np.isfinite(image)):
        raise InvalidField("image contains non-finite samples")
    _check_window(image, params)
    if params.noise_variance == AUTO:
        params = resolve_params(image, params)
    nv = float(params.noise_variance)
    if nv == 0.0:
        # zero noise power: the filter is the identity
        return image.copy()

    mean, var = local_moments(image, params.window, params.window)
    tiny = np.finfo(np.float64).tiny
    gain = np.maximum(var - nv, 0.0) / np.maximum(var, tiny)
    return mean + gain * (image - mean)
