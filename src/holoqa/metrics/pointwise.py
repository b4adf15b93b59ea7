"""Pixel-difference measures: MSE, NMSE and PSNR, on real or complex grids."""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateReference, DimMismatch


def _as_pair(ref, dist):
    ref = np.asarray(ref)
    dist = np.asarray(dist)
    if ref.shape != dist.shape:
        raise DimMismatch(f"shape mismatch: {ref.shape} vs {dist.shape}")
    cplx = np.iscomplexobj(ref) or np.iscomplexobj(dist)
    dtype = np.complex128 if cplx else np.float64
    return np.asarray(ref, dtype=dtype), np.asarray(dist, dtype=dtype), cplx


def mse_value(ref, dist) -> float:
    """MSE of two arrays already converted by ``_as_pair``."""
    return float(np.mean(np.abs(dist - ref) ** 2))


def mse(ref, dist) -> float:
    r, d, _ = _as_pair(ref, dist)
    return mse_value(r, d)


def nmse(ref, dist) -> float:
    """Squared error normalized by the squared Frobenius norm of the reference."""
    r, d, _ = _as_pair(ref, dist)
    denom = float(np.sum(np.abs(r) ** 2))
    if denom == 0.0:
        raise DegenerateReference("zero-energy reference in NMSE")
    return float(np.sum(np.abs(d - r) ** 2) / denom)


PSNR_PEAK_REAL = 255.0      # 8-bit planes and views
PSNR_PEAK_COMPLEX = 1.0     # dequantized complex fields


def psnr(ref, dist) -> float:
    """10*log10(peak^2 / MSE); +inf sentinel on identical inputs.

    Peak is 255 for real inputs and 1 for complex inputs.
    """
    r, d, cplx = _as_pair(ref, dist)
    err = mse_value(r, d)
    peak = PSNR_PEAK_COMPLEX if cplx else PSNR_PEAK_REAL
    return float("inf") if err == 0.0 else float(10.0 * np.log10(peak * peak / err))
