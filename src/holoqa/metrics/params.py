"""Shared metric parameter defaults, the score record type and the per-pair
scratch lookup."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


@dataclass(frozen=True)
class MetricParams:
    """Parameter settings for the full-reference metric suite.

    Defaults follow the standard formulations for 8-bit input: dynamic range
    L = 255, SSIM exponents (1,1,1) with C1=(0.01L)^2, C2=(0.03L)^2, C3=C2/2,
    UQI block 8, GMSD T=170, FSIM T1=0.85/T2=160 (grayscale: no T3), 5
    pyramid levels/scales, PSNR peak 255 (real) or 1 (complex).
    """

    dynamic_range: float = 255.0
    ssim_exponents: tuple = (1.0, 1.0, 1.0)
    ssim_window: int = 11
    ssim_sigma: float = 1.5
    uqi_block: int = 8
    gmsd_t: float = 170.0
    fsim_t1: float = 0.85
    fsim_t2: float = 160.0
    nlpd_levels: int = 5
    msssim_scales: int = 5
    msssim_weights: tuple = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
    iwssim_scales: int = 5
    vifp_scales: int = 4
    psnr_peak_real: float = 255.0
    psnr_peak_complex: float = 1.0

    @property
    def c1(self) -> float:
        return (0.01 * self.dynamic_range) ** 2

    @property
    def c2(self) -> float:
        return (0.03 * self.dynamic_range) ** 2


DEFAULT_PARAMS = MetricParams()


class ScoreMode(Enum):
    REAL = "real"
    REAL_AVG = "real-avg"
    COMPLEX = "complex"


@dataclass(frozen=True)
class MetricScore:
    metric_id: str
    mode: ScoreMode
    value: float


def from_scratch(scratch: dict | None, key, compute):
    """Intermediate ``key`` of the pair ``scratch`` belongs to, computed by
    ``compute()`` on a miss. A miss first drops the one entry the scratch
    held, so sharing never keeps two intermediates of a pair alive."""
    if scratch is None:
        return compute()
    if key not in scratch:
        scratch.clear()
        scratch[key] = compute()
    return scratch[key]
