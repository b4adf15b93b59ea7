"""Full-reference quality metric suite and registry.

Registry ids (used in reports and on the CLI): mse, nmse, psnr, ssrm,
ssrmt, ssim, iwssim, msssim, uqi, gmsd, fsim, nlpd, vifp, plus the
complex-capable variants mse_C, nmse_C, psnr_C, ssrm_C, ssrmt_C.

Each metric is a plain ``(ref, dist) -> float`` function in its standard
formulation; its constants are fixed module values next to it.

Scratch: ``evaluate_real`` and ``evaluate_complex`` take two optional
dicts. The pair ``scratch`` lets the metrics of one (ref, dist) pair share
intermediates: ssrm/ssrmt (and _C) one FFT-magnitude and rank pass per
image, ssim/iwssim/msssim the distorted image's dyadic scales with their
contrast-structure maps and the luminance maps SSIM and MS-SSIM read
(scale 0 and the coarsest). Make a new one per pair; it holds one
intermediate at a time. The
``ref_scratch`` belongs to one reference plane, view or complex crop and
lives across the distorted versions scored against it. It holds only
reference-only intermediates, one per key and never evicted:

* ssrm/ssrmt (and _C): FFT magnitudes and mid-ranks ("spectrum");
* ssim/iwssim/msssim: the dyadic scales and their local (mean, variance)
  ("scales", grown to the most scales asked for); iwssim forms each detail
  band, the reference's too, at its own scale and keeps none;
* uqi: the 8x8 block (mean, variance) ("blocks");
* gmsd: the Prewitt gradient magnitude ("prewitt");
* fsim: phase congruency ("pc") and the Scharr gradient magnitude ("scharr");
* nlpd: the normalized pyramid ("pyramid");
* vifp: its scales and their local (mean, variance) ("vif_scales").

``FAMILIES`` groups the real metrics by the keys they share; no key is
shared across families, so a caller that scores family by family can give
each family a fresh reference scratch and drop it before the next, holding
one family's intermediates at a time. Values are bit-identical to calls
without either scratch.
"""

from __future__ import annotations

import numpy as np

from ..errors import UnknownMetric
from .gradient import fsim, gmsd, gmsd_map
from .pointwise import mse, nmse, psnr
from .pyramid import nlpd
from .spectral import ssrm, ssrmt
from .ssim import iw_ssim, ms_ssim, ssim, ssim_map, uqi
from .vif import vifp

# real-valued metrics, in the paper's Table-1 order
REAL_METRICS = {
    "mse": mse,
    "nmse": nmse,
    "psnr": psnr,
    "ssrm": ssrm,
    "ssrmt": ssrmt,
    "ssim": ssim,
    "iwssim": iw_ssim,
    "msssim": ms_ssim,
    "uqi": uqi,
    "gmsd": gmsd,
    "fsim": fsim,
    "nlpd": nlpd,
    "vifp": vifp,
}

# metrics that can consume complex wavefields directly
COMPLEX_CAPABLE = ("mse", "nmse", "psnr", "ssrm", "ssrmt")
COMPLEX_METRICS = tuple(f"{mid}_C" for mid in COMPLEX_CAPABLE)

ALL_METRIC_IDS = tuple(REAL_METRICS) + COMPLEX_METRICS

# the real metrics grouped by the scratch keys they share, in Table-1 order
FAMILIES = (("mse", "nmse", "psnr"), ("ssrm", "ssrmt"), ("ssim", "iwssim", "msssim"),
            ("uqi",), ("gmsd",), ("fsim",), ("nlpd",), ("vifp",))

# metrics that read and fill a pair scratch, and a reference scratch
_SCRATCH_METRICS = frozenset({"ssrm", "ssrmt", "ssim", "iwssim", "msssim"})
_REF_SCRATCH_METRICS = frozenset(REAL_METRICS) - {"mse", "nmse", "psnr"}

# metrics that can emit a per-pixel quality map
MAP_METRICS = {"ssim": ssim_map, "gmsd": gmsd_map}


def check_metric_ids(ids) -> tuple:
    """``ids`` as a tuple; raises UnknownMetric on an id the registry lacks
    or one that appears twice."""
    ids = tuple(ids)
    for mid in ids:
        if mid not in ALL_METRIC_IDS:
            raise UnknownMetric(
                f"unknown metric {mid!r}; known: {', '.join(ALL_METRIC_IDS)}"
            )
        if ids.count(mid) > 1:
            raise UnknownMetric(f"metric {mid!r} listed more than once")
    return ids


def metric_families(ids) -> tuple:
    """The real metrics of ``ids`` as the non-empty parts of ``FAMILIES``,
    in ``FAMILIES`` order."""
    return tuple(part for part in (tuple(m for m in family if m in ids)
                                   for family in FAMILIES) if part)


def perfect_value(metric_id: str) -> float:
    """Score obtained on identical inputs."""
    base = metric_id[:-2] if metric_id.endswith("_C") else metric_id
    if base in ("mse", "nmse", "gmsd", "nlpd"):
        return 0.0
    if base == "psnr":
        return float("inf")
    return 1.0


def _run(metric_id: str, ref, dist, scratch, ref_scratch) -> float:
    kwargs = {}
    if metric_id in _SCRATCH_METRICS:
        kwargs["scratch"] = scratch
    if metric_id in _REF_SCRATCH_METRICS:
        kwargs["ref_scratch"] = ref_scratch
    return REAL_METRICS[metric_id](ref, dist, **kwargs)


def evaluate_real(metric_id: str, ref, dist, scratch: dict | None = None,
                  ref_scratch: dict | None = None) -> float:
    """Run a real-valued metric on a pair of real 2D grids."""
    if metric_id not in REAL_METRICS:
        raise UnknownMetric(
            f"unknown metric {metric_id!r}; known: {', '.join(ALL_METRIC_IDS)}"
        )
    return _run(metric_id, ref, dist, scratch, ref_scratch)


def evaluate_complex(metric_id: str, ref, dist, scratch: dict | None = None,
                     ref_scratch: dict | None = None) -> float:
    """Run a complex-capable metric (id with "_C" suffix) on complex grids."""
    if metric_id not in COMPLEX_METRICS:
        raise UnknownMetric(
            f"{metric_id!r} is not a complex-mode metric; known: "
            f"{', '.join(COMPLEX_METRICS)}"
        )
    ref = np.asarray(ref, dtype=np.complex128)
    dist = np.asarray(dist, dtype=np.complex128)
    return _run(metric_id[:-2], ref, dist, scratch, ref_scratch)

