"""Full-reference quality metric suite and registry.

Registry ids (used in reports and on the CLI): mse, nmse, psnr, ssrm,
ssrmt, ssim, iwssim, msssim, uqi, gmsd, fsim, nlpd, vifp, plus the
complex-capable variants mse_C, nmse_C, psnr_C, ssrm_C, ssrmt_C.

Each metric is a plain ``(ref, dist) -> float`` function in its standard
formulation; its constants are fixed module values next to it.

Scratch: ``evaluate_real``, ``evaluate_complex`` and ``score_components_avg``
(one dict per plane) take two optional dicts. The pair ``scratch`` lets the
metrics of one (ref, dist) pair share intermediates: ssrm/ssrmt (and _C) one
FFT-magnitude and rank pass per image, ssim/iwssim/msssim the full-size
luminance and contrast-structure maps. Make a new one per pair; it holds one
intermediate at a time. The ``ref_scratch`` belongs to one reference plane,
view or complex crop and lives across every distorted version scored against
it. It holds only reference-only intermediates, one per key and never
evicted: fsim's phase congruency ("pc"), ssrm/ssrmt's FFT magnitudes and
mid-ranks ("spectrum") and nlpd's normalized pyramid ("pyramid"). Values are
bit-identical to calls without either scratch.

``score_components_avg`` scores the imaginary planes on a worker thread of
its own while the calling thread scores the real planes; each plane has its
own scratches, so the value is the serial one.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..errors import UnknownMetric
from ..field import QuantizedField
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

# metrics that read and fill a pair scratch, and a reference scratch
_SCRATCH_METRICS = frozenset({"ssrm", "ssrmt", "ssim", "iwssim", "msssim"})
_REF_SCRATCH_METRICS = frozenset({"ssrm", "ssrmt", "fsim", "nlpd"})

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


def score_components_avg(metric_id: str, ref: QuantizedField, dist: QuantizedField,
                         scratch: tuple = (None, None),
                         ref_scratch: tuple = (None, None)) -> float:
    """Apply a real-valued metric to the 8-bit real planes and the 8-bit
    imaginary planes separately and return the arithmetic mean. ``scratch``
    is a (real-plane, imaginary-plane) pair of scratch dicts, ``ref_scratch``
    the same for the reference's planes. The imaginary planes are scored on
    a worker thread that lives for this call; leaving the ``with`` block waits
    for it, so a real-plane error wins over an imaginary-plane one, and
    neither is raised before both planes are done."""
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="holoqa-plane") as pool:
        im_future = pool.submit(evaluate_real, metric_id,
                                ref.imag_plane.astype(np.float64),
                                dist.imag_plane.astype(np.float64), scratch[1],
                                ref_scratch[1])
        re_score = evaluate_real(metric_id, ref.real_plane.astype(np.float64),
                                 dist.real_plane.astype(np.float64), scratch[0],
                                 ref_scratch[0])
    return 0.5 * (re_score + im_future.result())
