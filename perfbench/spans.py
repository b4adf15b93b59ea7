"""Span tracing for the traced benchmark run.

The library has no tracing code. ``install`` replaces the module attributes
that ``holoqa.cli``, ``holoqa.harness`` and ``holoqa.metrics`` look up at call
time with wrappers that record one span per call: name, start, end, parent
span, invocation id and a few attributes (input digest, pixel count, fit
convergence). Spans stay in memory until ``Tracer.dump`` writes them out.

``layer_metrics`` turns a span list into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time

import numpy as np

# (module, attribute) -> span name; "metrics.*" spans are named per metric id
WRAPPED = {
    ("holoqa.cli", "load_manifest"): "harness.load_manifest",
    ("holoqa.cli", "read_mos_csv"): "stats.read_mos",
    ("holoqa.cli", "run_track"): "harness.run_track",
    ("holoqa.cli", "emit_report"): "harness.report",
    ("holoqa.harness", "load_quantized"): "field.load",
    ("holoqa.harness", "dequantize_components"): "field.dequantize",
    ("holoqa.harness", "extract_aperture_quantized"): "field.crop",
    ("holoqa.harness", "quantize_components"): "field.quantize",
    ("holoqa.harness", "fourier_to_fresnel"): "transform.fresnel",
    ("holoqa.harness", "reconstruct_view"): "transform.reconstruct",
    ("holoqa.harness", "clip_and_quantize_view"): "transform.clip",
    ("holoqa.harness", "resolve_params"): "denoise.resolve",
    ("holoqa.harness", "wiener_denoise"): "denoise.wiener",
    ("holoqa.harness", "evaluate_metric"): "stats.evaluate",
    ("holoqa.harness", "significance_matrix"): "stats.significance",
    ("holoqa.harness", "rank_aggregate"): "stats.rank_aggregate",
    ("holoqa.harness", "evaluate_real"): "metrics",
    ("holoqa.harness", "evaluate_complex"): "metrics",
    ("holoqa.harness", "score_components_avg"): "metrics",
    # the per-plane calls score_components_avg makes
    ("holoqa.metrics", "evaluate_real"): "metrics.plane",
}

METRIC_IDS = ("mse", "nmse", "psnr", "ssrm", "ssrmt", "ssim", "iwssim", "msssim",
              "uqi", "gmsd", "fsim", "nlpd", "vifp",
              "mse_C", "nmse_C", "psnr_C", "ssrm_C", "ssrmt_C")

# spans whose inputs are digested, for the unique-input fractions
DIGESTED = ("field.dequantize", "transform.fresnel", "transform.reconstruct")


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(str((p.dtype, p.shape)).encode())
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _input_digest(name, args, kwargs) -> str:
    first = args[0]
    if name == "field.dequantize":   # QuantizedField
        return _digest(first.real_plane, first.imag_plane, first.real_affine,
                       first.imag_affine, first.pixel_pitch, first.wavelength)
    # WaveField plus the remaining arguments (factor, aperture, focal offset)
    return _digest(first.data, first.pixel_pitch, first.wavelength,
                   first.form, args[1:], sorted(kwargs.items()))


def _pixels(args) -> int:
    ref = args[1]
    if hasattr(ref, "real_plane"):        # score_components_avg: two planes
        return 2 * ref.real_plane.size
    return int(np.asarray(ref).size)


class Tracer:
    """Collects spans of one invocation in memory."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans = []
        self._stack = []

    def span(self, name, fn, *args, **kwargs):
        attrs = {}
        if name in DIGESTED:
            attrs["digest"] = _input_digest(name, args, kwargs)
        if name.startswith("metrics."):
            attrs["pixels"] = _pixels(args)
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                  "invocation": self.invocation, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        if name == "stats.evaluate":
            attrs["converged"] = bool(result.fit.converged)
        return result

    def wrap(self, name, fn):
        if name in ("metrics", "metrics.plane"):
            suffix = ".plane" if name == "metrics.plane" else ""

            @functools.wraps(fn)
            def metric_wrapper(metric_id, *args, **kwargs):
                return self.span(f"metrics.{metric_id}{suffix}", fn, metric_id,
                                 *args, **kwargs)
            return metric_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> None:
    """Wrap every attribute in ``WRAPPED``; the modules must be imported."""
    import importlib

    for (module, attr), name in WRAPPED.items():
        mod = importlib.import_module(module)
        setattr(mod, attr, tracer.wrap(name, getattr(mod, attr)))


# ---------------------------------------------------------------------------
# aggregation

def _self_times(spans) -> list:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child_time)]


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced invocation (see README.md)."""
    dur = {}
    calls = {}
    digests = {}
    fits = unconverged = degenerate = 0
    pixels = 0
    selfs = _self_times(spans)
    self_by_name = {}
    for s, own in zip(spans, selfs):
        name = s["name"]
        d = s["end"] - s["start"]
        dur[name] = dur.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        attrs = s["attrs"]
        if "digest" in attrs:
            digests.setdefault(name, set()).add(attrs["digest"])
        if name == "stats.evaluate":
            if attrs.get("error") == "DegenerateRanks":
                degenerate += 1
            elif "converged" in attrs:
                fits += 1
                unconverged += not attrs["converged"]
        if name.startswith("metrics.") and not name.endswith(".plane"):
            pixels += attrs["pixels"]

    out = {}
    total = 0.0
    for mid in METRIC_IDS:
        out[f"metrics.{mid}_s"] = dur.get(f"metrics.{mid}", 0.0)
        out[f"metrics.{mid}_calls"] = calls.get(f"metrics.{mid}", 0)
        total += out[f"metrics.{mid}_s"]
    out["metrics.total_s"] = total
    out["metrics.mpix_per_s"] = pixels / 1e6 / total if total > 0 else 0.0

    out["stats.evaluate_s"] = dur.get("stats.evaluate", 0.0)
    out["stats.fits"] = fits
    out["stats.fits_unconverged"] = unconverged
    out["stats.degenerate"] = degenerate
    out["stats.significance_s"] = dur.get("stats.significance", 0.0)
    out["stats.rank_aggregate_s"] = dur.get("stats.rank_aggregate", 0.0)
    out["stats.read_mos_s"] = dur.get("stats.read_mos", 0.0)

    for name in ("transform.fresnel", "transform.reconstruct", "denoise.wiener"):
        out[f"{name}_s"] = dur.get(name, 0.0)
        out[f"{name}_calls"] = calls.get(name, 0)
    for name in ("field.quantize", "transform.clip", "denoise.resolve",
                 "field.load", "field.dequantize", "field.crop",
                 "harness.load_manifest", "harness.report"):
        out[f"{name}_s"] = dur.get(name, 0.0)
    for name in DIGESTED:
        n = calls.get(name, 0)
        out[f"{name}_unique_frac"] = len(digests.get(name, ())) / n if n else 0.0
    out["harness.self_s"] = self_by_name.get("harness.run_track", 0.0)
    out["cli.self_s"] = self_by_name.get("cli.main", 0.0)
    return out
