"""Synthetic hologram generation and requantization, plus the desk-scale demo
dataset generator used by the bench harness and the CLI `synth` subcommand.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import InvalidField, ZeroScene
from .field import (
    ApertureSpec,
    HologramForm,
    QuantizedField,
    WaveField,
    quantize_components,
    store_quantized,
    write_json,
)
from .stats import Display, MosRecord, write_mos_csv
from .transform import nominal_focus_distance, refocus_kernel


@dataclass(frozen=True)
class ScenePoint:
    """Point source: transverse position in meters in the reconstruction
    plane, focal offset in meters from the nominal plane, and amplitude."""

    x: float
    y: float
    z: float = 0.0
    amplitude: float = 1.0


def synth_hologram(points, rows: int, cols: int, pitch: float,
                   wavelength: float) -> WaveField:
    """Sum per-point plane-wave/quadratic-phase contributions into a Fourier
    hologram, normalized to unit peak modulus.

    A point at transverse (x, y) and focal offset z contributes a linear
    phase placing its reconstruction peak at (x, y) in the view plane
    (bin spacing lambda*z_nom/(N*p)) times the conjugate refocus kernel, so
    reconstruct_view at focal_offset=z brings it back into focus.
    """
    points = list(points)
    if not points:
        raise ZeroScene("point list is empty")
    yy = (np.arange(rows) - rows // 2)[:, None] * pitch
    xx = (np.arange(cols) - cols // 2)[None, :] * pitch
    probe = WaveField(np.zeros((rows, cols)) + 0j + 1.0, pitch, wavelength,
                      HologramForm.FOURIER)
    z_nom = nominal_focus_distance(probe)

    data = np.zeros((rows, cols), dtype=np.complex128)
    for p in points:
        phase = 2.0 * np.pi * (yy * p.y + xx * p.x) / (wavelength * z_nom)
        contrib = p.amplitude * np.exp(1j * phase)
        if p.z != 0.0:
            q = refocus_kernel(rows, cols, pitch, wavelength, p.z, z_nom)
            contrib = contrib * np.conj(q)
        data += contrib
    peak = np.abs(data).max()
    if peak == 0.0:
        raise ZeroScene("scene contributions cancel everywhere")
    return WaveField(data / peak, pitch, wavelength, HologramForm.FOURIER)


def view_bin_spacing(field: WaveField) -> float:
    """Transverse distance per reconstruction bin: lambda * z_nom / (N * p)."""
    n = max(field.rows, field.cols)
    return field.wavelength * nominal_focus_distance(field) / (n * field.pixel_pitch)


# ---------------------------------------------------------------------------
# synthetic distortion (a stand-in for the codecs)

def synth_distort(q: QuantizedField, bits: int) -> QuantizedField:
    """Requantize both 8-bit planes to ``bits`` bits (1..8) and back to the
    0..255 code range; the affines are kept."""
    if not 1 <= bits <= 8:
        raise InvalidField(f"requantize bits must be in 1..8, got {bits}")
    levels = (1 << bits) - 1
    re, im = (np.round(np.round(plane / 255.0 * levels) / levels * 255.0).astype(np.uint8)
              for plane in (q.real_plane, q.imag_plane))
    return QuantizedField(re, im, q.real_affine, q.imag_affine,
                          q.pixel_pitch, q.wavelength, q.form, q.focus_offset)


# ---------------------------------------------------------------------------
# demo dataset

_DEMO_SCENES = ("dots", "bars", "ring", "cloud")
_DISPLAYS = (Display.OPT, Display.LF, Display.TWO_D)


def _demo_points(scene: str, extent: float, focal_step: float,
                 rng: np.random.Generator) -> list[ScenePoint]:
    pts = []
    if scene == "dots":
        for _ in range(24):
            pts.append(ScenePoint(
                rng.uniform(-extent, extent), rng.uniform(-extent, extent),
                rng.choice([0.0, focal_step]), rng.uniform(0.4, 1.0)))
    elif scene == "bars":
        for i in range(-10, 11):
            pts.append(ScenePoint(i * extent / 12, -extent / 3, 0.0, 0.9))
            pts.append(ScenePoint(i * extent / 12, extent / 3, focal_step, 0.7))
    elif scene == "ring":
        for k in range(28):
            ang = 2 * np.pi * k / 28
            r = 0.6 * extent
            pts.append(ScenePoint(r * np.cos(ang), r * np.sin(ang),
                                  focal_step if k % 2 else 0.0, 0.8))
    elif scene == "grid":
        for i in range(-7, 8):
            for j in range(-7, 8):
                pts.append(ScenePoint(i * extent / 8, j * extent / 8,
                                      focal_step if (i + j) % 2 else 0.0, 0.8))
    elif scene == "spokes":
        for a in range(8):
            ang = a * np.pi / 8
            for r in np.linspace(0.1, 0.9, 12):
                pts.append(ScenePoint(r * extent * np.cos(ang),
                                      r * extent * np.sin(ang),
                                      focal_step if a % 2 else 0.0, 0.85))
    elif scene == "cloud":
        for _ in range(60):
            pts.append(ScenePoint(
                rng.normal(0.0, extent / 3), rng.normal(0.0, extent / 3),
                rng.uniform(0.0, focal_step), rng.uniform(0.2, 1.0)))
    else:
        raise InvalidField(f"unknown demo scene {scene!r}")
    return pts


def generate_demo_dataset(out_dir: str, size: int = 256, aperture: int = 192,
                          bits_levels=(7, 6, 5), seed: int = 1234,
                          pitch: float = 8e-6, wavelength: float = 640e-9,
                          scenes=_DEMO_SCENES) -> str:
    """Write a self-contained demo dataset: quantized reference/distorted
    hologram files, a manifest and a synthetic MOS file whose scores track
    the distortion severity. Returns the manifest path."""
    fields_dir = os.path.join(out_dir, "fields")
    os.makedirs(fields_dir, exist_ok=True)

    probe = WaveField(np.ones((size, size), dtype=np.complex128), pitch,
                      wavelength, HologramForm.FOURIER)
    z_nom = nominal_focus_distance(probe)
    focal_step = 0.02 * z_nom
    extent = 0.35 * size * view_bin_spacing(probe)

    stimuli = []
    mos_records = []
    for si, scene in enumerate(scenes):
        scene_rng = np.random.default_rng(seed + 1000 * si)
        holo = synth_hologram(
            _demo_points(scene, extent, focal_step, scene_rng),
            size, size, pitch, wavelength,
        )
        ref_q = quantize_components(holo)
        ref_base = os.path.join(fields_dir, f"{scene}_ref")
        store_quantized(ref_q, ref_base)

        distorted = {}
        for bits in bits_levels:
            tag = f"requant{bits}"
            dist_q = synth_distort(ref_q, bits)
            base = os.path.join(fields_dir, f"{scene}_{tag}")
            store_quantized(dist_q, base)
            distorted[tag] = os.path.relpath(base, out_dir)

            # synthetic MOS: quality tracks the retained bit depth
            base_mos = 1.0 + 4.0 * (bits - min(bits_levels) + 1) / (
                8 - min(bits_levels) + 1)
            for display in _DISPLAYS:
                for view in ("center", "corner"):
                    for focal_index in range(2):
                        jitter = 0.25 * np.sin(
                            1.7 * si + 0.9 * focal_index
                            + 2.3 * _DISPLAYS.index(display) + (view == "corner")
                        )
                        mos_records.append(MosRecord(
                            f"{scene}:{tag}", display, view, focal_index,
                            float(np.clip(base_mos + jitter, 1.0, 5.0)),
                            0.5, 20,
                        ))

        stimuli.append({
            "id": scene,
            "reference": os.path.relpath(ref_base, out_dir),
            "distorted": distorted,
            "aperture_size": [aperture, aperture],
            "focal_offsets": [0.0, focal_step],
        })

    manifest = {
        "rating_scale": [1.0, 5.0],
        "views": ["center", "corner"],
        "stimuli": stimuli,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    write_json(manifest_path, manifest)
    write_mos_csv(mos_records, os.path.join(out_dir, "mos.csv"))
    return manifest_path
