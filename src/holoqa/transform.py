"""Band-limited upsampling, Fourier <-> Fresnel conversion, numerical
reconstruction to amplitude views and clip-and-quantize rendering.

DFT conventions used throughout (fixed, so all round trips are exact):

* transforms are the unnormalized ``scipy.fft`` FFTs, with NumPy's
  ``fftshift``/``ifftshift`` for centering;
* "centered" spectra are obtained with ``fftshift(fft2(x))``; for an axis of
  length n the shifted frequency window is [-(n//2), n - n//2 - 1], so the
  n//2-th entry is the most negative frequency and even lengths carry their
  Nyquist bin there (it is kept whole when padding, which makes
  upsample/downsample exactly inverse of each other);
* physical sample coordinates along an axis of n samples at pitch p are
  x = (index - n//2) * p, i.e. the grid is centered on index n//2;
* reconstruction amplitude is |fftshift(fft2(ifftshift(field)))|, so Parseval
  reads sum(A^2) = rows*cols*sum(|field|^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .errors import (
    CorruptInput,
    DegenerateAmplitude,
    FormMismatch,
    InvalidFactor,
    PlanMismatch,
    UnsupportedFormat,
)
from .field import (
    _NUMBER,
    ApertureSpec,
    HologramForm,
    WaveField,
    _check_keys,
    _of_type,
    read_json_object,
    write_json,
)


@dataclass(frozen=True)
class ConversionPlan:
    """Record of a Fourier->Fresnel conversion, sufficient to invert it."""

    m: int
    z: float
    source_rows: int
    source_cols: int
    target_rows: int
    target_cols: int
    target_pitch: float
    wavelength: float


def _check_factor(m) -> int:
    """``m`` as an int; raises InvalidFactor unless it is a number (an
    integral float runs as its int) that is an integer >= 2."""
    if not (_of_type(m, _NUMBER) and float(m).is_integer() and m >= 2):
        raise InvalidFactor(f"upsampling factor must be an integer >= 2, got {m!r}")
    return int(m)


# plan keys and their JSON types
_PLAN_TYPES = {"m": int, "z": _NUMBER, "source_rows": int, "source_cols": int,
               "target_rows": int, "target_cols": int,
               "target_pitch": _NUMBER, "wavelength": _NUMBER}


def read_plan(path: str) -> ConversionPlan:
    """The conversion plan stored at ``path`` by ``holoqa convert``; raises
    CorruptInput on invalid JSON, a missing, extra or mistyped key or a
    size, z, pitch or wavelength that is not positive, InvalidFactor on an
    ``m`` below 2."""
    doc = read_json_object(path, "conversion plan")
    _check_keys(path, doc, _PLAN_TYPES, "conversion plan")
    extra = sorted(set(doc) - set(_PLAN_TYPES))
    if extra:
        raise CorruptInput(f"{path}: conversion plan has unknown keys {extra}")
    _check_factor(doc["m"])
    for key in _PLAN_TYPES:
        if not doc[key] > 0:
            raise CorruptInput(f"{path}: conversion plan key {key!r} holds {doc[key]!r}")
    return ConversionPlan(**doc)


def compute_focus_distance(n_pixels: int, pitch: float, wavelength: float, m: int = 2) -> float:
    """Demodulation distance z = (m/(m-1)) * N * p^2 / lambda.

    N and p are the post-upsampling pixel count (larger dimension) and pitch.
    """
    m = _check_factor(m)
    if n_pixels < 1 or pitch <= 0 or wavelength <= 0:
        raise InvalidFactor("n_pixels, pitch and wavelength must be positive")
    return (m / (m - 1.0)) * n_pixels * pitch * pitch / wavelength


def _pad_centered_spectrum(spec: np.ndarray, m: int) -> np.ndarray:
    rows, cols = spec.shape
    out = np.zeros((rows * m, cols * m), dtype=spec.dtype)
    r0 = rows * m // 2 - rows // 2
    c0 = cols * m // 2 - cols // 2
    out[r0 : r0 + rows, c0 : c0 + cols] = spec
    return out


def _crop_centered_spectrum(spec: np.ndarray, m: int) -> np.ndarray:
    rows, cols = spec.shape
    nr, nc = rows // m, cols // m
    r0 = rows // 2 - nr // 2
    c0 = cols // 2 - nc // 2
    return spec[r0 : r0 + nr, c0 : c0 + nc]


def upsample_grid(data: np.ndarray, m: int) -> np.ndarray:
    """Band-limited interpolation by centered zero padding of the spectrum.

    Original samples are reproduced exactly at stride-m grid positions.
    """
    spec = np.fft.fftshift(sp_fft.fft2(data))
    padded = _pad_centered_spectrum(spec, m)
    return sp_fft.ifft2(np.fft.ifftshift(padded), overwrite_x=True) * (m * m)


def downsample_grid(data: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`upsample_grid` (centered spectral crop)."""
    spec = np.fft.fftshift(sp_fft.fft2(data))
    cropped = _crop_centered_spectrum(spec, m)
    return sp_fft.ifft2(np.fft.ifftshift(cropped), overwrite_x=True) / (m * m)


def _grid_coordinates(rows: int, cols: int, pitch: float):
    y = (np.arange(rows) - rows // 2) * pitch
    x = (np.arange(cols) - cols // 2) * pitch
    return y[:, None], x[None, :]


def parabolic_kernel(rows: int, cols: int, pitch: float, wavelength: float, z: float) -> np.ndarray:
    """Unit-modulus demodulation kernel K(z) = exp(i*pi*(x^2+y^2)/(lambda*z))."""
    y, x = _grid_coordinates(rows, cols, pitch)
    return np.exp(1j * np.pi * (x * x + y * y) / (wavelength * z))


def fourier_to_fresnel(f: WaveField, m: int = 2) -> tuple[WaveField, ConversionPlan]:
    """Convert a Fourier hologram to Fresnel form: K(z) * US(H)."""
    m = _check_factor(m)
    if f.form is not HologramForm.FOURIER:
        raise FormMismatch("fourier_to_fresnel requires a Fourier-form hologram")
    up = upsample_grid(f.data, m)
    rows, cols = up.shape
    pitch = f.pixel_pitch / m
    z = compute_focus_distance(max(rows, cols), pitch, f.wavelength, m)
    kernel = parabolic_kernel(rows, cols, pitch, f.wavelength, z)
    plan = ConversionPlan(m, z, f.rows, f.cols, rows, cols, pitch, f.wavelength)
    return WaveField(kernel * up, pitch, f.wavelength, HologramForm.FRESNEL), plan


def fresnel_to_fourier(f: WaveField, plan: ConversionPlan) -> WaveField:
    """Invert :func:`fourier_to_fresnel`: conjugate kernel, then decimate."""
    if f.form is not HologramForm.FRESNEL:
        raise PlanMismatch("fresnel_to_fourier requires a Fresnel-form hologram")
    if (f.rows, f.cols) != (plan.target_rows, plan.target_cols):
        raise PlanMismatch(
            f"field is {f.rows}x{f.cols} but plan expects "
            f"{plan.target_rows}x{plan.target_cols}"
        )
    kernel = parabolic_kernel(f.rows, f.cols, plan.target_pitch, plan.wavelength, plan.z)
    down = downsample_grid(np.conj(kernel) * f.data, plan.m)
    return WaveField(down, plan.target_pitch * plan.m, plan.wavelength, HologramForm.FOURIER)


def nominal_focus_distance(f: WaveField) -> float:
    """Nominal focus distance convention for refocusing: Eq-style distance of
    the m=2 converted hologram, computed from the field's own grid."""
    return compute_focus_distance(max(f.rows, f.cols), f.pixel_pitch, f.wavelength, 2)


def refocus_kernel(rows: int, cols: int, pitch: float, wavelength: float,
                   focal_offset: float, z_nominal: float) -> np.ndarray:
    """Quadratic-phase refocus kernel Q(delta) in the hologram plane.

    Q == 1 for delta = 0; otherwise Q = K(-d_eff), the parabolic kernel at
    the effective curvature distance d_eff = z_nominal^2 / delta (paraxial
    focal shift of delta around the nominal plane).
    """
    if focal_offset == 0.0:
        return np.ones((rows, cols), dtype=np.complex128)
    return parabolic_kernel(rows, cols, pitch, wavelength,
                            -z_nominal * z_nominal / focal_offset)


def reconstruct_view(f: WaveField, ap: ApertureSpec | None = None,
                     focal_offset: float = 0.0) -> np.ndarray:
    """Render the amplitude of a view: |centered DFT(aperture * Q(delta))|,
    the aperture being the window ``ap`` of ``f`` (all of it when None).
    Raises ApertureOutOfBounds unless the window fits.

    Fourier-form holograms only; callers holding a Fresnel field convert it
    back with its plan first.
    """
    if f.form is not HologramForm.FOURIER:
        raise FormMismatch("reconstruct_view requires a Fourier-form hologram")
    data = f.data
    if ap is not None:
        ap.check_inside(f.rows, f.cols)
        data = data[ap.row_offset : ap.row_offset + ap.height,
                    ap.col_offset : ap.col_offset + ap.width]
    if focal_offset != 0.0:
        q = refocus_kernel(*data.shape, f.pixel_pitch, f.wavelength,
                           focal_offset, nominal_focus_distance(f))
        data = data * q
    spectrum = np.fft.fftshift(sp_fft.fft2(np.fft.ifftshift(data), overwrite_x=True))
    return np.abs(spectrum)


def view_clip_bound(ref_amp: np.ndarray, clip_percentile: float) -> float:
    """The clip bound every version of a view is quantized against: the
    ``clip_percentile`` percentile of the reference amplitude. Raises
    DegenerateAmplitude unless it is > 0."""
    bound = float(np.percentile(ref_amp, clip_percentile))
    if not bound > 0:
        raise DegenerateAmplitude("reference amplitude has a non-positive clip bound")
    return bound


def clip_and_quantize_view(amp: np.ndarray, bound: float) -> np.ndarray:
    """Clip an amplitude to [0, bound] and map it to 8 bits, so every version
    quantized with its reference's bound stays comparable."""
    return np.round(255.0 * np.clip(amp, 0.0, bound) / bound).astype(np.uint8)


# ---------------------------------------------------------------------------
# PGM persistence for rendered views

def store_view(pixels: np.ndarray, path: str, clip_bound: float, aperture: ApertureSpec,
               focal_offset: float, nominal_distance: float, source_id: str) -> None:
    """Write a binary P5 PGM plus a JSON sidecar with the view metadata: the
    focal offset the view was rendered at (meters from the nominal plane) and
    the absolute focus distance, nominal distance plus offset."""
    store_gray_pgm(pixels, path)
    write_json(path + ".json", {
        "clip_bound": clip_bound,
        "focal_offset": focal_offset,
        "focus_distance": nominal_distance + focal_offset,
        "source_id": source_id,
        "aperture": {
            "row_offset": aperture.row_offset,
            "col_offset": aperture.col_offset,
            "height": aperture.height,
            "width": aperture.width,
        },
    })


def store_gray_pgm(pixels: np.ndarray, path: str) -> None:
    """Write a bare uint8 grid as binary P5 PGM (quality maps etc.)."""
    px = np.ascontiguousarray(pixels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{px.shape[1]} {px.shape[0]}\n255\n".encode())
        fh.write(px.tobytes())


def load_gray_pgm(path: str) -> np.ndarray:
    """Read a binary P5 PGM written by :func:`store_gray_pgm`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5" or fields[3] != b"255":
        raise UnsupportedFormat(f"{path}: not an 8-bit binary PGM")
    if not (fields[1].isdigit() and fields[2].isdigit()):
        raise UnsupportedFormat(f"{path}: PGM dimensions are not integers")
    cols, rows = int(fields[1]), int(fields[2])
    if rows == 0 or cols == 0:
        raise CorruptInput(f"{path}: PGM header declares an empty {cols}x{rows} image")
    pixels = raw[pos + 1 :]
    if len(pixels) < rows * cols:
        raise CorruptInput(
            f"{path}: {len(pixels)} pixel bytes, header declares {cols}x{rows}"
        )
    data = np.frombuffer(pixels, dtype=np.uint8, count=rows * cols)
    return data.reshape(rows, cols).copy()
