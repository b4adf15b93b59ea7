"""Hologram data model: complex wavefields, 8-bit component quantization,
the view windows (synthetic apertures) and bit-exact file I/O.

File layout: one raw little-endian plane per algebraic component
(``<id>.re.f32`` / ``<id>.im.f32`` for float32 fields, ``.u8`` for quantized
ones) plus a JSON sidecar ``<id>.meta.json`` holding dimensions, optics
metadata (pixel pitch, wavelength, form) and, for quantized fields, the
affine dequantization records. Focal distances are not field metadata: each
view is rendered at the offsets its caller passes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .errors import (
    ApertureOutOfBounds,
    CorruptInput,
    InvalidField,
    UnsupportedFormat,
)


class HologramForm(Enum):
    FOURIER = "fourier"
    FRESNEL = "fresnel"


@dataclass(frozen=True)
class WaveField:
    """2D complex wavefield with optics metadata.

    ``data`` is row-major complex128; ``pixel_pitch`` (square pixels) and
    ``wavelength`` are in meters.
    """

    data: np.ndarray
    pixel_pitch: float
    wavelength: float
    form: HologramForm

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidField(f"expected non-empty 2D grid, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidField("field contains non-finite samples")
        if self.pixel_pitch <= 0:
            raise InvalidField(f"pixel_pitch must be > 0, got {self.pixel_pitch}")
        if self.wavelength <= 0:
            raise InvalidField(f"wavelength must be > 0, got {self.wavelength}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class AffineRecord:
    """Dequantization map: value = offset + scale * code."""

    offset: float
    scale: float

    def __post_init__(self):
        if self.scale <= 0:
            raise InvalidField(f"affine scale must be > 0, got {self.scale}")


@dataclass(frozen=True)
class QuantizedField:
    """Paired unsigned 8-bit real/imaginary planes with affine records."""

    real_plane: np.ndarray
    imag_plane: np.ndarray
    real_affine: AffineRecord
    imag_affine: AffineRecord
    pixel_pitch: float
    wavelength: float
    form: HologramForm

    def __post_init__(self):
        re = np.ascontiguousarray(self.real_plane, dtype=np.uint8)
        im = np.ascontiguousarray(self.imag_plane, dtype=np.uint8)
        if re.ndim != 2 or re.shape != im.shape:
            raise InvalidField(
                f"planes must be 2D with equal shape, got {re.shape} vs {im.shape}"
            )
        re.setflags(write=False)
        im.setflags(write=False)
        object.__setattr__(self, "real_plane", re)
        object.__setattr__(self, "imag_plane", im)

    @property
    def rows(self) -> int:
        return self.real_plane.shape[0]

    @property
    def cols(self) -> int:
        return self.real_plane.shape[1]


# the views a manifest or ``holoqa reconstruct --view`` may name
VIEWS = ("center", "corner")


@dataclass(frozen=True)
class ApertureSpec:
    """Rectangular synthetic-aperture window inside a hologram."""

    row_offset: int
    col_offset: int
    height: int
    width: int

    @staticmethod
    def for_view(view: str, rows: int, cols: int, size) -> "ApertureSpec":
        """The ``size`` = (height, width) window of ``view`` in a rows x cols
        field: "center" at ((rows-h)//2, (cols-w)//2), "corner" flush with the
        bottom-right corner."""
        h, w = size
        if view == "center":
            return ApertureSpec((rows - h) // 2, (cols - w) // 2, h, w)
        return ApertureSpec(rows - h, cols - w, h, w)

    def check_inside(self, rows: int, cols: int) -> None:
        if (
            self.row_offset < 0
            or self.col_offset < 0
            or self.height < 1
            or self.width < 1
            or self.row_offset + self.height > rows
            or self.col_offset + self.width > cols
        ):
            raise ApertureOutOfBounds(
                f"{self.height}x{self.width} window at ({self.row_offset}, "
                f"{self.col_offset}) does not fit a {rows}x{cols} field")


def _quantize_plane(values: np.ndarray) -> tuple[np.ndarray, AffineRecord]:
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        # degenerate constant plane: scale 1, all codes 0, exact round trip
        return np.zeros(values.shape, dtype=np.uint8), AffineRecord(lo, 1.0)
    # a span below 255 x 5e-324 would underflow the scale to 0; floored at
    # the smallest subnormal, its codes count subnormal steps exactly
    scale = max((hi - lo) / 255.0, 5e-324)
    codes = np.clip(np.round((values - lo) / scale), 0, 255).astype(np.uint8)
    return codes, AffineRecord(lo, scale)


def quantize_components(f: WaveField) -> QuantizedField:
    """Quantize real and imaginary parts to 8 bits with per-component
    min/max affine maps; round-trip error is at most scale/2 per sample."""
    re_codes, re_aff = _quantize_plane(f.data.real)
    im_codes, im_aff = _quantize_plane(f.data.imag)
    return QuantizedField(re_codes, im_codes, re_aff, im_aff,
                          f.pixel_pitch, f.wavelength, f.form)


def dequantize_components(q: QuantizedField) -> WaveField:
    """Map codes back to field values: v = offset + scale * code, each part
    written straight into the complex field (bit for bit ``re + 1j * im``,
    as a scale > 0 never makes a part -0.0)."""
    data = np.empty(q.real_plane.shape, dtype=np.complex128)
    for part, codes, aff in ((data.real, q.real_plane, q.real_affine),
                             (data.imag, q.imag_plane, q.imag_affine)):
        np.multiply(aff.scale, codes, out=part)
        np.add(aff.offset, part, out=part)
    return WaveField(data, q.pixel_pitch, q.wavelength, q.form)


def extract_aperture_quantized(q: QuantizedField, ap: ApertureSpec) -> QuantizedField:
    """Crop an aperture window out of a quantized field (codes untouched)."""
    ap.check_inside(q.rows, q.cols)
    rsl = slice(ap.row_offset, ap.row_offset + ap.height)
    csl = slice(ap.col_offset, ap.col_offset + ap.width)
    return QuantizedField(q.real_plane[rsl, csl].copy(), q.imag_plane[rsl, csl].copy(),
                          q.real_affine, q.imag_affine, q.pixel_pitch, q.wavelength, q.form)


# ---------------------------------------------------------------------------
# file I/O

_FORM_TAGS = {f.value: f for f in HologramForm}
# sidecar dtype -> NumPy dtype of its two plane files
_PLANE_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype(np.uint8)}


def write_json(path: str, doc: dict) -> None:
    """Write ``doc`` as every holoqa JSON document is written: one-space
    indent, sorted keys, so re-runs are byte-identical."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in ``path``; raises CorruptInput on invalid JSON or
    on a document that is not an object (``what`` names the document)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise CorruptInput(f"{path}: invalid {what} JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CorruptInput(f"{path}: {what} is not a JSON object")
    return doc


def _meta_path(base: str) -> str:
    return base + ".meta.json"


def _store(base: str, dtype: str, re: np.ndarray, im: np.ndarray, f, **extra) -> None:
    """Write the planes ``<base>.re.<dtype>``, ``<base>.im.<dtype>`` and the
    sidecar ``<base>.meta.json`` with the grid and optics of ``f`` (a
    WaveField or QuantizedField) plus the keys ``extra``."""
    re.tofile(f"{base}.re.{dtype}")
    im.tofile(f"{base}.im.{dtype}")
    write_json(_meta_path(base), {
        "rows": f.rows, "cols": f.cols, "dtype": dtype,
        "pixel_pitch": f.pixel_pitch, "wavelength": f.wavelength,
        "form": f.form.value, **extra,
    })


def store_field(f: WaveField, base: str) -> None:
    """Write ``<base>.re.f32``, ``<base>.im.f32`` and ``<base>.meta.json``."""
    _store(base, "f32", f.data.real.astype("<f4"), f.data.imag.astype("<f4"), f)


def store_quantized(q: QuantizedField, base: str) -> None:
    """Write ``<base>.re.u8``, ``<base>.im.u8`` and ``<base>.meta.json``."""
    _store(base, "u8", q.real_plane, q.imag_plane, q,
           real_affine=asdict(q.real_affine), imag_affine=asdict(q.imag_affine))


_NUMBER = (int, float)
# required sidecar keys and their JSON types; dtype u8 adds the affine records
_META_TYPES = {"rows": int, "cols": int, "dtype": str,
               "pixel_pitch": _NUMBER, "wavelength": _NUMBER}
_AFFINE_TYPES = {"offset": _NUMBER, "scale": _NUMBER}


def _of_type(value, kind) -> bool:
    """Whether ``value`` has JSON type ``kind`` (a bool is no number; a
    number is finite)."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and (kind is not _NUMBER or math.isfinite(value)))


def _check_keys(path: str, doc: dict, types: dict, where: str = "sidecar") -> None:
    """Raise CorruptInput unless ``doc`` holds every key of ``types`` with a
    value of that JSON type (see ``_of_type``)."""
    for key, kind in types.items():
        if key not in doc:
            raise CorruptInput(f"{path}: {where} lacks key {key!r}")
        if not _of_type(doc[key], kind):
            raise CorruptInput(f"{path}: {where} key {key!r} holds {doc[key]!r}")


def _read_meta(base: str) -> dict:
    """The sidecar document of ``base``; raises CorruptInput on invalid JSON,
    a non-object document, a missing or mistyped key (the two affine records
    too for dtype u8) or ``rows`` or ``cols`` below 1, UnsupportedFormat on
    an unknown form. Keys it does not know are ignored."""
    path = _meta_path(base)
    meta = read_json_object(path, "sidecar")
    _check_keys(path, meta, _META_TYPES)
    if meta["rows"] < 1 or meta["cols"] < 1:
        raise CorruptInput(f"{path}: grid is {meta['rows']}x{meta['cols']}")
    if meta["dtype"] == "u8":
        _check_keys(path, meta, {"real_affine": dict, "imag_affine": dict})
        for rec in ("real_affine", "imag_affine"):
            _check_keys(path, meta[rec], _AFFINE_TYPES, rec)
    if meta.get("form") not in _FORM_TAGS:
        raise UnsupportedFormat(f"unknown hologram form {meta.get('form')!r}")
    return meta


def _load(base: str, dtype: str):
    """The sidecar of ``base`` and its two planes as stored, (meta, re, im);
    raises UnsupportedFormat unless the sidecar's dtype is ``dtype`` and
    CorruptInput unless each plane file holds rows x cols samples."""
    meta = _read_meta(base)
    if meta["dtype"] != dtype:
        raise UnsupportedFormat(f"expected dtype {dtype}, got {meta['dtype']!r}")
    rows, cols = meta["rows"], meta["cols"]
    planes = []
    for part in ("re", "im"):
        path = f"{base}.{part}.{dtype}"
        arr = np.fromfile(path, dtype=_PLANE_DTYPES[dtype])
        if arr.size != rows * cols:
            raise CorruptInput(
                f"{path}: expected {rows * cols} samples, file holds {arr.size}"
            )
        planes.append(arr.reshape(rows, cols))
    return meta, *planes


def _optics(meta: dict) -> tuple:
    """(pixel_pitch, wavelength, form) of a checked sidecar."""
    return float(meta["pixel_pitch"]), float(meta["wavelength"]), _FORM_TAGS[meta["form"]]


def load_field(base: str) -> WaveField:
    """Load a float32 field pair written by :func:`store_field`."""
    meta, re, im = _load(base, "f32")
    return WaveField(re.astype(np.float64) + 1j * im.astype(np.float64), *_optics(meta))


def load_quantized(base: str) -> QuantizedField:
    """Load an 8-bit field pair written by :func:`store_quantized`."""
    meta, re, im = _load(base, "u8")
    affines = (AffineRecord(meta[k]["offset"], meta[k]["scale"])
               for k in ("real_affine", "imag_affine"))
    return QuantizedField(re, im, *affines, *_optics(meta))


def load_any_field(base: str) -> WaveField:
    """Load a field base as float32 or 8-bit, whichever its sidecar says; an
    8-bit field comes back dequantized."""
    if _read_meta(base)["dtype"] == "u8":
        return dequantize_components(load_quantized(base))
    return load_field(base)
