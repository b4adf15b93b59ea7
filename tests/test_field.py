"""Tests for the hologram data model, quantization and file I/O."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from holoqa.errors import (
    ApertureOutOfBounds,
    CorruptInput,
    InvalidField,
    UnsupportedFormat,
)
from holoqa.field import (
    AffineRecord,
    ApertureSpec,
    HologramForm,
    QuantizedField,
    WaveField,
    dequantize_components,
    extract_aperture_quantized,
    load_field,
    load_quantized,
    quantize_components,
    store_field,
    store_quantized,
)
from holoqa.transform import reconstruct_view


def _random_field(rng, rows=32, cols=48, **kw):
    data = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return WaveField(data, 8e-6, 640e-9, HologramForm.FOURIER, **kw)


class TestWaveField:
    def test_data_is_immutable(self):
        f = _random_field(np.random.default_rng(0))
        with pytest.raises(ValueError):
            f.data[0, 0] = 1.0

    def test_rejects_non_finite(self):
        data = np.ones((4, 4), dtype=complex)
        data[1, 2] = np.nan
        with pytest.raises(InvalidField):
            WaveField(data, 8e-6, 640e-9, HologramForm.FOURIER)

    def test_rejects_bad_optics(self):
        data = np.ones((4, 4), dtype=complex)
        with pytest.raises(InvalidField):
            WaveField(data, 0.0, 640e-9, HologramForm.FOURIER)
        with pytest.raises(InvalidField):
            WaveField(data, 8e-6, -1.0, HologramForm.FOURIER)

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidField):
            WaveField(np.ones(5, dtype=complex), 8e-6, 640e-9, HologramForm.FOURIER)


class TestQuantization:
    def test_round_trip_error_bound(self):
        rng = np.random.default_rng(1)
        f = _random_field(rng)
        q = quantize_components(f)
        back = dequantize_components(q)
        err_re = np.abs(back.data.real - f.data.real).max()
        err_im = np.abs(back.data.imag - f.data.imag).max()
        assert err_re <= q.real_affine.scale / 2 + 1e-15
        assert err_im <= q.imag_affine.scale / 2 + 1e-15

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.complex128, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                  elements=st.complex_numbers(max_magnitude=1e6)))
    def test_round_trip_error_bound_property(self, data):
        f = WaveField(data, 8e-6, 640e-9, HologramForm.FOURIER)
        q = quantize_components(f)
        back = dequantize_components(q).data
        for got, want, aff in ((back.real, data.real, q.real_affine),
                               (back.imag, data.imag, q.imag_affine)):
            slack = 4.0 * np.spacing(np.abs(want).max())   # float rounding
            assert np.abs(got - want).max() <= aff.scale / 2 + slack

    def test_underflowing_span_round_trips_exactly(self):
        # (hi - lo) / 255 underflows to 0 here; the scale is floored at 5e-324
        lo = 2.2250738585072014e-308
        hi = np.nextafter(lo, 1.0)
        data = np.array([[lo, hi], [hi, lo]]) + 1j * np.array([[0.0, 5e-324], [0.0, 0.0]])
        q = quantize_components(WaveField(data, 8e-6, 640e-9, HologramForm.FOURIER))
        assert q.real_affine.scale == q.imag_affine.scale == 5e-324
        assert np.array_equal(q.real_plane, [[0, 1], [1, 0]])
        assert np.array_equal(dequantize_components(q).data, data)

    @pytest.mark.parametrize("offsets, scales", [
        ((-0.0, 0.0), (0.01, 2.5)),
        ((-3.5, -0.0), (5e-324, 1e-310)),      # subnormal scales
        ((1e300, -1e-300), (3e297, 2.2250738585072014e-308)),
    ])
    def test_dequantize_equals_complex_sum_bit_for_bit(self, offsets, scales):
        # each part is written straight into the complex field; it must be
        # re + 1j * im to the bit, signed zeros included
        rng = np.random.default_rng(7)
        q = QuantizedField(rng.integers(0, 256, (9, 13), dtype=np.uint8),
                           rng.integers(0, 256, (9, 13), dtype=np.uint8),
                           AffineRecord(offsets[0], scales[0]),
                           AffineRecord(offsets[1], scales[1]),
                           8e-6, 640e-9, HologramForm.FOURIER)
        re = offsets[0] + scales[0] * q.real_plane.astype(np.float64)
        im = offsets[1] + scales[1] * q.imag_plane.astype(np.float64)
        got = dequantize_components(q).data
        assert np.array_equal(got.view(np.float64), (re + 1j * im).view(np.float64))
        assert np.array_equal(np.signbit(got.view(np.float64)),
                              np.signbit((re + 1j * im).view(np.float64)))

    def test_codes_span_full_range(self):
        rng = np.random.default_rng(2)
        q = quantize_components(_random_field(rng))
        assert q.real_plane.min() == 0 and q.real_plane.max() == 255
        assert q.imag_plane.min() == 0 and q.imag_plane.max() == 255

    def test_constant_plane_round_trips_exactly(self):
        data = np.full((8, 8), 3.25 + 0j)
        f = WaveField(data, 8e-6, 640e-9, HologramForm.FOURIER)
        q = quantize_components(f)
        assert np.all(q.real_plane == 0)
        back = dequantize_components(q)
        assert np.array_equal(back.data, data)

    def test_metadata_preserved(self):
        f = _random_field(np.random.default_rng(3))
        q = quantize_components(f)
        back = dequantize_components(q)
        assert back.pixel_pitch == f.pixel_pitch
        assert back.wavelength == f.wavelength
        assert back.form is f.form


class TestAperture:
    def test_center_placement(self):
        ap = ApertureSpec.for_view("center", 100, 60, (40, 20))
        assert (ap.row_offset, ap.col_offset) == (30, 20)

    def test_right_corner_placement(self):
        ap = ApertureSpec.for_view("corner", 100, 60, (40, 20))
        assert (ap.row_offset, ap.col_offset) == (60, 40)

    def test_extract_matches_slice(self):
        f = _random_field(np.random.default_rng(4), 40, 40)
        ap = ApertureSpec(5, 7, 10, 12)
        sub = WaveField(f.data[5:15, 7:19], f.pixel_pitch, f.wavelength, f.form)
        assert np.array_equal(reconstruct_view(f, ap), reconstruct_view(sub))

    def test_out_of_bounds_rejected(self):
        f = _random_field(np.random.default_rng(5), 16, 16)
        with pytest.raises(ApertureOutOfBounds,
                           match=r"^10x8 window at \(10, 0\) does not fit a 16x16 field$"):
            reconstruct_view(f, ApertureSpec(10, 0, 10, 8))
        with pytest.raises(ApertureOutOfBounds):
            reconstruct_view(f, ApertureSpec(-1, 0, 4, 4))

    def test_quantized_crop_keeps_affines(self):
        q = quantize_components(_random_field(np.random.default_rng(6), 32, 32))
        sub = extract_aperture_quantized(q, ApertureSpec(4, 4, 8, 8))
        assert sub.real_affine == q.real_affine
        assert np.array_equal(sub.real_plane, q.real_plane[4:12, 4:12])


class TestFileIO:
    def test_field_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        # float32-representable values so the f32 round trip is bit exact
        data = (rng.normal(size=(16, 24)) + 1j * rng.normal(size=(16, 24)))
        data = data.astype(np.complex64).astype(np.complex128)
        f = WaveField(data, 8e-6, 640e-9, HologramForm.FRESNEL)
        base = str(tmp_path / "field")
        store_field(f, base)
        back = load_field(base)
        assert np.array_equal(back.data, f.data)
        assert back.form is HologramForm.FRESNEL

    def test_sidecar_with_focus_offset_loads(self, tmp_path):
        # older sidecars hold a focus_offset key; like any unknown key it is
        # ignored
        q = quantize_components(_random_field(np.random.default_rng(12)))
        base = str(tmp_path / "old")
        store_quantized(q, base)
        meta_path = tmp_path / "old.meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps(dict(meta, focus_offset=0.02)))
        back = load_quantized(base)
        assert np.array_equal(back.real_plane, q.real_plane)
        assert back.imag_affine == q.imag_affine

    def test_quantized_round_trip_bit_exact(self, tmp_path):
        q = quantize_components(_random_field(np.random.default_rng(8)))
        base = str(tmp_path / "qfield")
        store_quantized(q, base)
        back = load_quantized(base)
        assert np.array_equal(back.real_plane, q.real_plane)
        assert np.array_equal(back.imag_plane, q.imag_plane)
        assert back.real_affine == q.real_affine
        assert back.imag_affine == q.imag_affine

    def test_truncated_plane_detected(self, tmp_path):
        q = quantize_components(_random_field(np.random.default_rng(9)))
        base = str(tmp_path / "bad")
        store_quantized(q, base)
        with open(base + ".re.u8", "r+b") as fh:
            fh.truncate(10)
        with pytest.raises(CorruptInput):
            load_quantized(base)

    def test_unknown_form_rejected(self, tmp_path):
        q = quantize_components(_random_field(np.random.default_rng(10)))
        base = str(tmp_path / "badform")
        store_quantized(q, base)
        meta = (tmp_path / "badform.meta.json").read_text()
        (tmp_path / "badform.meta.json").write_text(meta.replace("fourier", "other"))
        with pytest.raises(UnsupportedFormat):
            load_quantized(base)

    def test_dtype_mismatch_rejected(self, tmp_path):
        q = quantize_components(_random_field(np.random.default_rng(11)))
        base = str(tmp_path / "q")
        store_quantized(q, base)
        with pytest.raises(UnsupportedFormat):
            load_field(base)
