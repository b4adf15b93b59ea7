"""Tests for upsampling, Fourier/Fresnel conversion and reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holoqa.errors import (
    DegenerateAmplitude,
    FormMismatch,
    InvalidFactor,
    PlanMismatch,
)
from holoqa.field import ApertureSpec, HologramForm, WaveField
from holoqa.harness import TrackConfig
from holoqa.transform import (
    clip_and_quantize_view,
    compute_focus_distance,
    downsample_grid,
    fourier_to_fresnel,
    fresnel_to_fourier,
    load_gray_pgm,
    nominal_focus_distance,
    parabolic_kernel,
    reconstruct_view,
    refocus_kernel,
    store_gray_pgm,
    store_view,
    upsample_grid,
    view_clip_bound,
)


def _random_field(rng, rows=64, cols=64, form=HologramForm.FOURIER):
    data = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    return WaveField(data, 8e-6, 640e-9, form)


class TestFocusDistance:
    def test_reference_values(self):
        z = compute_focus_distance(2048, 8e-6, 640e-9, 2)
        assert z == pytest.approx(0.4096, rel=0, abs=1e-15)

    def test_factor_prefactor(self):
        # m/(m-1): 2 -> 2x, 3 -> 1.5x, 4 -> 4/3x
        base = 2048 * (8e-6) ** 2 / 640e-9
        for m, pre in ((2, 2.0), (3, 1.5), (4, 4.0 / 3.0)):
            z = compute_focus_distance(2048, 8e-6, 640e-9, m)
            assert z == pytest.approx(pre * base, rel=1e-14)

    def test_invalid_factor(self):
        with pytest.raises(InvalidFactor):
            compute_focus_distance(256, 8e-6, 640e-9, 1)
        with pytest.raises(InvalidFactor):
            compute_focus_distance(256, 8e-6, 640e-9, 2.5)

    @pytest.mark.parametrize("m", ["abc", None, "2", True, float("nan")])
    def test_non_number_factor_is_invalid(self, m):
        f = _random_field(np.random.default_rng(0), 8, 8)
        with pytest.raises(InvalidFactor):
            TrackConfig("qa2", upsample_m=m)
        with pytest.raises(InvalidFactor):
            fourier_to_fresnel(f, m)


class TestUpsampling:
    @pytest.mark.parametrize("m", [2, 3])
    def test_preserves_original_samples(self, m):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(24, 32)) + 1j * rng.normal(size=(24, 32))
        up = upsample_grid(data, m)
        assert np.allclose(up[::m, ::m], data, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_round_trip_is_exact(self, m):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(18, 20)) + 1j * rng.normal(size=(18, 20))
        back = downsample_grid(upsample_grid(data, m), m)
        assert np.allclose(back, data, atol=1e-12)


class TestConversion:
    def test_kernel_is_unit_modulus(self):
        k = parabolic_kernel(32, 48, 4e-6, 640e-9, 0.1)
        assert np.allclose(np.abs(k), 1.0, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_round_trip_lossless(self, m):
        f = _random_field(np.random.default_rng(3), 40, 40)
        fres, plan = fourier_to_fresnel(f, m)
        assert fres.form is HologramForm.FRESNEL
        assert fres.pixel_pitch == f.pixel_pitch / m
        back = fresnel_to_fourier(fres, plan)
        rel = np.linalg.norm(back.data - f.data) / np.linalg.norm(f.data)
        assert rel < 1e-12
        assert back.form is HologramForm.FOURIER
        assert back.pixel_pitch == pytest.approx(f.pixel_pitch, rel=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 48), st.integers(1, 48), st.sampled_from([2, 3]),
           st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0))
    def test_round_trip_property(self, rows, cols, m, seed, log_scale):
        # worst measured over 3,000 random fields up to 64^2 and scales
        # 1e-6..1e6: 8.8e-16 relative in norm
        f = _random_field(np.random.default_rng(seed), rows, cols)
        f = WaveField(f.data * 10.0 ** log_scale, f.pixel_pitch, f.wavelength, f.form)
        fres, plan = fourier_to_fresnel(f, m)
        back = fresnel_to_fourier(fres, plan)
        assert back.data.shape == f.data.shape
        assert np.linalg.norm(back.data - f.data) <= 4e-15 * np.linalg.norm(f.data)

    def test_plan_distance_matches_formula(self):
        f = _random_field(np.random.default_rng(4), 32, 48)
        _, plan = fourier_to_fresnel(f, 2)
        expected = compute_focus_distance(96, f.pixel_pitch / 2, f.wavelength, 2)
        assert plan.z == expected

    def test_form_checks(self):
        f = _random_field(np.random.default_rng(5))
        fres, plan = fourier_to_fresnel(f, 2)
        with pytest.raises(FormMismatch):
            fourier_to_fresnel(fres, 2)
        bad_plan = plan.__class__(**{**plan.__dict__, "target_rows": 999})
        with pytest.raises(PlanMismatch):
            fresnel_to_fourier(fres, bad_plan)
        with pytest.raises(PlanMismatch):
            fresnel_to_fourier(f, plan)

    def test_energy_preserved(self):
        f = _random_field(np.random.default_rng(6))
        fres, _ = fourier_to_fresnel(f, 2)
        # unit-modulus kernel and spectral zero padding: mean power is scaled
        # by m^2 (the original energy spread over m^2 times the samples)
        assert np.sum(np.abs(fres.data) ** 2) == pytest.approx(
            4.0 * np.sum(np.abs(f.data) ** 2), rel=1e-10
        )


class TestReconstruction:
    def test_parseval(self):
        f = _random_field(np.random.default_rng(7), 32, 32)
        amp = reconstruct_view(f)
        assert np.sum(amp ** 2) == pytest.approx(
            32 * 32 * np.sum(np.abs(f.data) ** 2), rel=1e-10
        )

    def test_point_source_focuses_at_zero_offset(self):
        # a flat field reconstructs to a single central peak
        f = WaveField(np.ones((64, 64), dtype=complex), 8e-6, 640e-9,
                      HologramForm.FOURIER)
        amp = reconstruct_view(f)
        assert np.unravel_index(np.argmax(amp), amp.shape) == (32, 32)
        assert amp[32, 32] == pytest.approx(64 * 64)

    def test_refocus_identity_at_zero(self):
        q = refocus_kernel(16, 16, 8e-6, 640e-9, 0.0, 0.1)
        assert np.array_equal(q, np.ones((16, 16), dtype=complex))

    def test_refocus_is_parabolic_kernel_at_effective_distance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rows, cols = rng.integers(1, 40, 2)
            pitch, wavelength = rng.uniform(1e-6, 1e-5), rng.uniform(4e-7, 7e-7)
            z_nom, offset = rng.uniform(0.01, 0.5), rng.uniform(-0.05, 0.05)
            y = (np.arange(rows) - rows // 2)[:, None] * pitch
            x = (np.arange(cols) - cols // 2)[None, :] * pitch
            d_eff = z_nom * z_nom / offset
            expected = np.exp(-1j * np.pi * (x * x + y * y) / (wavelength * d_eff))
            q = refocus_kernel(rows, cols, pitch, wavelength, offset, z_nom)
            assert np.array_equal(q, expected)

    def test_refocus_blurs_nominal_point(self):
        f = WaveField(np.ones((64, 64), dtype=complex), 8e-6, 640e-9,
                      HologramForm.FOURIER)
        z_nom = nominal_focus_distance(f)
        sharp = reconstruct_view(f, None, 0.0)
        blurred = reconstruct_view(f, None, 0.05 * z_nom)
        assert blurred.max() < sharp.max()

    def test_aperture_restricts_grid(self):
        f = _random_field(np.random.default_rng(8), 64, 64)
        amp = reconstruct_view(f, ApertureSpec.for_view("center", 64, 64, (32, 32)))
        assert amp.shape == (32, 32)

    def test_requires_fourier_form(self):
        f = _random_field(np.random.default_rng(9), form=HologramForm.FRESNEL)
        with pytest.raises(FormMismatch):
            reconstruct_view(f)


class TestClipQuantize:
    def test_shared_bound_from_reference(self):
        rng = np.random.default_rng(10)
        ref = rng.uniform(0, 100, (50, 50))
        dist = rng.uniform(0, 200, (50, 50))
        bound = view_clip_bound(ref, 99.9)
        assert bound == pytest.approx(np.percentile(ref, 99.9))
        assert clip_and_quantize_view(ref, bound).max() == 255
        assert np.all(clip_and_quantize_view(dist, bound)[dist >= bound] == 255)

    def test_zero_maps_to_zero_and_bound_to_255(self):
        ref = np.linspace(0.0, 10.0, 256).reshape(16, 16)
        px = clip_and_quantize_view(ref, view_clip_bound(ref, 100.0))
        assert px.dtype == np.uint8
        assert px.min() == 0
        assert px.max() == 255

    def test_over_bound_clipped(self):
        ref = np.ones((20, 20))
        dist = np.full((20, 20), 50.0)
        px = clip_and_quantize_view(dist, view_clip_bound(ref, 100.0))
        assert np.all(px == 255)

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateAmplitude):
            view_clip_bound(np.zeros((8, 8)), 99.9)


class TestViewIO:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        px = rng.integers(0, 256, (17, 23)).astype(np.uint8)
        path = str(tmp_path / "img.pgm")
        store_gray_pgm(px, path)
        assert np.array_equal(load_gray_pgm(path), px)

    def test_store_view_writes_sidecar(self, tmp_path):
        ref = np.linspace(0.0, 10.0, 64).reshape(8, 8)
        bound = view_clip_bound(ref, 100.0)
        px = clip_and_quantize_view(ref, bound)
        path = str(tmp_path / "view.pgm")
        store_view(px, path, bound, ApertureSpec(0, 0, 8, 8), 0.001, 0.05, "demo")
        assert np.array_equal(load_gray_pgm(path), px)
        import json

        meta = json.loads((tmp_path / "view.pgm.json").read_text())
        assert meta["source_id"] == "demo"
        assert meta["clip_bound"] == bound
        assert meta["focal_offset"] == 0.001
        assert meta["focus_distance"] == 0.05 + 0.001
        assert "focal_distance" not in meta
        assert meta["aperture"] == {"row_offset": 0, "col_offset": 0, "height": 8, "width": 8}
