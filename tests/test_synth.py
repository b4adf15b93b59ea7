"""Tests for point-cloud hologram synthesis and synthetic requantization."""

import json
import os

import numpy as np
import pytest

from holoqa.errors import InvalidField, ZeroScene
from holoqa.field import HologramForm, WaveField, quantize_components
from holoqa.synth import (
    ScenePoint,
    generate_demo_dataset,
    synth_distort,
    synth_hologram,
    view_bin_spacing,
)
from holoqa.transform import nominal_focus_distance, reconstruct_view

_PITCH = 8e-6
_WL = 640e-9


class TestSynthesis:
    def test_unit_peak_normalization(self):
        rng = np.random.default_rng(0)
        pts = [ScenePoint(0.0, 0.0, 0.0, float(a))
               for a in rng.uniform(0.5, 2.0, 5)]
        h = synth_hologram(pts, 64, 64, _PITCH, _WL)
        assert np.abs(h.data).max() == pytest.approx(1.0)
        assert h.form is HologramForm.FOURIER

    def test_point_reconstructs_at_its_position(self):
        n = 128
        dx = view_bin_spacing(n, _PITCH, _WL)
        # place a point 10 bins right and 6 bins down of center
        h = synth_hologram([ScenePoint(10 * dx, 6 * dx)], n, n, _PITCH, _WL)
        amp = reconstruct_view(h)
        assert np.unravel_index(np.argmax(amp), amp.shape) == (n // 2 + 6,
                                                               n // 2 + 10)

    def test_defocused_point_sharpens_at_its_offset(self):
        n = 128
        probe = WaveField(np.ones((n, n), dtype=complex), _PITCH, _WL,
                          HologramForm.FOURIER)
        z = 0.03 * nominal_focus_distance(probe)
        h = synth_hologram([ScenePoint(0.0, 0.0, z)], n, n, _PITCH, _WL)
        out_of_focus = reconstruct_view(h, None, 0.0)
        in_focus = reconstruct_view(h, None, z)
        assert in_focus.max() > out_of_focus.max()

    def test_empty_scene_rejected(self):
        with pytest.raises(ZeroScene):
            synth_hologram([], 32, 32, _PITCH, _WL)


class TestDistortions:
    @staticmethod
    def _quantized(seed=1):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        return quantize_components(
            WaveField(data, _PITCH, _WL, HologramForm.FOURIER)
        )

    def test_requantize_level_count(self):
        q = self._quantized()
        for bits in (7, 6, 5, 4):
            d = synth_distort(q, bits)
            assert len(np.unique(d.real_plane)) <= 2 ** bits
            assert d.real_affine == q.real_affine

    def test_requantize_error_grows_with_fewer_bits(self):
        q = self._quantized()
        errs = []
        for bits in (7, 6, 5, 4):
            d = synth_distort(q, bits)
            errs.append(np.mean((d.real_plane.astype(float)
                                 - q.real_plane.astype(float)) ** 2))
        assert errs == sorted(errs)

    def test_eight_bits_is_identity(self):
        q = self._quantized()
        d = synth_distort(q, 8)
        assert np.array_equal(d.real_plane, q.real_plane)
        assert np.array_equal(d.imag_plane, q.imag_plane)

    def test_invalid_bits(self):
        q = self._quantized()
        for bits in (0, 9):
            with pytest.raises(InvalidField):
                synth_distort(q, bits)


class TestDemoDataset:
    def test_layout_and_manifest(self, demo_dataset):
        root = demo_dataset["root"]
        with open(demo_dataset["manifest"]) as fh:
            doc = json.load(fh)
        assert len(doc["stimuli"]) == 4
        for s in doc["stimuli"]:
            assert len(s["distorted"]) == 3
            assert len(s["focal_offsets"]) == 2
            assert os.path.exists(os.path.join(root, s["reference"] + ".re.u8"))
            for base in s["distorted"].values():
                assert os.path.exists(os.path.join(root, base + ".meta.json"))
        assert doc["views"] == ["center", "corner"]

    def test_mos_covers_every_stimulus(self, demo_dataset):
        from holoqa.stats import read_mos_csv

        records = read_mos_csv(demo_dataset["mos"])
        # 4 scenes x 3 levels x 3 displays x 2 views x 2 focal planes
        assert len(records) == 4 * 3 * 3 * 2 * 2
        assert all(1.0 <= r.mos <= 5.0 for r in records)

    def test_unknown_scene_rejected(self, tmp_path):
        with pytest.raises(InvalidField, match="typo"):
            generate_demo_dataset(str(tmp_path), size=32, aperture=16,
                                  scenes=("typo",))
        assert not os.path.exists(tmp_path / "manifest.json")

    @pytest.mark.parametrize("aperture", [0, -4, 33])
    def test_aperture_outside_hologram_rejected(self, tmp_path, aperture):
        # a manifest the harness would reject is never written
        with pytest.raises(InvalidField, match="32x32 hologram"):
            generate_demo_dataset(str(tmp_path / "d"), size=32, aperture=aperture)
        assert not os.path.exists(tmp_path / "d")

    def test_generation_is_deterministic(self, tmp_path, demo_dataset):
        other = str(tmp_path / "again")
        generate_demo_dataset(other, seed=1234)
        with open(demo_dataset["manifest"]) as fh:
            a = fh.read()
        with open(os.path.join(other, "manifest.json")) as fh:
            b = fh.read()
        assert a == b
        scene = "dots_ref.re.u8"
        pa = os.path.join(demo_dataset["root"], "fields", scene)
        pb = os.path.join(other, "fields", scene)
        with open(pa, "rb") as fh_a, open(pb, "rb") as fh_b:
            assert fh_a.read() == fh_b.read()
