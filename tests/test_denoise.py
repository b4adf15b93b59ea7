"""Tests for the adaptive local Wiener filter and its local-moment kernel."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from holoqa.denoise import (
    AUTO,
    WienerParams,
    estimate_noise_variance,
    local_moments,
    resolve_params,
    wiener_denoise,
)
from holoqa.errors import InvalidField, WindowTooLarge


def _odd_windows(largest):
    """Odd window sizes from 3 up to `largest`."""
    return st.integers(1, (largest - 1) // 2).map(lambda k: 2 * k + 1)


class TestLocalMoments:
    def test_constant_image(self):
        img = np.full((20, 30), 7.5)
        mean, var = local_moments(img, 5, 5)
        assert np.allclose(mean, 7.5, atol=1e-12)
        assert np.allclose(var, 0.0, atol=1e-9)

    def test_interior_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        img = rng.uniform(0, 255, (16, 16))
        mean, var = local_moments(img, 3, 3)
        block = img[4:7, 5:8]
        assert mean[5, 6] == pytest.approx(block.mean(), rel=1e-12)
        assert var[5, 6] == pytest.approx(block.var(), rel=1e-9)

    def test_symmetric_boundary(self):
        # with symmetric padding a 1-pixel-wide corner window duplicates the
        # corner samples; check against the explicitly padded computation
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 10, (8, 8))
        padded = np.pad(img, 1, mode="symmetric")
        mean, _ = local_moments(img, 3, 3)
        assert mean[0, 0] == pytest.approx(padded[0:3, 0:3].mean(), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force_windows(self, data):
        rows = data.draw(st.integers(3, 40), label="rows")
        cols = data.draw(st.integers(3, 40), label="cols")
        wh = data.draw(_odd_windows(min(rows, 15)), label="window_h")
        ww = data.draw(_odd_windows(min(cols, 15)), label="window_w")
        img = data.draw(arrays(np.float64, (rows, cols),
                               elements=st.floats(0.0, 255.0)), label="img")
        padded = np.pad(img, ((wh // 2,) * 2, (ww // 2,) * 2), mode="symmetric")
        windows = sliding_window_view(padded, (wh, ww))
        mean, var = local_moments(img, wh, ww)
        np.testing.assert_allclose(mean, windows.mean(axis=(2, 3)), rtol=0, atol=1e-8)
        np.testing.assert_allclose(var, windows.var(axis=(2, 3)), rtol=0, atol=1e-8)


class TestWienerParams:
    def test_rejects_even_or_small_windows(self):
        with pytest.raises(InvalidField):
            WienerParams(4)
        with pytest.raises(InvalidField):
            WienerParams(1)

    def test_rejects_negative_noise(self):
        with pytest.raises(InvalidField):
            WienerParams(5, -1.0)
        with pytest.raises(InvalidField):
            WienerParams(5, float("nan"))

    @pytest.mark.parametrize("noise", ["abc", "1.5", None], ids=["text", "numeric-text", "none"])
    def test_rejects_non_numeric_noise(self, noise):
        with pytest.raises(InvalidField):
            WienerParams(5, noise)

    def test_resolve_auto_uses_reference(self):
        rng = np.random.default_rng(3)
        ref = rng.uniform(0, 255, (32, 32))
        params = resolve_params(ref, WienerParams())
        assert params.noise_variance == estimate_noise_variance(ref, WienerParams())

    def test_resolve_concrete_is_identity(self):
        p = WienerParams(5, 2.5)
        assert resolve_params(np.ones((8, 8)), p) is p


class TestWienerFilter:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 255, (24, 24))
        out = wiener_denoise(img, WienerParams(5, 0.0))
        assert np.array_equal(out, img)

    def test_huge_noise_flattens_to_local_mean(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(0, 255, (24, 24))
        out = wiener_denoise(img, WienerParams(5, 1e12))
        mean, _ = local_moments(img, 5, 5)
        assert np.allclose(out, mean, atol=1e-6)

    def test_reduces_noise_on_smooth_signal(self):
        rng = np.random.default_rng(6)
        yy, xx = np.mgrid[0:64, 0:64]
        clean = 100.0 + 40.0 * np.sin(xx / 10.0) * np.cos(yy / 12.0)
        noisy = clean + rng.normal(0, 8.0, clean.shape)
        out = wiener_denoise(noisy, WienerParams())
        assert np.mean((out - clean) ** 2) < np.mean((noisy - clean) ** 2)

    def test_constant_image_unchanged(self):
        img = np.full((16, 16), 42.0)
        out = wiener_denoise(img, WienerParams())
        assert np.allclose(out, 42.0, atol=1e-9)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            wiener_denoise(np.ones((4, 4)), WienerParams(5, 1.0))

    def test_non_finite_rejected(self):
        img = np.ones((8, 8))
        img[2, 2] = np.inf
        with pytest.raises(InvalidField):
            wiener_denoise(img, WienerParams())

    def test_auto_matches_explicit(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(0, 255, (32, 32))
        nv = estimate_noise_variance(img, WienerParams())
        a = wiener_denoise(img, WienerParams(5, AUTO))
        b = wiener_denoise(img, WienerParams(5, nv))
        assert np.array_equal(a, b)
