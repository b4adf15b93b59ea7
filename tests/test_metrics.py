"""Tests for the full-reference metric suite."""

import importlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import fft as sp_fft
from scipy.ndimage import correlate
from scipy.signal import fftconvolve
from scipy.stats import rankdata

from holoqa.errors import (
    DegenerateReference,
    DimMismatch,
    InputTooSmall,
    UnknownMetric,
)
from holoqa.metrics import (
    ALL_METRIC_IDS,
    COMPLEX_METRICS,
    FAMILIES,
    REAL_METRICS,
    evaluate_complex,
    evaluate_real,
    perfect_value,
)
from holoqa.metrics import gradient, pyramid
from holoqa.metrics.gradient import fsim, gmsd, gmsd_map, phase_congruency
from holoqa.metrics.pointwise import mse, nmse, psnr
from holoqa.metrics.pyramid import nlpd
from holoqa.metrics.spectral import _ac_ranks, ssrm, ssrmt
from holoqa.metrics.ssim import gaussian_window, iw_ssim, ms_ssim, ssim, ssim_map, uqi
from holoqa.metrics.vif import vifp

# the module, not the function that holoqa.metrics exports under that name
ssim_module = importlib.import_module("holoqa.metrics.ssim")


class TestRegistry:
    def test_registry_counts(self):
        assert len(REAL_METRICS) == 13
        assert len(COMPLEX_METRICS) == 5
        assert len(ALL_METRIC_IDS) == 18

    def test_unknown_metric_rejected(self, image):
        with pytest.raises(UnknownMetric):
            evaluate_real("nope", image, image)
        with pytest.raises(UnknownMetric):
            evaluate_complex("ssim_C", image + 0j, image + 0j)


class TestIdentity:
    def test_all_real_metrics_perfect_on_identity(self, image, noisy_versions):
        for mid in REAL_METRICS:
            value = evaluate_real(mid, image, image.copy())
            assert value == perfect_value(mid), mid
            # reports write repr(value): a NumPy scalar would print as np.float64(...)
            assert type(evaluate_real(mid, image, noisy_versions[0])) is float, mid

    def test_all_complex_metrics_perfect_on_identity(self):
        rng = np.random.default_rng(2)
        fld = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        for mid in COMPLEX_METRICS:
            value = evaluate_complex(mid, fld, fld.copy())
            assert value == perfect_value(mid), mid
            assert type(evaluate_complex(mid, fld, 0.9 * fld)) is float, mid


@st.composite
def _gray_images(draw):
    """Non-constant 8-bit images of at least 176^2 (the MS-SSIM minimum):
    uniform noise, a smooth pattern with noise, or a few pixels on black."""
    shape = (draw(st.integers(176, 200)), draw(st.integers(176, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("noise", "smooth", "sparse")))
    if kind == "noise":
        img = rng.integers(0, 256, shape)
    elif kind == "smooth":
        yy, xx = np.mgrid[0:shape[0], 0:shape[1]]
        f = rng.uniform(0.02, 0.5, 2)
        img = np.clip(np.round(128 + 100 * np.sin(f[0] * xx) * np.cos(f[1] * yy)
                               + rng.normal(0, 5, shape)), 0, 255)
    else:
        img = np.zeros(shape)
        n = draw(st.integers(1, 50))
        img[rng.integers(0, shape[0], n), rng.integers(0, shape[1], n)] = \
            rng.integers(1, 256, n)
    img = img.astype(np.float64)
    assume(img.min() != img.max())
    return img


class TestIdentityProperty:
    """Every metric scores perfect_value on identical inputs, with a cold
    reference scratch and with one warmed by another distorted version."""

    @settings(max_examples=8, deadline=None)
    @given(_gray_images())
    def test_real_metrics(self, img):
        other = 255.0 - img
        for mid in REAL_METRICS:
            want = perfect_value(mid)
            assert evaluate_real(mid, img, img.copy(), ref_scratch={}) == want, mid
            warm = {}
            evaluate_real(mid, img, other, ref_scratch=warm)
            assert evaluate_real(mid, img, img.copy(), ref_scratch=warm) == want, mid

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3))
    def test_complex_metrics(self, rows, cols, seed, amp):
        rng = np.random.default_rng(seed)
        fld = amp * (rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))
        other = fld[::-1, ::-1] * 0.5j
        for mid in COMPLEX_METRICS:
            want = perfect_value(mid)
            assert evaluate_complex(mid, fld, fld.copy(), ref_scratch={}) == want, mid
            warm = {}
            evaluate_complex(mid, fld, other, ref_scratch=warm)
            assert evaluate_complex(mid, fld, fld.copy(), ref_scratch=warm) == want, mid


class TestPointwise:
    def test_mse_known_value(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 3.0)
        assert mse(a, b) == 9.0

    def test_nmse_normalization(self):
        a = np.full((4, 4), 2.0)
        b = np.full((4, 4), 3.0)
        assert nmse(a, b) == pytest.approx(0.25)

    def test_nmse_zero_reference(self):
        with pytest.raises(DegenerateReference):
            nmse(np.zeros((4, 4)), np.ones((4, 4)))

    def test_psnr_known_value(self):
        a = np.zeros((8, 8))
        b = np.full((8, 8), 255.0)
        assert psnr(a, b) == pytest.approx(0.0)

    def test_complex_mse_is_sum_of_components(self):
        rng = np.random.default_rng(3)
        re_r, im_r = rng.normal(size=(2, 32, 32))
        re_d, im_d = rng.normal(size=(2, 32, 32))
        combined = mse(re_r + 1j * im_r, re_d + 1j * im_d)
        parts = mse(re_r, re_d) + mse(im_r, im_d)
        assert combined == pytest.approx(parts, rel=1e-12)

    def test_component_average_is_half_complex_mse(self):
        # averaging the per-plane MSEs halves the complex-field MSE; the two
        # conventions are proportional, never equal, for nonzero error
        rng = np.random.default_rng(4)
        re_r, im_r = rng.normal(size=(2, 32, 32))
        re_d, im_d = rng.normal(size=(2, 32, 32))
        avg = 0.5 * (mse(re_r, re_d) + mse(im_r, im_d))
        combined = mse(re_r + 1j * im_r, re_d + 1j * im_d)
        assert avg == pytest.approx(combined / 2.0, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DimMismatch):
            mse(np.ones((4, 4)), np.ones((4, 5)))


class TestSpectral:
    def test_scale_invariance_of_rankings(self, image):
        # positive rescaling preserves magnitude rankings, so a uniformly
        # brightened copy still scores 1 on the AC ranking part
        scaled = image * 2.0
        assert ssrmt(image, scaled) == pytest.approx(1.0, abs=1e-12)

    def test_range_and_degradation(self, image, noisy_versions):
        prev = 1.0
        for noisy in noisy_versions:
            for fn in (ssrm, ssrmt):
                v = fn(image, noisy)
                assert 0.0 <= v <= 1.0
        v_small = ssrmt(image, noisy_versions[0])
        v_large = ssrmt(image, noisy_versions[2])
        assert v_small > v_large

    def test_dc_handling_differs(self, image):
        # a DC shift changes the separately scored SSRM DC term but leaves
        # the AC magnitudes untouched
        shifted = image + 30.0
        s = ssrm(image, shifted)
        st = ssrmt(image, shifted)
        assert s < 1.0
        assert s != st

    def test_zero_reference(self):
        with pytest.raises(DegenerateReference):
            ssrm(np.zeros((8, 8)), np.ones((8, 8)))


class TestSsimFamily:
    def test_ssim_range_and_degradation(self, image, noisy_versions):
        values = [ssim(image, n) for n in noisy_versions]
        assert all(-1.0 <= v <= 1.0 for v in values)
        assert values[0] > values[1] > values[2]

    def test_ssim_map_shape_is_valid_window(self, image):
        qmap = ssim_map(image, image)
        assert qmap.shape == (190, 190)

    def test_ssim_symmetric(self, image, noisy_versions):
        a = ssim(image, noisy_versions[1])
        b = ssim(noisy_versions[1], image)
        assert a == pytest.approx(b, rel=1e-12)

    def test_msssim_single_scale_equals_ssim(self, image, noisy_versions, monkeypatch):
        monkeypatch.setattr(ssim_module, "_MSSSIM_WEIGHTS", (1.0,))
        for n in noisy_versions:
            assert ms_ssim(image, n) == pytest.approx(ssim(image, n), rel=1e-12)

    def test_msssim_degrades(self, image, noisy_versions):
        v = [ms_ssim(image, n) for n in noisy_versions]
        assert v[0] > v[1] > v[2]

    def test_iwssim_degrades(self, image, noisy_versions):
        v = [iw_ssim(image, n) for n in noisy_versions]
        assert v[0] > v[1] > v[2]

    @pytest.mark.parametrize("shape", [(11, 11), (40, 45), (76, 76), (109, 150)])
    def test_strip_weights_equal_whole_map(self, shape):
        """IW-SSIM's weight map formed in row strips equals the whole map cut to
        the quality map's region, bit for bit, and sums the same."""
        rng = np.random.default_rng(shape[0])
        band_r = rng.normal(0.0, 20.0, shape)
        band_d = band_r + rng.normal(0.0, 5.0, shape)
        t = ssim_module._IW_TRIM
        want = ssim_module._info_weight_map(band_r, band_d)[t:-t, t:-t]
        got = ssim_module._info_weights(band_r, band_d)
        assert np.array_equal(got, want)
        assert got.sum() == want.sum()

    def test_uqi_sensitive_to_gain(self, image):
        # UQI has no stabilizing constants, so a pure contrast gain lowers it
        v = uqi(image, 0.5 * image)
        assert v < 1.0

    @pytest.mark.xfail(strict=True, reason="fftconvolve leaves var_r + var_d at "
                       "round-off on flat zero windows, so the den_cs == 0 rule "
                       "never fires; fixing it moves the raw-score goldens")
    def test_uqi_bounded_on_flat_zero_blocks(self):
        rng = np.random.default_rng(0)
        ref, dist = np.zeros((64, 64)), np.zeros((64, 64))
        ref[:8, :8] = rng.integers(0, 256, (8, 8))
        dist[:8, :8] = rng.integers(0, 256, (8, 8))
        assert -1.0 <= uqi(ref, dist) <= 1.0

    def test_input_too_small(self):
        with pytest.raises(InputTooSmall):
            ssim(np.ones((8, 8)), np.ones((8, 8)))
        small = np.ones((64, 64))
        for fn in (ms_ssim, iw_ssim):
            with pytest.raises(InputTooSmall):
                fn(small, small)
        # a scratch that ssim has filled for the pair must not skip the check
        scratch = {}
        ssim(small, small, scratch)
        for fn in (ms_ssim, iw_ssim):
            with pytest.raises(InputTooSmall):
                fn(small, small, scratch)


def _outer(taps):
    return np.outer(taps, taps)


# the 1-D taps of every (window, mode) that goes through ``separable_filter``
_SEPARABLE = [
    ("ssim-gauss11", gaussian_window(11, 1.5), "valid"),
    *((f"vifp-gauss{n}", gaussian_window(n, n / 5.0), "valid") for n in (17, 9, 5, 3)),
    ("iw-box3", np.full(3, 1.0 / 3.0), "valid"),
    ("iw-upsample3", np.array([0.5, 1.0, 0.5]), "same"),
]

# their 2-D windows and UQI's 8x8 box: every (window, mode) the metrics filter with
_CONVOLUTIONS = [
    *(pytest.param(_outer(taps), mode, id=name) for name, taps, mode in _SEPARABLE),
    pytest.param(np.full((8, 8), 1.0 / 64.0), "valid", id="uqi-box8"),
]


def _gradient_2d(x, smooth):
    window = np.outer(smooth, [1.0, 0.0, -1.0])
    gx = correlate(x, window, mode="reflect")
    gy = correlate(x, window.T, mode="reflect")
    return np.sqrt(gx * gx + gy * gy)


def _upsample_2d(x):
    up = np.zeros((2 * x.shape[0], 2 * x.shape[1] - 1))
    up[0::2, 0::2] = x
    return correlate(up, 4.0 * _outer(pyramid._BINOMIAL), mode="reflect")


# (two 1-D passes, the 2-D window they stand for) of every mirrored-border filter
_REFLECTED = [
    pytest.param(pyramid._blur,
                 lambda x: correlate(x, _outer(pyramid._BINOMIAL), mode="reflect"),
                 id="nlpd-blur5"),
    pytest.param(lambda x: pyramid._upsample(x, (2 * x.shape[0], 2 * x.shape[1] - 1)),
                 _upsample_2d, id="nlpd-upsample5"),
    pytest.param(lambda x: gradient._gradient_magnitude(x, gradient._PREWITT),
                 lambda x: _gradient_2d(x, np.full(3, 1.0 / 3.0)), id="gmsd-prewitt"),
    pytest.param(lambda x: gradient._gradient_magnitude(x, gradient._SCHARR),
                 lambda x: _gradient_2d(x, np.array([3.0, 10.0, 3.0]) / 16.0),
                 id="fsim-scharr"),
]


class TestSeparableFilter:
    """Two 1-D passes filter like ``scipy.signal.fftconvolve`` with the
    outer-product window, to round-off relative to the image's magnitude;
    the mirrored-border ones (NLPD's binomial blur and upsampling, the
    Prewitt and Scharr gradients) like the 2-D window in
    ``scipy.ndimage.correlate``, to 1e-14 of the output's magnitude."""

    @settings(max_examples=30, deadline=None)
    @given(case=st.sampled_from(_SEPARABLE),
           kind=st.sampled_from(["image", "product", "zeros"]),
           rows=st.integers(17, 384), cols=st.integers(17, 384),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_fftconvolve(self, case, kind, rows, cols, seed):
        _, taps, mode = case
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 256, (rows, cols)).astype(np.float64)
        if kind == "product":
            x = x * rng.integers(0, 256, (rows, cols))
        elif kind == "zeros":
            x = np.zeros((rows, cols))
        want = fftconvolve(x, _outer(taps), mode=mode)
        got = ssim_module.separable_filter(x, taps, mode)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(x).max()))

    @pytest.mark.parametrize("separable, window", _REFLECTED)
    @pytest.mark.parametrize("shape", [(5, 5), (24, 31), (97, 128), (192, 192)])
    def test_matches_2d_correlate(self, separable, window, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        img = rng.integers(0, 256, shape).astype(np.float64)
        for x in (img, img * rng.integers(0, 256, shape), np.zeros(shape)):
            want = window(x)
            got = separable(x)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-14 * np.abs(want).max())


class TestFftConvolve:
    """UQI's convolution, ``ssim.fftconvolve``, is ``scipy.signal.fftconvolve``
    bit for bit (on every window the metrics used to filter with)."""

    @pytest.mark.parametrize("win, mode", _CONVOLUTIONS)
    @pytest.mark.parametrize("shape", [(17, 17), (24, 31), (64, 64), (97, 128),
                                       (384, 384)])
    def test_equals_scipy(self, win, mode, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        img = rng.integers(0, 256, shape).astype(np.float64)
        other = rng.integers(0, 256, shape).astype(np.float64)
        for x in (img, img * other, np.zeros(shape)):
            want = fftconvolve(x, win, mode=mode)
            got = ssim_module.fftconvolve(x, win, mode)
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_window_spectrum_is_cached_read_only(self):
        win = np.full((8, 8), 1.0 / 64.0)
        x = np.arange(400.0).reshape(20, 20)
        first = ssim_module.fftconvolve(x, win, "valid")
        spectrum = ssim_module._window_spectrum(win.tobytes(), win.shape, (27, 27))
        assert spectrum is ssim_module._window_spectrum(win.tobytes(), win.shape, (27, 27))
        assert not spectrum.flags.writeable
        assert np.array_equal(ssim_module.fftconvolve(x, win, "valid"), first)


class TestGradient:
    def test_gmsd_invariant_to_luminance_shift(self, image):
        assert gmsd(image, image + 25.0) == pytest.approx(0.0, abs=1e-12)

    def test_gmsd_increases_with_blur(self, image):
        from scipy.ndimage import gaussian_filter

        light = gaussian_filter(image, 1.0)
        heavy = gaussian_filter(image, 3.0)
        assert gmsd(image, heavy) > gmsd(image, light) > 0.0

    def test_gmsd_map_in_unit_range(self, image, noisy_versions):
        qmap = gmsd_map(image, noisy_versions[2])
        assert qmap.min() >= 0.0 and qmap.max() <= 1.0 + 1e-12

    def test_phase_congruency_range(self, image):
        pc = phase_congruency(image)
        assert pc.min() >= 0.0 and pc.max() <= 1.0

    def test_fsim_range_and_degradation(self, image, noisy_versions):
        v = [fsim(image, n) for n in noisy_versions]
        assert all(0.0 <= x <= 1.0 for x in v)
        assert v[0] > v[2]


class TestPyramidAndVif:
    def test_nlpd_nonnegative_and_degrades(self, image, noisy_versions):
        v = [nlpd(image, n) for n in noisy_versions]
        assert all(x >= 0.0 for x in v)
        assert v[0] < v[2]

    def test_vifp_degrades_with_noise(self, image, noisy_versions):
        v = [vifp(image, n) for n in noisy_versions]
        assert all(0.0 <= x <= 1.1 for x in v)
        assert v[0] > v[1] > v[2]

    def test_vifp_constant_reference(self):
        with pytest.raises(DegenerateReference):
            vifp(np.full((64, 64), 5.0), np.full((64, 64), 7.0))


def _uncached_phase_congruency(img):
    """Phase congruency with the full 16-filter bank built per call, as
    before the factors were cached; the reference for the cached path. It
    makes the library's ``scipy.fft`` calls, so it checks the caching, not
    the FFT library."""
    rows, cols = img.shape
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.fftfreq(cols)[None, :]
    radius = np.sqrt(fx * fx + fy * fy)
    radius[0, 0] = 1.0
    theta = np.arctan2(-fy, fx)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    sigma_theta = np.pi / 4 / 1.2
    log_sigma = np.log(0.55)
    spectrum = sp_fft.fft2(img)
    energy = np.zeros(img.shape)
    amp_sum = np.zeros(img.shape)
    for o in range(4):
        angle = o * np.pi / 4
        ds = sin_t * np.cos(angle) - cos_t * np.sin(angle)
        dc = cos_t * np.cos(angle) + sin_t * np.sin(angle)
        dtheta = np.abs(np.arctan2(ds, dc))
        spread = np.exp(-(dtheta * dtheta) / (2.0 * sigma_theta * sigma_theta))
        sum_re = np.zeros(img.shape)
        sum_im = np.zeros(img.shape)
        for s in range(4):
            f0 = 1.0 / (6.0 * 2.0 ** s)
            radial = np.exp(-(np.log(radius / f0) ** 2) / (2.0 * log_sigma * log_sigma))
            radial[0, 0] = 0.0
            resp = sp_fft.ifft2(spectrum * (radial * spread), overwrite_x=True)
            sum_re += resp.real
            sum_im += resp.imag
            amp_sum += np.abs(resp)
        energy += np.sqrt(sum_re * sum_re + sum_im * sum_im)
    return energy / (amp_sum + 1e-4)


class TestSharing:
    """Cached log-Gabor factors and per-pair scratch sharing are exact."""

    @pytest.mark.parametrize("a", [
        np.array([3.0, 3.0, 1.0, 3.0, 5.0, 3.0]),              # DC tied with AC
        np.abs(np.fft.fft2(np.full((6, 5), 7.0))).ravel(),        # constant image
        np.abs(np.fft.fft2(np.tile([0.0, 1.0, 0.0, 2.0], (8, 2)))).ravel(),
        np.random.default_rng(8).integers(0, 4, 400).astype(np.float64),
        np.zeros(16),
    ])
    def test_ac_ranks_match_direct_ranking(self, a):
        got = _ac_ranks(a, rankdata(-a, method="average"))
        assert np.array_equal(got, rankdata(-a[1:], method="average"))

    def test_scratch_values_bit_identical(self, image, noisy_versions):
        dist = noisy_versions[1]
        scratch = {}
        for mid in REAL_METRICS:
            want = evaluate_real(mid, image, dist)
            assert evaluate_real(mid, image, dist, scratch=scratch) == want, mid
        assert len(scratch) == 1

        fr = image + 1j * image[::-1]
        fd = dist + 1j * dist[::-1]
        scratch = {}
        for mid in COMPLEX_METRICS:
            want = evaluate_complex(mid, fr, fd)
            assert evaluate_complex(mid, fr, fd, scratch=scratch) == want, mid

    def test_ref_scratch_values_bit_identical(self, image, noisy_versions):
        family_keys = {"mse": set(), "ssrm": {"spectrum"}, "ssim": {"scales"},
                       "uqi": {"blocks"}, "gmsd": {"prewitt"}, "fsim": {"pc", "scharr"},
                       "nlpd": {"pyramid"}, "vifp": {"vif_scales"}}

        def field(img):
            return img + 1j * img[::-1]

        # views: per family, one warm reference scratch across the versions
        assert [family[0] for family in FAMILIES] == list(family_keys)
        for family in FAMILIES:
            view_ref = {}
            for dist in noisy_versions:
                scratch = {}
                for mid in family:
                    want = evaluate_real(mid, image, dist)
                    got = evaluate_real(mid, image, dist, scratch=scratch,
                                        ref_scratch=view_ref)
                    assert got == want, mid
            assert set(view_ref) == family_keys[family[0]], family

        # views: one warm reference scratch shared by every family
        view_ref = {}
        for dist in noisy_versions:
            scratch = {}
            for mid in REAL_METRICS:
                want = evaluate_real(mid, image, dist)
                got = evaluate_real(mid, image, dist, scratch=scratch, ref_scratch=view_ref)
                assert got == want, mid
        assert set(view_ref) == set().union(*family_keys.values())

        # complex crops
        complex_ref = {}
        for dist in noisy_versions:
            scratch = {}
            for mid in COMPLEX_METRICS:
                want = evaluate_complex(mid, field(image), field(dist))
                got = evaluate_complex(mid, field(image), field(dist), scratch=scratch,
                                       ref_scratch=complex_ref)
                assert got == want, mid
        assert set(complex_ref) == {"spectrum"}

    def test_phase_congruency_cache_matches_uncached(self, image):
        gradient._log_gabor_factors.cache_clear()
        small = image[:64, :80]
        for img in (image, small, image, small):
            assert np.array_equal(phase_congruency(img), _uncached_phase_congruency(img))
        assert gradient._log_gabor_factors.cache_info().currsize == 2

    def test_concurrent_first_use_builds_one_bank(self, image):
        gradient._log_gabor_factors.cache_clear()
        start = threading.Barrier(4)
        maps = []

        def first_use():
            start.wait(timeout=10)
            maps.append(phase_congruency(image))

        threads = [threading.Thread(target=first_use) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(maps) == 4
        assert all(np.array_equal(m, _uncached_phase_congruency(image)) for m in maps)
        assert gradient._log_gabor_factors.cache_info().misses == 1

    @pytest.mark.parametrize("shape", [(33, 33), (64, 100), (101, 130), (2, 7), (384, 384)])
    def test_quadrant_radials_mirror_to_full_profiles(self, shape):
        """Each cached radial profile is its quadrant [:rows//2+1, :cols//2+1];
        mirrored (entry k > n//2 from entry n - k) it equals the profile
        evaluated on the full ``fftfreq`` grid, bit for bit, and so does every
        filtered spectrum formed from it."""
        rows, cols = shape
        fy = np.fft.fftfreq(rows)[:, None]
        fx = np.fft.fftfreq(cols)[None, :]
        radius = np.sqrt(fx * fx + fy * fy)
        radius[0, 0] = 1.0
        log_sigma = np.log(0.55)
        mirror = np.ix_(*(np.minimum(np.arange(n), n - np.arange(n)) for n in shape))
        spreads, radials = gradient._log_gabor_factors(rows, cols)
        spectrum = sp_fft.fft2(np.random.default_rng(rows * cols).random(shape))
        for s, quadrant in enumerate(radials):
            assert quadrant.shape == (rows // 2 + 1, cols // 2 + 1)
            f0 = 1.0 / (6.0 * 2.0 ** s)
            full = np.exp(-(np.log(radius / f0) ** 2) / (2.0 * log_sigma * log_sigma))
            full[0, 0] = 0.0
            assert np.array_equal(quadrant[mirror], full), s
            for spread in spreads:
                assert np.array_equal(gradient._filtered_spectrum(spectrum, quadrant, spread),
                                      spectrum * (full * spread)), s

    def test_cached_factors_are_read_only(self):
        spreads, radials = gradient._log_gabor_factors(32, 48)
        for arr in spreads + radials:
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

