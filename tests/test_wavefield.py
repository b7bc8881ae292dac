import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsharsim.wavefield import (
    ComplexField,
    _interpolate,
    FieldFlagWarning,
    check_window,
    Grid,
    Mask,
    apply_mask,
    intensity,
    make_plane_wave,
    nyquist_tail_fraction,
    propagate,
    thin_lens,
    total_power,
)

WAVELENGTH = 650e-9


def small_grid(n=1024, dx=5e-6):
    return Grid(n_samples=n, spacing=dx)


def band_limited_field(grid, seed, cut_fraction=0.25):
    """Random field whose spectrum is confined to the inner Nyquist band."""
    rng = np.random.default_rng(seed)
    kx = grid.wavenumbers()
    spectrum = rng.normal(size=grid.n_samples) + 1j * rng.normal(size=grid.n_samples)
    spectrum[np.abs(kx) > cut_fraction * grid.nyquist] = 0.0
    return ComplexField(grid, np.fft.ifft(spectrum), WAVELENGTH)


class TestGrid:
    def test_coordinates_formula(self):
        g = Grid(n_samples=8, spacing=2.0, center=1.0)
        expected = 1.0 + (np.arange(8) - 4) * 2.0
        np.testing.assert_array_equal(g.coordinates, expected)

    @pytest.mark.parametrize("n", [0, 3, 100, -8])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            Grid(n_samples=n, spacing=1.0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            Grid(n_samples=8, spacing=0.0)

    @pytest.mark.parametrize("spacing", [np.inf, np.nan])
    def test_rejects_non_finite_spacing(self, spacing):
        with pytest.raises(ValueError, match="finite"):
            Grid(n_samples=8, spacing=spacing)


class TestPlaneWave:
    def test_zero_tilt_is_all_ones(self):
        f = make_plane_wave(small_grid(), WAVELENGTH)
        np.testing.assert_array_equal(f.amplitudes, np.ones(1024, dtype=complex))

    def test_tilted_wave_has_unit_magnitude(self):
        f = make_plane_wave(small_grid(), WAVELENGTH, tilt_angle=0.01)
        np.testing.assert_allclose(np.abs(f.amplitudes), 1.0, atol=1e-14)

    def test_two_tilted_waves_interfere_at_analytic_period(self):
        # oracle: |e^{i k sin(t) x} + e^{-i k sin(t) x}|^2 = 2 + 2 cos(2 k sin(t) x)
        grid = small_grid()
        k = 2 * np.pi / WAVELENGTH
        cycles = 16
        kt = cycles * 2 * np.pi / grid.extent / 2
        tilt = np.arcsin(kt / k)
        up = make_plane_wave(grid, WAVELENGTH, tilt)
        down = make_plane_wave(grid, WAVELENGTH, -tilt)
        total = np.abs(up.amplitudes + down.amplitudes) ** 2
        x = grid.coordinates
        oracle = 2 + 2 * np.cos(2 * k * np.sin(tilt) * x)
        np.testing.assert_allclose(total, oracle, atol=1e-12)
        assert np.isclose(WAVELENGTH / (2 * np.sin(tilt)), grid.extent / cycles)

    def test_tilt_beyond_nyquist_rejected(self):
        grid = small_grid()
        bad = np.arcsin(grid.nyquist / (2 * np.pi / WAVELENGTH) * 1.01)
        with pytest.raises(ValueError, match="Nyquist"):
            make_plane_wave(grid, WAVELENGTH, bad)


class TestPropagate:
    def test_zero_distance_is_identity(self):
        f = band_limited_field(small_grid(), seed=1)
        g = propagate(f, 0.0)
        np.testing.assert_allclose(g.amplitudes, f.amplitudes, atol=1e-12)

    def test_plane_wave_power_conserved(self):
        f = make_plane_wave(small_grid(), WAVELENGTH, tilt_angle=0.005)
        p0 = total_power(f)
        for z in (0.01, 0.5, 3.0, -2.0):
            assert abs(total_power(propagate(f, z)) - p0) / p0 < 1e-10

    def test_gaussian_beam_width_oracle(self):
        # analytic oracle: w(z) = w0 sqrt(1 + (z/zR)^2), zR = pi w0^2 / lambda
        grid = small_grid()
        x = grid.coordinates
        w0 = 4e-4
        z_r = np.pi * w0**2 / WAVELENGTH
        f = ComplexField(grid, np.exp(-(x**2) / w0**2), WAVELENGTH)
        for z in (0.3, 0.8, 1.5):
            profile = intensity(propagate(f, z))
            w_measured = 2 * np.sqrt(np.sum(profile * x**2) / np.sum(profile))
            w_expected = w0 * np.sqrt(1 + (z / z_r) ** 2)
            assert abs(w_measured - w_expected) / w_expected < 0.01

    def test_composition(self):
        f = band_limited_field(small_grid(), seed=2)
        a = propagate(propagate(f, 0.7), 0.4)
        b = propagate(f, 1.1)
        np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-10)

    def test_back_propagation_inverts(self):
        f = band_limited_field(small_grid(), seed=3)
        g = propagate(propagate(f, 2.5), -2.5)
        np.testing.assert_allclose(g.amplitudes, f.amplitudes, atol=1e-10)

    def test_linearity(self):
        grid = small_grid()
        f = band_limited_field(grid, seed=4)
        g = band_limited_field(grid, seed=5)
        alpha, beta = 0.3 - 1.2j, -0.8 + 0.1j
        combined = ComplexField(grid, alpha * f.amplitudes + beta * g.amplitudes, WAVELENGTH)
        lhs = propagate(combined, 0.9).amplitudes
        rhs = alpha * propagate(f, 0.9).amplitudes + beta * propagate(g, 0.9).amplitudes
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_nan_rejected(self):
        grid = small_grid()
        amps = np.ones(grid.n_samples, dtype=complex)
        amps[3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            propagate(ComplexField(grid, amps, WAVELENGTH), 1.0)

    def test_evanescent_components_removed(self):
        # spacing below lambda/2 makes the outer band evanescent; that power is lost
        grid = Grid(n_samples=1024, spacing=2e-7)
        kx = grid.wavenumbers()
        k = 2 * np.pi / WAVELENGTH
        spectrum = np.where(np.abs(kx) > k, 1.0 + 0j, 0.0)
        f = ComplexField(grid, np.fft.ifft(spectrum), WAVELENGTH)
        assert total_power(f) > 0
        assert total_power(propagate(f, 1e-6)) < 1e-30

    @given(seed=st.integers(0, 2**31), distance=st.floats(-5.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_power_conservation_property(self, seed, distance):
        f = band_limited_field(small_grid(n=256), seed=seed)
        p0 = total_power(f)
        if p0 == 0.0:
            return
        assert abs(total_power(propagate(f, distance)) - p0) / p0 < 1e-10


class TestMask:
    def test_all_ones_identity(self):
        grid = small_grid()
        f = band_limited_field(grid, seed=6)
        m = Mask(grid, np.ones(grid.n_samples))
        np.testing.assert_array_equal(apply_mask(f, m).amplitudes, f.amplitudes)

    def test_all_zeros_kills_power(self):
        grid = small_grid()
        f = band_limited_field(grid, seed=7)
        m = Mask(grid, np.zeros(grid.n_samples))
        assert total_power(apply_mask(f, m)) == 0.0

    def test_binary_double_slit_fill_fraction(self):
        # oracle: transmitted/incident power equals the geometric open fraction;
        # slit edges sit half a sample off the lattice so each slit spans
        # exactly 40 samples
        grid = Grid(n_samples=1024, spacing=1e-6)
        x = grid.coordinates
        width, offset = 40e-6, 100.5e-6
        t = ((np.abs(x - offset) <= width / 2) | (np.abs(x + offset) <= width / 2)).astype(
            float
        )
        f = make_plane_wave(grid, WAVELENGTH)
        transmitted = total_power(apply_mask(f, Mask(grid, t)))
        expected = total_power(f) * (2 * width / grid.extent)
        assert abs(transmitted - expected) / expected < 1e-9

    def test_grid_mismatch_rejected(self):
        f = band_limited_field(small_grid(), seed=8)
        m = Mask(small_grid(n=512), np.ones(512))
        with pytest.raises(ValueError, match="grid"):
            apply_mask(f, m)

    def test_active_mask_rejected(self):
        grid = small_grid()
        with pytest.raises(ValueError, match="passive"):
            Mask(grid, np.full(grid.n_samples, 1.1))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_submultiplicative_property(self, seed):
        grid = small_grid(n=256)
        f = band_limited_field(grid, seed=seed)
        rng = np.random.default_rng(seed + 1)
        m = Mask(grid, rng.uniform(0, 1, grid.n_samples) * np.exp(1j * rng.uniform(0, 2 * np.pi, grid.n_samples)))
        assert total_power(apply_mask(f, m)) <= total_power(f) * (1 + 1e-12)


class TestThinLens:
    def test_zero_focal_length_rejected(self):
        f = make_plane_wave(small_grid(), WAVELENGTH)
        with pytest.raises(ValueError):
            thin_lens(f, 0.0)

    def test_power_preserved(self):
        f = band_limited_field(small_grid(), seed=9)
        p0 = total_power(f)
        assert abs(total_power(thin_lens(f, 0.3)) - p0) <= 1e-12 * p0

    def test_plane_wave_focuses_on_axis(self):
        # Fourier focal property: >= 95% of the power lands within three
        # diffraction widths lambda*f/extent of the axis
        grid = Grid(n_samples=4096, spacing=2.5e-6)
        f_len = 0.1
        focused = propagate(thin_lens(make_plane_wave(grid, WAVELENGTH), f_len), f_len)
        width = WAVELENGTH * f_len / grid.extent
        captured = total_power(focused, window=(-3 * width, 3 * width))
        assert captured / total_power(focused) >= 0.95


class TestIntensityAndPower:
    def test_zero_field(self):
        grid = small_grid()
        f = ComplexField(grid, np.zeros(grid.n_samples), WAVELENGTH)
        np.testing.assert_array_equal(intensity(f), 0.0)

    def test_unit_plane_wave(self):
        f = make_plane_wave(small_grid(), WAVELENGTH)
        np.testing.assert_array_equal(intensity(f), 1.0)
        assert abs(total_power(f) - f.grid.extent) / f.grid.extent < 1e-12

    def test_two_wave_extremes(self):
        grid = small_grid()
        k = 2 * np.pi / WAVELENGTH
        kt = 32 * 2 * np.pi / grid.extent / 2
        tilt = np.arcsin(kt / k)
        up = make_plane_wave(grid, WAVELENGTH, tilt)
        down = make_plane_wave(grid, WAVELENGTH, -tilt)
        total = np.abs(up.amplitudes + down.amplitudes) ** 2
        assert np.max(total) == pytest.approx(4.0, abs=1e-9)
        assert np.min(total) == pytest.approx(0.0, abs=1e-9)

    def test_half_window_of_uniform_field(self):
        f = make_plane_wave(small_grid(), WAVELENGTH)
        x, dx = f.grid.coordinates, f.grid.spacing
        half = total_power(f, window=(x[0] - dx / 2, x[511] + dx / 2))
        assert half == pytest.approx(total_power(f) / 2, rel=1e-12)

    def test_sample_on_shared_edge_counts_in_neither_window(self):
        # windows are open intervals: the sample on their common edge is in
        # neither, so the two powers miss exactly its share of the total
        f = make_plane_wave(small_grid(), WAVELENGTH)
        x, dx = f.grid.coordinates, f.grid.spacing
        left = total_power(f, window=(x[0] - dx / 2, x[511]))
        right = total_power(f, window=(x[511], x[-1] + dx / 2))
        expected = total_power(f) - intensity(f)[511] * dx
        assert left + right == pytest.approx(expected, rel=1e-12)

    def test_complementary_windows_are_additive(self, records):
        rec = records[("both", "out")]
        # windows partition the samples, so powers add up by construction;
        # checked here on the simulated detector profile
        assert rec.power_window_U + rec.power_window_L <= rec.power_at_detectors * (1 + 1e-12)

    def test_complementary_windows_sum_to_total(self):
        # double-slit far field split at the axis: the two half-grid windows
        # partition the samples, so their powers sum to the total
        grid = Grid(n_samples=1024, spacing=1e-6)
        x = grid.coordinates
        slits = ((np.abs(x - 100.5e-6) <= 20e-6) | (np.abs(x + 100.5e-6) <= 20e-6)).astype(float)
        far = propagate(
            apply_mask(make_plane_wave(grid, WAVELENGTH), Mask(grid, slits)), 0.05
        )
        dx, mid = grid.spacing, (x[511] + x[512]) / 2
        left = total_power(far, window=(x[0] - dx / 2, mid))
        right = total_power(far, window=(mid, x[-1] + dx / 2))
        assert left + right == pytest.approx(total_power(far), rel=1e-12)

    def test_empty_window_flags(self):
        f = make_plane_wave(small_grid(), WAVELENGTH)
        with pytest.warns(FieldFlagWarning):
            assert total_power(f, window=(1.2e-6, 1.3e-6)) == 0.0

    def test_window_outside_grid_rejected(self):
        f = make_plane_wave(small_grid(), WAVELENGTH)
        with pytest.raises(ValueError, match="beyond"):
            total_power(f, window=(0.0, 1.0))

    def test_window_check_names_the_window(self):
        grid = small_grid()
        x, dx = grid.coordinates, grid.spacing
        check_window(grid, (x[0] - dx / 2, x[-1] + dx / 2))  # the outer sample cells
        message = r"^detector window L \(0\.0, 1\.0\) extends beyond the grid$"
        with pytest.raises(ValueError, match=message):
            check_window(grid, (0.0, 1.0), "detector window L")
        with pytest.raises(ValueError, match="reversed"):
            check_window(grid, (1e-6, -1e-6))

    @pytest.mark.parametrize("n", [1024, 2**16])
    def test_window_power_equals_the_masked_full_intensity_sum(self, n):
        # squaring only the window's samples gives the bits of squaring the
        # whole field and summing the samples strictly inside the window
        f = band_limited_field(small_grid(n=n), seed=n)
        x, dx = f.grid.coordinates, f.grid.spacing
        for lo, hi in (
            (x[0] - dx / 2, 0.0),
            (0.0, x[-1] + dx / 2),
            (x[3], x[n // 2 + 7]),
            (x[5] + 0.3 * dx, x[-9] - 0.6 * dx),
        ):
            sel = (x > lo) & (x < hi)
            assert total_power(f, (lo, hi)) == float(np.sum(intensity(f)[sel]) * dx)


class TestInterpolate:
    def test_matches_samples(self):
        f = band_limited_field(small_grid(n=256), seed=11)
        x = f.grid.coordinates
        spectrum, kx = np.fft.fft(f.amplitudes), f.grid.wavenumbers()
        interpolated = [_interpolate(spectrum, kx, x[0], x[i], 256)[0] for i in (3, 77, 200)]
        np.testing.assert_allclose(interpolated, f.amplitudes[[3, 77, 200]], atol=1e-12)

    @pytest.mark.parametrize("bin_index", [37, -150])
    def test_derivatives_of_on_bin_plane_wave(self, bin_index):
        # oracle: for exp(i*kt*x) with kt on an FFT bin the interpolant is
        # exact, so u' = i*kt*u and u'' = -kt**2*u between the samples too
        grid = small_grid()
        kt = 2 * np.pi * bin_index / grid.extent
        f = make_plane_wave(grid, WAVELENGTH, tilt_angle=np.arcsin(kt * WAVELENGTH / (2 * np.pi)))
        spectrum = np.fft.fft(f.amplitudes)
        x = grid.coordinates
        for xq in (x[100] + 0.3 * grid.spacing, x[700] + 0.77 * grid.spacing):
            u, du, d2u = _interpolate(spectrum, grid.wavenumbers(), x[0], xq, grid.n_samples)
            assert u == pytest.approx(np.exp(1j * kt * xq), rel=1e-9)
            assert du == pytest.approx(1j * kt * u, rel=1e-9)
            assert d2u == pytest.approx(-kt**2 * u, rel=1e-9)


class TestNyquistTail:
    def test_smooth_field_is_clean(self):
        f = band_limited_field(small_grid(), seed=12)
        assert nyquist_tail_fraction(f) < 1e-30

    def test_sharp_edge_is_dirty(self):
        grid = small_grid()
        t = (np.abs(grid.coordinates) < 20e-6).astype(complex)
        f = ComplexField(grid, t, WAVELENGTH)
        assert nyquist_tail_fraction(f) > 1e-6
