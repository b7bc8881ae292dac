import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsharsim.wavefield import (
    ComplexField,
    _first_index,
    _interpolate,
    _lens_factor,
    _lens_into,
    _masked_into,
    _tail_fraction,
    _transfer,
    _transfer_into,
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


def direct_transfer(grid, distance):
    """Full-length ``exp(i*distance*kz)`` with evanescent bins zeroed, and the propagating mask."""
    k = 2 * np.pi / WAVELENGTH
    kx = grid.wavenumbers()
    propagating = kx * kx <= k * k
    kz = np.sqrt(np.maximum(k * k - kx * kx, 0.0))
    return np.where(propagating, np.exp(1j * distance * kz), 0.0), propagating


class _Transforms:
    """Full-size ``np.fft.fft`` and ``np.fft.ifft`` calls from now on."""

    def __init__(self, monkeypatch, n_samples):
        self.counts = {"fft": 0, "ifft": 0}

        def counted(name, original):
            def wrapper(a, *args, **kwargs):
                if np.size(a) == n_samples:
                    self.counts[name] += 1
                return original(a, *args, **kwargs)

            return wrapper

        for name in self.counts:
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))


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

    @pytest.mark.parametrize("center", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_center(self, center):
        # a NaN center would make every coordinate NaN, which no window
        # check can fail
        with pytest.raises(ValueError, match="center must be finite"):
            Grid(n_samples=16, spacing=1e-6, center=center)


class TestComplexField:
    @pytest.mark.parametrize("wavelength", [np.inf, np.nan, 0.0, -WAVELENGTH])
    def test_rejects_a_wavelength_not_positive_and_finite(self, wavelength):
        grid = small_grid()
        with pytest.raises(ValueError, match="wavelength must be positive and finite"):
            ComplexField(grid, np.ones(grid.n_samples), wavelength)

    def test_equality_compares_grid_wavelength_and_samples(self):
        f = band_limited_field(small_grid(), seed=21)
        assert f == ComplexField(f.grid, f.amplitudes.copy(), WAVELENGTH)
        assert f != ComplexField(f.grid, 2.0 * f.amplitudes, WAVELENGTH)
        assert f != ComplexField(f.grid, f.amplitudes, 2.0 * WAVELENGTH)
        assert f != ComplexField(small_grid(dx=6e-6), f.amplitudes, WAVELENGTH)


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

    def test_nan_tilt_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            make_plane_wave(small_grid(), WAVELENGTH, np.nan)


class TestPropagate:
    def test_zero_distance_is_identity(self):
        f = band_limited_field(small_grid(), seed=1)
        g = propagate(f, 0.0)
        np.testing.assert_allclose(g.amplitudes, f.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("distance", [np.nan, np.inf, -np.inf])
    def test_non_finite_distance_rejected(self, distance):
        f = make_plane_wave(small_grid(), WAVELENGTH)
        with pytest.raises(ValueError, match="distance must be finite"):
            propagate(f, distance)

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

    @pytest.mark.parametrize("distance", [0.3, -1.7, 4.0])
    def test_one_fft_and_one_ifft_per_call(self, distance, monkeypatch):
        grid = small_grid()
        field = band_limited_field(grid, seed=23)
        transforms = _Transforms(monkeypatch, grid.n_samples)
        propagate(field, distance)
        assert transforms.counts == {"fft": 1, "ifft": 1}

    @pytest.mark.parametrize(
        "value", [np.inf, -np.inf, complex(0.0, np.inf)], ids=["inf", "-inf", "inf-j"]
    )
    def test_infinite_sample_rejected(self, value):
        grid = small_grid()
        amps = np.ones(grid.n_samples, dtype=complex)
        amps[3] = value
        with pytest.raises(ValueError, match="NaN or infinite"):
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

    @pytest.mark.parametrize("count", [1, 1024], ids=["one-sample", "all-samples"])
    def test_nan_transmission_rejected(self, count):
        # NaN compares false with any bound, so the check fails closed
        grid = small_grid()
        t = np.ones(grid.n_samples)
        t[:count] = np.nan
        with pytest.raises(ValueError, match="passive"):
            Mask(grid, t)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_submultiplicative_property(self, seed):
        grid = small_grid(n=256)
        f = band_limited_field(grid, seed=seed)
        rng = np.random.default_rng(seed + 1)
        m = Mask(grid, rng.uniform(0, 1, grid.n_samples) * np.exp(1j * rng.uniform(0, 2 * np.pi, grid.n_samples)))
        assert total_power(apply_mask(f, m)) <= total_power(f) * (1 + 1e-12)


class TestOwnership:
    """A field keeps a read-only array that owns its memory and copies any other."""

    def test_writeable_array_is_copied(self):
        grid = small_grid()
        amps = np.ones(grid.n_samples, dtype=complex)
        f = ComplexField(grid, amps, WAVELENGTH)
        amps[0] = 7.0
        assert f.amplitudes is not amps and f.amplitudes[0] == 1.0
        assert amps.flags.writeable

    def test_read_only_view_of_a_writeable_base_is_copied(self):
        grid = small_grid()
        base = np.ones(2 * grid.n_samples, dtype=complex)
        view = base[: grid.n_samples]
        view.flags.writeable = False
        f = ComplexField(grid, view, WAVELENGTH)
        base[0] = 7.0
        assert f.amplitudes[0] == 1.0 and f.amplitudes.flags.owndata

    def test_read_only_owning_array_is_shared(self):
        grid = small_grid()
        amps = np.ones(grid.n_samples, dtype=complex)
        amps.flags.writeable = False
        assert ComplexField(grid, amps, WAVELENGTH).amplitudes is amps
        assert Mask(grid, amps).transmission is amps


class TestKernelCache:
    """Geometry-only kernels are built once per key, and a hit is a miss's bits."""

    GRIDS = [Grid(2**14, 5e-6), Grid(2**16, 1.25e-6), Grid(2**12, 2e-7)]
    IDS = ["2^14", "2^16", "2^12-evanescent"]

    @pytest.mark.parametrize(
        "grid, evanescent",
        [(Grid(2**14, 5e-6), 0), (Grid(2**16, 1.25e-6), 0), (Grid(2**12, 2e-7), 1575)],
        ids=["2^14", "2^16", "2^12-evanescent"],
    )
    @pytest.mark.parametrize("distance", [1.0, 0.7499999999999999, -0.3])
    def test_half_built_transfer_function_is_the_direct_build(self, grid, evanescent, distance):
        # the n/2 + 1 built bins are bins 0..n/2 of the full-length direct
        # build, and read backwards from n/2 - 1 they are bins n/2+1..n-1
        n = grid.n_samples
        k = 2 * np.pi / WAVELENGTH
        direct, propagating = direct_transfer(grid, distance)
        assert np.count_nonzero(~propagating) == evanescent
        half = _transfer(grid, k, distance)
        assert half.shape == (n // 2 + 1,)
        np.testing.assert_array_equal(half.view(float), direct[: n // 2 + 1].view(float))
        mirrored = np.array(half[n // 2 - 1 : 0 : -1])
        np.testing.assert_array_equal(mirrored.view(float), direct[n // 2 + 1 :].view(float))


    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_cached_kernels_are_the_uncached_builds_and_read_only(self, grid):
        k = 2 * np.pi / WAVELENGTH
        for cached, args in ((_transfer, (grid, k, 0.75)), (_lens_factor, (grid, WAVELENGTH, 0.5))):
            first, again = cached(*args), cached(*args)
            assert again is first
            fresh = cached.__wrapped__(*args)
            assert fresh is not first
            np.testing.assert_array_equal(first.view(float), fresh.view(float))
            with pytest.raises(ValueError, match="read-only"):
                first[0] = 0.0

    def test_negative_zero_distance_caches_the_zero_distance_kernel(self):
        # 0.0 and -0.0 are one cache key, and their builds differ in the sign
        # of zero phases; propagate asks for +0.0 either way, so the kernel
        # kept under the key is the +0.0 build, whichever call came first
        grid = Grid(512, 3e-6)  # a key no other test builds
        field = band_limited_field(grid, seed=24)
        propagate(field, -0.0)
        cached = _transfer(grid, field.wavenumber, 0.0)
        fresh = _transfer.__wrapped__(grid, field.wavenumber, 0.0)
        np.testing.assert_array_equal(cached.view(np.uint64), fresh.view(np.uint64))

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    @pytest.mark.parametrize("distance", [1.0, -0.3])
    def test_propagate_is_the_direct_full_length_product(self, grid, distance):
        # H*S with a full-length H built directly: the same operand order,
        # bin by bin, whether H's upper bins are built or read as the
        # reversed half, so the bits agree on every grid
        # the spectrum is named: numpy may evaluate a product in place in a
        # large temporary operand, which would swap the operands
        field = band_limited_field(grid, seed=25)
        direct, _ = direct_transfer(grid, distance)
        spectrum = np.fft.fft(field.amplitudes)
        expected = np.fft.ifft(direct * spectrum)
        got = propagate(field, distance).amplitudes
        np.testing.assert_array_equal(got.view(float), expected.view(float))


class TestInPlaceKernels:
    """A kernel writing over its own input, and a transform written through
    ``out=``, give the bits of the allocating operation."""

    @pytest.mark.parametrize("grid", TestKernelCache.GRIDS, ids=TestKernelCache.IDS)
    def test_in_place_products_are_the_allocating_operations_bit_for_bit(self, grid):
        field = band_limited_field(grid, seed=26)
        spectrum = np.fft.fft(field.amplitudes)
        direct, _ = direct_transfer(grid, 0.8)
        expected = direct * spectrum
        _transfer_into(grid, field.wavenumber, 0.8, spectrum, out=spectrum)
        assert spectrum.tobytes() == expected.tobytes()
        mask = Mask(grid, np.linspace(0.0, 1.0, grid.n_samples))
        for kernel, expected in (
            (lambda a: _masked_into(a, mask.transmission, out=a), apply_mask(field, mask)),
            (lambda a: _lens_into(grid, WAVELENGTH, 0.3, a, out=a), thin_lens(field, 0.3)),
        ):
            samples = np.array(field.amplitudes)
            kernel(samples)
            assert samples.tobytes() == expected.amplitudes.tobytes()

    def test_mask_is_the_samples_times_the_transmission_bit_for_bit(self):
        # samples first, as for the lens
        grid = Grid(2**14, 5e-6)
        field = band_limited_field(grid, seed=29)
        rng = np.random.default_rng(29)
        t = rng.uniform(0.0, 1.0, grid.n_samples) * np.exp(1j * rng.uniform(0, 7, grid.n_samples))
        expected = field.amplitudes * t
        got = apply_mask(field, Mask(grid, t)).amplitudes
        np.testing.assert_array_equal(got.view(float), expected.view(float))

    @pytest.mark.parametrize("grid", TestKernelCache.GRIDS, ids=TestKernelCache.IDS)
    def test_transforms_through_out_are_the_allocating_transforms_bit_for_bit(self, grid):
        samples = band_limited_field(grid, seed=27).amplitudes
        out = np.empty_like(samples)
        np.fft.fft(samples, out=out)
        assert out.tobytes() == np.fft.fft(samples).tobytes()
        back = np.empty_like(samples)
        np.fft.ifft(out, out=back)
        assert back.tobytes() == np.fft.ifft(out).tobytes()


class TestThinLens:
    def test_zero_focal_length_rejected(self):
        f = make_plane_wave(small_grid(), WAVELENGTH)
        with pytest.raises(ValueError):
            thin_lens(f, 0.0)

    @pytest.mark.parametrize("focal_length", [np.nan, np.inf, -np.inf])
    def test_non_finite_focal_length_rejected(self, focal_length):
        # an infinite focal length is no lens at all, not a lens
        f = make_plane_wave(small_grid(), WAVELENGTH)
        with pytest.raises(ValueError, match="finite and nonzero"):
            thin_lens(f, focal_length)

    @pytest.mark.parametrize("grid", [Grid(2**14, 5e-6), Grid(2**16, 1.25e-6)], ids=["2^14", "2^16"])
    def test_factor_is_the_complex_exponential_bit_for_bit(self, grid):
        x = grid.coordinates
        factor = thin_lens(ComplexField(grid, np.ones(grid.n_samples), WAVELENGTH), 0.5)
        direct = np.exp(1j * (-np.pi * x * x / (WAVELENGTH * 0.5)))
        np.testing.assert_array_equal(factor.amplitudes.view(float), direct.view(float))

    @pytest.mark.parametrize(
        "grid", [Grid(2**14, 5e-6), Grid(2**16, 1.25e-6)], ids=["2^14", "2^16"]
    )
    def test_lens_is_the_samples_times_the_direct_factor_bit_for_bit(self, grid):
        # samples first, as the pipeline has always formed it: a complex
        # product can round differently with its operands swapped
        field = band_limited_field(grid, seed=28)
        x = grid.coordinates
        direct = np.exp(1j * (-np.pi * x * x / (WAVELENGTH * 0.5)))
        expected = field.amplitudes * direct
        got = thin_lens(field, 0.5).amplitudes
        np.testing.assert_array_equal(got.view(float), expected.view(float))

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

    @pytest.mark.parametrize(
        "window", [(np.nan, 0.0), (0.0, np.nan), (np.nan, np.nan), (-np.inf, 0.0), (0.0, np.inf)]
    )
    def test_window_with_a_non_finite_edge_rejected(self, window):
        # no comparison with NaN is true: such an edge is refused as such,
        # not read as an empty window
        f = make_plane_wave(small_grid(), WAVELENGTH)
        with pytest.raises(ValueError, match=r"window \(.*\) has a non-finite edge"):
            total_power(f, window)
        with pytest.raises(ValueError, match="non-finite"):
            check_window(f.grid, window)

    def test_window_check_names_the_window(self):
        grid = small_grid()
        x, dx = grid.coordinates, grid.spacing
        check_window(grid, (x[0] - dx / 2, x[-1] + dx / 2))  # the outer sample cells
        message = r"^detector window L \(0\.0, 1\.0\) extends beyond the grid$"
        with pytest.raises(ValueError, match=message):
            check_window(grid, (0.0, 1.0), "detector window L")
        with pytest.raises(ValueError, match="reversed"):
            check_window(grid, (1e-6, -1e-6))

    @pytest.mark.parametrize("n", [2**p for p in range(3, 21, 3)])
    def test_whole_grid_power_is_the_intensity_sum(self, n):
        f = band_limited_field(small_grid(n=n), seed=n)
        assert total_power(f) == float(np.sum(intensity(f)) * f.grid.spacing)

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

    @pytest.mark.parametrize("n", [2**14, 2**16])
    def test_rotation_is_the_complex_exponential_bit_for_bit(self, n):
        # reference: the interpolant with its rotation from the complex exp;
        # the rotation is named because numpy may evaluate a product with a
        # temporary of 256 KiB or more in place in the temporary, which swaps
        # the operands of the complex multiply and can change its last bit
        grid = Grid(n, 5e-6 * 2**14 / n)
        f = band_limited_field(grid, seed=25)
        spectrum, kx, x = np.fft.fft(f.amplitudes), grid.wavenumbers(), grid.coordinates
        for xq in (x[0], x[n // 3] + 0.41 * grid.spacing, -0.7 * grid.spacing, x[0] - 3.3e-6):
            rotation = np.exp(1j * (xq - x[0]) * kx)
            terms = spectrum * rotation
            expected = (
                terms.sum() / n, 1j * (terms @ kx) / n, -(terms @ (kx * kx)) / n
            )
            got = _interpolate(spectrum, kx, x[0], xq, n)
            assert np.array(got).tobytes() == np.array(expected, dtype=complex).tobytes()


class TestNyquistTail:
    def test_smooth_field_is_clean(self):
        f = band_limited_field(small_grid(), seed=12)
        assert nyquist_tail_fraction(f) < 1e-30

    def test_sharp_edge_is_dirty(self):
        grid = small_grid()
        t = (np.abs(grid.coordinates) < 20e-6).astype(complex)
        f = ComplexField(grid, t, WAVELENGTH)
        assert nyquist_tail_fraction(f) > 1e-6

    def test_one_fft_per_call(self, monkeypatch):
        f = band_limited_field(small_grid(), seed=13)
        transforms = _Transforms(monkeypatch, f.grid.n_samples)
        nyquist_tail_fraction(f)
        assert transforms.counts == {"fft": 1, "ifft": 0}

    @pytest.mark.parametrize("n", [2**p for p in range(3, 21)])
    def test_outer_band_is_the_bin_set_above_95_percent_of_nyquist(self, n):
        # all energy on the |kx| >= 0.95*nyquist bins reads 1, all energy on
        # the other bins reads 0: the summed bins are exactly that set
        grid = Grid(n, 1.25e-6)
        outer = np.abs(grid.wavenumbers()) >= 0.95 * grid.nyquist
        for bins, expected in ((outer, 1.0), (~outer, 0.0)):
            assert _tail_fraction(bins.astype(complex)) == expected

    @pytest.mark.parametrize("dc", [np.inf, np.nan, 1e200], ids=["inf", "nan", "overflow"])
    def test_non_finite_energy_gives_nan(self, dc):
        # the DC bin is in the inner band, so the outer band's energy is 0
        grid = small_grid()
        spectrum = np.zeros(grid.n_samples, dtype=complex)
        spectrum[0] = dc
        with np.errstate(over="ignore"):  # 1e200 squared
            assert np.isnan(_tail_fraction(spectrum))


class TestWindowIndices:
    """total_power's window indices by arithmetic, against a search of the coordinates."""

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.integers(3, 20),
        spacing=st.sampled_from([1e-7, 1.25e-6, 5e-6, 3.3e-5, 1e-3]),
        center=st.sampled_from([0.0, 2.5e-4, -1.7e-3, 0.37, -12.5]),
        data=st.data(),
    )
    def test_indices_are_searchsorted_over_the_coordinates(self, p, spacing, center, data):
        # oracle: np.searchsorted over the whole coordinate array, side
        # "right" for a lower edge and "left" for an upper one; the edges sit
        # exactly on a sample, one ulp either side of one, between two
        # samples (a window between neighbours holds none), or past the ends
        grid = Grid(2**p, spacing, center)
        x = grid.coordinates
        i = data.draw(st.integers(0, grid.n_samples - 1))
        fraction = data.draw(st.floats(0.0, 1.0))
        edges = [
            x[i],
            np.nextafter(x[i], -np.inf),
            np.nextafter(x[i], np.inf),
            x[i] + fraction * spacing,
            x[0] - spacing / 2,
            x[-1] + spacing / 2,
            x[0] - 3 * spacing,
            x[-1] + 3 * spacing,
        ]
        for edge in map(float, edges):
            assert _first_index(grid, edge, True) == np.searchsorted(x, edge, "right"), edge
            assert _first_index(grid, edge, False) == np.searchsorted(x, edge, "left"), edge

    @pytest.mark.parametrize("edge", [-np.inf, np.inf, -1e300, 1e300])
    def test_non_finite_and_far_edges_are_searchsorted(self, edge):
        grid = Grid(2**10, 5e-6, 1e-3)
        x = grid.coordinates
        assert _first_index(grid, edge, True) == np.searchsorted(x, edge, "right")
        assert _first_index(grid, edge, False) == np.searchsorted(x, edge, "left")

    def test_window_between_neighbouring_samples_holds_none(self):
        grid = Grid(2**16, 1.25e-6, 3e-4)
        f = ComplexField(grid, np.ones(grid.n_samples), WAVELENGTH)
        x = grid.coordinates
        for lo, hi in ((x[7], x[8]), (np.nextafter(x[7], np.inf), np.nextafter(x[8], -np.inf))):
            with pytest.warns(FieldFlagWarning):
                assert total_power(f, (float(lo), float(hi))) == 0.0


class TestAllocation:
    """A stage allocates only what its result owns: bounded by tracemalloc on 2^16.

    A 2^16 field is 1 MiB of samples and its intensity 512 KiB.
    """

    GRID = Grid(2**16, 1.25e-6)

    @staticmethod
    def peak(fn, *args):
        fn(*args)  # any first-call setup is not the stage's
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_intensity_is_its_output_alone(self):
        f = band_limited_field(self.GRID, seed=4)
        assert self.peak(intensity, f) <= 512 * 2**10 + 64 * 2**10
