import dataclasses

import numpy as np
import pytest

from afsharsim import apparatus
from afsharsim.apparatus import (
    AfsharGeometry,
    _refine_minima,
    _source_cutoffs,
    BandLimitError,
    GridState,
    Scenario,
    SimulationRecord,
    Slits,
    build_wire_grid,
    default_grid,
    discrimination,
    fill_factor,
    fringe_minima,
    image_windows,
    imaging_distance,
    run_scenario,
    slit_mask,
)
from afsharsim.wavefield import (
    ComplexField,
    _interpolate,
    Grid,
    Mask,
    apply_mask,
    make_plane_wave,
    nyquist_tail_fraction,
    propagate,
    total_power,
)

FINE_GRID = Grid(2**16, 1.25e-6)


class TestGeometry:
    def test_default_is_valid(self, geometry):
        assert geometry.fringe_spacing == pytest.approx(650e-9 * 1.0 / 187.5e-6)
        assert geometry.magnification == pytest.approx(0.5)

    def test_detector_distance_follows_the_lens(self, geometry):
        shorter = dataclasses.replace(geometry, focal_length=0.4)
        assert shorter.z_lens_to_detectors == imaging_distance(1.5, 0.4)
        # oracle: the thin-lens equation 1/s + 1/z = 1/f
        assert 1 / 1.5 + 1 / shorter.z_lens_to_detectors == pytest.approx(1 / 0.4, rel=1e-15)
        assert geometry.z_lens_to_detectors == 0.7499999999999999

    @pytest.mark.parametrize(
        "object_distance, focal_length",
        [(1.5, 2.0), (1.5, 1.5), (1.5, 0.0), (0.716875, 0.7168749999999999)],
        ids=["f>s", "f=s", "f=0", "f-one-ulp-below-s"],
    )
    def test_lens_without_a_real_image_rejected(self, object_distance, focal_length):
        with pytest.raises(ValueError, match="imaging condition has no solution"):
            imaging_distance(object_distance, focal_length)

    def test_geometry_without_a_real_image_rejected(self, geometry):
        with pytest.raises(ValueError, match="imaging condition"):
            dataclasses.replace(geometry, focal_length=2.0)

    def test_separation_must_exceed_width(self, geometry):
        with pytest.raises(ValueError, match="slit_separation"):
            dataclasses.replace(geometry, slit_width=200e-6)

    def test_wire_must_be_thinner_than_fringe(self, geometry):
        with pytest.raises(ValueError, match="wire_width"):
            dataclasses.replace(geometry, wire_width=geometry.fringe_spacing * 1.5)

    def test_positive_lengths(self, geometry):
        with pytest.raises(ValueError, match="positive"):
            dataclasses.replace(geometry, wavelength=-1e-6)

    @pytest.mark.parametrize("name", ["wavelength", "z_grid_to_lens", "wire_width"])
    def test_non_finite_lengths_rejected(self, geometry, name):
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(geometry, **{name: float("inf")})


class TestSlitMask:
    def test_passive_real_profile(self, geometry, bench_grid):
        for which in Slits:
            mask = slit_mask(geometry, bench_grid, which)
            assert np.max(np.abs(mask.transmission)) <= 1.0
            assert np.max(np.abs(mask.transmission.imag)) < 1e-15

    def test_spectrum_clean_at_nyquist(self, geometry, bench_grid):
        mask = slit_mask(geometry, bench_grid, Slits.BOTH)
        src = apply_mask(make_plane_wave(bench_grid, geometry.wavelength), mask)
        assert nyquist_tail_fraction(src) < 1e-30

    def test_single_slit_masks_are_mirror_images(self, geometry, bench_grid):
        upper = slit_mask(geometry, bench_grid, Slits.UPPER_ONLY).transmission
        lower = slit_mask(geometry, bench_grid, Slits.LOWER_ONLY).transmission
        # x -> -x maps sample i to n-i for interior samples
        np.testing.assert_allclose(upper[1:], lower[1:][::-1], atol=1e-12)

    @pytest.mark.parametrize("grid", [default_grid(), FINE_GRID], ids=["2^14", "2^16"])
    def test_both_is_the_sum_of_the_single_slits(self, geometry, grid):
        upper, lower, both = (
            slit_mask(geometry, grid, which).transmission
            for which in (Slits.UPPER_ONLY, Slits.LOWER_ONLY, Slits.BOTH)
        )
        np.testing.assert_array_equal(both, upper + lower)

    def test_coarse_sampling_rejected(self, geometry):
        coarse = Grid(n_samples=64, spacing=1e-3)
        with pytest.raises(BandLimitError, match="source"):
            slit_mask(geometry, coarse, Slits.BOTH)


class TestFringeMinima:
    def test_positions_match_analytic_oracle(self, geometry, bench_grid):
        # oracle: x_m = (m + 1/2) * lambda * L / d
        positions = fringe_minima(geometry, bench_grid)
        assert len(positions) == geometry.n_wires
        fringe = geometry.fringe_spacing
        expected = np.array([(m + 0.5) * fringe for m in range(3)])
        got = positions[positions > 0]
        np.testing.assert_allclose(got, expected, rtol=5e-3)

    def test_set_is_symmetric(self, geometry, bench_grid):
        positions = fringe_minima(geometry, bench_grid)
        np.testing.assert_array_equal(positions, -positions[::-1])

    def test_minima_are_deep(self, geometry, bench_grid, records):
        # simulation cross-check: intensity at each minimum is far below the
        # central peak of the pattern
        rec = records[("both", "out")]
        profile = rec.intensity_sigma1
        x = bench_grid.coordinates
        peak = profile.max()
        for pos in fringe_minima(geometry, bench_grid):
            nearest = np.argmin(np.abs(x - pos))
            assert profile[nearest] < 1e-4 * peak

    def test_odd_wire_count_rejected(self, geometry, bench_grid):
        with pytest.raises(ValueError, match="even"):
            odd = dataclasses.replace(geometry, n_wires=5)
            fringe_minima(odd, bench_grid)

    def test_default_grid_positions_pinned(self, geometry, bench_grid):
        positions = fringe_minima(geometry, bench_grid)
        expected = [1.733335400262975e-3, 5.2000689744920925e-3, 8.666990633339179e-3]
        np.testing.assert_allclose(positions[positions > 0], expected, rtol=0, atol=1e-9)

    def test_fine_grid_matches_default_grid(self, geometry, bench_grid):
        # second method: 4x finer sampling of the same 81.92 mm box
        fine = fringe_minima(geometry, Grid(2**16, 1.25e-6))
        np.testing.assert_allclose(fine, fringe_minima(geometry, bench_grid), rtol=0, atol=1e-9)

    def test_single_slit_field_has_no_resolvable_minima(self, geometry, sigma1_fields):
        upper, _ = sigma1_fields
        with pytest.raises(ValueError, match="not resolvable"):
            _refine_minima(geometry, upper)

    def test_shallow_minima_fail_depth_guard(self, geometry, sigma1_fields):
        # unbalanced slits: the fringes exist but their minima sit near
        # (0.1/1.9)**2 ~ 3e-3 of the maxima, far above the 1e-4 depth limit
        upper, lower = sigma1_fields
        unbalanced = upper.with_amplitudes(upper.amplitudes + 0.9 * lower.amplitudes)
        with pytest.raises(ValueError, match="not resolvable: intensity is .* of the neighboring"):
            _refine_minima(geometry, unbalanced)

    def test_unreachable_minima_raise_diagnostic(self, geometry, bench_grid):
        # minima pushed far outside the box trip the guard chain one way or
        # another before silently returning garbage
        wide = dataclasses.replace(geometry, n_wires=40)
        with pytest.raises((BandLimitError, ValueError)):
            fringe_minima(wide, bench_grid)


class TestSourceBand:
    """Synthesis and minima refinement work only on the bins within k_cut."""

    @pytest.mark.parametrize("grid", [default_grid(), FINE_GRID], ids=["2^14", "2^16"])
    def test_sigma1_energy_beyond_the_cutoff_is_negligible(self, geometry, grid):
        # premise of the band limit, checked on the fields rather than assumed
        phi_u, phi_l = apparatus.sigma1_fields(geometry, grid)
        outside = np.abs(grid.wavenumbers()) > _source_cutoffs(geometry, grid)[1]
        for amplitudes in (phi_u.amplitudes, phi_u.amplitudes + phi_l.amplitudes):
            energy = np.abs(np.fft.fft(amplitudes)) ** 2
            assert np.sum(energy[outside]) < 1e-20 * np.sum(energy)

    def test_band_interpolant_matches_the_full_trigonometric_sum(self, geometry, sigma1_fields):
        # second method: u(x) = (1/N) sum_m F_m exp(2 pi i m (x - x0) / (N dx))
        # over all N bins m = -N/2 .. N/2 - 1, and its first two derivatives
        phi_u, phi_l = sigma1_fields
        grid = phi_u.grid
        n, dx = grid.n_samples, grid.spacing
        x = grid.coordinates
        spectrum = np.fft.fft(phi_u.amplitudes + phi_l.amplitudes)
        m = np.concatenate([np.arange(n // 2), np.arange(-n // 2, 0)])
        k_all = 2 * np.pi * m / (n * dx)
        band = np.abs(k_all) <= _source_cutoffs(geometry, grid)[1]
        rng = np.random.default_rng(5)
        i = rng.integers(n // 2 - 2500, n // 2 + 2500, size=20)
        points = x[i] + rng.uniform(0.05, 0.95, size=20) * dx
        phases = np.exp(2j * np.pi * np.outer(points - x[0], m) / (n * dx))
        full = [phases @ (spectrum * (1j * k_all) ** p) / n for p in range(3)]
        banded = np.array(
            [_interpolate(spectrum[band], k_all[band], x[0], xq, n) for xq in points]
        ).T
        for got, expected in zip(banded, full):
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_refinement_sums_over_the_band_only(self, geometry, bench_grid, monkeypatch):
        sizes = []

        def recorded(spectrum, kx, x0, x, n):
            sizes.append(spectrum.size)
            return _interpolate(spectrum, kx, x0, x, n)

        monkeypatch.setattr(apparatus, "_interpolate", recorded)
        fringe_minima(geometry, bench_grid)
        in_band = np.count_nonzero(
            np.abs(bench_grid.wavenumbers()) <= _source_cutoffs(geometry, bench_grid)[1]
        )
        assert sizes and set(sizes) == {in_band}
        assert in_band < bench_grid.n_samples


class TestWireGrid:
    def test_no_wires_is_transparent(self, geometry, bench_grid):
        mask = build_wire_grid(geometry, np.array([]), bench_grid)
        np.testing.assert_array_equal(mask.transmission, 1.0)

    @pytest.mark.parametrize("grid", [default_grid(), FINE_GRID], ids=["2^14", "2^16"])
    def test_uniform_illumination_loses_width_plus_edge_per_bar(self, geometry, grid):
        # oracle: a bar's transmission across an edge of scale sigma is
        # s = (1 + tanh(u/sigma))/2, and 1 - s**2 = (1 - s) + s(1 - s); the
        # odd edge keeps the nominal width in (1 - s) and s(1 - s) adds
        # sigma/2, so each bar takes wire_width + sigma of a uniform beam
        dx = grid.spacing
        sigma = apparatus._WIRE_EDGE_SAMPLES * dx
        centers = np.array([(k * 600 + 0.5) * dx for k in (-3, -2, -1, 0, 1, 2)])
        mask = build_wire_grid(geometry, centers, grid)
        wave = make_plane_wave(grid, geometry.wavelength)
        ratio = total_power(apply_mask(wave, mask)) / total_power(wave)
        expected = 1.0 - 6 * (geometry.wire_width + sigma) / grid.extent
        assert abs(ratio - expected) < 1e-6

    def test_overlapping_wires_rejected(self, geometry, bench_grid):
        with pytest.raises(ValueError, match="overlap"):
            build_wire_grid(geometry, np.array([0.0, geometry.wire_width / 3]), bench_grid)

    def test_both_slit_field_passes_grid_nearly_unblocked(self, geometry, records):
        rec = records[("both", "in")]
        assert rec.power_after_grid / rec.power_incident > 0.99

    def test_fill_factor_definition(self, geometry):
        fringe = geometry.fringe_spacing
        illuminated = (geometry.n_wires - 1) * fringe + geometry.wire_width + 2 * fringe
        assert fill_factor(geometry) == pytest.approx(
            geometry.n_wires * geometry.wire_width / illuminated
        )


class TestScenarios:
    def test_single_slit_lands_in_correct_window(self, records):
        rec = records[("upper", "out")]
        assert rec.power_window_U / rec.power_at_detectors >= 0.99
        rec = records[("lower", "out")]
        assert rec.power_window_L / rec.power_at_detectors >= 0.99

    def test_single_slit_grid_loss_matches_fill_factor(self, geometry, records):
        phi = fill_factor(geometry)
        for slit in ("upper", "lower"):
            rec = records[(slit, "in")]
            loss = 1.0 - rec.power_after_grid / rec.power_incident
            assert abs(loss - phi) <= 0.2 * phi

    def test_grid_transparency_for_both_slits(self, records):
        ratio = (
            records[("both", "in")].power_at_detectors
            / records[("both", "out")].power_at_detectors
        )
        assert ratio >= 0.99

    def test_loss_ordering(self, records):
        def loss(rec):
            return 1.0 - rec.power_after_grid / rec.power_incident

        both = loss(records[("both", "in")])
        for slit in ("upper", "lower"):
            assert both < 0.2 * loss(records[(slit, "in")])

    def test_reciprocity_mirror_symmetry(self, records):
        upper = records[("upper", "out")].intensity_sigma2
        lower = records[("lower", "out")].intensity_sigma2
        scale = upper.max()
        np.testing.assert_allclose(upper[1:] / scale, lower[1:][::-1] / scale, atol=1e-9)

    @pytest.mark.parametrize("grid_state", ["in", "out"])
    def test_mirrored_fields_give_mirrored_window_powers(self, records, grid_state):
        # the lower slit is the exact mirror of the upper one, so each window
        # of one is the other window of the other (x = 0 counts in neither)
        upper, lower = records[("upper", grid_state)], records[("lower", grid_state)]
        both = records[("both", grid_state)]
        for a, b in (
            (upper.power_window_U, lower.power_window_L),
            (upper.power_window_L, lower.power_window_U),
            (both.power_window_U, both.power_window_L),
        ):
            assert a == pytest.approx(b, rel=1e-12, abs=0)

    def test_energy_bookkeeping(self, records):
        for rec in records.values():
            slack = 1 + 1e-10
            assert rec.power_at_detectors <= rec.power_after_grid * slack
            assert rec.power_after_grid <= rec.power_incident * slack
            assert rec.power_window_U + rec.power_window_L <= rec.power_at_detectors * slack
            assert min(
                rec.power_incident,
                rec.power_after_grid,
                rec.power_at_detectors,
                rec.power_window_U,
                rec.power_window_L,
            ) >= 0.0

    def test_minima_recorded_for_both_slit_runs(self, records, geometry):
        assert len(records[("both", "out")].minima_positions) == geometry.n_wires
        assert records[("upper", "out")].minima_positions == ()

    def test_guard_violation_names_stage(self, geometry):
        coarse = Grid(n_samples=256, spacing=1e-3)
        with pytest.raises(BandLimitError) as err:
            run_scenario(geometry, Scenario(Slits.BOTH, GridState.OUT), coarse)
        assert err.value.stage == "source"


class TestSuperposition:
    def test_both_slit_intensity_is_the_coherent_sum(self, records, sigma1_fields):
        phi_u, phi_l = sigma1_fields
        expected = np.abs(phi_u.amplitudes + phi_l.amplitudes) ** 2
        got = records[("both", "out")].intensity_sigma1
        assert np.max(np.abs(got - expected)) <= 1e-12 * expected.max()

    @pytest.mark.parametrize("grid", [default_grid(), FINE_GRID], ids=["2^14", "2^16"])
    def test_lower_field_matches_its_own_synthesis(self, geometry, grid):
        # premise of the mirror construction, checked without the reflection:
        # the lower slit built from its own spectrum exp(+i kx d/2) and
        # propagated to sigma1 is the field sigma1_fields returns for it
        kx = grid.wavenumbers()
        k_flat, k_cut = _source_cutoffs(geometry, grid)
        ramp = np.clip((np.abs(kx) - k_flat) / (k_cut - k_flat), 0.0, 1.0)
        window = np.where(ramp < 1.0, np.cos(0.5 * np.pi * ramp) ** 2, 0.0)
        a, d = geometry.slit_width, geometry.slit_separation
        aperture = a * np.sinc(kx * a / (2.0 * np.pi)) * window
        x0 = grid.coordinates[0]

        def profile(center):
            spectrum = aperture * np.exp(-1j * kx * center) * np.exp(1j * kx * x0)
            return np.fft.ifft(spectrum).real / grid.spacing

        upper, lower = profile(+d / 2), profile(-d / 2)
        lower = lower / np.max(np.abs(upper) + np.abs(lower))
        source = make_plane_wave(grid, geometry.wavelength).amplitudes * lower
        direct = propagate(
            ComplexField(grid, source, geometry.wavelength), geometry.z_slits_to_grid
        ).amplitudes
        mirrored = apparatus.sigma1_fields(geometry, grid)[1].amplitudes
        assert np.max(np.abs(mirrored - direct)) <= 1e-11 * np.max(np.abs(direct))

    @pytest.mark.parametrize("slits", list(Slits), ids=lambda s: s.value)
    @pytest.mark.parametrize("state", list(GridState), ids=lambda g: g.value)
    def test_one_source_and_three_propagations_per_scenario(
        self, geometry, bench_grid, monkeypatch, slits, state
    ):
        calls = {"propagate": 0, "slit_mask": 0}

        def counted(name):
            original = getattr(apparatus, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(apparatus, name, counted(name))
        run_scenario(geometry, Scenario(slits, state), bench_grid)
        assert calls == {"propagate": 3, "slit_mask": 1}


class TestDiscrimination:
    def test_single_slit_is_sharp(self, records):
        assert discrimination(records[("upper", "out")]) >= 0.98
        assert discrimination(records[("lower", "out")]) >= 0.98

    def test_symmetric_both_slit_is_balanced(self, records):
        assert discrimination(records[("both", "out")]) <= 0.01

    def test_empty_window_is_total(self, records):
        rec = dataclasses.replace(records[("upper", "out")], power_window_L=0.0)
        assert discrimination(rec) == 1.0

    def test_zero_power_rejected(self, records):
        rec = dataclasses.replace(
            records[("upper", "out")], power_window_U=0.0, power_window_L=0.0
        )
        with pytest.raises(ValueError):
            discrimination(rec)


class TestWindows:
    def test_window_beyond_the_grid_rejected_before_any_field(
        self, geometry, bench_grid, monkeypatch
    ):
        # an image 9e15 m away: each window covers 1.1e12 m, far beyond the grid
        far = dataclasses.replace(geometry, focal_length=1.4999999999999998)

        def no_fields(*args, **kwargs):
            raise AssertionError("a field was propagated")

        monkeypatch.setattr(apparatus, "propagate", no_fields)
        message = r"detector window U at magnification 6\.\d+e\+15 .* beyond the grid"
        with pytest.raises(ValueError, match=message):
            run_scenario(far, Scenario(Slits.UPPER_ONLY, GridState.OUT), bench_grid)

    def test_windows_touch_at_axis(self, geometry):
        (u_lo, u_hi), (l_lo, l_hi) = image_windows(geometry)
        md = geometry.magnification * geometry.slit_separation
        assert (u_lo, u_hi) == (-md, 0.0)
        assert (l_lo, l_hi) == (0.0, md)
