import collections
import dataclasses
import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from afsharsim import apparatus, wavefield
from afsharsim.apparatus import (
    AfsharGeometry,
    _refine_minima,
    _source_band,
    _source_cutoffs,
    BandLimitError,
    GridState,
    Scenario,
    SimulationRecord,
    Slits,
    DEFAULT_N_SAMPLES,
    DEFAULT_SPACING,
    build_wire_grid,
    fill_factor,
    fringe_minima,
    image_windows,
    imaging_distance,
    run_scenario,
)
from afsharsim.wavefield import (
    ComplexField,
    _interpolate,
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
from afsharsim.report import discrimination

DEFAULT_GRID = Grid(DEFAULT_N_SAMPLES, DEFAULT_SPACING)
FINE_GRID = Grid(2**16, 1.25e-6)


def band_bins(geometry, field):
    """The source-band bins of a fresh FFT of the field's samples, in FFT order.

    Selected by |kx| < k_cut over the whole grid, so they are the two runs
    0..m-1 and n-m+1..n-1 without building them as such.
    """
    in_band = np.abs(field.grid.wavenumbers()) < _source_cutoffs(geometry, field.grid)[1]
    return np.fft.fft(field.amplitudes)[in_band]


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


class TestUpperSlit:
    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_slit_pair_is_passive_and_real(self, geometry, grid):
        # the upper slit is scaled so that it and its mirror image, the lower
        # slit, are passive together wherever the two overlap
        upper = apparatus._upper_slit(geometry, grid)[0].amplitudes
        lower = np.concatenate([upper[:1], upper[:0:-1]])  # x -> -x: sample i -> (n - i) mod n
        assert np.max(np.abs(upper) + np.abs(lower)) <= 1.0
        assert np.max(np.abs(upper.imag)) < 1e-15

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_samples_are_exactly_real_and_owned(self, geometry, grid):
        # the synthesis ifft's buffer is handed over with its imaginary part zeroed
        upper = apparatus._upper_slit(geometry, grid)[0].amplitudes
        assert not upper.imag.any()
        assert upper.flags.owndata and not upper.flags.writeable

    def test_spectrum_clean_at_nyquist(self, geometry, bench_grid):
        # a fresh FFT of the samples, not the band spectrum they are built from
        source, _ = apparatus._upper_slit(geometry, bench_grid)
        assert nyquist_tail_fraction(source) < 1e-30

    def test_coarse_sampling_rejected(self, geometry):
        coarse = Grid(n_samples=64, spacing=1e-3)
        with pytest.raises(BandLimitError, match="source"):
            apparatus.sigma1_fields(geometry, coarse)


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
            _refine_minima(geometry, upper.grid, band_bins(geometry, upper))

    def test_shallow_minima_fail_depth_guard(self, geometry, sigma1_fields):
        # unbalanced slits: the fringes exist but their minima sit near
        # (0.1/1.9)**2 ~ 3e-3 of the maxima, far above the 1e-4 depth limit
        upper, lower = sigma1_fields
        unbalanced = ComplexField(
            upper.grid, upper.amplitudes + 0.9 * lower.amplitudes, upper.wavelength
        )
        with pytest.raises(ValueError, match="not resolvable: intensity is .* of the neighboring"):
            _refine_minima(geometry, unbalanced.grid, band_bins(geometry, unbalanced))

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_positions_are_the_both_slit_records_bit_for_bit(self, geometry, grid):
        # the records refine the minima in the scenario run, fringe_minima on
        # its own call: one sigma1 stage gives both the same bits
        positions = fringe_minima(geometry, grid)
        for state in GridState:
            record = run_scenario(geometry, Scenario(Slits.BOTH, state), grid)
            assert np.array(record.minima_positions).tobytes() == positions.tobytes()

    def test_unreachable_minima_raise_diagnostic(self, geometry, bench_grid):
        # minima pushed far outside the box trip the guard chain one way or
        # another before silently returning garbage
        wide = dataclasses.replace(geometry, n_wires=40)
        with pytest.raises((BandLimitError, ValueError)):
            fringe_minima(wide, bench_grid)


class TestSourceBand:
    """Synthesis and minima refinement work only on the bins with |kx| < k_cut."""

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_sigma1_energy_beyond_the_cutoff_is_negligible(self, geometry, grid):
        # premise of the band limit, checked on the fields rather than assumed
        phi_u, phi_l = apparatus.sigma1_fields(geometry, grid)
        outside = np.abs(grid.wavenumbers()) >= _source_cutoffs(geometry, grid)[1]
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
        band = np.abs(k_all) < _source_cutoffs(geometry, grid)[1]
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
        band = np.abs(bench_grid.wavenumbers()) < _source_cutoffs(geometry, bench_grid)[1]
        assert sizes and set(sizes) == {np.count_nonzero(band)}
        assert np.count_nonzero(band) < bench_grid.n_samples
        # synthesis fills the same bins: the slit's spectrum beyond them is roundoff
        spectrum = np.abs(np.fft.fft(apparatus._upper_slit(geometry, bench_grid)[0].amplitudes))
        assert np.max(spectrum[~band]) <= 1e-13 * np.max(spectrum)

    @pytest.mark.parametrize("spacing", [1e-7, 1.25e-6, 2.5e-6, 5e-6, 1e-5, 3.3e-5, 1e-3])
    def test_band_is_the_wavenumbers_below_the_cutoff_bit_for_bit(self, geometry, spacing):
        # oracle: the whole grid's wavenumbers by np.fft.fftfreq, selected by
        # the cutoff, and the mirror i -> (n - i) mod n by indexing; the
        # spacings cover both the box limit and the Nyquist limit of k_cut
        for n in (2**p for p in range(3, 21)):
            grid = Grid(n, spacing)
            band, kx = _source_band(geometry, grid)
            # _Bench.minima mirrors the band's bins as a compact array
            assert np.array_equal(band, band[-np.arange(n) % n]), n
            wavenumbers = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
            expected = wavenumbers[np.abs(wavenumbers) < _source_cutoffs(geometry, grid)[1]]
            assert kx.tobytes() == expected.tobytes(), n

    @pytest.mark.parametrize("entry", ["fringe_minima", "both/out", "upper/in"])
    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_band_superposition_is_the_full_superposition_on_the_band(
        self, geometry, grid, entry, monkeypatch
    ):
        # oracle: the full phi_U + phi_L spectrum, phi_U's H*S plus its mirror
        # by indexing, sliced to the band by |kx|, against the bins the
        # refinement is given, whichever call refines
        spectrum = apparatus._bench(geometry, grid).sigma1[1]
        in_band = np.abs(grid.wavenumbers()) < _source_cutoffs(geometry, grid)[1]
        full = (spectrum + np.roll(spectrum[::-1], 1))[in_band]
        refined = []
        refine = apparatus._refine_minima

        def recorded(geometry, grid, spectrum):
            refined.append(spectrum.tobytes())
            return refine(geometry, grid, spectrum)

        monkeypatch.setattr(apparatus, "_refine_minima", recorded)
        if entry == "fringe_minima":
            fringe_minima(geometry, grid)
        else:
            slits, state = entry.split("/")
            run_scenario(geometry, Scenario(Slits(slits), GridState(state)), grid)
        assert refined == [full.tobytes()]


class TestWireGrid:
    def test_no_wires_is_transparent(self, geometry, bench_grid):
        mask = build_wire_grid(geometry, np.array([]), bench_grid)
        np.testing.assert_array_equal(mask.transmission, 1.0)

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
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

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_windowed_bars_are_the_full_grid_product_bit_for_bit(self, geometry, grid):
        # reference: every bar's tanh product over the whole grid
        x, w = grid.coordinates, geometry.wire_width
        edge = apparatus._WIRE_EDGE_SAMPLES * grid.spacing
        reach = apparatus._WIRE_EDGE_REACH * edge
        extra = [
            x[0] + w / 2 + 0.3 * edge,  # reach beyond the first sample
            x[-1] - w / 2 - 5.0 * edge,  # reach beyond the last sample
            0.02, 0.02 + w + reach,  # windows overlap: edges reach apart
            -0.02, -0.02 - w,  # touching bars
            x[0] - w - 3.0 * reach, x[-1] + w + 3.0 * reach,  # off the grid
        ]
        centers = np.sort(np.concatenate([fringe_minima(geometry, grid), extra]))
        expected = np.ones_like(x)
        for c in centers:
            bar = 0.5 * (np.tanh((x - (c - w / 2)) / edge) - np.tanh((x - (c + w / 2)) / edge))
            expected = expected * (1.0 - bar)
        got = build_wire_grid(geometry, centers[::-1], grid).transmission
        assert got.tobytes() == expected.astype(complex).tobytes()

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
        # of one is the other window of the other (x = 0 counts in neither),
        # bit for bit, and the both-slit profile is its own mirror
        upper, lower = records[("upper", grid_state)], records[("lower", grid_state)]
        both = records[("both", grid_state)]
        for name in ("power_incident", "power_after_grid", "power_at_detectors"):
            assert getattr(lower, name) == getattr(upper, name), name
        assert lower.power_window_L == upper.power_window_U
        assert lower.power_window_U == upper.power_window_L
        assert both.power_window_L == both.power_window_U

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

    def test_guard_fails_closed_on_non_finite_fields(self, geometry):
        # an inf sample spreads nan over the spectrum (the FFT warns), and an
        # inf bin in the inner band leaves the outer band finite: neither
        # fraction is <= 1e-6
        n = 256
        amps = np.ones(n, dtype=complex)
        amps[7] = np.inf
        with np.errstate(invalid="ignore"):
            spread = np.fft.fft(amps)
        inner = np.zeros(n, dtype=complex)
        inner[0] = np.inf
        for spectrum in (spread, inner):
            with np.errstate(invalid="ignore"), pytest.raises(BandLimitError, match="nan"):
                apparatus._guarded(spectrum, "sigma1")

    @pytest.mark.parametrize("state", list(GridState), ids=lambda g: g.value)
    @pytest.mark.parametrize("stage", ["lens", "lens_phase", "sigma2"])
    def test_non_finite_field_fails_the_guard_of_the_stage_that_makes_it(
        self, geometry, bench_grid, monkeypatch, stage, state
    ):
        # one nan in the lens factor, or in the transfer function to the lens
        # or to sigma2: the guard of that stage fails closed for phi_U and
        # phi_U + phi_L, so no stage needs a finiteness check of its own
        n = bench_grid.n_samples
        if stage == "lens_phase":
            lens_factor = wavefield._lens_factor

            def poisoned(*args):
                factor = lens_factor(*args).copy()
                factor[n // 4] = np.nan
                return factor

            monkeypatch.setattr(wavefield, "_lens_factor", poisoned)
        else:
            target = geometry.z_grid_to_lens if stage == "lens" else geometry.z_lens_to_detectors
            transfer = wavefield._transfer

            def poisoned(grid, k, distance):
                half = transfer(grid, k, distance)
                if distance == target:
                    half = half.copy()
                    half[1] = np.nan
                return half

            monkeypatch.setattr(wavefield, "_transfer", poisoned)
        for slits in Slits:
            with np.errstate(invalid="ignore"), pytest.raises(BandLimitError, match="nan") as err:
                run_scenario(geometry, Scenario(slits, state), bench_grid)
            assert err.value.stage == stage and "nan" in err.value.detail


class TestSuperposition:
    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_carried_fields_are_the_indexed_mirror_bit_for_bit(self, geometry, grid):
        # oracle: the mirror x -> -x built by indexing, sample i -> (n - i) mod n
        phi_u, phi_l = apparatus.sigma1_fields(geometry, grid)
        mirror = -np.arange(grid.n_samples) % grid.n_samples
        assert phi_l.amplitudes.tobytes() == phi_u.amplitudes[mirror].tobytes()
        for values in (phi_u.amplitudes, apparatus._bench(geometry, grid).sigma1[1]):
            assert apparatus._mirror(values).tobytes() == values[mirror].tobytes()
            out = np.empty_like(values)
            assert apparatus._superposed(values, out) is out
            assert out.tobytes() == (values + values[mirror]).tobytes()

    def test_both_slit_intensity_is_the_coherent_sum(self, records, sigma1_fields):
        phi_u, phi_l = sigma1_fields
        expected = np.abs(phi_u.amplitudes + phi_l.amplitudes) ** 2
        got = records[("both", "out")].intensity_sigma1
        assert np.max(np.abs(got - expected)) <= 1e-12 * expected.max()

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
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
        # on cold caches the slit source is synthesized once and is the
        # source field itself: no plane wave is built; each change of domain
        # takes one full-size transform, so a scenario takes at most 6; the
        # wire grid is applied once in phi_U's pass and, for both slits,
        # once more to phi_U + phi_L; the two sigma1 profiles, phi_U's
        # sigma2 profile and (grid in) its profile behind the wires are
        # squared once, and both slits square their own sigma2 profile and
        # (grid in) their profile behind the wires; phi_U and phi_U + phi_L
        # are guarded at sigma1 and at each later stage (phi_L's spectrum is
        # phi_U's bins reordered); every field and mask takes over the arrays
        # its producer made, so no buffer is copied
        counts = _StageCounts(monkeypatch, bench_grid.n_samples)
        run_scenario(geometry, Scenario(slits, state), bench_grid)
        wire_masks = 1 if state is GridState.IN else 0
        needs_minima = 1 if slits is Slits.BOTH or state is GridState.IN else 0
        both = 1 if slits is Slits.BOTH else 0
        assert counts.calls == {
            "_transfer_into": 3,
            "_upper_slit": 1,
            "_refine_minima": needs_minima,
            "_guarded": 1 + 2 * (4 + wire_masks),
            "_masked_into": wire_masks * (1 + both),
            "_lens_into": 1,
            "_intensity": 3 + wire_masks + both * (1 + wire_masks),
            "make_plane_wave": 0,
        }
        downstream = _downstream_stages(state)
        assert counts.stages == ["source", *(s for s in downstream for _ in range(2))]
        assert counts.transforms == {"fft": 1 + wire_masks, "ifft": 4}
        assert counts.copies == []

    @pytest.mark.parametrize("slits", list(Slits), ids=lambda s: s.value)
    @pytest.mark.parametrize("state", list(GridState), ids=lambda g: g.value)
    def test_repeated_scenario_takes_no_transform(
        self, geometry, bench_grid, monkeypatch, slits, state
    ):
        # a repeated scenario is its record held in the bench: no synthesis,
        # no propagation, no refinement, no guard, and no field masked or
        # squared, for both slits as for a single one
        run_scenario(geometry, Scenario(slits, state), bench_grid)
        counts = _StageCounts(monkeypatch, bench_grid.n_samples)
        run_scenario(geometry, Scenario(slits, state), bench_grid)
        assert counts.calls == {
            "_transfer_into": 0,
            "_upper_slit": 0,
            "_refine_minima": 0,
            "_guarded": 0,
            "_masked_into": 0,
            "_lens_into": 0,
            "_intensity": 0,
            "make_plane_wave": 0,
        }
        assert counts.stages == []
        assert counts.transforms == {"fft": 0, "ifft": 0}
        assert counts.copies == []

    def test_six_scenarios_share_one_source_stage(self, geometry, bench_grid, monkeypatch):
        # the six scenarios synthesize, propagate to sigma1, guard there,
        # refine the minima and square the two sigma1 profiles once, and
        # take phi_U through the downstream stages once per grid state,
        # squaring its profiles there (3 in all): 3 fft, 6 ifft and 17
        # guards, the source's and two spectra at each later stage; both/in
        # and both/out square their 3 own profiles, and both/in applies the
        # wire grid to phi_U + phi_L
        counts = _StageCounts(monkeypatch, bench_grid.n_samples)
        for slits in Slits:
            for state in GridState:
                run_scenario(geometry, Scenario(slits, state), bench_grid)
        assert counts.calls == {
            "_transfer_into": 5,
            "_upper_slit": 1,
            "_refine_minima": 1,
            "_guarded": 17,
            "_masked_into": 2,
            "_lens_into": 2,
            "_intensity": 8,
            "make_plane_wave": 0,
        }
        assert counts.stages.count("source") == 1
        assert counts.stages.count("sigma1") == 2
        assert counts.transforms == {"fft": 3, "ifft": 6}
        assert counts.copies == []


def _downstream_stages(state):
    """The guard stages of a scenario from sigma1 on, in order."""
    stages = ["sigma1", "wire_grid", "lens", "lens_phase", "sigma2"]
    if state is GridState.OUT:
        stages.remove("wire_grid")
    return stages


class _StageCounts:
    """Calls of the scenario stages and kernels, guard stages, full-size transforms
    and buffer copies from now on.

    The kernels (``_transfer_into``, ``_masked_into``, ``_lens_into``,
    ``_intensity``) are counted wherever they run: in the bench's own
    buffers and inside the allocating ``propagate``, ``apply_mask``,
    ``thin_lens`` and ``intensity``.
    """

    def __init__(self, monkeypatch, n_samples):
        stages = ("_transfer_into", "_upper_slit", "_refine_minima", "_guarded")
        kernels = ("_masked_into", "_lens_into", "_intensity")
        self.calls = dict.fromkeys((*stages, *kernels, "make_plane_wave"), 0)
        self.stages = []
        self.transforms = {"fft": 0, "ifft": 0}
        self.copies = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                if name == "_guarded":
                    self.stages.append(args[1])
                return original(*args, **kwargs)

            return wrapper

        def counted_transform(name, original):
            def wrapper(a, *args, **kwargs):
                if np.size(a) == n_samples:
                    self.transforms[name] += 1
                return original(a, *args, **kwargs)

            return wrapper

        for name in self.calls:
            for module in (apparatus, wavefield):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for name in self.transforms:
            monkeypatch.setattr(np.fft, name, counted_transform(name, getattr(np.fft, name)))
        frozen = wavefield._frozen

        def counted_frozen(a):
            kept = frozen(a)
            if kept is not a:
                self.copies.append(a.size)
            return kept

        monkeypatch.setattr(wavefield, "_frozen", counted_frozen)


def built_passes(monkeypatch):
    """The grid states of the upper passes built from now on, in order."""
    built = []
    build = apparatus._Bench._build_pass

    def counted(bench, state):
        built.append(state)
        return build(bench, state)

    monkeypatch.setattr(apparatus._Bench, "_build_pass", counted)
    return built


class TestSigma1Cache:
    """The last bench is cached, one per (geometry, grid), with its sigma1 stage."""

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_cached_stage_is_the_uncached_build_bit_for_bit(self, geometry, grid):
        bench, fresh = apparatus._bench(geometry, grid), apparatus._Bench(geometry, grid)
        phi_u, spectrum, failures = bench.sigma1
        fresh_u, fresh_spectrum, fresh_failures = fresh.sigma1
        assert failures == fresh_failures == {}
        for got, expected in ((phi_u.amplitudes, fresh_u.amplitudes), (spectrum, fresh_spectrum)):
            assert got.tobytes() == expected.tobytes()
            assert got.flags.owndata and not got.flags.writeable
        minima = bench.minima
        assert isinstance(minima, tuple)
        assert np.array(minima).tobytes() == np.array(fresh.minima).tobytes()
        # a hit is the very value the miss built
        assert apparatus._bench(geometry, grid).sigma1[0] is phi_u
        assert apparatus._bench(geometry, grid).minima is minima

    def test_guard_failure_is_not_cached(self, geometry, monkeypatch):
        coarse = Grid(n_samples=256, spacing=1e-3)
        calls = []
        upper_slit = apparatus._upper_slit

        def counted(*args):
            calls.append(args)
            return upper_slit(*args)

        monkeypatch.setattr(apparatus, "_upper_slit", counted)
        for attempt in (1, 2):
            with pytest.raises(BandLimitError, match="source"):
                run_scenario(geometry, Scenario(Slits.UPPER_ONLY, GridState.OUT), coarse)
            assert len(calls) == attempt
        assert apparatus._bench.cache_info().currsize == 0

    def test_unresolvable_minima_are_not_cached(self, geometry, bench_grid, monkeypatch):
        # a single slit with the grid out needs no minima, so it still runs
        # for a geometry whose minima cannot be resolved
        wide = dataclasses.replace(geometry, slit_width=150e-6)
        refinements = []
        refine = apparatus._refine_minima

        def counted(*args):
            refinements.append(args)
            return refine(*args)

        monkeypatch.setattr(apparatus, "_refine_minima", counted)
        for slits in (Slits.UPPER_ONLY, Slits.LOWER_ONLY):
            record = run_scenario(wide, Scenario(slits, GridState.OUT), bench_grid)
            assert record.minima_positions == ()
        assert refinements == []
        for attempt, scenario in enumerate(
            (Scenario(Slits.BOTH, GridState.OUT), Scenario(Slits.UPPER_ONLY, GridState.IN)), 1
        ):
            with pytest.raises(ValueError, match="not resolvable"):
                run_scenario(wide, scenario, bench_grid)
            assert len(refinements) == attempt
        with pytest.raises(ValueError, match="not resolvable"):
            fringe_minima(wide, bench_grid)
        assert len(refinements) == 3
        bench = apparatus._bench(wide, bench_grid)
        assert "minima" not in vars(bench)
        assert [s.slits for s in bench._records] == [Slits.UPPER_ONLY, Slits.LOWER_ONLY]

    def test_another_geometry_or_grid_never_hits(self, geometry, bench_grid):
        # focal_length does not enter phi_U, so a hit on it would return the
        # right bits by accident: the key is the whole geometry all the same
        other_lens = dataclasses.replace(geometry, focal_length=0.4)
        other_slits = dataclasses.replace(geometry, slit_width=25e-6)
        keys = [
            (geometry, bench_grid),
            (other_lens, bench_grid),
            (other_slits, bench_grid),
            (geometry, FINE_GRID),
            (geometry, Grid(bench_grid.n_samples, 6e-6)),
        ]
        for misses, (geo, grid) in enumerate(keys, 1):
            bench = apparatus._bench(geo, grid)
            phi_u, spectrum, _ = bench.sigma1
            assert apparatus._bench.cache_info().misses == misses
            fresh_u, fresh_spectrum, _ = apparatus._Bench(geo, grid).sigma1
            assert phi_u.grid == grid
            assert phi_u.amplitudes.tobytes() == fresh_u.amplitudes.tobytes()
            assert spectrum.tobytes() == fresh_spectrum.tobytes()
        # an equal key made anew is a hit
        geo, grid = keys[-1]
        assert apparatus._bench(dataclasses.replace(geo), dataclasses.replace(grid)) is bench
        assert apparatus._bench.cache_info()[:2] == (1, len(keys))
        # a grid that differs in its center alone is a miss, which refuses it
        off_axis = dataclasses.replace(grid, center=1e-3)
        with pytest.raises(ValueError, match="centered on it"):
            apparatus._bench(geo, off_axis)
        assert apparatus._bench.cache_info()[:2] == (1, len(keys) + 1)

    def test_another_geometry_gets_its_own_minima(self, geometry, bench_grid):
        apart = dataclasses.replace(geometry, slit_separation=200e-6)
        got = fringe_minima(apart, bench_grid)
        assert got.tobytes() != fringe_minima(geometry, bench_grid).tobytes()
        assert got.tobytes() == np.array(apparatus._Bench(apart, bench_grid).minima).tobytes()

    def test_fringe_minima_hands_out_a_fresh_array(self, geometry, bench_grid):
        first = fringe_minima(geometry, bench_grid)
        expected = first.copy()
        first[:] = 0.0
        second = fringe_minima(geometry, bench_grid)
        assert second is not first and second.flags.writeable
        assert second.tobytes() == expected.tobytes()

    def test_sigma1_fields_share_the_cached_phi_u(self, geometry, bench_grid):
        phi_u, phi_l = apparatus.sigma1_fields(geometry, bench_grid)
        cached_u, spectrum, _ = apparatus._bench(geometry, bench_grid).sigma1
        assert phi_u is cached_u
        assert not phi_u.amplitudes.flags.writeable and not spectrum.flags.writeable
        assert apparatus.sigma1_fields(geometry, bench_grid)[1] is not phi_l


SIGMA2_POWERS = ("power_at_detectors", "power_window_U", "power_window_L")
PROFILES = ("intensity_sigma1", "intensity_sigma2")
SCENARIOS = [Scenario(slits, state) for slits in Slits for state in GridState]
SCENARIO_IDS = [f"{s.slits.value}-{s.grid.value}" for s in SCENARIOS]


def record_bits(record):
    """Every field of a record as bytes, for bitwise comparison."""
    powers = ("power_incident", "power_after_grid", *SIGMA2_POWERS)
    return (
        *(np.float64(getattr(record, name)).tobytes() for name in powers),
        record.intensity_sigma1.tobytes(),
        record.intensity_sigma2.tobytes(),
        np.array(record.minima_positions).tobytes(),
    )


class TestUpperPass:
    """phi_U's downstream pass is cached once per grid state in the bench."""

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_cached_pass_is_the_uncached_build_bit_for_bit(self, geometry, grid):
        bench, fresh_bench = apparatus._bench(geometry, grid), apparatus._Bench(geometry, grid)
        incident = bench.incident
        for got, expected in zip(incident, fresh_bench.incident, strict=True):
            assert got.tobytes() == expected.tobytes()
            assert got.flags.owndata and not got.flags.writeable
        assert apparatus._bench(geometry, grid).incident is incident
        for state in GridState:
            upper = bench.upper_pass(state)
            fresh = fresh_bench.upper_pass(state)
            for name in ("sigma2", "after_grid", "detected"):
                got = getattr(upper, name)
                assert got.tobytes() == getattr(fresh, name).tobytes(), name
                assert got.flags.owndata and not got.flags.writeable, name
            assert upper.failures == fresh.failures == {}
            if state is GridState.IN:
                assert upper.wires.transmission.tobytes() == fresh.wires.transmission.tobytes()
            else:
                assert upper.wires is fresh.wires is None
                # the profile behind no grid is the bench's incident one itself
                assert upper.after_grid is incident[0]
                assert fresh.after_grid is fresh_bench.incident[0]
            # a hit is the very value the miss built
            assert apparatus._bench(geometry, grid).upper_pass(state) is upper

    def test_six_scenarios_in_any_order_never_evict(self, geometry, bench_grid, monkeypatch):
        built = built_passes(monkeypatch)
        for scenario in [*SCENARIOS, *reversed(SCENARIOS)]:
            run_scenario(geometry, scenario, bench_grid)
        assert built == [GridState.IN, GridState.OUT]
        info = apparatus._bench.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 11, 1)

    def test_another_key_releases_the_whole_last_bench(self, geometry, bench_grid):
        # six scenarios on one geometry, then one on another: no pass, no
        # sigma1 array and no record of the first geometry is reachable any more
        for scenario in SCENARIOS:
            run_scenario(geometry, scenario, bench_grid)
        bench = apparatus._bench(geometry, bench_grid)
        phi_u, spectrum, _ = bench.sigma1
        passes = list(bench._passes.values())
        records = list(bench._records.values())
        assert len(passes) == 2 and len(records) == len(SCENARIOS)
        held = [bench, phi_u, phi_u.amplitudes, spectrum, *bench.incident, *passes, *records]
        held += [getattr(p, name) for p in passes for name in ("sigma2", "detected", "after_grid")]
        held += [getattr(r, name) for r in records for name in PROFILES]
        refs = [weakref.ref(a) for a in held]
        del bench, phi_u, spectrum, passes, records, held
        other = dataclasses.replace(geometry, slit_width=25e-6)
        run_scenario(other, Scenario(Slits.UPPER_ONLY, GridState.OUT), bench_grid)
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_records_do_not_depend_on_call_order_or_cache_state(self, geometry, grid):
        # each scenario in turn runs first on cold caches, then the six run
        # again on warm ones: every record keeps the bits of a cold run in
        # SCENARIOS order
        expected = {}
        for scenario in SCENARIOS:
            expected[scenario] = record_bits(run_scenario(geometry, scenario, grid))
        for first in SCENARIOS:
            apparatus._bench.cache_clear()
            for scenario in [first, *(s for s in SCENARIOS if s != first), *SCENARIOS]:
                got = record_bits(run_scenario(geometry, scenario, grid))
                assert got == expected[scenario], (first, scenario)

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_a_raise_while_a_pass_is_built_caches_nothing(self, geometry, grid, monkeypatch):
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("lens failed")

        monkeypatch.setattr(apparatus, "_lens_into", failing)
        scenario = Scenario(Slits.LOWER_ONLY, GridState.OUT)
        for attempt in (1, 2):
            with pytest.raises(RuntimeError, match="lens failed"):
                run_scenario(geometry, scenario, grid)
            assert len(calls) == attempt
        assert apparatus._bench(geometry, grid)._passes == {}
        monkeypatch.undo()
        run_scenario(geometry, scenario, grid)
        assert list(apparatus._bench(geometry, grid)._passes) == [GridState.OUT]

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_guard_failure_of_one_configuration_raises_for_its_scenario_only(
        self, geometry, grid, monkeypatch
    ):
        # the tail fraction reads 1 on phi_U's spectrum at the lens with the
        # grid out, and is the real one on every other spectrum: phi_L's is
        # phi_U's bins reordered, so upper/out and lower/out raise there with
        # one message, on every call, and the other four records keep their bits
        expected = {s: record_bits(run_scenario(geometry, s, grid)) for s in SCENARIOS}
        seen = []
        guarded = apparatus._guarded

        def recorded(spectrum, stage):
            seen.append((stage, spectrum.tobytes()))
            return guarded(spectrum, stage)

        monkeypatch.setattr(apparatus, "_guarded", recorded)
        apparatus._Bench(geometry, grid).upper_pass(GridState.OUT)
        monkeypatch.undo()
        lens = [spectrum for stage, spectrum in seen if stage == "lens"]
        assert len(lens) == 2
        target = lens[0]
        tail_fraction = apparatus._tail_fraction
        monkeypatch.setattr(
            apparatus,
            "_tail_fraction",
            lambda spectrum: 1.0 if spectrum.tobytes() == target else tail_fraction(spectrum),
        )
        apparatus._bench.cache_clear()
        built = built_passes(monkeypatch)
        failing = [Scenario(s, GridState.OUT) for s in (Slits.UPPER_ONLY, Slits.LOWER_ONLY)]
        messages = set()
        for scenario in [*SCENARIOS, *failing]:
            if scenario in failing:
                with pytest.raises(BandLimitError, match="1.000e[+]00") as err:
                    run_scenario(geometry, scenario, grid)
                assert err.value.stage == "lens"
                messages.add(str(err.value))
            else:
                assert record_bits(run_scenario(geometry, scenario, grid)) == expected[scenario]
        assert len(messages) == 1
        assert len(built) == 2

    @pytest.mark.parametrize(
        "state, stage",
        [
            (GridState.IN, "wire_grid"),
            *((state, stage) for stage in ("lens", "lens_phase", "sigma2") for state in GridState),
        ],
        ids=lambda v: v.value if isinstance(v, GridState) else v,
    )
    def test_pass_stops_at_the_stage_where_the_last_configuration_fails(
        self, geometry, bench_grid, monkeypatch, state, stage
    ):
        # the guard fails phi_U and phi_U + phi_L at one stage of one grid
        # state's pass: each scenario of that state raises there on
        # every call, no later stage is guarded, the pass keeps no sigma2
        # samples or profiles, and the other state's records, built on the
        # same bench afterwards, keep their bits
        other = GridState.OUT if state is GridState.IN else GridState.IN
        kept = [s for s in SCENARIOS if s.grid is other]
        fresh = apparatus._Bench(geometry, bench_grid)
        expected = {s: record_bits(fresh.record(s)) for s in kept}
        del fresh
        guarded = apparatus._guarded
        forced = [stage]

        def failing(spectrum, name):
            if name in forced:
                raise BandLimitError(name, "forced failure")
            return guarded(spectrum, name)

        monkeypatch.setattr(apparatus, "_guarded", failing)
        counts = _StageCounts(monkeypatch, bench_grid.n_samples)
        for _ in range(2):
            for slits in Slits:
                with pytest.raises(BandLimitError, match="forced failure") as err:
                    run_scenario(geometry, Scenario(slits, state), bench_grid)
                assert err.value.stage == stage
        downstream = _downstream_stages(state)
        reached = downstream[: downstream.index(stage) + 1]
        assert counts.stages == ["source", *(s for s in reached for _ in range(2))]
        upper = apparatus._bench(geometry, bench_grid).upper_pass(state)
        assert upper.failures == dict.fromkeys(
            (Slits.UPPER_ONLY, Slits.BOTH), (stage, "forced failure")
        )
        assert upper.after_grid is upper.sigma2 is upper.detected is None
        forced.clear()
        for scenario in kept:
            assert record_bits(run_scenario(geometry, scenario, bench_grid)) == expected[scenario]

    @pytest.mark.parametrize("failing", [Slits.UPPER_ONLY, Slits.BOTH], ids=lambda s: s.value)
    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_sigma1_guard_failure_of_one_configuration_raises_for_its_scenarios_only(
        self, geometry, grid, monkeypatch, failing
    ):
        # the tail fraction reads 1 on the failing field's sigma1 spectrum,
        # phi_U's or phi_U + phi_L's built by indexing, and is the real one
        # on every other spectrum: that field's scenarios (phi_U's are both
        # single slits) raise at sigma1 with one message on every call, the
        # other records keep their bits, and phi_U is built once
        expected = {s: record_bits(run_scenario(geometry, s, grid)) for s in SCENARIOS}
        minima = fringe_minima(geometry, grid)
        spectrum = apparatus._bench(geometry, grid).sigma1[1]
        mirrored = np.roll(spectrum[::-1], 1)
        target = (spectrum if failing is Slits.UPPER_ONLY else spectrum + mirrored).tobytes()
        tail_fraction = apparatus._tail_fraction
        monkeypatch.setattr(
            apparatus,
            "_tail_fraction",
            lambda spectrum: 1.0 if spectrum.tobytes() == target else tail_fraction(spectrum),
        )
        apparatus._bench.cache_clear()
        sources = []
        upper_slit = apparatus._upper_slit

        def counted(*args):
            sources.append(args)
            return upper_slit(*args)

        monkeypatch.setattr(apparatus, "_upper_slit", counted)
        fails = (Slits.UPPER_ONLY, Slits.LOWER_ONLY) if failing is Slits.UPPER_ONLY else (failing,)
        failing_first = [s for s in SCENARIOS if s.slits in fails]
        messages = set()
        for i, scenario in enumerate([*failing_first, *SCENARIOS, *SCENARIOS]):
            if scenario.slits in fails:
                with pytest.raises(BandLimitError, match="1.000e[+]00") as err:
                    run_scenario(geometry, scenario, grid)
                assert err.value.stage == "sigma1"
                messages.add(str(err.value))
                if i < len(failing_first):
                    # raised before anything downstream was built
                    bench = apparatus._bench(geometry, grid)
                    assert bench._passes == {} and "minima" not in vars(bench)
            else:
                assert record_bits(run_scenario(geometry, scenario, grid)) == expected[scenario]
        assert len(messages) == 1
        for state in GridState:
            # each pass starts from the sigma1 failure and guards the other on
            failures = apparatus._bench(geometry, grid).upper_pass(state).failures
            assert list(failures) == [failing] and failures[failing][0] == "sigma1"
        assert apparatus._bench(geometry, grid).sigma1[1].tobytes() == spectrum.tobytes()
        # the minima are phi_U + phi_L's, and sigma1_fields hands out phi_U
        calls = {Slits.BOTH: fringe_minima, Slits.UPPER_ONLY: apparatus.sigma1_fields}
        with pytest.raises(BandLimitError, match="sigma1"):
            calls[failing](geometry, grid)
        if failing is Slits.UPPER_ONLY:
            assert fringe_minima(geometry, grid).tobytes() == minima.tobytes()
        assert len(sources) == 1

    def test_off_axis_grid_rejected_before_any_field(self, geometry, bench_grid, monkeypatch):
        # the mirror i -> n - i is x -> -x only on a grid centered on the
        # axis: on another, phi_L would be phi_U reflected about the grid's
        # center, a slit at 2 * center - d/2
        def never(*args):
            raise AssertionError("a field was built")

        monkeypatch.setattr(apparatus, "_upper_slit", never)
        off_axis = Grid(bench_grid.n_samples, bench_grid.spacing, center=1e-3)
        calls = [lambda: apparatus.sigma1_fields(geometry, off_axis)]
        calls.append(lambda: fringe_minima(geometry, off_axis))
        calls += [lambda s=s: run_scenario(geometry, s, off_axis) for s in SCENARIOS]
        for call in calls:
            with pytest.raises(ValueError, match="centered on it, not at 0.001 m"):
                call()

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_downstream_elements_are_mirror_symmetric_bit_for_bit(self, geometry, grid):
        # premise of the mirrored pass: the wire grid, the lens factor and
        # the transfer functions are even under i -> n - i to the bit, so
        # phi_L's pass differs from phi_U's mirrored by FFT roundoff only
        mirror = -np.arange(grid.n_samples) % grid.n_samples
        mask = build_wire_grid(geometry, fringe_minima(geometry, grid), grid).transmission
        assert mask.tobytes() == mask[mirror].tobytes()
        lens = wavefield._lens_factor(grid, geometry.wavelength, geometry.focal_length)
        assert lens.tobytes() == lens[mirror].tobytes()
        k = 2 * np.pi / geometry.wavelength
        for distance in (geometry.z_grid_to_lens, geometry.z_lens_to_detectors):
            ones = np.ones(grid.n_samples, complex)
            h = wavefield._transfer_into(grid, k, distance, ones, np.empty_like(ones))
            assert h.tobytes() == h[mirror].tobytes()


class TestHeldRecords:
    """Each scenario's record is built once per bench and held there."""

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
    def test_repeated_scenario_is_the_very_record(self, geometry, bench_grid, scenario):
        record = run_scenario(geometry, scenario, bench_grid)
        assert run_scenario(geometry, dataclasses.replace(scenario), bench_grid) is record
        for name in PROFILES:
            profile = getattr(record, name)
            assert profile.flags.owndata and not profile.flags.writeable, name

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_held_records_are_the_uncached_build_bit_for_bit(self, geometry, grid):
        # cold and warm, forward and reverse: every record has the sha256 of
        # its record built on an uncached bench in SCENARIOS order
        fresh = apparatus._Bench(geometry, grid)
        expected = {s: record_sha256(fresh.record(s)) for s in SCENARIOS}
        del fresh
        for order in (SCENARIOS, SCENARIOS[::-1]):
            apparatus._bench.cache_clear()
            for scenario in [*order, *order]:
                got = record_sha256(run_scenario(geometry, scenario, grid))
                assert got == expected[scenario], scenario
            assert set(apparatus._bench(geometry, grid)._records) == set(SCENARIOS)

    def test_guard_failure_raises_on_every_call_and_stores_no_record(
        self, geometry, bench_grid, monkeypatch
    ):
        # the tail fraction reads 1 on phi_U's sigma1 spectrum: the four
        # single-slit scenarios raise with one stage and message on each of
        # two rounds, and only the two both-slit records are held, each built once
        target = apparatus._bench(geometry, bench_grid).sigma1[1].tobytes()
        tail_fraction = apparatus._tail_fraction
        monkeypatch.setattr(
            apparatus,
            "_tail_fraction",
            lambda spectrum: 1.0 if spectrum.tobytes() == target else tail_fraction(spectrum),
        )
        apparatus._bench.cache_clear()
        held, messages = {}, set()
        for scenario in [*SCENARIOS, *SCENARIOS]:
            if scenario.slits is not Slits.BOTH:
                with pytest.raises(BandLimitError, match="1.000e[+]00") as err:
                    run_scenario(geometry, scenario, bench_grid)
                assert err.value.stage == "sigma1"
                messages.add(str(err.value))
            else:
                record = run_scenario(geometry, scenario, bench_grid)
                assert held.setdefault(scenario, record) is record
        assert len(messages) == 1
        records = apparatus._bench(geometry, bench_grid)._records
        assert records == held and len(held) == 2


def record_sha256(record):
    """The sha256 of every field of a record."""
    return hashlib.sha256(b"".join(record_bits(record))).hexdigest()


class TestMemory:
    @pytest.mark.parametrize("slits", list(Slits), ids=lambda s: s.value)
    @pytest.mark.parametrize("state", list(GridState), ids=lambda g: g.value)
    def test_scenario_peak_allocation_on_the_fine_grid(self, geometry, slits, state):
        # a 2^16 field is 1 MiB of samples and 1 MiB of spectrum, and its
        # profile 0.5 MiB.  On warm caches an upper record takes the cached
        # profiles and a lower one their mirrors (at most 1.5 MiB); both
        # slits hold one buffer of summed samples and their own profiles
        # (at most 2 MiB), and no spectrum.  The first run fills the
        # caches, which outlive the call; its record is dropped from the
        # bench, so the second run builds it again from the warm stages
        scenario = Scenario(slits, state)
        run_scenario(geometry, scenario, FINE_GRID)
        apparatus._bench(geometry, FINE_GRID)._records.clear()
        tracemalloc.start()
        try:
            run_scenario(geometry, scenario, FINE_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("slits", list(Slits), ids=lambda s: s.value)
    @pytest.mark.parametrize("state", list(GridState), ids=lambda g: g.value)
    def test_cold_cache_peak_allocation_on_the_fine_grid(self, geometry, slits, state):
        # the same run with the bench's sigma1 stage, minima and record
        # dropped also builds phi_U, which the bench keeps: 1 MiB of samples
        # and 1 MiB of spectrum over the warm bound
        scenario = Scenario(slits, state)
        run_scenario(geometry, scenario, FINE_GRID)
        stages = vars(apparatus._bench(geometry, FINE_GRID))
        del stages["sigma1"]
        stages.pop("minima", None)
        stages["_records"].clear()
        tracemalloc.start()
        try:
            run_scenario(geometry, scenario, FINE_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20

    @pytest.mark.parametrize("slits", list(Slits), ids=lambda s: s.value)
    @pytest.mark.parametrize("state", list(GridState), ids=lambda g: g.value)
    def test_all_caches_cold_peak_allocation_on_the_fine_grid(self, geometry, slits, state):
        # the same run with no bench cached, the state of every CLI process,
        # also builds phi_U's pass and the sigma1 profiles, and the bench
        # keeps phi_U's sigma2 samples (1 MiB) and, with the grid in, the
        # wire grid (1 MiB); each row builds its kernel as it runs, the lens
        # factor's n complex samples (1 MiB) the largest: the cold bound plus
        # those bytes.  The profiles the bench also keeps (1.5 or 2.5 MiB)
        # fit within it, since the record shares them
        scenario = Scenario(slits, state)
        run_scenario(geometry, scenario, FINE_GRID)
        upper = apparatus._bench(geometry, FINE_GRID).upper_pass(state)
        kept = upper.sigma2.nbytes + (upper.wires.transmission.nbytes if upper.wires else 0)
        del upper
        apparatus._bench.cache_clear()
        tracemalloc.start()
        try:
            run_scenario(geometry, scenario, FINE_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * 2**20 + kept + 16 * FINE_GRID.n_samples

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=SCENARIO_IDS)
    def test_repeated_scenario_allocates_no_profile(self, geometry, scenario):
        # a repeated scenario checks its windows and looks its record up: it
        # forms no array, where a 2^16 profile alone is 512 KiB
        run_scenario(geometry, scenario, FINE_GRID)
        tracemalloc.start()
        try:
            run_scenario(geometry, scenario, FINE_GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_bench_keeps_its_six_records_on_the_fine_grid(self, geometry):
        # after the six scenarios, with the caller's records dropped, the
        # bench keeps phi_U and its spectrum (2 MiB), the wire grid (1 MiB),
        # each pass's sigma2 samples (2 MiB), the five profiles of phi_U and
        # phi_U + phi_L at sigma1, behind the wires and at sigma2 (2.5 MiB)
        # and the seven profiles the lower and both-slit records own
        # (3.5 MiB): 11.0 MiB measured
        run_scenario(geometry, SCENARIOS[0], FINE_GRID)
        apparatus._bench.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            for scenario in SCENARIOS:
                run_scenario(geometry, scenario, FINE_GRID)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(apparatus._bench(geometry, FINE_GRID)._records) == len(SCENARIOS)
        assert kept < 11.5 * 2**20


def direct_transfer(grid, wavelength, distance):
    """Full-length ``exp(i*distance*kz)`` with evanescent bins zeroed, built directly."""
    k = 2 * np.pi / wavelength
    kx = grid.wavenumbers()
    kz = np.sqrt(np.maximum(k * k - kx * kx, 0.0))
    return np.where(kx * kx <= k * k, np.exp(1j * distance * kz), 0.0)


def chained(geometry, scenario, grid):
    """The scenario rebuilt on fresh fields by the public wavefield operations.

    Each stage is a new field made by ``propagate``, ``apply_mask`` or
    ``thin_lens``, and the powers come from ``total_power``: the pipeline
    as it ran before ``run_scenario`` worked in two reused buffers.  The
    sigma1 stage is built anew, without the cache.  Two steps start from a
    spectrum the bench keeps instead of an FFT of samples: source to sigma1
    from the source's band spectrum, and with the grid out sigma1 to the
    lens from sigma1's H*S; each is H*S with a full-length transfer
    function built directly, then one ``ifft``.  Returns the record and the
    field at each guard stage.  phi_L is phi_U mirrored by indexing, sample
    and bin i -> (n - i) mod n, and phi_U + phi_L their sum, so the oracle
    shares no code with ``_mirror`` or ``_superposed``.  For ``lower`` and
    ``both`` this propagates phi_L and phi_U + phi_L directly, where
    ``run_scenario`` mirrors or sums phi_U's pass.
    """
    wavelength = geometry.wavelength

    def propagated(spectrum, distance):
        transfer = direct_transfer(grid, wavelength, distance)
        spectrum = transfer * spectrum
        return ComplexField(grid, np.fft.ifft(spectrum), wavelength), spectrum

    source, band = apparatus._upper_slit(geometry, grid)
    field, spectrum = propagated(band, geometry.z_slits_to_grid)
    if scenario.slits is not Slits.UPPER_ONLY:
        a, s = field.amplitudes, spectrum
        lower_a, lower_s = np.roll(a[::-1], 1), np.roll(s[::-1], 1)
        if scenario.slits is Slits.BOTH:
            lower_a, lower_s = a + lower_a, s + lower_s
        field, spectrum = ComplexField(grid, lower_a, wavelength), lower_s
    stages = {"source": source, "sigma1": field}
    minima = ()
    if scenario.slits is Slits.BOTH or scenario.grid is GridState.IN:
        minima = apparatus._Bench(geometry, grid).minima
    power_incident = total_power(field)
    sigma1 = field
    if scenario.grid is GridState.IN:
        sigma1 = stages["wire_grid"] = apply_mask(
            field, build_wire_grid(geometry, np.asarray(minima), grid)
        )
        field = stages["lens"] = propagate(sigma1, geometry.z_grid_to_lens)
    else:
        field = stages["lens"] = propagated(spectrum, geometry.z_grid_to_lens)[0]
    field = stages["lens_phase"] = thin_lens(field, geometry.focal_length)
    field = stages["sigma2"] = propagate(field, geometry.z_lens_to_detectors)
    window_u, window_l = image_windows(geometry)
    record = SimulationRecord(
        scenario=scenario,
        power_incident=power_incident,
        power_after_grid=total_power(sigma1),
        power_at_detectors=total_power(field),
        power_window_U=total_power(field, window_u),
        power_window_L=total_power(field, window_l),
        intensity_sigma1=intensity(sigma1),
        intensity_sigma2=intensity(field),
        minima_positions=minima if scenario.slits is Slits.BOTH else (),
    )
    return record, stages


class TestChainedOracle:
    """``run_scenario``'s records against the public operations chained on fresh fields."""

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_upper_records_and_sigma1_quantities_are_the_chained_fields_bit_for_bit(
        self, geometry, grid
    ):
        # every sigma1 quantity comes from the cached sigma1 profiles, phi_U's
        # pass, their mirror or the summed field; upper's sigma2 is phi_U's
        # pass, the chained operations' bits in two reused buffers; a lower
        # record's powers are the upper record's (see the roundoff test below)
        for scenario in SCENARIOS:
            got = run_scenario(geometry, scenario, grid)
            expected, _ = chained(geometry, scenario, grid)
            names = {
                Slits.UPPER_ONLY: ["power_incident", "power_after_grid", *SIGMA2_POWERS],
                Slits.LOWER_ONLY: [],
                Slits.BOTH: ["power_incident", "power_after_grid"],
            }[scenario.slits]
            for name in names:
                assert np.float64(getattr(got, name)).tobytes() == np.float64(
                    getattr(expected, name)
                ).tobytes(), (scenario, name)
            names = ["intensity_sigma1"]
            if scenario.slits is Slits.UPPER_ONLY:
                names.append("intensity_sigma2")
            for name in names:
                assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), (
                    scenario,
                    name,
                )
            assert got.minima_positions == expected.minima_positions

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_lower_and_both_records_match_the_directly_propagated_fields(self, geometry, grid):
        # oracle: phi_L and phi_U + phi_L propagated directly by the public
        # operations, sharing no mirror or sum past sigma1 with the pass;
        # the two differ by FFT roundoff only
        for scenario in SCENARIOS:
            if scenario.slits is Slits.UPPER_ONLY:
                continue
            got = run_scenario(geometry, scenario, grid)
            expected, _ = chained(geometry, scenario, grid)
            profile = expected.intensity_sigma2
            error = np.max(np.abs(got.intensity_sigma2 - profile))
            assert error <= 1e-14 * np.max(profile), scenario
            for name in SIGMA2_POWERS:
                value = getattr(expected, name)
                assert abs(getattr(got, name) - value) <= 1e-14 * value, (scenario, name)

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_lower_and_both_sigma2_profiles_are_the_mirror_and_the_sum_bit_for_bit(
        self, geometry, grid
    ):
        # exact identities: lower's sigma2 profile is upper's mirrored, and
        # both's is |s + mirror(s)|^2 for phi_U's sigma2 samples s
        mirror = -np.arange(grid.n_samples) % grid.n_samples
        for state in GridState:
            records = {s: run_scenario(geometry, Scenario(s, state), grid) for s in Slits}
            s = apparatus._bench(geometry, grid).upper_pass(state).sigma2
            upper = records[Slits.UPPER_ONLY].intensity_sigma2
            own = intensity(ComplexField(grid, s, geometry.wavelength))
            assert upper.tobytes() == own.tobytes()
            assert records[Slits.LOWER_ONLY].intensity_sigma2.tobytes() == upper[mirror].tobytes()
            both = intensity(ComplexField(grid, s + s[mirror], geometry.wavelength))
            assert records[Slits.BOTH].intensity_sigma2.tobytes() == both.tobytes()

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    @pytest.mark.parametrize("state", list(GridState), ids=lambda g: g.value)
    def test_lower_profiles_are_the_upper_profiles_mirrored_bit_for_bit(self, geometry, grid, state):
        # exact identity |mirror(u)|^2 = mirror(|u|^2), with the mirror built
        # by indexing; on cold caches and on warm ones, in either order
        mirror = -np.arange(grid.n_samples) % grid.n_samples
        for order in ([Slits.UPPER_ONLY, Slits.LOWER_ONLY], [Slits.LOWER_ONLY, Slits.UPPER_ONLY]):
            apparatus._bench.cache_clear()
            records = {slits: run_scenario(geometry, Scenario(slits, state), grid) for slits in order}
            upper, lower = records[Slits.UPPER_ONLY], records[Slits.LOWER_ONLY]
            for name in ("intensity_sigma1", "intensity_sigma2"):
                got = getattr(lower, name)
                assert got.tobytes() == getattr(upper, name)[mirror].tobytes(), name
                assert got.tobytes() == apparatus._mirror(getattr(upper, name)).tobytes(), name

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_sigma2_powers_are_total_power_of_the_sigma2_field_bit_for_bit(self, geometry, grid):
        # oracle: the record's sigma2 field built by the public constructor
        # from phi_U's pass samples s, as s or s + s mirrored by indexing,
        # and measured by the public total_power, which squares the field's
        # samples itself; the record sums its profile instead.  A lower
        # record and the both-slit P_L are checked in the roundoff test below
        mirror = -np.arange(grid.n_samples) % grid.n_samples
        window_u, window_l = image_windows(geometry)
        for scenario in SCENARIOS:
            if scenario.slits is Slits.LOWER_ONLY:
                continue
            got = run_scenario(geometry, scenario, grid)
            s = np.array(apparatus._bench(geometry, grid).upper_pass(scenario.grid).sigma2)
            samples = s if scenario.slits is Slits.UPPER_ONLY else s + s[mirror]
            field = ComplexField(grid, samples, geometry.wavelength)
            windows = [("power_at_detectors", None), ("power_window_U", window_u)]
            if scenario.slits is Slits.UPPER_ONLY:
                windows.append(("power_window_L", window_l))
            for name, window in windows:
                expected = np.float64(total_power(field, window)).tobytes()
                assert np.float64(getattr(got, name)).tobytes() == expected, (scenario, name)

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_mirrored_powers_are_total_power_of_the_mirrored_fields_to_roundoff(
        self, geometry, grid
    ):
        # a lower record's powers are the upper record's with U and L
        # swapped, and the both-slit P_L is its P_U; the oracle is the public
        # total_power of the lower fields (phi_L's sigma1 fields chained on
        # fresh fields, phi_U's sigma2 samples s mirrored by indexing) and of
        # s + s mirrored, which sums window L in its own index order: the
        # two agree to the last bits (5e-16 relative measured)
        mirror = -np.arange(grid.n_samples) % grid.n_samples
        window_u, window_l = image_windows(geometry)
        for state in GridState:
            lower = run_scenario(geometry, Scenario(Slits.LOWER_ONLY, state), grid)
            both = run_scenario(geometry, Scenario(Slits.BOTH, state), grid)
            s = np.array(apparatus._bench(geometry, grid).upper_pass(state).sigma2)
            sigma1, _ = chained(geometry, Scenario(Slits.LOWER_ONLY, state), grid)
            field = ComplexField(grid, s[mirror], geometry.wavelength)
            summed = ComplexField(grid, s + s[mirror], geometry.wavelength)
            for got, value in (
                (lower.power_incident, sigma1.power_incident),
                (lower.power_after_grid, sigma1.power_after_grid),
                (lower.power_at_detectors, total_power(field)),
                (lower.power_window_U, total_power(field, window_u)),
                (lower.power_window_L, total_power(field, window_l)),
                (both.power_window_L, total_power(summed, window_l)),
            ):
                assert abs(got - value) <= 1e-15 * value, state

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_a_pass_writes_into_no_cached_array(self, geometry, grid, monkeypatch):
        # every cached array is read-only, so an out= aimed at one raises;
        # this also pins that a full pass leaves their bytes as they were
        for scenario in SCENARIOS:
            run_scenario(geometry, scenario, grid)
        bench = apparatus._bench(geometry, grid)
        phi_u, spectrum, _ = bench.sigma1
        cached = {"phi_u samples": phi_u.amplitudes, "phi_u spectrum": spectrum}
        incident = bench.incident
        cached["phi_u sigma1 profile"], cached["phi_u + phi_l sigma1 profile"] = incident
        passes = [bench.upper_pass(state) for state in GridState]
        for state, upper in zip(GridState, passes):
            cached[f"sigma2 samples, grid {state.value}"] = upper.sigma2
            cached[f"sigma2 profile, grid {state.value}"] = upper.detected
        upper = bench.upper_pass(GridState.IN)
        cached["wire grid"] = upper.wires.transmission
        cached["profile behind the wire grid"] = upper.after_grid
        before = {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in cached.items()}
        misses = apparatus._bench.cache_info().misses
        for scenario in SCENARIOS:
            run_scenario(geometry, scenario, grid)
        # the pass read these very arrays: no sigma1 stage or pass was rebuilt
        assert apparatus._bench.cache_info().misses == misses
        assert apparatus._bench(geometry, grid) is bench
        assert bench.sigma1[0] is phi_u and bench.incident is incident
        assert all(bench.upper_pass(s) is p for s, p in zip(GridState, passes, strict=True))
        for name, a in cached.items():
            assert not a.flags.writeable, name
            assert hashlib.sha256(a.tobytes()).hexdigest() == before[name], name


class TestHeldSpectra:
    """Each guard reads the spectrum its stage already has, the FFT of its samples to roundoff."""

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    @pytest.mark.parametrize("slits", list(Slits), ids=lambda s: s.value)
    @pytest.mark.parametrize("state", list(GridState), ids=lambda g: g.value)
    def test_tail_fraction_from_held_spectrum_matches_a_fresh_fft(
        self, geometry, grid, monkeypatch, slits, state
    ):
        # oracle: a fresh FFT of each stage's samples, rebuilt by the chained
        # public operations, whose samples are the pipeline's bits
        # (TestChainedOracle), and the tail fraction of that FFT
        seen = {}
        guarded = apparatus._guarded

        def recorded(spectrum, stage):
            seen.setdefault(stage, []).append(spectrum.copy())
            return guarded(spectrum, stage)

        monkeypatch.setattr(apparatus, "_guarded", recorded)
        scenario = Scenario(slits, state)
        run_scenario(geometry, scenario, grid)
        monkeypatch.undo()
        _, stages = chained(geometry, scenario, grid)
        assert list(seen) == list(stages) == ["source", *_downstream_stages(state)]
        # from sigma1 on, phi_U's and phi_U + phi_L's spectra are guarded at
        # each stage, in that order; phi_L's guard is phi_U's, whose spectrum
        # is phi_L's mirrored
        carried = 1 if slits is Slits.BOTH else 0
        for stage, spectra in seen.items():
            assert len(spectra) == (1 if stage == "source" else 2), stage
            spectrum = spectra[0] if len(spectra) == 1 else spectra[carried]
            held = spectrum
            if stage != "source" and slits is Slits.LOWER_ONLY:
                held = apparatus._mirror(spectrum)
            samples = stages[stage].amplitudes
            fresh = np.fft.fft(samples)
            assert np.max(np.abs(held - fresh)) <= 1e-12 * np.max(np.abs(fresh)), stage
            # and the tail fraction of the same samples' own FFT
            fresh_field = ComplexField(grid, samples, geometry.wavelength)
            guarded_fraction = wavefield._tail_fraction(spectrum)
            assert abs(guarded_fraction - nyquist_tail_fraction(fresh_field)) <= 1e-12, stage


class TestDiscrimination:
    def test_single_slit_is_sharp(self, records):
        for slit in ("upper", "lower"):
            rec = records[(slit, "out")]
            assert discrimination(rec.power_window_U, rec.power_window_L) >= 0.98

    def test_symmetric_both_slit_is_balanced(self, records):
        rec = records[("both", "out")]
        assert discrimination(rec.power_window_U, rec.power_window_L) <= 0.01

    def test_empty_window_is_total(self, records):
        assert discrimination(records[("upper", "out")].power_window_U, 0.0) == 1.0

    def test_zero_power_rejected(self):
        assert discrimination(0.0, 0.0) is None


class TestWindows:
    def test_window_beyond_the_grid_rejected_before_any_field(
        self, geometry, bench_grid, monkeypatch
    ):
        # an image 9e15 m away: each window covers 1.1e12 m, far beyond the grid
        far = dataclasses.replace(geometry, focal_length=1.4999999999999998)

        def no_fields(*args, **kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr(apparatus, "_upper_slit", no_fields)
        message = r"detector window U at magnification 6\.\d+e\+15 .* beyond the grid"
        # the refused key's bench holds no windows, so the second call is refused alike
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match=message) as refused:
                run_scenario(far, Scenario(Slits.UPPER_ONLY, GridState.OUT), bench_grid)
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
        assert apparatus._bench(far, bench_grid).windows is None

    def test_a_refused_key_still_serves_sigma1(self, geometry, bench_grid):
        # the remnant model needs no detector window: only the records are refused
        far = dataclasses.replace(geometry, focal_length=1.4999999999999998)
        far_u = apparatus.sigma1_fields(far, bench_grid)[0].amplitudes.tobytes()
        with pytest.raises(ValueError, match="detector window U"):
            run_scenario(far, Scenario(Slits.UPPER_ONLY, GridState.OUT), bench_grid)
        # the focal length does not enter phi_U
        assert apparatus.sigma1_fields(geometry, bench_grid)[0].amplitudes.tobytes() == far_u

    def test_a_held_scenario_derives_no_window(self, geometry, bench_grid, monkeypatch):
        scenario = Scenario(Slits.UPPER_ONLY, GridState.OUT)
        record = run_scenario(geometry, scenario, bench_grid)
        calls = collections.Counter()
        for name in ("image_windows", "_window_bounds"):

            def counted(*args, name=name, derive=getattr(apparatus, name)):
                calls[name] += 1
                return derive(*args)

            monkeypatch.setattr(apparatus, name, counted)
        assert run_scenario(geometry, scenario, bench_grid) is record
        # a new record of the held bench takes the held windows too
        run_scenario(geometry, Scenario(Slits.LOWER_ONLY, GridState.OUT), bench_grid)
        assert calls == {}

    def test_another_geometry_gets_its_own_window_powers(self, geometry, bench_grid):
        scenario = Scenario(Slits.UPPER_ONLY, GridState.OUT)
        other = dataclasses.replace(geometry, focal_length=0.6)
        cold = run_scenario(other, scenario, bench_grid)
        apparatus._bench.cache_clear()
        held = run_scenario(geometry, scenario, bench_grid)
        held_windows = apparatus._bench(geometry, bench_grid).windows
        after = run_scenario(other, scenario, bench_grid)
        assert apparatus._bench(other, bench_grid).windows != held_windows
        powers = (after.power_window_U, after.power_window_L)
        assert powers == (cold.power_window_U, cold.power_window_L)
        assert powers != (held.power_window_U, held.power_window_L)

    def test_windows_touch_at_axis(self, geometry):
        (u_lo, u_hi), (l_lo, l_hi) = image_windows(geometry)
        md = geometry.magnification * geometry.slit_separation
        assert (u_lo, u_hi) == (-md, 0.0)
        assert (l_lo, l_hi) == (0.0, md)


class TestImaging:
    """The lens images each slit onto its own detector window."""

    @staticmethod
    def image_residual(geometry, grid):
        """Largest gap between upper/out's sigma2 profile and the paraxial image.

        The image of the source u0 at magnification M is |u0(-x/M)|^2 / M;
        u0 is evaluated by a direct sum over the band bins of the upper
        slit's spectrum, with no FFT.  Over the samples above 1e-6 of the
        profile's peak, as a fraction of that peak.
        """
        scenario = Scenario(Slits.UPPER_ONLY, GridState.OUT)
        profile = run_scenario(geometry, scenario, grid).intensity_sigma2
        peak = profile.max()
        lit = profile > 1e-6 * peak
        in_band = np.abs(grid.wavenumbers()) < _source_cutoffs(geometry, grid)[1]
        kx = grid.wavenumbers()[in_band]
        bins = apparatus._upper_slit(geometry, grid)[1][in_band]
        m = geometry.magnification
        # u0(x) = sum(bins * exp(i kx (x - x0))) / n at x = -x_sigma2 / M
        offsets = -grid.coordinates[lit] / m - grid.coordinate(0)
        u0 = np.exp(1j * np.outer(offsets, kx)) @ bins / grid.n_samples
        return np.max(np.abs(profile[lit] - np.abs(u0) ** 2 / m)) / peak

    @pytest.mark.parametrize("grid", [DEFAULT_GRID, FINE_GRID], ids=["2^14", "2^16"])
    def test_paraxial_pipeline_is_the_geometric_image(self, geometry, grid, monkeypatch):
        # oracle: in paraxial optics a thin lens with 1/s + 1/s' = 1/f maps
        # u0(x) to u0(-x/M)/sqrt(M) times a phase, exactly (Goodman,
        # Introduction to Fourier Optics, ch. 5).  With the Fresnel transfer
        # exp(iz(k - kx^2/2k)) in place of the exact one the bench meets it
        # to roundoff; the shipped exact transfer misses it by the spherical
        # aberration of a paraxial lens phase, z*kx^4/(8k^3) on the way to
        # sigma2 (0.123 of the peak on 2^14, 0.136 on 2^16)
        def fresnel(grid, k, distance):
            kx = grid.wavenumbers()[: grid.n_samples // 2 + 1]
            return np.exp(1j * distance * (k - kx * kx / (2 * k)))

        monkeypatch.setattr(wavefield, "_transfer", fresnel)
        apparatus._bench.cache_clear()
        assert self.image_residual(geometry, grid) <= 1e-7
        monkeypatch.undo()
        apparatus._bench.cache_clear()
        assert self.image_residual(geometry, grid) > 1e-2
