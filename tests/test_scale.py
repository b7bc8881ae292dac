"""Scale covariance: an exact oracle with no reference numbers.

Scalar diffraction has no length of its own.  Scale every length by s, the
wavelength and the grid spacing included, with the number of samples
fixed, and each field is the same function of x / s (Goodman,
*Introduction to Fourier Optics*, ch. 3).  For s a power of two the bench
computes with the same mantissas: k and every kx scale by exactly 1 / s,
while sqrt(k^2 - kx^2) z and the lens phase k x^2 / (2 f) keep their bits.
So every power (a sum of |u|^2 times the spacing) and every position is
exactly s times the default's, and every profile and amplitude keeps its
bits.  A constant written in metres, or a mix of units, breaks this, and
there is no reference number to keep up to date.  For s = 3 the same holds
to the rounding that ``TestThree`` allows.
"""

import dataclasses

import numpy as np
import pytest

from afsharsim import (
    AfsharGeometry,
    Grid,
    GridState,
    Scenario,
    Slits,
    apparatus,
    cli,
    remnant,
    run_scenario,
)

LENGTHS = [f.name for f in dataclasses.fields(AfsharGeometry) if f.name != "n_wires"]
TOTAL_POWERS = ("power_incident", "power_after_grid", "power_at_detectors")
WINDOW_POWERS = ("power_window_U", "power_window_L")


def scaled(geometry, grid, s):
    """``geometry`` and ``grid`` with every length and the spacing times ``s``."""
    lengths = {name: s * getattr(geometry, name) for name in LENGTHS}
    return dataclasses.replace(geometry, **lengths), Grid(grid.n_samples, s * grid.spacing)


def scaled_records(geometry, grid, s):
    """The six records of the scaled bench, keyed as the ``records`` fixture."""
    geometry, grid = scaled(geometry, grid, s)
    return {
        (slits.value, state.value): run_scenario(geometry, Scenario(slits, state), grid)
        for slits in Slits
        for state in GridState
    }


def wire_grid(geometry, grid):
    return apparatus.build_wire_grid(geometry, apparatus.fringe_minima(geometry, grid), grid)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("s", [2, 4, 0.5])
class TestPowerOfTwo:
    def test_powers_and_minima_scale_and_profiles_keep_their_bits(
        self, geometry, bench_grid, records, s
    ):
        for key, record in scaled_records(geometry, bench_grid, s).items():
            base = records[key]
            for name in TOTAL_POWERS + WINDOW_POWERS:
                assert same_bits(getattr(record, name), s * getattr(base, name)), (key, name)
            assert same_bits(record.minima_positions, [s * m for m in base.minima_positions])
            assert same_bits(record.intensity_sigma1, base.intensity_sigma1), key
            assert same_bits(record.intensity_sigma2, base.intensity_sigma2), key
        # the grid-in records' wire grid stands on the minima
        assert len(records["both", "in"].minima_positions) == geometry.n_wires

    def test_sigma1_fields_and_remnant_state(self, geometry, bench_grid, sigma1_fields, s):
        fields = apparatus.sigma1_fields(*scaled(geometry, bench_grid, s))
        for field, base in zip(fields, sigma1_fields):
            assert same_bits(field.amplitudes, base.amplitudes)
        state, base = remnant.build_remnant(*fields), remnant.build_remnant(*sigma1_fields)
        assert same_bits(state.amps_U, base.amps_U)
        assert same_bits(state.amps_L, base.amps_L)
        assert same_bits(state.sites, s * base.sites)

    def test_wire_grid_and_fill_factor(self, geometry, bench_grid, s):
        scaled_geometry, grid = scaled(geometry, bench_grid, s)
        wires, base = wire_grid(scaled_geometry, grid), wire_grid(geometry, bench_grid)
        assert same_bits(wires.transmission, base.transmission)
        assert same_bits(apparatus.fill_factor(scaled_geometry), apparatus.fill_factor(geometry))


class TestThree:
    """s = 3 rounds k, kx and every position anew, so the bits move.

    The tolerances are about four times the largest deviation measured on
    2^14 x 5e-6 over the six records (numpy 2.4, x86-64): total powers
    1.03e-12 relative, window powers 2.62e-9, minima 5.7e-11; sigma1
    profiles 1.9e-8 and sigma2 profiles 1.9e-11 of their peak; sigma1
    amplitudes 2.7e-9 of their peak; wire transmission 2.3e-8; sites and
    fill factor one rounding.  The moved minima shift the wire edges,
    which carries into the profiles behind the grid and the window powers.
    """

    def test_records(self, geometry, bench_grid, records):
        for key, record in scaled_records(geometry, bench_grid, 3).items():
            base = records[key]
            for names, rtol in ((TOTAL_POWERS, 4e-12), (WINDOW_POWERS, 1e-8)):
                for name in names:
                    expected = 3 * getattr(base, name)
                    assert getattr(record, name) == pytest.approx(expected, rel=rtol, abs=0)
            np.testing.assert_allclose(
                record.minima_positions, [3 * m for m in base.minima_positions], rtol=2e-10
            )
            for name, tol in (("intensity_sigma1", 1e-7), ("intensity_sigma2", 1e-10)):
                profile, expected = getattr(record, name), getattr(base, name)
                np.testing.assert_allclose(profile, expected, rtol=0, atol=tol * expected.max())

    def test_fields_state_wires_and_fill_factor(self, geometry, bench_grid, sigma1_fields):
        scaled_geometry, grid = scaled(geometry, bench_grid, 3)
        fields = apparatus.sigma1_fields(scaled_geometry, grid)
        for field, base in zip(fields, sigma1_fields):
            peak = np.abs(base.amplitudes).max()
            np.testing.assert_allclose(field.amplitudes, base.amplitudes, rtol=0, atol=1e-8 * peak)
        state, base = remnant.build_remnant(*fields), remnant.build_remnant(*sigma1_fields)
        np.testing.assert_allclose(state.sites, 3 * base.sites, rtol=1e-15)
        np.testing.assert_allclose(
            wire_grid(scaled_geometry, grid).transmission,
            wire_grid(geometry, bench_grid).transmission,
            rtol=0,
            atol=1e-7,
        )
        ff = apparatus.fill_factor(scaled_geometry)
        assert ff == pytest.approx(apparatus.fill_factor(geometry), rel=1e-15, abs=0)


def readme_sequence(out, config):
    """The README's command sequence into ``out``; ``config`` is the flags naming a config."""
    for slits in ("both", "upper", "lower"):
        for state in ("in", "out"):
            argv = ["simulate", *config, "--scenario", slits, "--grid", state]
            assert cli.main([*argv, "--out", str(out)]) == 0
    argv = ["duality", "--probe", "0.6,0.8", "--random-detectors", "1000", "--seed", "1"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    argv = ["remnant", *config, "--direction", "0.6,0.8j", "--seed", "3", "--samples", "100"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0


def test_doubled_config_doubles_every_power_and_keeps_every_verdict(tmp_path, geometry):
    lines = [f"{name} = {2 * getattr(geometry, name)!r}" for name in LENGTHS]
    lines.append(f"spacing = {2 * apparatus.DEFAULT_SPACING!r}")
    cfg = tmp_path / "doubled.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    default, doubled = tmp_path / "default", tmp_path / "doubled"
    readme_sequence(default, ())
    readme_sequence(doubled, ("--config", str(cfg)))

    def powers(out):
        rows = [line.split(",") for line in (out / "powers.csv").read_text().splitlines()[2:]]
        return [row[:2] for row in rows], np.array([[float(v) for v in row[2:]] for row in rows])

    def verdicts(out):
        lines = (out / "report.txt").read_text().splitlines()
        return [line for line in lines if line.lstrip().startswith(("[PASS]", "[FAIL]", "[INFO]"))]

    (keys, values), (doubled_keys, doubled_values) = powers(default), powers(doubled)
    assert doubled_keys == keys and len(keys) == 6
    assert same_bits(doubled_values, 2 * values)
    assert len(verdicts(default)) == 15
    assert verdicts(doubled) == verdicts(default)
