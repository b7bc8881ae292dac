"""Acceptance criteria for the whole package, one test per criterion.

Each criterion prints a single PASS line when it holds (run with
``pytest -s`` to see them, or execute this file directly:
``python tests/test_acceptance.py``).
"""

import filecmp
import tempfile
import time
from pathlib import Path

import numpy as np

from afsharsim import (
    AfsharGeometry,
    ComplexField,
    Grid,
    GridState,
    ProbeAmplitudes,
    Scenario,
    Slits,
    VibrationalDirection,
    build_remnant,
    duality_check,
    fill_factor,
    intensity,
    postselect,
    probe_detector_model,
    propagate,
    qubit_analogy,
    random_detector_model,
    run_scenario,
    sigma1_fields,
    total_pattern,
    total_power,
    visibility_from_pattern,
    vk_from_detector,
    vk_from_probe,
)
from afsharsim.apparatus import DEFAULT_N_SAMPLES, DEFAULT_SPACING
from afsharsim.cli import main as cli_main
from afsharsim.report import discrimination

ROOT_HALF = 1.0 / np.sqrt(2.0)


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE PASS [{number:2d}] {text}")


# --------------------------------------------------------------- criteria


def check_duality_identity() -> None:
    rng = np.random.default_rng(20240901)
    start = time.perf_counter()
    pair = vk_from_detector(random_detector_model(rng, 1000))
    worst = float(np.max(np.abs(duality_check(pair) - 1.0)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12, f"max |V^2+K^2-1| = {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _report(1, f"duality identity over 1000 random detectors: max deviation {worst:.2e}")


def check_probe_endpoints() -> None:
    sharp = vk_from_probe(ProbeAmplitudes(1.0, 0.0))
    assert abs(sharp.V - 0.0) < 1e-12 and abs(sharp.K - 1.0) < 1e-12
    balanced = vk_from_probe(ProbeAmplitudes(ROOT_HALF, ROOT_HALF))
    assert abs(balanced.V - 1.0) < 1e-12 and abs(balanced.K - 0.0) < 1e-12
    _report(2, "probe endpoints (1,0)->(V,K)=(0,1) and balanced->(1,0) to 1e-12")


def check_cross_model_equivalence() -> None:
    worst = 0.0
    for theta in np.linspace(0.0, 2 * np.pi, 100, endpoint=False):
        probe = ProbeAmplitudes(np.cos(theta), np.sin(theta))
        p = vk_from_probe(probe)
        q = vk_from_detector(probe_detector_model(probe))
        worst = max(worst, abs(p.V - q.V), abs(p.K - q.K))
    assert worst < 1e-12, f"max cross-model deviation = {worst}"
    _report(3, f"probe/detector equivalence over 100 real pairs: max deviation {worst:.2e}")


def check_grid_transparency(records, geometry) -> None:
    start = time.perf_counter()
    ratio = (
        records[("both", "in")].power_at_detectors
        / records[("both", "out")].power_at_detectors
    )
    assert ratio >= 0.99, f"transparency ratio {ratio}"
    phi = fill_factor(geometry)
    rec = records[("upper", "in")]
    loss = 1.0 - rec.power_after_grid / rec.power_incident
    assert abs(loss - phi) <= 0.2 * phi, f"loss {loss} vs fill factor {phi}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(
        4,
        f"grid transparency: detector ratio {ratio:.6f} >= 0.99, "
        f"single-slit loss {loss:.5f} within 20% of phi {phi:.5f}",
    )


def check_discrimination(records) -> None:
    for slit, window in (("upper", "power_window_U"), ("lower", "power_window_L")):
        rec = records[(slit, "out")]
        frac = getattr(rec, window) / rec.power_at_detectors
        assert frac >= 0.99, f"{slit} window fraction {frac}"
        disc = discrimination(rec.power_window_U, rec.power_window_L)
        assert disc >= 0.98, f"{slit} discrimination {disc}"
    _report(5, "single-slit runs: >= 99% power in the correct window, discrimination >= 0.98")


def check_fringe_fidelity(records, geometry, grid) -> None:
    fringe = geometry.fringe_spacing
    profile = records[("both", "out")].intensity_sigma1
    v = visibility_from_pattern(profile, grid, grid.spacing, (-3 * fringe, 3 * fringe))
    assert v >= 0.99, f"central visibility {v}"
    positions = np.asarray(records[("both", "out")].minima_positions)
    m = np.arange(geometry.n_wires // 2)
    oracle = (m + 0.5) * fringe
    worst = np.max(np.abs(positions[positions > 0] - oracle) / oracle)
    assert worst < 5e-3, f"minima position error {worst}"
    _report(
        6,
        f"sigma1 fringes: central visibility {v:.6f} >= 0.99, "
        f"minima within {worst:.2e} of (m+1/2)*lambda*L/d",
    )


def check_resolution_collapse() -> None:
    grid = Grid(n_samples=1024, spacing=5e-6)
    period = 64 * grid.spacing
    pattern = 1.0 + np.cos(2 * np.pi * grid.coordinates / period)
    lo = grid.coordinates[0]
    region = (lo, lo + 8 * period)
    widths = [j * grid.spacing for j in (1, 2, 4, 8, 16, 32, 64)]
    ladder = [visibility_from_pattern(pattern, grid, w, region) for w in widths]
    assert all(a >= b - 1e-12 for a, b in zip(ladder, ladder[1:])), f"ladder {ladder}"
    assert ladder[-1] < 0.01, f"one-period-bin visibility {ladder[-1]}"
    _report(
        7,
        f"coarse-bin visibility ladder non-increasing, V(period) = {ladder[-1]:.2e} < 0.01",
    )


def check_remnant_completeness(sigma1_fields) -> None:
    state = build_remnant(*sigma1_fields)
    total = total_pattern(state)
    worst = 0.0
    for pair in (
        (VibrationalDirection.v_upper(), VibrationalDirection.v_lower()),
        (VibrationalDirection.fringe(), VibrationalDirection.antifringe()),
    ):
        (p1, pat1), (p2, pat2) = (postselect(state, d) for d in pair)
        worst = max(worst, float(np.max(np.abs(p1 * pat1 + p2 * pat2 - total))))
    assert worst < 1e-12, f"completeness residue {worst}"
    prob, pattern = postselect(state, VibrationalDirection.v_upper())
    marginal = np.abs(state.amps_U) ** 2
    residue = float(np.max(np.abs(pattern - marginal / marginal.sum())))
    assert residue < 1e-12, f"which-slit marginal residue {residue}"
    _report(
        8,
        f"post-selection completeness residue {worst:.2e}, "
        f"which-slit marginal residue {residue:.2e}",
    )


def check_propagation_soundness() -> None:
    geometry = AfsharGeometry.default()
    grid = Grid(n_samples=1024, spacing=5e-6)
    x = grid.coordinates
    rng = np.random.default_rng(7)
    kx = grid.wavenumbers()
    spectrum = rng.normal(size=grid.n_samples) + 1j * rng.normal(size=grid.n_samples)
    spectrum[np.abs(kx) > 0.25 * grid.nyquist] = 0.0
    field = ComplexField(grid, np.fft.ifft(spectrum), geometry.wavelength)

    p0 = total_power(field)
    worst_power = max(
        abs(total_power(propagate(field, z)) - p0) / p0 for z in (0.05, 0.8, 2.5, -1.3)
    )
    assert worst_power < 1e-10

    two_step = propagate(propagate(field, 0.7), 0.5).amplitudes
    one_step = propagate(field, 1.2).amplitudes
    comp = float(np.max(np.abs(two_step - one_step)))
    assert comp < 1e-10

    returned = propagate(propagate(field, 1.9), -1.9).amplitudes
    inv = float(np.max(np.abs(returned - field.amplitudes)))
    assert inv < 1e-10

    w0 = 4e-4
    z_r = np.pi * w0**2 / geometry.wavelength
    gauss = ComplexField(grid, np.exp(-(x**2) / w0**2), geometry.wavelength)
    worst_width = 0.0
    for z in (0.4, 1.0):
        profile = intensity(propagate(gauss, z))
        measured = 2 * np.sqrt(np.sum(profile * x**2) / np.sum(profile))
        expected = w0 * np.sqrt(1 + (z / z_r) ** 2)
        worst_width = max(worst_width, abs(measured - expected) / expected)
    assert worst_width < 0.01
    _report(
        9,
        f"propagation: power {worst_power:.1e}, composition {comp:.1e}, "
        f"inversion {inv:.1e}, beam-width error {worst_width:.1e}",
    )


def check_qubit_analogy() -> None:
    tables = qubit_analogy(["x", "z", "x"])
    probs = tuple(t[+1] for t in tables)
    assert probs == (1.0, 0.5, 0.5), f"step probabilities {probs}"
    _report(10, "qubit sequence [x, z, x] gives step probabilities (1, 1/2, 1/2) exactly")


def _run_command_set(out: Path) -> None:
    assert cli_main(["simulate", "--scenario", "upper", "--grid", "in", "--out", str(out)]) == 0
    assert (
        cli_main(
            [
                "duality",
                "--probe", "0.6,0.8",
                "--random-detectors", "20",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        == 0
    )
    assert (
        cli_main(
            ["remnant", "--direction", "0.6,0.8j", "--seed", "3", "--samples", "10",
             "--out", str(out)]
        )
        == 0
    )
    assert cli_main(["report", "--out", str(out)]) == 0


def check_determinism(base: Path) -> None:
    dir_a, dir_b = base / "run_a", base / "run_b"
    for out in (dir_a, dir_b):
        _run_command_set(out)
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    assert not mismatch and not errors, f"non-identical outputs: {mismatch or errors}"
    _report(11, f"byte-identical outputs across repeated runs of all commands ({len(names)} files)")


# ----------------------------------------------------------- pytest hooks


def test_criterion_01_duality_identity():
    check_duality_identity()


def test_criterion_02_probe_endpoints():
    check_probe_endpoints()


def test_criterion_03_cross_model_equivalence():
    check_cross_model_equivalence()


def test_criterion_04_grid_transparency(records, geometry):
    check_grid_transparency(records, geometry)


def test_criterion_05_discrimination(records):
    check_discrimination(records)


def test_criterion_06_fringe_fidelity(records, geometry, bench_grid):
    check_fringe_fidelity(records, geometry, bench_grid)


def test_criterion_07_resolution_collapse():
    check_resolution_collapse()


def test_criterion_08_remnant_completeness(sigma1_fields):
    check_remnant_completeness(sigma1_fields)


def test_criterion_09_propagation_soundness():
    check_propagation_soundness()


def test_criterion_10_qubit_analogy():
    check_qubit_analogy()


def test_criterion_11_determinism(tmp_path):
    check_determinism(tmp_path)


# ------------------------------------------------------ standalone runner


def _main() -> int:
    geometry = AfsharGeometry.default()
    grid = Grid(DEFAULT_N_SAMPLES, DEFAULT_SPACING)
    records = {
        (slits.value, grid_state.value): run_scenario(geometry, Scenario(slits, grid_state), grid)
        for slits in Slits
        for grid_state in GridState
    }
    fields = sigma1_fields(geometry, grid)

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        checks = [
            (1, check_duality_identity, ()),
            (2, check_probe_endpoints, ()),
            (3, check_cross_model_equivalence, ()),
            (4, check_grid_transparency, (records, geometry)),
            (5, check_discrimination, (records,)),
            (6, check_fringe_fidelity, (records, geometry, grid)),
            (7, check_resolution_collapse, ()),
            (8, check_remnant_completeness, (fields,)),
            (9, check_propagation_soundness, ()),
            (10, check_qubit_analogy, ()),
            (11, check_determinism, (Path(tmp),)),
        ]
        for number, fn, args in checks:
            try:
                fn(*args)
            except AssertionError as exc:
                failures += 1
                print(f"ACCEPTANCE FAIL [{number:2d}] {exc}")
    print(f"acceptance: {len(checks) - failures}/{len(checks)} criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(_main())
