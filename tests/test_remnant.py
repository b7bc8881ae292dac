import numpy as np
import pytest

from afsharsim import apparatus
from afsharsim.remnant import (
    RemnantState,
    VibrationalDirection,
    build_remnant,
    postselect,
    qubit_analogy,
    sample_sites,
    total_pattern,
)
from afsharsim.wavefield import _BLOCK, ComplexField, Grid


def drawn(state, n, seed):
    """``sample_sites``' blocks for one seed, concatenated."""
    return np.concatenate(list(sample_sites(state, n, np.random.default_rng(seed))))


def toy_state(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    norm = np.sqrt(np.sum(np.abs(a) ** 2 + np.abs(b) ** 2))
    sites = np.arange(len(a), dtype=float)
    return RemnantState(sites, a / norm, b / norm)


class TestBuildRemnant:
    def test_normalization(self, sigma1_fields):
        phi_u, phi_l = sigma1_fields
        state = build_remnant(phi_u, phi_l)
        total = np.sum(np.abs(state.amps_U) ** 2 + np.abs(state.amps_L) ** 2)
        assert abs(total - 1.0) < 1e-12

    def test_mirror_symmetry_of_symmetric_slits(self, sigma1_fields):
        phi_u, phi_l = sigma1_fields
        state = build_remnant(phi_u, phi_l)
        np.testing.assert_allclose(
            np.abs(state.amps_U[1:]), np.abs(state.amps_L[1:][::-1]), atol=1e-12
        )

    def test_single_slit_limit(self, sigma1_fields):
        phi_u, _ = sigma1_fields
        dark = ComplexField(phi_u.grid, np.zeros(phi_u.grid.n_samples), phi_u.wavelength)
        state = build_remnant(phi_u, dark)
        assert np.all(state.amps_L == 0)
        expected = np.abs(phi_u.amplitudes) ** 2
        np.testing.assert_allclose(
            total_pattern(state), expected / expected.sum(), atol=1e-15
        )

    def test_zero_fields_rejected(self, sigma1_fields):
        phi_u, _ = sigma1_fields
        dark = ComplexField(phi_u.grid, np.zeros(phi_u.grid.n_samples), phi_u.wavelength)
        with pytest.raises(ValueError, match="zero"):
            build_remnant(dark, dark)

    def test_grid_mismatch_rejected(self, sigma1_fields):
        phi_u, _ = sigma1_fields
        other = ComplexField(Grid(512, 5e-6), np.ones(512), phi_u.wavelength)
        with pytest.raises(ValueError, match="grid"):
            build_remnant(phi_u, other)


class TestTotalPattern:
    def test_sums_to_one(self, sigma1_fields):
        state = build_remnant(*sigma1_fields)
        assert np.sum(total_pattern(state)) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_pattern(self, sigma1_fields):
        state = build_remnant(*sigma1_fields)
        p = total_pattern(state)
        np.testing.assert_allclose(p[1:], p[1:][::-1], atol=1e-12)


class TestPostselect:
    def test_which_slit_selection_recovers_marginal(self, sigma1_fields):
        state = build_remnant(*sigma1_fields)
        prob, pattern = postselect(state, VibrationalDirection.v_upper())
        marginal = np.abs(state.amps_U) ** 2
        assert prob == pytest.approx(marginal.sum(), abs=1e-12)
        np.testing.assert_allclose(pattern, marginal / marginal.sum(), atol=1e-12)

    def test_fringe_and_antifringe_oracle(self):
        # direct state algebra on a small vector: selecting (1,+-1)/sqrt(2)
        # weights each site by |a_x +- b_x|^2 / 2
        a = np.array([0.4, 0.1j, -0.3])
        b = np.array([0.2j, 0.5, 0.1])
        state = toy_state(a, b)
        for direction, sign in ((VibrationalDirection.fringe(), 1), (VibrationalDirection.antifringe(), -1)):
            prob, pattern = postselect(state, direction)
            oracle = np.abs(state.amps_U + sign * state.amps_L) ** 2 / 2
            assert prob == pytest.approx(oracle.sum(), abs=1e-12)
            np.testing.assert_allclose(pattern, oracle / oracle.sum(), atol=1e-12)

    def test_completeness_pointwise(self, sigma1_fields):
        state = build_remnant(*sigma1_fields)
        total = total_pattern(state)
        for pair in (
            (VibrationalDirection.v_upper(), VibrationalDirection.v_lower()),
            (VibrationalDirection.fringe(), VibrationalDirection.antifringe()),
        ):
            (p1, pat1), (p2, pat2) = (postselect(state, d) for d in pair)
            np.testing.assert_allclose(p1 * pat1 + p2 * pat2, total, atol=1e-12)
            assert p1 + p2 == pytest.approx(1.0, abs=1e-12)

    def test_balanced_orthogonal_amplitudes_split_evenly(self):
        # sum|a|^2 = sum|b|^2 and Re(sum a b*) = 0, so the fringe and
        # antifringe outcomes are equally likely
        state = toy_state([0.5, 0.5], [0.5j, -0.5j])
        p_plus, _ = postselect(state, VibrationalDirection.fringe())
        p_minus, _ = postselect(state, VibrationalDirection.antifringe())
        assert p_plus == pytest.approx(0.5, abs=1e-12)
        assert p_minus == pytest.approx(0.5, abs=1e-12)

    def test_impossible_outcome_rejected(self):
        state = toy_state([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="probability"):
            postselect(state, VibrationalDirection.v_lower())

    def test_direction_norm_enforced(self):
        with pytest.raises(ValueError):
            VibrationalDirection(1.0, 1.0)


@pytest.fixture(scope="module")
def states(geometry, bench_grid):
    """The screen state on the default 2^14 grid and on 2^16 x 1.25e-6."""
    return {
        grid.n_samples: build_remnant(*apparatus.sigma1_fields(geometry, grid))
        for grid in (bench_grid, Grid(2**16, 1.25e-6))
    }


class TestSampling:
    def test_seed_determinism(self, sigma1_fields):
        state = build_remnant(*sigma1_fields)
        a = drawn(state, 100, 42)
        b = drawn(state, 100, 42)
        assert np.issubdtype(a.dtype, np.integer)
        assert a.min() >= 0 and a.max() < state.sites.size
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 42])
    def test_indices_draw_the_sites_of_the_same_stream(self, sigma1_fields, seed):
        state = build_remnant(*sigma1_fields)
        p = total_pattern(state)
        expected = np.random.default_rng(seed).choice(state.sites, size=1000, p=p / p.sum())
        np.testing.assert_array_equal(state.sites[drawn(state, 1000, seed)], expected)

    # the CDF-once draw takes the steps Generator.choice takes; if a numpy
    # release changes choice, this says so
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 4 * _BLOCK + 1])
    @pytest.mark.parametrize("n_samples", [2**14, 2**16])
    def test_blocks_equal_one_choice_call(self, states, n_samples, n):
        state = states[n_samples]
        p = total_pattern(state)
        p = p / p.sum()
        for seed in range(10):
            blocks = list(sample_sites(state, n, np.random.default_rng(seed)))
            assert [len(b) for b in blocks] == [min(_BLOCK, n - i) for i in range(0, n, _BLOCK)]
            expected = np.random.default_rng(seed).choice(state.sites.size, size=n, p=p)
            assert np.concatenate(blocks).tobytes() == expected.tobytes()


class TestQubitAnalogy:
    def test_preparation_confirmed(self):
        tables = qubit_analogy(["x"])
        assert tables[0][+1] == pytest.approx(1.0, abs=1e-15)

    def test_noncommuting_measurement_is_unbiased(self):
        tables = qubit_analogy(["x", "z"])
        assert tables[1][+1] == pytest.approx(0.5, abs=1e-15)
        assert tables[1][-1] == pytest.approx(0.5, abs=1e-15)

    def test_intermediate_collapse_erases_preparation(self):
        tables = qubit_analogy(["x", "z", "x"])
        probs = [t[+1] for t in tables]
        assert probs[0] == pytest.approx(1.0, abs=1e-15)
        assert probs[1] == pytest.approx(0.5, abs=1e-15)
        assert probs[2] == pytest.approx(0.5, abs=1e-15)

    def test_repeated_measurement_is_stable(self):
        tables = qubit_analogy(["x", "z", "z"])
        assert tables[2][+1] == pytest.approx(1.0, abs=1e-15)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            qubit_analogy([])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            qubit_analogy(["x", "y"])


class TestStateValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            RemnantState(np.array([0.0]), np.array([1.0]), np.array([1.0]))

    def test_nan_amplitude_rejected(self):
        # a NaN norm is neither within nor beyond the tolerance of 1
        with pytest.raises(ValueError, match="norm"):
            RemnantState(np.array([0.0, 1.0]), np.array([1.0, np.nan]), np.array([0.0, 0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            RemnantState(np.array([0.0, 1.0]), np.array([1.0]), np.array([0.0]))
