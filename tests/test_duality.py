import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afsharsim.duality import (
    DetectorModel,
    ProbeAmplitudes,
    VKPair,
    duality_check,
    feynman_pattern,
    probe_detector_model,
    random_detector_model,
    visibility_from_pattern,
    vk_from_detector,
    vk_from_probe,
)
from afsharsim.wavefield import _BLOCK, ComplexField, FieldFlagWarning, Grid, make_plane_wave

WAVELENGTH = 650e-9
ROOT_HALF = 1.0 / np.sqrt(2.0)

# stack sizes at the edges of the detector blocks the duality command draws
BLOCK_EDGES = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]


def stacked_dot(a, b):
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def one_shot_detector_model(rng, n):
    """d, U_plus and U_minus from one (n, 20) draw of normals, each step over all n rows at once."""
    z = rng.normal(size=(n, 20))
    re, im = z[:, 0:2], z[:, 2:4]
    d = (re + 1j * im) / np.sqrt(stacked_dot(re, re) + stacked_dot(im, im))[:, None]

    def haar_unitaries(block):
        q, r = np.linalg.qr((block[:, :4] + 1j * block[:, 4:]).reshape(n, 2, 2))
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        return q * (diag / np.abs(diag))[..., None, :]

    return d, haar_unitaries(z[:, 4:12]), haar_unitaries(z[:, 12:20])


def one_shot_v(d, u_plus, u_minus):
    op = u_minus @ u_plus.conj().swapaxes(-1, -2)
    return np.minimum(np.abs(stacked_dot(d.conj(), (op @ d[..., None])[..., 0])), 1.0)


class TestProbe:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            ProbeAmplitudes(1.0, 1.0)

    def test_sharp_which_way_endpoint(self):
        pair = vk_from_probe(ProbeAmplitudes(1.0, 0.0))
        assert abs(pair.V - 0.0) < 1e-12 and abs(pair.K - 1.0) < 1e-12

    def test_full_visibility_endpoint(self):
        pair = vk_from_probe(ProbeAmplitudes(ROOT_HALF, ROOT_HALF))
        assert abs(pair.V - 1.0) < 1e-12 and abs(pair.K - 0.0) < 1e-12

    def test_intermediate_point(self):
        # direct evaluation: V = |2ab| = 2*(sqrt(3)/2)*(1/2) = sqrt(3)/2,
        # K = sqrt(1 - 3/4) = 1/2
        pair = vk_from_probe(ProbeAmplitudes(np.sqrt(3.0) / 2.0, 0.5))
        assert abs(pair.V - np.sqrt(3.0) / 2.0) < 1e-12
        assert abs(pair.K - 0.5) < 1e-12

    def test_phase_invariance(self):
        base = vk_from_probe(ProbeAmplitudes(0.6, 0.8))
        rotated = vk_from_probe(ProbeAmplitudes(0.6 * np.exp(2.1j), 0.8 * np.exp(-0.7j)))
        assert abs(base.V - rotated.V) < 1e-12
        assert abs(base.K - rotated.K) < 1e-12


class TestDetector:
    def test_identical_unitaries_give_full_visibility(self):
        u = np.array([[0.6, 0.8], [-0.8, 0.6]])
        model = DetectorModel(d=np.array([1.0, 0.0]), U_plus=u, U_minus=u)
        pair = vk_from_detector(model)
        assert abs(pair.V - 1.0) < 1e-12 and pair.K < 1e-6

    def test_orthogonal_kicks_give_full_which_way(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        model = DetectorModel(d=np.array([1.0, 0.0]), U_plus=np.eye(2), U_minus=swap)
        pair = vk_from_detector(model)
        assert abs(pair.V - 0.0) < 1e-12 and abs(pair.K - 1.0) < 1e-12

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            DetectorModel(
                d=np.array([1.0, 0.0]),
                U_plus=np.array([[1.0, 0.0], [0.0, 0.5]]),
                U_minus=np.eye(2),
            )

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            DetectorModel(d=np.array([1.0, 1.0]), U_plus=np.eye(2), U_minus=np.eye(2))

    def test_rotation_construction_matches_probe(self):
        # 100 real amplitude pairs around the whole unit circle
        for theta in np.linspace(0.0, 2 * np.pi, 100, endpoint=False):
            probe = ProbeAmplitudes(np.cos(theta), np.sin(theta))
            from_probe = vk_from_probe(probe)
            from_detector = vk_from_detector(probe_detector_model(probe))
            assert abs(from_probe.V - from_detector.V) < 1e-12
            assert abs(from_probe.K - from_detector.K) < 1e-12

    def test_complex_amplitudes_rejected_by_rotation_construction(self):
        with pytest.raises(ValueError, match="real"):
            probe_detector_model(ProbeAmplitudes(1j, 0.0))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_identity_property(self, seed):
        rng = np.random.default_rng(seed)
        pair = vk_from_detector(random_detector_model(rng, 8))
        assert np.all(np.abs(duality_check(pair) - 1.0) < 1e-12)


class TestDetectorStack:
    @pytest.mark.parametrize("seed", [0, 1, 20240901])
    def test_matches_per_detector_oracle(self, seed):
        model = random_detector_model(np.random.default_rng(seed), 1000)
        pair = vk_from_detector(model)
        assert pair.V.shape == pair.K.shape == (1000,)
        for i, (d, u_plus, u_minus) in enumerate(zip(model.d, model.U_plus, model.U_minus)):
            assert abs(pair.V[i] - abs(np.vdot(d, u_minus @ u_plus.conj().T @ d))) <= 1e-15
        assert np.max(np.abs(pair.V**2 + pair.K**2 - 1.0)) < 1e-12

    def test_prefix_does_not_depend_on_stack_size(self):
        small = random_detector_model(np.random.default_rng(3), 1000)
        large = random_detector_model(np.random.default_rng(3), 20000)
        for name in ("d", "U_plus", "U_minus"):
            np.testing.assert_array_equal(getattr(small, name), getattr(large, name)[:1000])

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_blocks_are_bit_identical_to_one_draw(self, n):
        blocked_rng, one_shot_rng = np.random.default_rng(7), np.random.default_rng(7)
        model = random_detector_model(blocked_rng, n)
        d, u_plus, u_minus = one_shot_detector_model(one_shot_rng, n)
        for name, expected in (("d", d), ("U_plus", u_plus), ("U_minus", u_minus)):
            assert getattr(model, name).tobytes() == expected.tobytes()
        # the stack drew exactly the stream's first 20n normals
        assert blocked_rng.normal() == one_shot_rng.normal()
        pair = vk_from_detector(model)
        v = one_shot_v(d, u_plus, u_minus)
        assert pair.V.tobytes() == v.tobytes()
        assert pair.K.tobytes() == np.sqrt(np.maximum(0.0, 1.0 - v * v)).tobytes()

    def test_single_detector_gives_scalars(self):
        pair = vk_from_detector(probe_detector_model(ProbeAmplitudes(0.6, 0.8)))
        assert np.shape(pair.V) == np.shape(pair.K) == ()

    # k past _BLOCK sits in a stack of two blocks
    @pytest.mark.parametrize("k", [0, 3, 9, _BLOCK + 3])
    def test_non_unitary_slice_named(self, k):
        model = random_detector_model(np.random.default_rng(4), 10 if k < 10 else 2 * _BLOCK)
        u_minus = model.U_minus.copy()
        u_minus[k] = np.diag([1.0, 0.5])
        with pytest.raises(ValueError, match=rf"^detector {k}: U_minus is not unitary"):
            DetectorModel(d=model.d, U_plus=model.U_plus, U_minus=u_minus)

    @pytest.mark.parametrize("k", [0, 3, 9, _BLOCK + 3])
    def test_unnormalized_state_named(self, k):
        model = random_detector_model(np.random.default_rng(5), 10 if k < 10 else 2 * _BLOCK)
        d = model.d.copy()
        d[k] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match=rf"^detector {k}: detector state norm"):
            DetectorModel(d=d, U_plus=model.U_plus, U_minus=model.U_minus)

    def test_bad_detector_of_a_2d_stack_named_by_its_index_pair(self):
        model = random_detector_model(np.random.default_rng(6), 2 * _BLOCK)
        d, u_plus, u_minus = (
            a.reshape((2, _BLOCK) + a.shape[1:]).copy()
            for a in (model.d, model.U_plus, model.U_minus)
        )
        u_plus[1, 3] = np.diag([1.0, 0.5])
        with pytest.raises(ValueError, match=r"^detector \(1, 3\): U_plus is not unitary"):
            DetectorModel(d=d, U_plus=u_plus, U_minus=u_minus)

    def test_nan_state_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            DetectorModel(d=np.array([np.nan, 0.0]), U_plus=np.eye(2), U_minus=np.eye(2))

    def test_mismatched_stack_shapes_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            DetectorModel(d=np.array([[1.0, 0.0]] * 3), U_plus=np.eye(2), U_minus=np.eye(2))

    def test_array_pair_range_enforced(self):
        with pytest.raises(ValueError):
            VKPair(np.array([0.5, 1.5]), np.array([0.5, 0.0]))


class TestDualityCheck:
    @pytest.mark.parametrize("v,k", [(1.0, 0.0), (0.0, 1.0)])
    def test_endpoints(self, v, k):
        assert duality_check(VKPair(v, k)) == 1.0

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            VKPair(1.2, 0.0)


class TestFeynmanPattern:
    @pytest.fixture()
    def paths(self):
        grid = Grid(n_samples=1024, spacing=5e-6)
        k = 2 * np.pi / WAVELENGTH
        kt = 16 * 2 * np.pi / grid.extent / 2
        tilt = float(np.arcsin(kt / k))
        return (
            make_plane_wave(grid, WAVELENGTH, tilt),
            make_plane_wave(grid, WAVELENGTH, -tilt),
        )

    def test_sharp_probe_gives_incoherent_sum(self, paths):
        phi1, phi2 = paths
        pattern = feynman_pattern(phi1, phi2, ProbeAmplitudes(1.0, 0.0))
        oracle = np.abs(phi1.amplitudes) ** 2 + np.abs(phi2.amplitudes) ** 2
        np.testing.assert_allclose(pattern, oracle, atol=1e-12)

    def test_balanced_probe_gives_coherent_sum(self, paths):
        phi1, phi2 = paths
        pattern = feynman_pattern(phi1, phi2, ProbeAmplitudes(ROOT_HALF, ROOT_HALF))
        oracle = np.abs(phi1.amplitudes + phi2.amplitudes) ** 2
        np.testing.assert_allclose(pattern, oracle, atol=1e-12)

    def test_identical_paths_substitution(self, paths):
        phi, _ = paths
        pattern = feynman_pattern(phi, phi, ProbeAmplitudes(1.0, 0.0))
        np.testing.assert_allclose(pattern, 2.0 * np.abs(phi.amplitudes) ** 2, atol=1e-12)

    def test_grid_mismatch_rejected(self, paths):
        phi1, _ = paths
        other = make_plane_wave(Grid(n_samples=512, spacing=5e-6), WAVELENGTH)
        with pytest.raises(ValueError, match="grid"):
            feynman_pattern(phi1, other, ProbeAmplitudes(1.0, 0.0))

    def test_wavelength_mismatch_rejected(self, paths):
        phi1, _ = paths
        other = make_plane_wave(phi1.grid, WAVELENGTH * 2)
        with pytest.raises(ValueError, match="wavelength"):
            feynman_pattern(phi1, other, ProbeAmplitudes(1.0, 0.0))

    def test_pattern_visibility_consistent_with_probe(self, paths):
        # fine-resolution V of the simulated pattern agrees with the
        # amplitude-level prediction at both endpoints
        phi1, phi2 = paths
        grid = phi1.grid
        region = (grid.coordinates[0], grid.coordinates[0] + grid.extent / 2)
        coherent = feynman_pattern(phi1, phi2, ProbeAmplitudes(ROOT_HALF, ROOT_HALF))
        v1 = visibility_from_pattern(coherent, grid, grid.spacing, region)
        assert abs(v1 - 1.0) < 1e-6
        incoherent = feynman_pattern(phi1, phi2, ProbeAmplitudes(1.0, 0.0))
        v0 = visibility_from_pattern(incoherent, grid, grid.spacing, region)
        assert v0 < 1e-6


class TestBinnedVisibility:
    @pytest.fixture()
    def cosine(self):
        grid = Grid(n_samples=1024, spacing=5e-6)
        period = 64 * grid.spacing
        pattern = 1.0 + np.cos(2 * np.pi * grid.coordinates / period)
        lo = grid.coordinates[0]
        region = (lo, lo + 8 * period)
        return grid, period, pattern, region

    def test_fine_bins_give_unit_visibility(self, cosine):
        grid, _, pattern, region = cosine
        assert abs(visibility_from_pattern(pattern, grid, grid.spacing, region) - 1.0) < 1e-6

    def test_constant_pattern_gives_zero(self, cosine):
        grid, _, _, region = cosine
        flat = np.full(grid.n_samples, 2.7)
        assert visibility_from_pattern(flat, grid, grid.spacing, region) == 0.0

    def test_period_wide_bins_collapse_visibility(self, cosine):
        # bin-average oracle: a bin spanning one full period averages maxima
        # and minima together, destroying the contrast estimate
        grid, period, pattern, region = cosine
        assert visibility_from_pattern(pattern, grid, period, region) < 0.01

    def test_ladder_is_non_increasing(self, cosine):
        grid, period, pattern, region = cosine
        widths = [j * grid.spacing for j in (1, 2, 4, 8, 16, 32, 64)]
        ladder = [visibility_from_pattern(pattern, grid, w, region) for w in widths]
        assert all(a >= b - 1e-12 for a, b in zip(ladder, ladder[1:]))

    def test_short_region_rejected(self, cosine):
        grid, _, pattern, _ = cosine
        lo = grid.coordinates[0]
        with pytest.raises(ValueError, match="two bins"):
            visibility_from_pattern(pattern, grid, 64 * grid.spacing, (lo, lo + 80 * grid.spacing))

    def test_reversed_region_rejected(self, cosine):
        grid, _, pattern, (lo, hi) = cosine
        with pytest.raises(ValueError, match=r"region \(.*\) is reversed"):
            visibility_from_pattern(pattern, grid, grid.spacing, (hi, lo))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_region_beyond_the_grid_rejected(self, cosine, side):
        # the grid reaches half a spacing past its end samples and no further
        grid, _, pattern, _ = cosine
        x, half = grid.coordinates, grid.spacing / 2
        lo, hi = x[0] - half, x[-1] + half
        visibility_from_pattern(pattern, grid, grid.spacing, (lo, hi))
        beyond = {"left": (np.nextafter(lo, -1.0), hi), "right": (lo, np.nextafter(hi, 1.0))}
        with pytest.raises(ValueError, match=r"region \(.*\) extends beyond the grid"):
            visibility_from_pattern(pattern, grid, grid.spacing, beyond[side])

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_region_with_a_nan_edge_rejected(self, cosine, side):
        # no comparison with NaN is true, so the edge must be refused as such
        grid, _, pattern, (lo, hi) = cosine
        region = {"left": (np.nan, hi), "right": (lo, np.nan)}[side]
        with pytest.raises(ValueError, match=r"region \(.*\) has a non-finite edge"):
            visibility_from_pattern(pattern, grid, grid.spacing, region)

    def test_subsample_bins_rejected(self, cosine):
        grid, _, pattern, region = cosine
        with pytest.raises(ValueError, match="spacing"):
            visibility_from_pattern(pattern, grid, grid.spacing / 2, region)

    def test_all_zero_pattern_flags(self, cosine):
        grid, _, _, region = cosine
        with pytest.warns(FieldFlagWarning):
            v = visibility_from_pattern(np.zeros(grid.n_samples), grid, grid.spacing, region)
        assert v == 0.0


class TestSimulatedFringeVisibility:
    def test_central_fringes_are_fully_articulated(self, geometry, bench_grid, records):
        profile = records[("both", "out")].intensity_sigma1
        fringe = geometry.fringe_spacing
        v = visibility_from_pattern(
            profile, bench_grid, bench_grid.spacing, (-3 * fringe, 3 * fringe)
        )
        assert v >= 0.99
