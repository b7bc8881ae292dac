"""The two-slit / wire-grid / imaging-lens bench.

Layout along the optical axis: double slit -> free space -> plane sigma1
(where a thin wire grid may sit on the interference minima) -> free space
-> thin lens -> free space -> detection plane sigma2.  The lens images the
slit plane onto sigma2, so each slit maps to its own detector window and
the window powers act as which-slit detectors.

Numerical design notes
----------------------
The upper-slit source is built directly in the spatial-frequency domain:
the aperture spectrum is multiplied by a raised-cosine low-pass window
whose cutoff keeps (a) the outer Nyquist band empty, so spectral
propagation never aliases, and (b) the diffracted beam inside the periodic
computation box all the way to the lens.  The window's flat passband covers
the whole fringe region at sigma1, so fringe positions and the single-slit
envelope there are unaffected.  The wire bars are given a narrow tanh edge
(about one sample) for the same reason; their nominal width is preserved in
amplitude, and in power each bar takes wire_width + edge from a uniform beam.
The lower slit is the mirror image x -> -x of the upper one (sample i ->
(n - i) mod n on the periodic grid), which propagation preserves, and both
slits are the exact sum phi_U + phi_L; the three slit masks share one
scale, max(|upper| + |lower|), which keeps each of them passive.

Synthesis and minima refinement work only on the source band, the bins
with |kx| within k_cut: the slit spectrum is evaluated there and scattered
into a zero spectrum, and the interpolant that refines the minima sums
only those bins.  This is exact to roundoff, because the source spectrum
is zero beyond k_cut by construction and propagation multiplies each bin
by a phase, so the sigma1 field's bins beyond k_cut hold only FFT roundoff
(1e-31 to 2e-31 of its energy).  The wire grid breaks the band limit, so
``propagate`` stays general.

Every stage of a scenario run is checked against the band-limit guard and
violations raise :class:`BandLimitError` naming the stage: ``source`` on
the one synthesized source, ``sigma1`` on the field the scenario carries
(phi_U, phi_L or phi_U + phi_L).  The detector windows are measured by
``total_power`` over open intervals; a window beyond the grid is rejected
by ``check_window`` before any field is built.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .wavefield import (
    ComplexField,
    Grid,
    Mask,
    _interpolate,
    apply_mask,
    check_window,
    intensity,
    make_plane_wave,
    nyquist_tail_fraction,
    propagate,
    thin_lens,
    total_power,
)

__all__ = [
    "AfsharGeometry",
    "Slits",
    "GridState",
    "Scenario",
    "SimulationRecord",
    "BandLimitError",
    "DEFAULT_N_SAMPLES",
    "DEFAULT_SPACING",
    "default_grid",
    "imaging_distance",
    "slit_mask",
    "sigma1_fields",
    "fringe_minima",
    "build_wire_grid",
    "fill_factor",
    "image_windows",
    "run_scenario",
    "discrimination",
]

DEFAULT_N_SAMPLES = 2**14
DEFAULT_SPACING = 5e-6

# Band-limit guard: tolerated spectral-energy fraction in the outer 5% of the
# Nyquist band, and the minimum sampling of the sigma1 fringe period.
GUARD_TAIL_LIMIT = 1e-6
GUARD_MIN_SAMPLES_PER_FRINGE = 4

# Spectral window for the slit source (fractions of the box/Nyquist limits)
# and the tanh edge scale of the wire bars, in samples.
_CUT_BOX_MARGIN = 0.95
_CUT_NYQUIST_FRACTION = 0.55
_FLAT_FRACTION = 0.5
_WIRE_EDGE_SAMPLES = 1.3

# Acceptable depth of a refined interference minimum relative to the
# neighboring maxima; shallower minima are not resolvable wire sites.
_MINIMUM_DEPTH = 1e-4

# Newton refinement of the sigma1 extrema: half-width of the search bracket
# around each seed in fringe periods, step tolerance relative to the bracket
# width, and the step budget before a point counts as not converging.
_BRACKET_FRINGES = 0.35
_NEWTON_REL_TOL = 1e-10
_NEWTON_MAX_STEPS = 50


class BandLimitError(RuntimeError):
    """A scenario field failed the band-limit guard at a named stage."""

    def __init__(self, stage: str, detail: str):
        super().__init__(f"band-limit guard violated at stage '{stage}': {detail}")
        self.stage = stage


class Slits(enum.Enum):
    BOTH = "both"
    UPPER_ONLY = "upper"
    LOWER_ONLY = "lower"


class GridState(enum.Enum):
    IN = "in"
    OUT = "out"


@dataclass(frozen=True)
class Scenario:
    slits: Slits
    grid: GridState


@dataclass(frozen=True)
class AfsharGeometry:
    """Physical dimensions of the bench (SI units, meters).

    The lens images the slit plane onto the detector plane, which is what
    gives the detector windows their which-slit meaning, so the lens-to-
    detector distance is not a free length: :attr:`z_lens_to_detectors`
    solves ``1/(z_slits_to_grid + z_grid_to_lens) + 1/z = 1/focal_length``.
    A geometry whose lens has no real image of the slits is rejected.
    """

    slit_width: float
    slit_separation: float
    z_slits_to_grid: float
    z_grid_to_lens: float
    focal_length: float
    wire_width: float
    n_wires: int
    wavelength: float

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self) if f.name != "n_wires"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (isinstance(self.n_wires, int) and self.n_wires > 0 and self.n_wires % 2 == 0):
            raise ValueError(
                f"n_wires must be a positive even integer (the minima set is "
                f"symmetric), got {self.n_wires}"
            )
        if not self.slit_separation > self.slit_width:
            raise ValueError("slit_separation must exceed slit_width")
        if not self.wire_width < self.fringe_spacing:
            raise ValueError(
                f"wire_width {self.wire_width} is not below the sigma1 fringe "
                f"spacing {self.fringe_spacing:.4g}"
            )
        imaging_distance(self.object_distance, self.focal_length)

    @staticmethod
    def default() -> "AfsharGeometry":
        """Reference bench used by the CLI and the acceptance suite.

        Chosen so that, on the default grid, the band-limit guard holds at
        every stage, the interference minima at sigma1 are below 1e-4 of
        the neighboring maxima, and the single-slit envelope covers the
        wire region (these properties are exercised by the test suite).
        """
        return AfsharGeometry(
            slit_width=30e-6,
            slit_separation=187.5e-6,
            z_slits_to_grid=1.0,
            z_grid_to_lens=0.5,
            focal_length=0.5,
            wire_width=130e-6,
            n_wires=6,
            wavelength=650e-9,
        )

    @property
    def fringe_spacing(self) -> float:
        """Two-slit fringe period at sigma1, lambda*L/d."""
        return self.wavelength * self.z_slits_to_grid / self.slit_separation

    @property
    def object_distance(self) -> float:
        return self.z_slits_to_grid + self.z_grid_to_lens

    @property
    def z_lens_to_detectors(self) -> float:
        """Lens-to-sigma2 distance at which the lens images the slit plane."""
        return imaging_distance(self.object_distance, self.focal_length)

    @property
    def magnification(self) -> float:
        """|image|/|object| scale of the (inverting) slit-plane image."""
        return self.z_lens_to_detectors / self.object_distance


@dataclass(frozen=True)
class SimulationRecord:
    """Power accounting and intensity profiles of one scenario run."""

    scenario: Scenario
    power_incident: float
    power_after_grid: float
    power_at_detectors: float
    power_window_U: float
    power_window_L: float
    intensity_sigma1: np.ndarray
    intensity_sigma2: np.ndarray
    minima_positions: tuple[float, ...]

    def __post_init__(self) -> None:
        for arr_name in ("intensity_sigma1", "intensity_sigma2"):
            arr = np.asarray(getattr(self, arr_name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, arr_name, arr)


def imaging_distance(object_distance: float, focal_length: float) -> float:
    """Lens-to-image distance z solving the thin-lens condition 1/s + 1/z = 1/f."""
    # the second test catches an s so close to f that 1/f - 1/s rounds to zero
    if not (object_distance > focal_length > 0 and 1.0 / focal_length > 1.0 / object_distance):
        raise ValueError(
            f"imaging condition has no solution for object distance {object_distance} m "
            f"and focal length {focal_length} m (needs object distance > focal length > 0)"
        )
    return 1.0 / (1.0 / focal_length - 1.0 / object_distance)


def default_grid(n_samples: int = DEFAULT_N_SAMPLES, spacing: float = DEFAULT_SPACING) -> Grid:
    return Grid(n_samples=n_samples, spacing=spacing)


def _source_cutoffs(geometry: AfsharGeometry, grid: Grid) -> tuple[float, float]:
    """Flat-band edge and cutoff of the slit source's spectral window."""
    k = 2.0 * np.pi / geometry.wavelength
    half_box = grid.extent / 2.0
    # widest plane of the bench is the lens; light beyond this transverse
    # frequency would leave the periodic box before reaching it
    k_box = _CUT_BOX_MARGIN * k * half_box / geometry.object_distance
    k_cut = min(k_box, _CUT_NYQUIST_FRACTION * grid.nyquist)
    return _FLAT_FRACTION * k_cut, k_cut


def _check_sampling(geometry: AfsharGeometry, grid: Grid) -> None:
    fringe_samples = geometry.fringe_spacing / grid.spacing
    if fringe_samples < GUARD_MIN_SAMPLES_PER_FRINGE:
        raise BandLimitError(
            "source",
            f"only {fringe_samples:.2f} samples per sigma1 fringe "
            f"(need >= {GUARD_MIN_SAMPLES_PER_FRINGE})",
        )
    k = 2.0 * np.pi / geometry.wavelength
    k_flat, _ = _source_cutoffs(geometry, grid)
    outer_minimum = (geometry.n_wires / 2.0) * geometry.fringe_spacing
    k_fringe_band = k * (outer_minimum + geometry.slit_separation / 2.0) / geometry.z_slits_to_grid
    if k_fringe_band >= k_flat:
        raise BandLimitError(
            "source",
            "the spectral window needed to keep the beam inside the computation "
            f"box (flat to {k_flat:.4g} rad/m) would distort the fringe region "
            f"(up to {k_fringe_band:.4g} rad/m); enlarge the grid extent",
        )


def _guard(field: ComplexField, stage: str) -> None:
    frac = nyquist_tail_fraction(field)
    if frac > GUARD_TAIL_LIMIT:
        raise BandLimitError(
            stage,
            f"outer-band spectral energy fraction {frac:.3e} exceeds {GUARD_TAIL_LIMIT:.0e}",
        )


def _mirror(values: np.ndarray) -> np.ndarray:
    """Reflection x -> -x on the periodic grid: sample i -> (n - i) mod n."""
    return np.roll(values[::-1], 1)


def slit_mask(geometry: AfsharGeometry, grid: Grid, slits: Slits) -> Mask:
    """Transmission profile of the slit pair (or a single slit).

    Built in the frequency domain for the upper slit, a rectangular-aperture
    spectrum multiplied by a raised-cosine low-pass window, and mirrored for
    the lower one (see the module notes).  The spectrum is evaluated only
    below the cutoff and scattered into zeros, so each profile is real,
    within [-1, 1], and its sampled spectrum vanishes identically beyond it.
    """
    _check_sampling(geometry, grid)
    k_flat, k_cut = _source_cutoffs(geometry, grid)
    kx = grid.wavenumbers()
    band = np.abs(kx) < k_cut
    kx = kx[band]
    a = geometry.slit_width
    spectrum = a * np.sinc(kx * a / (2.0 * np.pi)) * np.exp(-0.5j * kx * geometry.slit_separation)

    akx = np.abs(kx)
    roll = np.cos(0.5 * np.pi * (akx - k_flat) / (k_cut - k_flat)) ** 2
    spectrum *= np.where(akx <= k_flat, 1.0, roll)

    x0 = grid.coordinates[0]
    full = np.zeros(grid.n_samples, dtype=complex)
    full[band] = spectrum * np.exp(1j * kx * x0)
    upper = np.fft.ifft(full).real / grid.spacing
    peak = np.max(np.abs(upper) + np.abs(_mirror(upper)))
    if peak > 1.0:
        upper = upper / (peak * (1.0 + 1e-12))
    lower = _mirror(upper)
    return Mask(grid, {Slits.UPPER_ONLY: upper, Slits.LOWER_ONLY: lower}.get(slits, upper + lower))


def sigma1_fields(geometry: AfsharGeometry, grid: Grid) -> tuple[ComplexField, ComplexField]:
    """Fields (phi_U, phi_L) at sigma1 behind each slit alone; callers guard sigma1."""
    upper = slit_mask(geometry, grid, Slits.UPPER_ONLY)
    src = apply_mask(make_plane_wave(grid, geometry.wavelength), upper)
    _guard(src, "source")
    phi_u = propagate(src, geometry.z_slits_to_grid)
    return phi_u, phi_u.with_amplitudes(_mirror(phi_u.amplitudes))


def _refine_minima(geometry: AfsharGeometry, at_sigma1: ComplexField) -> np.ndarray:
    """Interference minima of a both-slit sigma1 field, refined by Newton's method.

    Newton iterates on I'(x) = 0 for I = |u|^2, with u the band-limited
    interpolant of the field: I' = 2 Re(conj(u) u') and
    I'' = 2 (|u'|^2 + Re(conj(u) u'')).  Minima are seeded at
    ``(m + 1/2) * lambda*L/d`` and the maxima between them at
    ``m * lambda*L/d``; each point stays within ``_BRACKET_FRINGES`` of its
    seed.
    A point that does not converge, converges to the wrong kind of
    extremum, or a minimum shallower than ``_MINIMUM_DEPTH`` of its
    neighboring maxima, is not resolvable.

    The interpolant sums only the bins with |kx| <= k_cut of the source
    window (see the module notes), keeping the full-grid ``1/n`` scale:
    the field is a propagated slit source, so the bins beyond hold only
    FFT roundoff and dropping them changes ``u``, ``u'`` and ``u''`` by
    roundoff only.
    """
    fringe = geometry.fringe_spacing
    half_pairs = geometry.n_wires // 2
    grid = at_sigma1.grid
    if (half_pairs - 0.5 + _BRACKET_FRINGES) * fringe > grid.coordinates[-1]:
        raise ValueError(f"fewer than {geometry.n_wires} resolvable minima within the grid")

    kx = grid.wavenumbers()
    band = np.abs(kx) <= _source_cutoffs(geometry, grid)[1]
    spectrum, kx = np.fft.fft(at_sigma1.amplitudes)[band], kx[band]
    x0 = grid.coordinates[0]

    def extremum(seed: float, minimum: bool) -> tuple[float, float]:
        """Position and intensity of the extremum near ``seed``."""
        lo, hi = seed - _BRACKET_FRINGES * fringe, seed + _BRACKET_FRINGES * fringe
        x = seed
        for _ in range(_NEWTON_MAX_STEPS):
            u, du, d2u = _interpolate(spectrum, kx, x0, x, grid.n_samples)
            slope = 2.0 * (u.conjugate() * du).real
            curvature = 2.0 * (abs(du) ** 2 + (u.conjugate() * d2u).real)
            step = -slope / curvature if curvature != 0.0 else math.inf
            if abs(step) < _NEWTON_REL_TOL * (hi - lo):
                break
            x = min(max(x + step, lo), hi)
        else:
            curvature = math.nan
        if not (curvature > 0.0 if minimum else curvature < 0.0):
            kind = "minimum" if minimum else "maximum"
            raise ValueError(
                f"intensity {kind} near {seed:.4g} m is not resolvable: Newton's "
                f"method found none within {_BRACKET_FRINGES} fringe of the seed"
            )
        return x, abs(u) ** 2

    maxima = [extremum(m * fringe, minimum=False)[1] for m in range(half_pairs + 1)]
    positive = []
    for m in range(half_pairs):
        seed = (m + 0.5) * fringe
        x_min, i_min = extremum(seed, minimum=True)
        depth = i_min / max(maxima[m], maxima[m + 1])
        if depth > _MINIMUM_DEPTH:
            raise ValueError(
                f"minimum near {seed:.4g} m is not resolvable: intensity is "
                f"{depth:.2e} of the neighboring maximum (limit {_MINIMUM_DEPTH:.0e})"
            )
        positive.append(x_min)

    return np.array([-p for p in reversed(positive)] + positive)


def fringe_minima(geometry: AfsharGeometry, grid: Grid) -> np.ndarray:
    """Positions of the ``n_wires`` interference minima nearest the axis.

    Guards the both-slit field phi_U + phi_L at sigma1, seeds each minimum
    at the small-angle estimate ``(m + 1/2) * lambda*L/d`` and refines it by
    Newton's method on the derivative of the band-limited interpolation of
    the intensity, so the result is not quantized to the sample spacing.
    The set is symmetric under reflection; the positive-side minima are
    refined and mirrored.
    """
    phi_u, phi_l = sigma1_fields(geometry, grid)
    both = phi_u.with_amplitudes(phi_u.amplitudes + phi_l.amplitudes)
    _guard(both, "sigma1")
    return _refine_minima(geometry, both)


def build_wire_grid(geometry: AfsharGeometry, minima: np.ndarray, grid: Grid) -> Mask:
    """Absorbing wire bars of ``wire_width`` centered on the given minima.

    Each bar edge is a tanh of scale ``edge = _WIRE_EDGE_SAMPLES * spacing``
    so the bars do not inject energy at the sampling limit.  The transition
    is odd-symmetric about the nominal bar boundary, which preserves the
    bar's nominal width in amplitude.  In power a uniform beam loses
    ``wire_width + edge`` per bar: 1 - s**2 = (1 - s) + s*(1 - s) for the
    transmission s across an edge, and s*(1 - s) integrates to edge/2.
    """
    centers = np.sort(np.asarray(minima, dtype=float))
    if centers.size >= 2:
        gaps = np.diff(centers)
        if np.any(gaps < geometry.wire_width):
            raise ValueError("wire bars overlap: minima closer than wire_width")
    x = grid.coordinates
    w = geometry.wire_width
    edge = _WIRE_EDGE_SAMPLES * grid.spacing
    t = np.ones_like(x)
    for c in centers:
        bar = 0.5 * (np.tanh((x - (c - w / 2)) / edge) - np.tanh((x - (c + w / 2)) / edge))
        t = t * (1.0 - bar)
    return Mask(grid, t)


def fill_factor(geometry: AfsharGeometry) -> float:
    """Geometric fraction of the illuminated width blocked by the wires.

    The illuminated width is the interval covered by the outermost wires
    plus one fringe spacing on each side; this is the reference region for
    the "known amount" of blocking expected when no interference minima
    coincide with the wires.
    """
    fringe = geometry.fringe_spacing
    outer = (geometry.n_wires / 2.0 - 0.5) * fringe
    illuminated = 2.0 * outer + geometry.wire_width + 2.0 * fringe
    return geometry.n_wires * geometry.wire_width / illuminated


def image_windows(geometry: AfsharGeometry) -> tuple[tuple[float, float], tuple[float, float]]:
    """Detector windows (U, L) at sigma2 as (lo, hi) coordinate intervals.

    Each window has half-width ``M*d/2`` and is centered on the geometric
    image ``-M*(+-d/2)`` of its slit; the lens inverts, so the upper slit
    images into the negative-coordinate window.
    """
    md = geometry.magnification * geometry.slit_separation
    return ((-md, 0.0), (0.0, md))


def run_scenario(geometry: AfsharGeometry, scenario: Scenario, grid: Grid) -> SimulationRecord:
    """Propagate one scenario through the bench and record power accounting.

    Pipeline: phi_U, phi_L or their sum at sigma1 -> (wire grid if in) ->
    propagate to lens -> thin lens -> propagate to sigma2.  The band-limit
    guard runs after every stage; ``power_incident`` is measured at sigma1
    before the grid, ``intensity_sigma1`` after it.  The window powers are
    ``total_power`` over the two :func:`image_windows`; a sample exactly on
    the shared boundary x = 0 counts in neither, so mirrored fields give
    mirrored window powers.  A window beyond the grid raises ValueError,
    naming the window and the magnification, before any field is built.
    """
    window_u, window_l = image_windows(geometry)
    for name, window in (("U", window_u), ("L", window_l)):
        label = f"detector window {name} at magnification {geometry.magnification:.4g}"
        check_window(grid, window, label)
    phi_u, phi_l = sigma1_fields(geometry, grid)
    both = phi_u.with_amplitudes(phi_u.amplitudes + phi_l.amplitudes)
    at_sigma1 = {Slits.UPPER_ONLY: phi_u, Slits.LOWER_ONLY: phi_l}.get(scenario.slits, both)
    del phi_u, phi_l  # holding the uncarried fields through later stages raises peak RSS
    _guard(at_sigma1, "sigma1")
    power_incident = total_power(at_sigma1)

    minima: tuple[float, ...] = ()
    if scenario.slits is Slits.BOTH or scenario.grid is GridState.IN:
        minima = tuple(float(p) for p in _refine_minima(geometry, both))
    del both

    if scenario.grid is GridState.IN:
        wires = build_wire_grid(geometry, np.asarray(minima), grid)
        after_grid = apply_mask(at_sigma1, wires)
        _guard(after_grid, "wire_grid")
    else:
        after_grid = at_sigma1
    power_after_grid = total_power(after_grid)

    at_lens = propagate(after_grid, geometry.z_grid_to_lens)
    _guard(at_lens, "lens")
    after_lens = thin_lens(at_lens, geometry.focal_length)
    _guard(after_lens, "lens_phase")
    at_sigma2 = propagate(after_lens, geometry.z_lens_to_detectors)
    _guard(at_sigma2, "sigma2")

    record_minima = minima if scenario.slits is Slits.BOTH else ()
    return SimulationRecord(
        scenario=scenario,
        power_incident=power_incident,
        power_after_grid=power_after_grid,
        power_at_detectors=total_power(at_sigma2),
        power_window_U=total_power(at_sigma2, window_u),
        power_window_L=total_power(at_sigma2, window_l),
        intensity_sigma1=intensity(after_grid),
        intensity_sigma2=intensity(at_sigma2),
        minima_positions=record_minima,
    )


def discrimination(record: SimulationRecord) -> float:
    """Which-slit contrast |P_U - P_L| / (P_U + P_L) of the window powers."""
    total = record.power_window_U + record.power_window_L
    if total <= 0.0:
        raise ValueError("no detector power in the image windows")
    return abs(record.power_window_U - record.power_window_L) / total
