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
amplitude, and each bar's tanh is evaluated only within
``_WIRE_EDGE_REACH`` edge scales of it, beyond which it is exactly +-1.

The lower slit is the upper one's mirror image x -> -x (sample i ->
(n - i) mod n on the periodic grid).  Past sigma1 every element is linear
and even under the mirror: the wire grid, the transfer functions and the
lens factor on a grid centered on the axis (the bench refuses any other).
So phi_L at every plane is phi_U mirrored, and the mirror is decided once:
only phi_U is propagated, once per grid state, and a lower record is the
upper one with its profiles mirrored and its window powers swapped (the
mirror maps window U's samples onto window L's).  phi_U + phi_L's profile
is its own mirror bit for bit, so its window L power is its window U one.
Synthesis and minima refinement work only on the source band, the bins
with |kx| < k_cut.  That is exact to roundoff: the source spectrum is zero
beyond k_cut by construction, and propagation multiplies each bin by a
phase.  The wire grid breaks the band limit, so the propagations past
sigma1 take every bin.

Everything a scenario returns is formed once per bench.  One bench is one
(geometry, grid), a ``_Bench``, and the last one is kept.  It is built with
the detector windows' sample bounds (``windows``), then phi_U, its spectrum
H*S and the sigma1 guard's failures (``sigma1``); its
other stages, the refined minima, the sigma1 profiles (``incident``),
phi_U's pass per grid state (``upper_pass``) and each scenario's record
(``record``), are built on first use by a caller that needs them, so a
single slit with the grid out still runs where the minima cannot be
resolved.  The arrays are read-only and a stage reads nothing but the key
and earlier stages, so a hit returns the very bits a miss builds; a build
that raises stores nothing, so the next call raises again.  An upper
record shares the bench's arrays, a lower one mirrors them, and only a
both-slit record squares profiles of its own.

Every stage is checked against the band-limit guard, and a violation
raises :class:`BandLimitError` naming the stage.  From sigma1 on one rule
(``_guard_slits``) guards phi_U's and phi_U + phi_L's spectra (phi_L's is
phi_U's bins reordered) and records each one's first failing stage instead
of raising it, so a failure raises for the scenarios of that field only
(phi_U's for both single slits), on every call, and a sigma1 failure raises
before anything downstream is built.  Each stage guards the spectrum it
already has, with no extra transform.  The
guard fails closed: an FFT spreads one non-finite sample over every bin,
so a stage that makes a non-finite field fails its own guard.

Past sigma1 phi_U's pass is a table of rows ``(name, spatial, kernel)``,
``wire_grid`` (grid in only), ``lens``, ``lens_phase`` and ``sigma2``,
that one loop runs in two complex buffers, one of samples and one of
spectrum.  A spatial row multiplies the samples and takes their ``fft``;
a spectral row (a propagation) forms H*S and takes its ``ifft``.  The
first row reads the held phi_U or its H*S, so the held arrays are never
written, and every later row works in place.  The kernels are those the
public ``apply_mask``, ``propagate`` and ``thin_lens`` wrap, with their
operand orders.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .wavefield import (
    ComplexField,
    Grid,
    Mask,
    _frozen,
    _in_window,
    _intensity,
    _interpolate,
    _lens_into,
    _masked_into,
    _owned,
    _require_finite,
    _tail_fraction,
    _transfer_into,
    _window_bounds,
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
    "imaging_distance",
    "sigma1_fields",
    "fringe_minima",
    "build_wire_grid",
    "fill_factor",
    "image_windows",
    "run_scenario",
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
# tanh(x) rounds to exactly 1.0 from x ~ 18.99 on (numpy 2.4, float64)
_WIRE_EDGE_REACH = 20.0

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
        self.detail = detail


class Slits(enum.Enum):
    BOTH = "both"
    UPPER_ONLY = "upper"
    LOWER_ONLY = "lower"


class GridState(enum.Enum):
    IN = "in"
    OUT = "out"


# the first failing (stage, detail) of phi_U (UPPER_ONLY) and phi_U + phi_L (BOTH)
_Failures = dict[Slits, tuple[str, str]]


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
            object.__setattr__(self, arr_name, _frozen(arr))


def imaging_distance(object_distance: float, focal_length: float) -> float:
    """Lens-to-image distance z solving the thin-lens condition 1/s + 1/z = 1/f."""
    # the second test catches an s so close to f that 1/f - 1/s rounds to zero
    if not (object_distance > focal_length > 0 and 1.0 / focal_length > 1.0 / object_distance):
        raise ValueError(
            f"imaging condition has no solution for object distance {object_distance} m "
            f"and focal length {focal_length} m (needs object distance > focal length > 0)"
        )
    return 1.0 / (1.0 / focal_length - 1.0 / object_distance)


def _source_cutoffs(geometry: AfsharGeometry, grid: Grid) -> tuple[float, float]:
    """Flat-band edge and cutoff of the slit source's spectral window."""
    k = 2.0 * np.pi / geometry.wavelength
    half_box = grid.extent / 2.0
    # widest plane of the bench is the lens; light beyond this transverse
    # frequency would leave the periodic box before reaching it
    k_box = _CUT_BOX_MARGIN * k * half_box / geometry.object_distance
    k_cut = min(k_box, _CUT_NYQUIST_FRACTION * grid.nyquist)
    return _FLAT_FRACTION * k_cut, k_cut


def _source_band(geometry: AfsharGeometry, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The source band, the FFT bins with |kx| < k_cut: their mask and their kx in FFT order.

    |kx| is the same at bins i and (n - i) mod n, so the mask is
    mirror-symmetric.
    """
    kx, k_cut = grid.wavenumbers(), _source_cutoffs(geometry, grid)[1]
    # |kx| < k_cut as two comparisons: no |kx| array beside kx
    band = (-k_cut < kx) & (kx < k_cut)
    return band, kx[band]


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


def _guarded(spectrum: np.ndarray, stage: str) -> None:
    """Check the band-limit guard on the field at ``stage`` whose spectrum is ``spectrum``."""
    frac = _tail_fraction(spectrum)
    # fails closed: a non-finite spectrum gives nan, which no limit admits
    if not frac <= GUARD_TAIL_LIMIT:
        raise BandLimitError(
            stage,
            f"outer-band spectral energy fraction {frac:.3e} exceeds {GUARD_TAIL_LIMIT:.0e}",
        )


def _mirror(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Reflection x -> -x on the periodic grid: sample i -> (n - i) mod n.

    The same map sends spectrum bin k to (n - k) mod n, so it mirrors a
    field's samples and its spectrum alike.  Written into ``out`` if given,
    else into a new array, which owns its memory.
    """
    return np.concatenate((values[:1], values[:0:-1]), out=out)


def _superposed(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """phi_U + phi_L from phi_U's samples ``values``, written into ``out`` in one pass.

    Sample i is ``values[n - i] + values[i]`` (sample 0 its own double),
    the bits of ``_mirror(values) + values``.
    """
    np.add(values[:0:-1], values[1:], out=out[1:])
    np.add(values[:1], values[:1], out=out[:1])
    return out


def _guard_slits(spectrum: np.ndarray, stage: str, failures: _Failures, out: np.ndarray) -> bool:
    """Guard phi_U's ``spectrum`` (``UPPER_ONLY``) and phi_U + phi_L's (``BOTH``) at ``stage``.

    phi_U + phi_L's spectrum is formed in ``out`` by :func:`_superposed`.
    A field's first failure is recorded in ``failures`` as its (stage,
    detail), not raised, and a field already there is not guarded again.
    False once both have failed.
    """
    for slits in (Slits.UPPER_ONLY, Slits.BOTH):
        if slits in failures:
            continue
        field = spectrum if slits is Slits.UPPER_ONLY else _superposed(spectrum, out)
        try:
            _guarded(field, stage)
        except BandLimitError as exc:
            failures[slits] = (exc.stage, exc.detail)
    return len(failures) < 2


def _upper_slit(geometry: AfsharGeometry, grid: Grid) -> tuple[ComplexField, np.ndarray]:
    """The upper-slit source field and the band spectrum it is built from.

    The band spectrum is Hermitian, so it is the FFT of the real profile to
    roundoff.  It is handed over writeable, for the caller to propagate in
    place.
    """
    _check_sampling(geometry, grid)
    k_flat, k_cut = _source_cutoffs(geometry, grid)
    band, kx = _source_band(geometry, grid)
    a = geometry.slit_width
    spectrum = a * np.sinc(kx * a / (2.0 * np.pi)) * np.exp(-0.5j * kx * geometry.slit_separation)

    akx = np.abs(kx)
    roll = np.cos(0.5 * np.pi * (akx - k_flat) / (k_cut - k_flat)) ** 2
    spectrum *= np.where(akx <= k_flat, 1.0, roll)

    spectrum *= np.exp(1j * kx * grid.coordinate(0))
    full = np.zeros(grid.n_samples, dtype=complex)
    full[band] = spectrum
    # the ifft's own buffer becomes the samples: its real part is scaled in
    # place and its imaginary part, roundoff of a Hermitian spectrum, zeroed
    samples = np.fft.ifft(full)
    upper = samples.real
    np.divide(upper, grid.spacing, out=upper)
    samples.imag = 0.0
    full /= grid.spacing
    # the slit pair is passive: |phi_U| + |phi_L| <= 1 at every sample
    peak = np.max(np.abs(upper) + np.abs(_mirror(upper)))
    if peak > 1.0:
        np.divide(upper, peak * (1.0 + 1e-12), out=upper)
        full /= peak * (1.0 + 1e-12)
    return ComplexField(grid, _owned(samples), geometry.wavelength), full


def sigma1_fields(geometry: AfsharGeometry, grid: Grid) -> tuple[ComplexField, ComplexField]:
    """Fields (phi_U, phi_L) at sigma1 behind each slit alone.

    phi_U is guarded at sigma1; phi_L is its mirror image.  A grid not
    centered on the axis raises ValueError.
    """
    phi_u = _bench(geometry, grid).phi_u(Slits.UPPER_ONLY)
    return phi_u, ComplexField(grid, _owned(_mirror(phi_u.amplitudes)), phi_u.wavelength)


def _refine_minima(geometry: AfsharGeometry, grid: Grid, spectrum: np.ndarray) -> np.ndarray:
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

    ``spectrum`` holds the field's spectrum on the source-band bins only,
    in FFT order, and the interpolant sums them, keeping
    the full-grid ``1/n`` scale: the field is a propagated slit source, so
    the bins beyond hold only FFT roundoff and dropping them changes ``u``,
    ``u'`` and ``u''`` by roundoff only (see the module notes).
    """
    fringe = geometry.fringe_spacing
    half_pairs = geometry.n_wires // 2
    if (half_pairs - 0.5 + _BRACKET_FRINGES) * fringe > grid.coordinate(grid.n_samples - 1):
        raise ValueError(f"fewer than {geometry.n_wires} resolvable minima within the grid")

    kx = _source_band(geometry, grid)[1]
    x0 = grid.coordinate(0)

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

    Raises phi_U + phi_L's sigma1 guard failure, if any, then seeds each
    minimum at the small-angle estimate ``(m + 1/2) * lambda*L/d`` and
    refines it by Newton's method on the derivative of the band-limited
    interpolation of the intensity, so the result is not quantized to the
    sample spacing.
    The set is symmetric under reflection; the positive-side minima are
    refined and mirrored.  A grid not centered on the axis raises
    ValueError.
    """
    bench = _bench(geometry, grid)
    bench.phi_u(Slits.BOTH)
    return np.array(bench.minima)


def build_wire_grid(geometry: AfsharGeometry, minima: np.ndarray, grid: Grid) -> Mask:
    """Absorbing wire bars of ``wire_width`` centered on the given minima.

    Each bar edge is a tanh of scale ``edge = _WIRE_EDGE_SAMPLES * spacing``
    so the bars do not inject energy at the sampling limit.  The transition
    is odd-symmetric about the nominal bar boundary, which preserves the
    bar's nominal width in amplitude.  In power a uniform beam loses
    ``wire_width + edge`` per bar: 1 - s**2 = (1 - s) + s*(1 - s) for the
    transmission s across an edge, and s*(1 - s) integrates to edge/2.

    Each bar is evaluated only on the samples within ``_WIRE_EDGE_REACH``
    edge scales of it, rounded outward to whole samples; elsewhere both tanh
    terms are exactly -1 or exactly +1, so the bar's factor is exactly 1.
    """
    centers = np.sort(np.asarray(minima, dtype=float))
    if centers.size >= 2:
        gaps = np.diff(centers)
        if np.any(gaps < geometry.wire_width):
            raise ValueError("wire bars overlap: minima closer than wire_width")
    n, dx = grid.n_samples, grid.spacing
    w = geometry.wire_width
    edge = _WIRE_EDGE_SAMPLES * dx
    reach = _WIRE_EDGE_REACH * edge
    # the bars are written into the real part of the complex transmission
    transmission = np.ones(n, dtype=np.complex128)
    t = transmission.real
    for c in centers:
        lo = max(math.floor((c - w / 2 - reach - grid.center) / dx) + n // 2, 0)
        hi = min(math.ceil((c + w / 2 + reach - grid.center) / dx) + n // 2 + 1, n)
        if lo >= hi:
            continue
        x = grid.coordinate(np.arange(lo, hi))
        bar = 0.5 * (np.tanh((x - (c - w / 2)) / edge) - np.tanh((x - (c + w / 2)) / edge))
        t[lo:hi] *= 1.0 - bar
    return Mask(grid, _owned(transmission))


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


@dataclass(frozen=True, eq=False)
class _Pass:
    """phi_U's downstream pass in one grid state: what the records of its scenarios need.

    ``wires`` is the wire grid (grid in only); ``failures`` are
    :func:`_guard_slits`'s.  The arrays are read-only, and None when phi_U
    and phi_U + phi_L both failed a guard: ``after_grid`` is phi_U's
    sigma1 profile behind the wire grid (with the grid out, the bench's
    ``incident`` profile itself), ``sigma2`` its sigma2 samples and
    ``detected`` their profile.
    """

    wires: Mask | None
    failures: _Failures
    after_grid: np.ndarray | None = None
    sigma2: np.ndarray | None = None
    detected: np.ndarray | None = None


class _Bench:
    """One bench, one (geometry, grid): its shared stages and records (see the module notes).

    A grid not centered on the axis is refused before any field is built.
    The detector windows' sample bounds are derived first, once; a key whose
    windows are refused holds None for them and builds sigma1 only when it
    is asked for, so each record of that key is refused before any field.
    """

    def __init__(self, geometry: AfsharGeometry, grid: Grid):
        try:
            self.windows: tuple[tuple[int, int], ...] | None = _detector_windows(geometry, grid)
        except ValueError:
            # sigma1 and the minima need no window: only a record is refused
            self.windows = None
        if grid.center != 0.0:
            raise ValueError(
                f"the bench is mirror-symmetric about the axis x = 0: the grid must be "
                f"centered on it, not at {grid.center} m"
            )
        self.geometry, self.grid = geometry, grid
        self._passes: dict[GridState, _Pass] = {}
        self._records: dict[Scenario, SimulationRecord] = {}
        # every caller starts from sigma1, so it is built here, before the cache
        # releases the last bench: released first, the last bench's arrays left
        # heap holes that added 1 MB to the peak RSS of a sweep on 2^16 samples
        if self.windows is not None:
            self.sigma1

    @functools.cached_property
    def sigma1(self) -> tuple[ComplexField, np.ndarray, _Failures]:
        """phi_U at sigma1, its spectrum H*S and the fields that failed the guard there.

        The source is guarded at ``source``, and at sigma1 :func:`_guard_slits`
        guards phi_U and phi_U + phi_L.  The spectrum is read-only.
        """
        source, spectrum = _upper_slit(self.geometry, self.grid)
        _guarded(spectrum, "source")
        _require_finite(source.amplitudes)
        k = source.wavenumber
        # the source's samples are spent: they go before phi_U's are made
        del source
        _transfer_into(self.grid, k, self.geometry.z_slits_to_grid, spectrum, out=spectrum)
        phi_u = ComplexField(self.grid, _owned(np.fft.ifft(spectrum)), self.geometry.wavelength)
        failures: _Failures = {}
        _guard_slits(spectrum, "sigma1", failures, np.empty_like(spectrum))
        return phi_u, _owned(spectrum), failures

    def phi_u(self, slits: Slits) -> ComplexField:
        """phi_U, once the field ``slits`` carries has passed the sigma1 guard."""
        phi_u, _, failures = self.sigma1
        if slits in failures:
            raise BandLimitError(*failures[slits])
        return phi_u

    @functools.cached_property
    def minima(self) -> tuple[float, ...]:
        """phi_U + phi_L's sigma1 minima, from its band bins: b + mirror(b) for phi_U's b."""
        band = self.sigma1[1][_source_band(self.geometry, self.grid)[0]]
        # the mask is mirror-symmetric, so the band's mirror is its bins' mirror
        band += _mirror(band)
        return tuple(float(p) for p in _refine_minima(self.geometry, self.grid, band))

    @functools.cached_property
    def incident(self) -> tuple[np.ndarray, np.ndarray]:
        """phi_U's and phi_U + phi_L's sigma1 profiles, read-only."""
        samples = self.sigma1[0].amplitudes
        both = _intensity(_superposed(samples, np.empty_like(samples)))
        return _owned(_intensity(samples)), _owned(both)

    def upper_pass(self, state: GridState) -> _Pass:
        """phi_U's pass in grid ``state``, built on first use."""
        if state not in self._passes:
            self._passes[state] = self._build_pass(state)
        return self._passes[state]

    def _build_pass(self, state: GridState) -> _Pass:
        """phi_U from sigma1 through the wire grid (``state`` in only), the lens and sigma2.

        The stages are rows ``(name, spatial, kernel)``, run by one loop (see
        the module notes); the pass stops once phi_U and phi_U + phi_L have
        both failed a guard.
        """
        geometry, grid = self.geometry, self.grid
        phi_u, sigma1_spectrum, sigma1_failures = self.sigma1
        failures = dict(sigma1_failures)
        summed = np.empty_like(sigma1_spectrum)
        # the kernels are looked up here, when the pass is built, not at import
        lens = functools.partial(_lens_into, grid, geometry.wavelength, geometry.focal_length)
        to_lens, to_sigma2 = (
            functools.partial(_transfer_into, grid, phi_u.wavenumber, distance)
            for distance in (geometry.z_grid_to_lens, geometry.z_lens_to_detectors)
        )
        rows = [("lens", False, to_lens), ("lens_phase", True, lens), ("sigma2", False, to_sigma2)]
        wires = after_grid = None
        if state is GridState.IN:
            wires = build_wire_grid(geometry, np.asarray(self.minima), grid)
            masked = functools.partial(_masked_into, transmission=wires.transmission)
            rows.insert(0, ("wire_grid", True, masked))
        else:
            after_grid = self.incident[0]
        samples, spectrum = np.empty_like(phi_u.amplitudes), np.empty_like(sigma1_spectrum)
        for i, (name, spatial, kernel) in enumerate(rows):
            # the first row reads the held phi_U or H*S, every later one its own buffer
            if spatial:
                np.fft.fft(kernel(samples if i else phi_u.amplitudes, out=samples), out=spectrum)
            else:
                np.fft.ifft(kernel(spectrum if i else sigma1_spectrum, out=spectrum), out=samples)
            if not _guard_slits(spectrum, name, failures, summed):
                return _Pass(wires, failures)
            if name == "wire_grid":
                after_grid = _owned(_intensity(samples))
        # the spectra are spent: their buffers go before the sigma2 profile is made
        del spectrum, summed
        return _Pass(wires, failures, after_grid, _owned(samples), _owned(_intensity(samples)))

    def record(self, scenario: Scenario) -> SimulationRecord:
        """The record of ``scenario``, built on first use."""
        record = self._records.get(scenario)
        if record is None:
            record = self._records[scenario] = self._build_record(scenario)
        return record

    def _build_record(self, scenario: Scenario) -> SimulationRecord:
        """``scenario``'s powers and profiles from phi_U, its pass and the sigma1 profiles.

        Raises the first guard failure of the scenario's field (phi_U's for a
        single slit).  An upper record takes the bench's profiles, a lower one
        is the upper one mirrored and a both-slit one squares phi_U + phi_L.
        """
        grid, slits = self.grid, scenario.slits
        if slits is Slits.LOWER_ONLY:
            held = self.record(Scenario(Slits.UPPER_ONLY, scenario.grid))
            return replace(
                held,
                scenario=scenario,
                power_window_U=held.power_window_L,
                power_window_L=held.power_window_U,
                intensity_sigma1=_owned(_mirror(held.intensity_sigma1)),
                intensity_sigma2=_owned(_mirror(held.intensity_sigma2)),
            )
        # a refused key holds no windows, and deriving them again raises its message
        window_u, window_l = self.windows or _detector_windows(self.geometry, grid)
        phi_u = self.phi_u(slits)
        minima = self.minima if slits is Slits.BOTH else ()
        upper = self.upper_pass(scenario.grid)
        if slits in upper.failures:
            raise BandLimitError(*upper.failures[slits])
        incident_u, incident_both = self.incident

        if slits is Slits.BOTH:
            incident = after_grid = incident_both
            # one buffer takes phi_U + phi_L at sigma1 (grid in), then at sigma2
            summed = np.empty_like(upper.sigma2)
            if upper.wires is not None:
                _superposed(phi_u.amplitudes, summed)
                _masked_into(summed, upper.wires.transmission, out=summed)
                after_grid = _owned(_intensity(summed))
            detected = _owned(_intensity(_superposed(upper.sigma2, summed)))
        else:
            incident, after_grid, detected = incident_u, upper.after_grid, upper.detected

        def power(profile: np.ndarray) -> float:
            return float(np.sum(profile) * grid.spacing)

        power_u = power(_in_window(detected, window_u))
        power_l = power_u if slits is Slits.BOTH else power(_in_window(detected, window_l))
        return SimulationRecord(
            scenario=scenario,
            power_incident=power(incident),
            power_after_grid=power(after_grid),
            power_at_detectors=power(detected),
            power_window_U=power_u,
            power_window_L=power_l,
            intensity_sigma1=after_grid,
            intensity_sigma2=detected,
            minima_positions=minima,
        )


# the last bench is kept: a sweep of its six scenarios in any order builds
# each stage and record once, and another key releases the whole of the last one
_bench = functools.lru_cache(maxsize=1)(_Bench)


def _detector_windows(geometry: AfsharGeometry, grid: Grid) -> tuple[tuple[int, int], ...]:
    """The sample slices of the two :func:`image_windows`, each checked on ``grid``."""
    label = f"at magnification {geometry.magnification:.4g}"
    return tuple(
        _window_bounds(grid, window, f"detector window {name} {label}")
        for name, window in zip("UL", image_windows(geometry))
    )


def run_scenario(geometry: AfsharGeometry, scenario: Scenario, grid: Grid) -> SimulationRecord:
    """Propagate one scenario through the bench and record power accounting.

    Pipeline: phi_U, phi_L or their sum at sigma1 -> (wire grid if in) ->
    propagate to lens -> thin lens -> propagate to sigma2, guarded after
    every stage; ``power_incident`` is measured at sigma1 before the grid,
    ``intensity_sigma1`` after it.  The window powers are the sigma2 power
    over the two :func:`image_windows`, and a lower record's are the upper
    record's swapped.  A window beyond the grid, or a grid not centered on
    the axis, raises ValueError before any field is built, on every call.
    The record is the bench's, built on first call (see the module notes).
    """
    return _bench(geometry, grid).record(scenario)
