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
Each bar's tanh is evaluated only within ``_WIRE_EDGE_REACH`` edge scales
of the bar: beyond that tanh is exactly +-1 in double precision, so the bar
is exactly 0 and the windowed mask equals the full-grid product bit for bit.
The upper slit's transmission is the one source field (a unit plane wave
at normal incidence); the lower slit is its mirror image x -> -x (sample
i -> (n - i) mod n on the periodic grid), formed at sigma1 since
propagation preserves it, so both slits are exactly phi_U + phi_L there.
The scale max(|upper| + |mirror(upper)|) keeps the slit pair passive; the
sum at sample i is the sum at n - i, so the peak is scanned over samples
0..n/2 only.  The synthesis ``ifft``'s own buffer becomes the source's
samples, its real part scaled in place and its imaginary part zeroed.

Synthesis and minima refinement work only on the source band, the bins
with |kx| < k_cut: in FFT order two runs, 0..m-1 and n-m+1..n-1, whose kx
are built directly.  The slit spectrum is evaluated there and written into
a zero spectrum, and the interpolant that refines the minima sums only
those bins, each evaluation taking the rotation exp(i*kx*(x - x0)) as one
complex ``exp`` over the band (``wavefield._interpolate``).  The
restriction to the band is exact to roundoff, because the source spectrum
is zero beyond k_cut by construction and propagation multiplies each bin
by a phase, so the sigma1 field's bins beyond k_cut hold only FFT roundoff
(1e-31 to 2e-31 of its energy).  The wire grid breaks the band limit, so
the propagations past sigma1 take every bin.  The minima are refined from
the both-slit band bins, ``b + mirror(b)`` for phi_U's band bins b
(phi_L's bin i is phi_U's bin n - i, and the mirror map swaps the two
runs), the bits phi_U + phi_L holds there.

Past sigma1 every element is linear and even under the mirror: the wire
grid (its minima are mirrored and each bar's tanh is odd), the transfer
functions (even in kx, the upper bins a reversed view of the lower) and
the lens factor (even in x on a grid centered on the axis) each equal
their mirror image bit for bit.  So phi_L at every later plane is phi_U
mirrored and phi_U + phi_L is the sum of the two, and only phi_U is taken
downstream, once per grid state.  Upper records and every sigma1 quantity
have the bits of the public operations chained on fresh fields; lower and
both sigma2 values differ from phi_L and phi_U + phi_L propagated directly
by FFT roundoff (at most 8.9e-16 of the profile's peak, 3.1e-15 of a
power, on 2^14 and 2^16 samples).  A grid not centered on the axis has no
such symmetry (there i -> n - i reflects about the grid's center), so the
bench refuses it.

Caching follows one rule: an array that two scenarios read is formed once
per bench, and an array that one scenario reads is formed per call.  One
bench is one (geometry, grid), a ``_Bench``, and the last one is kept.  It
is built with phi_U, its spectrum H*S and the sigma1 guard's failures
(``sigma1``), which every caller starts from, and its other stages on
first use, each by a caller that needs it: the refined minima, by a
scenario whose wire grid or record needs them, so a single slit with the
grid out still runs where they cannot be resolved; the sigma1 profiles
|phi_U|^2 and |phi_U + phi_L|^2 (``incident``), by a scenario run, so
``sigma1_fields`` and ``fringe_minima`` pay nothing for them; and phi_U's
pass for each grid state (``upper_pass``), which keeps its sigma2 samples
and their profile, its sigma1 profile behind the wire grid (with the grid
out the ``incident`` array itself) and, with the grid in, the wire grid.
The key is frozen, the arrays are read-only, and a stage reads nothing but
the key and earlier stages, so a hit returns the very bits a miss builds;
a build that raises (the source guard, an unresolvable minimum) stores
nothing, so the next call raises again.  Another key releases the whole of
the last bench.  A bench keeps 7.5 MiB resident on 2^16 samples and
1.9 MiB on 2^14, of which the profiles are 2.5 MiB and 640 KiB.

Records are new values on every call that share only the bench's arrays:
an upper record takes its profiles, a lower one their mirror
(|mirror(u)|^2 is mirror(|u|^2) bit for bit), and a both-slit record
squares the only profiles of its own, those of phi_U + phi_L formed in one
buffer at sigma1 (grid in, masked in place) and at sigma2.  Window powers
are ``np.sum`` over a slice of the sigma2 profile, the bits of
``total_power`` on the sigma2 field.

Every stage of a scenario run is checked against the band-limit guard and
violations raise :class:`BandLimitError` naming the stage: ``source`` on
the one synthesized source, then ``sigma1``, ``wire_grid`` (grid in
only), ``lens``, ``lens_phase`` and ``sigma2``.  From sigma1 on one rule
guards every stage (``_guard_slits``): phi_U's spectrum, its mirror
(phi_L's, no FFT) and their sum (phi_U + phi_L's) are guarded once per
bench, and each slit configuration's first failing stage is recorded
instead of raised, at sigma1 in the bench's ``sigma1`` stage and later in
the upper pass, which starts from the sigma1 failures.  So a failure raises
for the scenarios of that configuration only, on every call, and a sigma1
failure raises before anything downstream is built: ``run_scenario``,
``sigma1_fields`` (phi_U's) and ``fringe_minima`` (phi_U + phi_L's) raise
it first.

Each stage guards the spectrum it already has, with no extra transform:
the source's band spectrum, each propagation's H*S and the ``fft`` after
the wire grid or the lens.  H*S is the FFT of its ``ifft`` to roundoff, so
every guard checks what a fresh FFT would give it.  The sigma1 stage keeps
phi_U's H*S beside its samples, formed in place in the source's band
spectrum: that spectrum is exact, so the sigma1 guards, the minima
refinement and the pass with the grid out read H*S, where a fresh FFT of
phi_U's samples would move the upper records' bits.

The upper pass works in two complex buffers, one of samples and one of
spectrum, through the kernels the public ``apply_mask``, ``propagate``
and ``thin_lens`` wrap, with their operand orders, so phi_U's sigma2
samples have the bits of those operations chained on fresh fields.  Its
first stage writes into new buffers (grid in: the masked samples and
their ``fft``; grid out: H*S of phi_U's spectrum and its ``ifft``), so the
cached phi_U is never written.  Each later product is formed in place and
each transform writes the other buffer.  No stage reads a buffer after it
has been overwritten: an in-place product reads each element before it
writes it, and a transform writes the buffer it does not read, whose
contents no later stage needs.  A third buffer takes each stage's
mirrored spectrum and then, added in place, the summed one.  The last
samples buffer becomes the pass's sigma2 samples, read-only.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, fields

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
    _wavenumbers,
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


def _source_band(geometry: AfsharGeometry, grid: Grid) -> np.ndarray:
    """kx of the source band, the bits of ``grid.wavenumbers()[|kx| < k_cut]``.

    Bins 0..m-1, built up to one bin past the cutoff, then bins n-m+1..n-1,
    which hold the kx of bins m-1..1 negated.
    """
    k_cut = _source_cutoffs(geometry, grid)[1]
    kx = _wavenumbers(grid, int(k_cut * grid.extent / (2.0 * np.pi)) + 2)
    positive = kx[: np.searchsorted(kx, k_cut)]
    return np.concatenate((positive, -positive[:0:-1]))


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


def _guard_slits(
    spectrum: np.ndarray,
    stage: str,
    failures: dict[Slits, tuple[str, str]],
    mirrored: np.ndarray,
) -> bool:
    """Guard phi_U's ``spectrum``, its mirror (phi_L's) and their sum at ``stage``.

    The mirror is written into ``mirrored`` and then the sum, added in
    place: phi_U + phi_L's bits, since addition is commutative.  A slit
    configuration's first failure is recorded in ``failures`` as its
    (stage, detail), not raised, and a configuration already there is not
    guarded again.  False once all three have failed.
    """
    _mirror(spectrum, out=mirrored)
    for slits in (Slits.UPPER_ONLY, Slits.LOWER_ONLY, Slits.BOTH):
        if slits is Slits.BOTH:
            # phi_L's spectrum becomes phi_U + phi_L's
            np.add(mirrored, spectrum, out=mirrored)
        if slits in failures:
            continue
        try:
            _guarded(spectrum if slits is Slits.UPPER_ONLY else mirrored, stage)
        except BandLimitError as exc:
            failures[slits] = (exc.stage, exc.detail)
    return len(failures) < len(Slits)


def _upper_slit(geometry: AfsharGeometry, grid: Grid) -> tuple[ComplexField, np.ndarray]:
    """The upper-slit source field and the band spectrum it is built from.

    The band spectrum is Hermitian, so it is the FFT of the real profile to
    roundoff.  It is handed over writeable, for the caller to propagate in
    place.
    """
    _check_sampling(geometry, grid)
    k_flat, k_cut = _source_cutoffs(geometry, grid)
    kx = _source_band(geometry, grid)
    a = geometry.slit_width
    spectrum = a * np.sinc(kx * a / (2.0 * np.pi)) * np.exp(-0.5j * kx * geometry.slit_separation)

    akx = np.abs(kx)
    roll = np.cos(0.5 * np.pi * (akx - k_flat) / (k_cut - k_flat)) ** 2
    spectrum *= np.where(akx <= k_flat, 1.0, roll)

    spectrum *= np.exp(1j * kx * grid.coordinate(0))
    n, m = grid.n_samples, (kx.size + 1) // 2
    full = np.zeros(n, dtype=complex)
    full[:m] = spectrum[:m]
    full[n - m + 1 :] = spectrum[m:]
    # the ifft's own buffer becomes the samples: its real part is scaled in
    # place and its imaginary part, roundoff of a Hermitian spectrum, zeroed
    samples = np.fft.ifft(full)
    upper = samples.real
    np.divide(upper, grid.spacing, out=upper)
    samples.imag = 0.0
    full /= grid.spacing
    # max(|u_i| + |u_(n-i)|) over samples 0..n/2: the sum is symmetric in i <-> n-i
    half = n // 2
    pair = np.abs(upper[: half + 1])
    pair[:1] += pair[:1]
    pair[1:] += np.abs(upper[n - 1 : n - half - 1 : -1])
    peak = np.max(pair)
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
    in the order of :func:`_source_band`, and the interpolant sums them, keeping
    the full-grid ``1/n`` scale: the field is a propagated slit source, so
    the bins beyond hold only FFT roundoff and dropping them changes ``u``,
    ``u'`` and ``u''`` by roundoff only (see the module notes).
    """
    fringe = geometry.fringe_spacing
    half_pairs = geometry.n_wires // 2
    if (half_pairs - 0.5 + _BRACKET_FRINGES) * fringe > grid.coordinate(grid.n_samples - 1):
        raise ValueError(f"fewer than {geometry.n_wires} resolvable minima within the grid")

    kx = _source_band(geometry, grid)
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

    ``wires`` is the wire grid (grid in only); ``failures`` maps each slit
    configuration that failed a guard to the (stage, detail) of its first
    failure.  The arrays are read-only, and None when every slit
    configuration failed a guard before sigma2: ``after_grid`` is phi_U's
    sigma1 profile behind the wire grid (with the grid out, the bench's
    ``incident`` profile itself), ``sigma2`` its sigma2 samples and
    ``detected`` their profile.
    """

    wires: Mask | None
    failures: dict[Slits, tuple[str, str]]
    after_grid: np.ndarray | None = None
    sigma2: np.ndarray | None = None
    detected: np.ndarray | None = None


class _Bench:
    """One bench, one (geometry, grid): the stages its scenarios share (see the module notes).

    A grid not centered on the axis is refused before anything is built.
    """

    def __init__(self, geometry: AfsharGeometry, grid: Grid):
        if grid.center != 0.0:
            raise ValueError(
                f"the bench is mirror-symmetric about the axis x = 0: the grid must be "
                f"centered on it, not at {grid.center} m"
            )
        self.geometry, self.grid = geometry, grid
        self._passes: dict[GridState, _Pass] = {}
        # every caller starts from sigma1, so it is built here, before the cache
        # releases the last bench: released first, the last bench's arrays left
        # heap holes that added 1 MB to the peak RSS of a sweep on 2^16 samples
        self.sigma1

    @functools.cached_property
    def sigma1(self) -> tuple[ComplexField, np.ndarray, dict[Slits, tuple[str, str]]]:
        """phi_U at sigma1, its spectrum H*S and the slit configurations that failed there.

        The source is guarded at ``source``, and at sigma1 :func:`_guard_slits`
        guards the three configurations.  The spectrum is read-only.
        """
        source, spectrum = _upper_slit(self.geometry, self.grid)
        _guarded(spectrum, "source")
        _require_finite(source.amplitudes)
        k = source.wavenumber
        # the source's samples are spent: they go before phi_U's are made
        del source
        _transfer_into(self.grid, k, self.geometry.z_slits_to_grid, spectrum, out=spectrum)
        phi_u = ComplexField(self.grid, _owned(np.fft.ifft(spectrum)), self.geometry.wavelength)
        failures: dict[Slits, tuple[str, str]] = {}
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
        """The refined minima of phi_U + phi_L at sigma1.

        They are refined from phi_U + phi_L's band bins, ``b + mirror(b)`` for
        phi_U's band bins b, in the order of :func:`_source_band`.
        """
        spectrum = self.sigma1[1]
        n, m = self.grid.n_samples, (_source_band(self.geometry, self.grid).size + 1) // 2
        band = np.concatenate((spectrum[:m], spectrum[n - m + 1 :]))
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

        Each stage is guarded by :func:`_guard_slits`; the pass stops once
        every slit configuration has failed a guard.
        """
        geometry, grid = self.geometry, self.grid
        phi_u, sigma1_spectrum, sigma1_failures = self.sigma1
        failures = dict(sigma1_failures)
        mirrored = np.empty_like(sigma1_spectrum)
        k = phi_u.wavenumber
        wires = None
        if state is GridState.IN:
            wires = build_wire_grid(geometry, np.asarray(self.minima), grid)
            samples = np.empty_like(phi_u.amplitudes)
            _masked_into(phi_u.amplitudes, wires.transmission, out=samples)
            spectrum = np.fft.fft(samples)
            if not _guard_slits(spectrum, "wire_grid", failures, mirrored):
                return _Pass(wires, failures)
            _require_finite(samples)
            after_grid = _owned(_intensity(samples))
            _transfer_into(grid, k, geometry.z_grid_to_lens, spectrum, out=spectrum)
        else:
            _require_finite(phi_u.amplitudes)
            after_grid = self.incident[0]
            spectrum = np.empty_like(sigma1_spectrum)
            _transfer_into(grid, k, geometry.z_grid_to_lens, sigma1_spectrum, out=spectrum)
            samples = np.empty_like(spectrum)
        np.fft.ifft(spectrum, out=samples)
        if not _guard_slits(spectrum, "lens", failures, mirrored):
            return _Pass(wires, failures)
        _lens_into(grid, geometry.wavelength, geometry.focal_length, samples, out=samples)
        np.fft.fft(samples, out=spectrum)
        if not _guard_slits(spectrum, "lens_phase", failures, mirrored):
            return _Pass(wires, failures)
        _require_finite(samples)
        _transfer_into(grid, k, geometry.z_lens_to_detectors, spectrum, out=spectrum)
        np.fft.ifft(spectrum, out=samples)
        _guard_slits(spectrum, "sigma2", failures, mirrored)
        # the spectra are spent: their buffers go before the sigma2 profile is made
        del spectrum, mirrored
        return _Pass(wires, failures, after_grid, _owned(samples), _owned(_intensity(samples)))


# the last bench is kept: a sweep of its six scenarios in any order builds
# each stage once, and another key releases the whole of the last one
_bench = functools.lru_cache(maxsize=1)(_Bench)


def run_scenario(geometry: AfsharGeometry, scenario: Scenario, grid: Grid) -> SimulationRecord:
    """Propagate one scenario through the bench and record power accounting.

    Pipeline: phi_U, phi_L or their sum at sigma1 -> (wire grid if in) ->
    propagate to lens -> thin lens -> propagate to sigma2.  The band-limit
    guard runs after every stage; ``power_incident`` is measured at sigma1
    before the grid, ``intensity_sigma1`` after it.  The window powers are
    the bits of ``total_power`` over the two :func:`image_windows`; a
    sample exactly on the shared boundary x = 0 counts in neither.
    Mirrored fields give mirrored window powers to roundoff, not bit for
    bit: each window is summed in index order, so upper's window U and
    lower's window L add the same squares in opposite orders.  A window
    beyond the grid, or a grid not centered on the axis x = 0, about which
    the bench is mirror-symmetric, raises ValueError before any field is
    built.  The profiles are phi_U's, their mirror or those of the summed
    samples, taken from the bench (see the module notes).
    """
    label = f"at magnification {geometry.magnification:.4g}"
    window_u, window_l = (
        _window_bounds(grid, window, f"detector window {name} {label}")
        for name, window in zip("UL", image_windows(geometry))
    )
    slits = scenario.slits
    bench = _bench(geometry, grid)
    phi_u = bench.phi_u(slits)
    minima = bench.minima if slits is Slits.BOTH else ()
    upper = bench.upper_pass(scenario.grid)
    if slits in upper.failures:
        raise BandLimitError(*upper.failures[slits])
    incident_u, incident_both = bench.incident

    if slits is Slits.BOTH:
        incident = after_grid = incident_both
        # one buffer takes phi_U + phi_L at sigma1 (grid in), then at sigma2
        summed = np.empty_like(upper.sigma2)
        if upper.wires is not None:
            _superposed(phi_u.amplitudes, summed)
            _masked_into(summed, upper.wires.transmission, out=summed)
            after_grid = _owned(_intensity(summed))
        detected = _owned(_intensity(_superposed(upper.sigma2, summed)))
    elif slits is Slits.LOWER_ONLY:
        # |mirror(u)|^2 is mirror(|u|^2) bit for bit
        incident = _owned(_mirror(incident_u))
        after_grid = incident if upper.wires is None else _owned(_mirror(upper.after_grid))
        detected = _owned(_mirror(upper.detected))
    else:
        incident, after_grid, detected = incident_u, upper.after_grid, upper.detected

    def power(profile: np.ndarray) -> float:
        return float(np.sum(profile) * grid.spacing)

    return SimulationRecord(
        scenario=scenario,
        power_incident=power(incident),
        power_after_grid=power(after_grid),
        power_at_detectors=power(detected),
        power_window_U=power(_in_window(detected, window_u)),
        power_window_L=power(_in_window(detected, window_l)),
        intensity_sigma1=after_grid,
        intensity_sigma2=detected,
        minima_positions=minima,
    )
