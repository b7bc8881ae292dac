"""Scalar monochromatic wave fields on uniform 1-D transverse grids.

A field is a sampled complex amplitude at a fixed plane; the elementary
transforms are free-space propagation (exact angular-spectrum transfer
function, evanescent components discarded), passive amplitude masks, and
the thin-lens quadratic phase.  Power is accounted as a Riemann sum
``sum(|u|^2) * spacing``, over the whole grid or over the samples strictly
inside an open coordinate window, so all power statements in this package
are ratios of that quantity.

All operations are pure: they return new values and never mutate their
inputs.  Buffers are read-only and owned by the value that holds them:
:class:`ComplexField` and :class:`Mask` keep an array that is read-only
and owns its memory as it is, and copy anything else (a caller's writeable
array, or a view, whose base may still be written).  So a producer that
has just made an array hands it over with :func:`_owned` and no copy is
taken, while an array from outside is copied once.

Kernels, the factors that depend on the geometry alone, are built once and
cached, as an FFT library caches its plans: the transfer function of
:func:`propagate`, keyed by (grid, wavenumber, distance) and holding the
last three (one bench propagates over three distances), and the factor of
:func:`thin_lens`, keyed by (grid, wavelength, focal length) and holding the
last one.  The keys are immutable values (a frozen :class:`Grid` and
floats), a cached kernel is read-only, and building one reads nothing but
its key, so a hit returns the very bits a miss would build and no caller
can tell them apart.  ``propagate`` forms ``H*S`` with the transfer
function as the first operand (a complex product can round differently
with its operands swapped) and applies the n/2 + 1 stored bins to the
upper bins as a reversed view, so no full-length kernel is built.

An element-wise step writes into the array its result will own
(:func:`intensity` squares its ``abs`` in place), so it makes no temporary
the size of a field: a freed array of that size goes back to the kernel
and its pages fault in again when the next one is made.  The energies of
:func:`nyquist_tail_fraction` enter no record, so each is one ``np.dot`` of
a spectrum's float view with itself.

Each element-wise operation is one private kernel that writes into an
``out`` buffer it is given: ``_transfer_into`` (H*S, which may overwrite
S), ``_masked_into`` and ``_lens_into`` (which may overwrite the samples).
:func:`propagate` writes H*S over the FFT it takes, and :func:`apply_mask`
and :func:`thin_lens` allocate the buffer they hand to the field they
return.  An in-place product with the operands in the same order, and a
transform written through ``out=`` (numpy >= 2.0), give the bits of the
allocating call.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "ComplexField",
    "Mask",
    "FieldFlagWarning",
    "make_plane_wave",
    "propagate",
    "apply_mask",
    "thin_lens",
    "intensity",
    "check_window",
    "total_power",
    "nyquist_tail_fraction",
]


class FieldFlagWarning(UserWarning):
    """Degenerate-but-legal input (empty power window, all-zero pattern)."""


def _owned(a: np.ndarray) -> np.ndarray:
    """Mark a freshly made array read-only, handing it over without a copy."""
    a.flags.writeable = False
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is read-only and owns its memory, else a read-only copy."""
    if not a.flags.writeable and a.flags.owndata:
        return a
    return _owned(np.array(a, copy=True))


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D sample grid.

    Sample coordinates are ``center + (i - n_samples/2) * spacing`` for
    ``i in [0, n_samples)``.  ``n_samples`` must be a power of two so the
    spectral transforms stay radix-2.
    """

    n_samples: int
    spacing: float
    center: float = 0.0

    def __post_init__(self) -> None:
        n = self.n_samples
        if n <= 0 or (n & (n - 1)) != 0:
            raise ValueError(f"n_samples must be a positive power of two, got {n}")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be positive and finite, got {self.spacing}")
        if not np.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")

    @property
    def coordinates(self) -> np.ndarray:
        return self.coordinate(np.arange(self.n_samples))

    def coordinate(self, i: int | np.ndarray) -> float | np.ndarray:
        """Coordinate of sample ``i`` (an index or an array of indices)."""
        return self.center + (i - self.n_samples // 2) * self.spacing

    @property
    def extent(self) -> float:
        return self.n_samples * self.spacing

    @property
    def nyquist(self) -> float:
        """Largest representable spatial angular frequency, pi/spacing."""
        return np.pi / self.spacing

    def wavenumbers(self) -> np.ndarray:
        """Spatial angular frequencies in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_samples, d=self.spacing)


@dataclass(frozen=True)
class ComplexField:
    """Complex scalar amplitude sampled on a grid at one plane.

    The samples are read-only.  A complex128 array that is read-only and
    owns its memory is kept as it is, so producers hand over the arrays
    they have just made; anything else (a writeable array, a view, another
    dtype) is copied, so later writes by the caller cannot reach the field.
    """

    grid: Grid
    amplitudes: np.ndarray
    wavelength: float

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.grid.n_samples,):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match grid ({self.grid.n_samples},)"
            )
        if not (np.isfinite(self.wavelength) and self.wavelength > 0):
            raise ValueError(f"wavelength must be positive and finite, got {self.wavelength}")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    # the generated == would compare the arrays element-wise and raise
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexField):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.wavelength == other.wavelength
            and np.array_equal(self.amplitudes, other.amplitudes)
        )

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


@dataclass(frozen=True)
class Mask:
    """Passive transmission element: per-sample complex factor with |t| <= 1."""

    grid: Grid
    transmission: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.transmission, dtype=np.complex128)
        if t.shape != (self.grid.n_samples,):
            raise ValueError(
                f"transmission shape {t.shape} does not match grid ({self.grid.n_samples},)"
            )
        peak = np.max(np.abs(t)) if t.size else 0.0
        # fails closed: a NaN peak passes no bound
        if not peak <= 1.0 + 1e-12:
            raise ValueError(f"mask is not passive: max |t| = {peak}")
        object.__setattr__(self, "transmission", _frozen(t))


def make_plane_wave(grid: Grid, wavelength: float, tilt_angle: float = 0.0) -> ComplexField:
    """Unit-amplitude plane wave, optionally tilted in the grid plane.

    The transverse wavenumber ``k*sin(tilt_angle)`` must stay below the
    grid Nyquist limit or the sampled phase would alias.
    """
    k = 2.0 * np.pi / wavelength
    kt = k * np.sin(tilt_angle)
    # fails closed: a NaN tilt passes no bound
    if not abs(kt) < grid.nyquist:
        raise ValueError(
            f"tilt angle {tilt_angle} puts the transverse wavenumber {abs(kt):.4g} "
            f"at or beyond the Nyquist limit {grid.nyquist:.4g}"
        )
    return ComplexField(grid, _owned(np.exp(1j * kt * grid.coordinates)), wavelength)


def _wavenumbers(grid: Grid, count: int) -> np.ndarray:
    """kx of bins 0..count-1 by ``np.fft.fftfreq``'s formula, so :meth:`Grid.wavenumbers`'s bits.

    Bin n/2 comes out as +n/2 where :meth:`Grid.wavenumbers` has -n/2.
    """
    return 2.0 * np.pi * (np.arange(count) * (1.0 / (grid.n_samples * grid.spacing)))


# one bench propagates over three distances
@functools.lru_cache(maxsize=3)
def _transfer(grid: Grid, k: float, distance: float) -> np.ndarray:
    """Angular-spectrum transfer function ``exp(i*distance*kz)`` on bins 0..n/2.

    Zero on evanescent bins (``kx^2 > k^2``).  It is even in kx, so bins
    n/2+1..n-1 are bins n/2-1..1 mirrored, and only the n/2 + 1 bins 0..n/2
    are built and returned, read-only; the phase factor is filled from
    ``cos``/``sin``, which gives the same bits as the complex ``exp`` of a
    purely imaginary argument.  The n/2 + 1 values of kx come from
    :func:`_wavenumbers`; only kx^2 is used.  Cached: see the module notes.
    """
    kx = _wavenumbers(grid, grid.n_samples // 2 + 1)
    kz = np.sqrt(np.maximum(k * k - kx * kx, 0.0))
    phase = distance * kz
    half = np.empty(kx.shape, dtype=np.complex128)
    half.real = np.cos(phase)
    half.imag = np.sin(phase)
    half[kx * kx > k * k] = 0.0
    return _owned(half)


def _require_finite(samples: np.ndarray) -> None:
    """Refuse samples holding NaN or infinity, which no spectrum can carry."""
    if not np.isfinite(samples).all():
        raise ValueError("field contains NaN or infinite amplitudes")


def _transfer_into(
    grid: Grid, wavenumber: float, distance: float, source: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write H*S, the spectrum ``source`` propagated by ``distance``, into ``out``.

    The transfer function is the first operand, bin by bin, on the n/2 + 1
    built bins and on their mirror image; ``out`` may be ``source`` itself,
    since each bin reads only its own.
    """
    n = grid.n_samples
    # -0.0 + 0.0 is 0.0: the two zero distances are one cache key, so they
    # must give one transfer function
    half = _transfer(grid, wavenumber, distance + 0.0)
    np.multiply(half, source[: n // 2 + 1], out=out[: n // 2 + 1])
    np.multiply(half[n // 2 - 1 : 0 : -1], source[n // 2 + 1 :], out=out[n // 2 + 1 :])
    return out


def propagate(field: ComplexField, distance: float) -> ComplexField:
    """Free-space transport by ``distance`` (negative values back-propagate).

    Exact angular-spectrum solution: each spectral component picks up
    ``exp(i * distance * sqrt(k^2 - kx^2))``; evanescent components
    (``kx^2 > k^2``) are removed.  Power in propagating components is
    conserved.  One FFT, H*S written over it, and one inverse FFT.
    """
    if not math.isfinite(distance):
        raise ValueError(f"distance must be finite, got {distance}")
    _require_finite(field.amplitudes)
    spectrum = np.fft.fft(field.amplitudes)
    _transfer_into(field.grid, field.wavenumber, distance, spectrum, out=spectrum)
    return ComplexField(field.grid, _owned(np.fft.ifft(spectrum)), field.wavelength)


def _masked_into(samples: np.ndarray, transmission: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the masked samples ``samples * transmission`` into ``out``."""
    return np.multiply(samples, transmission, out=out)


def apply_mask(field: ComplexField, mask: Mask) -> ComplexField:
    """Multiply the field by a passive transmission mask on the same grid."""
    if mask.grid != field.grid:
        raise ValueError("mask grid does not match field grid")
    out = np.empty(field.grid.n_samples, dtype=np.complex128)
    masked = _masked_into(field.amplitudes, mask.transmission, out)
    return ComplexField(field.grid, _owned(masked), field.wavelength)


@functools.lru_cache(maxsize=1)
def _lens_factor(grid: Grid, wavelength: float, focal_length: float) -> np.ndarray:
    """The thin-lens factor ``exp(-i*pi*x^2/(lambda*f))`` on the grid, read-only.

    Filled from ``cos``/``sin``, the same bits as the complex ``exp`` of the
    purely imaginary phase.  Cached: see the module notes.
    """
    x = grid.coordinates
    phase = -np.pi * x * x / (wavelength * focal_length)
    factor = np.empty(x.shape, dtype=np.complex128)
    factor.real = np.cos(phase)
    factor.imag = np.sin(phase)
    return _owned(factor)


def _lens_into(
    grid: Grid, wavelength: float, focal_length: float, samples: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write ``samples`` times the thin-lens factor into ``out``, which may be ``samples``."""
    return np.multiply(samples, _lens_factor(grid, wavelength, focal_length), out=out)


def thin_lens(field: ComplexField, focal_length: float) -> ComplexField:
    """Ideal thin lens: quadratic phase ``exp(-i*pi*x^2/(lambda*f))``.

    Pure phase element, so power is unchanged.
    """
    if not (math.isfinite(focal_length) and focal_length != 0):
        raise ValueError(f"focal length must be finite and nonzero, got {focal_length}")
    out = np.empty(field.grid.n_samples, dtype=np.complex128)
    lensed = _lens_into(field.grid, field.wavelength, focal_length, field.amplitudes, out)
    return ComplexField(field.grid, _owned(lensed), field.wavelength)


def _intensity(samples: np.ndarray) -> np.ndarray:
    """Per-sample |u|^2 of ``samples``, squared in place in the array it returns."""
    profile = np.abs(samples)
    return np.square(profile, out=profile)


def intensity(field: ComplexField) -> np.ndarray:
    """Per-sample intensity |u|^2, squared in place in the array it returns."""
    return _intensity(field.amplitudes)


def check_window(grid: Grid, window: tuple[float, float], name: str = "window") -> None:
    """Reject a window with a non-finite edge, a reversed one, or one beyond the grid.

    The grid extends half a spacing past its first and last samples;
    ``name`` leads the ``ValueError`` message.
    """
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} ({lo}, {hi}) has a non-finite edge")
    if lo > hi:
        raise ValueError(f"{name} ({lo}, {hi}) is reversed")
    dx = grid.spacing
    first, last = grid.coordinate(0), grid.coordinate(grid.n_samples - 1)
    if lo < first - dx / 2 or hi > last + dx / 2:
        raise ValueError(f"{name} ({lo}, {hi}) extends beyond the grid")


def _first_index(grid: Grid, above: float, strict: bool) -> int:
    """The smallest i in [0, n] with ``coordinate(i) > above`` (``>=`` if not ``strict``).

    ``np.searchsorted(grid.coordinates, above, side)`` with side "right"
    (``strict``) or "left", without building the coordinates.  The index
    is estimated by arithmetic, then stepped to the first sample whose
    coordinate, the bits :meth:`Grid.coordinate` gives, passes the edge;
    the coordinates never decrease with i, so that is searchsorted's index.
    """
    n = grid.n_samples

    def inside(i: int) -> bool:
        x = grid.coordinate(i)
        return x > above if strict else x >= above

    estimate = (above - grid.center) / grid.spacing + n // 2
    i = math.ceil(min(max(estimate, 0.0), n))
    while i > 0 and inside(i - 1):
        i -= 1
    while i < n and not inside(i):
        i += 1
    return i


def _window_bounds(
    grid: Grid, window: tuple[float, float], name: str = "window"
) -> tuple[int, int]:
    """The slice ``first:stop`` of the samples strictly inside the open interval ``window``.

    ``window`` must pass :func:`check_window` (``name`` leads its message),
    and its indices come from :func:`_first_index`, so a sample exactly on
    an edge is in neither of two windows that share it.
    """
    check_window(grid, window, name)
    return _first_index(grid, window[0], True), _first_index(grid, window[1], False)


def _in_window(values: np.ndarray, bounds: tuple[int, int]) -> np.ndarray:
    """``values[first:stop]`` for the :func:`_window_bounds` ``bounds``.

    A window holding no sample is legal: the slice is empty, and a
    :class:`FieldFlagWarning` says so.
    """
    first, stop = bounds
    if first >= stop:
        warnings.warn("power window contains no samples", FieldFlagWarning)
    return values[first:stop]


def total_power(
    field: ComplexField, window: tuple[float, float] | None = None
) -> float:
    """Riemann-sum power, optionally restricted to a coordinate window.

    ``window`` is an open interval (lo, hi), whose samples are those of
    :func:`_window_bounds`.  Only the samples inside the window are
    squared.  A window containing no sample is legal and yields 0.0 with a
    :class:`FieldFlagWarning`.
    """
    values = field.amplitudes
    if window is not None:
        values = _in_window(values, _window_bounds(field.grid, window))
    return float(np.sum(_intensity(values)) * field.grid.spacing)


def _interpolate(
    spectrum: np.ndarray, kx: np.ndarray, x0: float, x: float, n: int
) -> tuple[complex, complex, complex]:
    """Trigonometric interpolant of a sampled field and its first two derivatives.

    ``spectrum`` holds bins of the FFT of ``n`` samples starting at ``x0``,
    and ``kx`` their angular frequencies: all ``n`` bins, or only those
    where the spectrum can be non-zero, since the interpolant
    ``u(x) = sum(spectrum * exp(i*kx*(x - x0))) / n`` gets nothing from a
    zero bin.  ``u'`` and ``u''`` weight the same terms by ``i*kx`` and
    ``-kx**2``.  One point at a time keeps the working set at O(len(kx)).
    The rotation is named: numpy may evaluate a product with a large
    temporary operand in place in that temporary, which swaps the operands
    of the complex multiply and can change its last bit.
    """
    rotation = np.exp(1j * (x - x0) * kx)
    terms = spectrum * rotation
    u = terms.sum() / n
    du = 1j * (terms @ kx) / n
    d2u = -(terms @ (kx * kx)) / n
    return complex(u), complex(du), complex(d2u)


def _energy(bins: np.ndarray) -> float:
    """``sum(|bins|^2)``: the dot product of the float64 view of ``bins`` with itself.

    It feeds the guard's tail fraction only, which enters no record, so it
    need not have ``np.sum``'s bits; one ``np.dot`` makes no temporary of
    the squares.
    """
    floats = bins.view(np.float64)
    return float(np.dot(floats, floats))


def _tail_fraction(spectrum: np.ndarray) -> float:
    """:func:`nyquist_tail_fraction` of a field whose spectrum is ``spectrum``."""
    total = _energy(spectrum)
    if not math.isfinite(total):
        return math.nan
    if total == 0.0:
        return 0.0
    n = spectrum.size
    first = -(-19 * n // 40)
    return float(_energy(spectrum[first : n - first + 1]) / total)


def nyquist_tail_fraction(field: ComplexField) -> float:
    """Fraction of spectral energy in the outer 5% of the Nyquist band.

    This is the aliasing diagnostic: spectral propagation is only trustworthy
    when essentially no energy sits against the sampling limit.  One FFT of
    the samples.

    The outer band, ``|kx| >= 0.95 * nyquist``, is the bins i with
    ``min(i, n - i) >= 19n/40``: in FFT order the one contiguous run
    ``ceil(19n/40) .. n - ceil(19n/40)``, so no wavenumber array or mask is
    built.  A spectrum whose energy is not finite gives ``nan``, whichever
    band holds the non-finite bins.
    """
    return _tail_fraction(np.fft.fft(field.amplitudes))
