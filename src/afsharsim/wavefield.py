"""Scalar monochromatic wave fields on uniform 1-D transverse grids.

A field is a sampled complex amplitude at a fixed plane; the elementary
transforms are free-space propagation (exact angular-spectrum transfer
function, evanescent components discarded), passive amplitude masks, and
the thin-lens quadratic phase.  Power is accounted as a Riemann sum
``sum(|u|^2) * spacing``, over the whole grid or over the samples strictly
inside an open coordinate window, so all power statements in this package
are ratios of that quantity.

A field may hold its spectrum, the FFT of its samples, when the operation
that made it already computed that spectrum: :func:`propagate` forms
``H*S`` and returns ``ifft(H*S)`` holding ``H*S``, which equals the FFT of
those samples to roundoff.  :func:`propagate` and
:func:`nyquist_tail_fraction` read a held spectrum and take one FFT only
when there is none, so a pipeline transforms once per change of domain.
The spatial elements (:func:`apply_mask`, :func:`thin_lens`) and
:meth:`ComplexField.with_amplitudes` return fields without one, and
:meth:`ComplexField.with_spectrum` takes that one FFT for every later
reader.

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
upper bins as a reversed view, so no full-length kernel is built.  The
fields that are kernels are the bench's sigma1 source stage, a function
of (geometry, grid) alone, and the upper pass of each grid state, phi_U
taken from sigma1 to sigma2, a function of (geometry, grid, state), which
``apparatus`` caches by the same rule, together with each slit
configuration's guard failures; records are still never cached, so a
repeated scenario forms its sigma1 samples and its records anew but takes
no transform and no guard.

A stage allocates only the buffers its result owns.  A temporary the size
of a field is not made: an element-wise step writes into the array its
result will own (:func:`intensity` squares its ``abs`` in place).
:func:`total_power` forms its terms in blocks of at most ``_BLOCK``
elements in one reused scratch buffer; the blocks follow numpy's pairwise
summation tree, so a blocked sum has the bits of ``np.sum`` over the whole
array.  The energies of :func:`nyquist_tail_fraction` enter no record, so
each is one ``np.dot`` of a spectrum's float view with itself, which makes
no temporary at all.  A freed array of a field's size goes
back to the kernel and its pages fault in again when the next one is made,
so these temporaries cost page faults as well as copies.

Each element-wise operation is one private kernel that writes into an
``out`` buffer it is given: ``_transfer_into`` (H*S, which may overwrite
S), ``_masked_into`` and ``_lens_into`` (which may overwrite the samples).
:func:`propagate`, :func:`apply_mask` and :func:`thin_lens` allocate that
buffer and hand it to the field they return; ``apparatus._upper_pass``
passes its own two work buffers instead, and writes each ``np.fft``
result into one of them with ``out=`` (numpy >= 2.0), so past sigma1 a
pass makes two complex work arrays, where each stage made one or two.
An in-place product with the operands in the same order, and a transform
written through ``out=``, give the bits of the allocating call.
"""

from __future__ import annotations

import dataclasses
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

    ``spectrum``, if given, must be ``np.fft.fft(amplitudes)`` to roundoff:
    only a producer that has just computed it passes one (so
    ``dataclasses.replace`` with new amplitudes must also pass
    ``spectrum=None``).  ``==`` compares the samples, not the held spectrum.

    Both buffers are read-only.  A complex128 array that is read-only and
    owns its memory is kept as it is, so producers hand over the arrays
    they have just made; anything else (a writeable array, a view, another
    dtype) is copied, so later writes by the caller cannot reach the field.
    """

    grid: Grid
    amplitudes: np.ndarray
    wavelength: float
    spectrum: np.ndarray | None = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.grid.n_samples,):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match grid ({self.grid.n_samples},)"
            )
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        object.__setattr__(self, "amplitudes", _frozen(amps))
        if self.spectrum is not None:
            spectrum = np.asarray(self.spectrum, dtype=np.complex128)
            if spectrum.shape != amps.shape:
                raise ValueError(
                    f"spectrum shape {spectrum.shape} does not match grid ({self.grid.n_samples},)"
                )
            object.__setattr__(self, "spectrum", _frozen(spectrum))

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

    def with_amplitudes(self, amplitudes: np.ndarray) -> "ComplexField":
        """The same grid and wavelength with new samples, holding no spectrum."""
        return ComplexField(self.grid, amplitudes, self.wavelength)

    def with_spectrum(self) -> "ComplexField":
        """This field holding its spectrum: itself if it holds one, else one FFT."""
        if self.spectrum is not None:
            return self
        return ComplexField(
            self.grid, self.amplitudes, self.wavelength, _owned(np.fft.fft(self.amplitudes))
        )


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
        if peak > 1.0 + 1e-12:
            raise ValueError(f"mask is not passive: max |t| = {peak}")
        object.__setattr__(self, "transmission", _frozen(t))


def make_plane_wave(grid: Grid, wavelength: float, tilt_angle: float = 0.0) -> ComplexField:
    """Unit-amplitude plane wave, optionally tilted in the grid plane.

    The transverse wavenumber ``k*sin(tilt_angle)`` must stay below the
    grid Nyquist limit or the sampled phase would alias.
    """
    k = 2.0 * np.pi / wavelength
    kt = k * np.sin(tilt_angle)
    if abs(kt) >= grid.nyquist:
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
    conserved.  Reads the field's held spectrum if it has one, and returns
    the propagated field holding its own.
    """
    _require_finite(field.amplitudes)
    spectrum = np.empty(field.grid.n_samples, dtype=np.complex128)
    _transfer_into(field.grid, field.wavenumber, distance, _spectrum(field), out=spectrum)
    spectrum = _owned(spectrum)
    return ComplexField(field.grid, _owned(np.fft.ifft(spectrum)), field.wavelength, spectrum)


def _masked_into(samples: np.ndarray, transmission: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the masked samples ``samples * transmission`` into ``out``."""
    return np.multiply(samples, transmission, out=out)


def apply_mask(field: ComplexField, mask: Mask) -> ComplexField:
    """Multiply the field by a passive transmission mask on the same grid."""
    if mask.grid != field.grid:
        raise ValueError("mask grid does not match field grid")
    out = np.empty(field.grid.n_samples, dtype=np.complex128)
    return field.with_amplitudes(_owned(_masked_into(field.amplitudes, mask.transmission, out)))


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
    if focal_length == 0:
        raise ValueError("focal length must be nonzero")
    out = np.empty(field.grid.n_samples, dtype=np.complex128)
    lensed = _lens_into(field.grid, field.wavelength, focal_length, field.amplitudes, out)
    return field.with_amplitudes(_owned(lensed))


def _intensity(samples: np.ndarray) -> np.ndarray:
    """Per-sample |u|^2 of ``samples``, squared in place in the array it returns."""
    profile = np.abs(samples)
    return np.square(profile, out=profile)


def intensity(field: ComplexField) -> np.ndarray:
    """Per-sample intensity |u|^2, squared in place in the array it returns."""
    return _intensity(field.amplitudes)


def check_window(grid: Grid, window: tuple[float, float], name: str = "window") -> None:
    """Reject a reversed window or one that extends beyond the grid.

    The grid extends half a spacing past its first and last samples;
    ``name`` leads the ``ValueError`` message.
    """
    lo, hi = window
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
    A NaN edge gives n, as it sorts after every sample.
    """
    n = grid.n_samples

    def inside(i: int) -> bool:
        x = grid.coordinate(i)
        return x > above if strict else x >= above

    estimate = (above - grid.center) / grid.spacing + n // 2
    i = n if math.isnan(estimate) else math.ceil(min(max(estimate, 0.0), n))
    while i > 0 and inside(i - 1):
        i -= 1
    while i < n and not inside(i):
        i += 1
    return i


def total_power(
    field: ComplexField, window: tuple[float, float] | None = None
) -> float:
    """Riemann-sum power, optionally restricted to a coordinate window.

    ``window`` is an open interval (lo, hi) that must pass
    :func:`check_window`: a sample exactly on an edge counts in neither of
    two windows that share it.  Only the samples inside the window are
    squared, in blocks (see the module notes), and their indices come from
    :func:`_first_index`.  A window containing no sample is legal and
    yields 0.0 with a :class:`FieldFlagWarning`.
    """
    grid = field.grid
    first, stop = 0, grid.n_samples
    if window is not None:
        check_window(grid, window)
        first, stop = _first_index(grid, window[0], True), _first_index(grid, window[1], False)
        if first >= stop:
            warnings.warn("power window contains no samples", FieldFlagWarning)
            return 0.0
    return float(_blocked_sum(field.amplitudes[first:stop]) * grid.spacing)


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


def _spectrum(field: ComplexField) -> np.ndarray:
    """The field's held spectrum, or its FFT if it holds none."""
    return field.spectrum if field.spectrum is not None else np.fft.fft(field.amplitudes)


# elements per block of a blocked sum: 32 KiB of float64 terms, well below
# glibc's 128 KiB mmap threshold, so the scratch buffer comes from the heap
_BLOCK = 4096


def _blocked_sum(values: np.ndarray) -> np.floating:
    """``np.sum(intensity)`` of the samples ``values``, the squares formed ``_BLOCK`` at a time.

    Each block's |u|^2 is formed as :func:`intensity` forms it, ``abs`` and
    then its square, in one scratch buffer reused by every block.  The
    blocks are the leaves of numpy's pairwise summation of a contiguous
    array (split in halves rounded down to a multiple of 8 while longer
    than ``_BLOCK``), and the leaf sums are added back up the same tree, so
    the result has the bits of the whole-array sum.
    """
    return _pairwise(values, np.empty(min(values.size, _BLOCK)))


def _pairwise(values: np.ndarray, scratch: np.ndarray) -> np.floating:
    # a module-level recursion: a nested function that calls itself is a
    # reference cycle, which would keep ``values`` alive until a collection
    if values.size <= _BLOCK:
        squares = np.abs(values, out=scratch[: values.size])
        # add.reduce is np.sum's own reduction, without its dispatch
        return np.add.reduce(np.square(squares, out=squares))
    half = values.size // 2
    half -= half % 8
    return _pairwise(values[:half], scratch) + _pairwise(values[half:], scratch)


def _energy(bins: np.ndarray) -> float:
    """``sum(|bins|^2)``: the dot product of the float64 view of ``bins`` with itself.

    It feeds the guard's tail fraction only, which enters no record, so it
    need not have ``np.sum``'s bits; one ``np.dot`` makes no temporary and
    takes about a seventh of the time of a blocked sum of the squares.
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
    when essentially no energy sits against the sampling limit.  Reads the
    field's held spectrum if it has one.

    The outer band, ``|kx| >= 0.95 * nyquist``, is the bins i with
    ``min(i, n - i) >= 19n/40``: in FFT order the one contiguous run
    ``ceil(19n/40) .. n - ceil(19n/40)``, so no wavenumber array or mask is
    built.  A spectrum whose energy is not finite gives ``nan``, whichever
    band holds the non-finite bins.
    """
    return _tail_fraction(_spectrum(field))
