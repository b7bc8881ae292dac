"""Scalar monochromatic wave fields on uniform 1-D transverse grids.

A field is a sampled complex amplitude at a fixed plane; the elementary
transforms are free-space propagation (exact angular-spectrum transfer
function, evanescent components discarded), passive amplitude masks, and
the thin-lens quadratic phase.  Power is accounted as a Riemann sum
``sum(|u|^2) * spacing``, over the whole grid or over the samples strictly
inside an open coordinate window, so all power statements in this package
are ratios of that quantity.

All operations are pure: they return new values and never mutate their
inputs (amplitude buffers are frozen at construction).
"""

from __future__ import annotations

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


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


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
        i = np.arange(self.n_samples)
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
    """Complex scalar amplitude sampled on a grid at one plane."""

    grid: Grid
    amplitudes: np.ndarray
    wavelength: float

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.grid.n_samples,):
            raise ValueError(
                f"amplitudes shape {amps.shape} does not match grid ({self.grid.n_samples},)"
            )
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    def with_amplitudes(self, amplitudes: np.ndarray) -> "ComplexField":
        return ComplexField(self.grid, amplitudes, self.wavelength)


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
    return ComplexField(grid, np.exp(1j * kt * grid.coordinates), wavelength)


def propagate(field: ComplexField, distance: float) -> ComplexField:
    """Free-space transport by ``distance`` (negative values back-propagate).

    Exact angular-spectrum solution: each spectral component picks up
    ``exp(i * distance * sqrt(k^2 - kx^2))``; evanescent components
    (``kx^2 > k^2``) are removed.  Power in propagating components is
    conserved.
    """
    if np.isnan(field.amplitudes).any():
        raise ValueError("field contains NaN amplitudes")
    k = field.wavenumber
    kx = field.grid.wavenumbers()
    propagating = kx * kx <= k * k
    kz = np.sqrt(np.maximum(k * k - kx * kx, 0.0))
    transfer = np.where(propagating, np.exp(1j * distance * kz), 0.0)
    spectrum = np.fft.fft(field.amplitudes)
    return field.with_amplitudes(np.fft.ifft(spectrum * transfer))


def apply_mask(field: ComplexField, mask: Mask) -> ComplexField:
    """Multiply the field by a passive transmission mask on the same grid."""
    if mask.grid != field.grid:
        raise ValueError("mask grid does not match field grid")
    return field.with_amplitudes(field.amplitudes * mask.transmission)


def thin_lens(field: ComplexField, focal_length: float) -> ComplexField:
    """Ideal thin lens: quadratic phase ``exp(-i*pi*x^2/(lambda*f))``.

    Pure phase element, so power is unchanged.
    """
    if focal_length == 0:
        raise ValueError("focal length must be nonzero")
    x = field.grid.coordinates
    phase = -np.pi * x * x / (field.wavelength * focal_length)
    return field.with_amplitudes(field.amplitudes * np.exp(1j * phase))


def intensity(field: ComplexField) -> np.ndarray:
    """Per-sample intensity |u|^2."""
    return np.abs(field.amplitudes) ** 2


def check_window(grid: Grid, window: tuple[float, float], name: str = "window") -> None:
    """Reject a reversed window or one that extends beyond the grid.

    The grid extends half a spacing past its first and last samples;
    ``name`` leads the ``ValueError`` message.
    """
    lo, hi = window
    if lo > hi:
        raise ValueError(f"{name} ({lo}, {hi}) is reversed")
    n, dx = grid.n_samples, grid.spacing
    first, last = grid.center - (n // 2) * dx, grid.center + (n - 1 - n // 2) * dx
    if lo < first - dx / 2 or hi > last + dx / 2:
        raise ValueError(f"{name} ({lo}, {hi}) extends beyond the grid")


def total_power(
    field: ComplexField, window: tuple[float, float] | None = None
) -> float:
    """Riemann-sum power, optionally restricted to a coordinate window.

    ``window`` is an open interval (lo, hi) that must pass
    :func:`check_window`: a sample exactly on an edge counts in neither of
    two windows that share it.  Only the samples inside the window are
    squared.  A window containing no sample is legal and yields 0.0 with a
    :class:`FieldFlagWarning`.
    """
    if window is None:
        return float(np.sum(intensity(field)) * field.grid.spacing)
    check_window(field.grid, window)
    lo, hi = window
    x = field.grid.coordinates
    first, stop = np.searchsorted(x, lo, side="right"), np.searchsorted(x, hi, side="left")
    if first >= stop:
        warnings.warn("power window contains no samples", FieldFlagWarning)
        return 0.0
    return float(np.sum(np.abs(field.amplitudes[first:stop]) ** 2) * field.grid.spacing)


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
    """
    terms = spectrum * np.exp(1j * (x - x0) * kx)
    u = terms.sum() / n
    du = 1j * (terms @ kx) / n
    d2u = -(terms @ (kx * kx)) / n
    return complex(u), complex(du), complex(d2u)


def nyquist_tail_fraction(field: ComplexField) -> float:
    """Fraction of spectral energy in the outer 5% of the Nyquist band.

    This is the aliasing diagnostic: spectral propagation is only trustworthy
    when essentially no energy sits against the sampling limit.
    """
    spectrum = np.fft.fft(field.amplitudes)
    energy = np.abs(spectrum) ** 2
    total = float(np.sum(energy))
    if total == 0.0:
        return 0.0
    kx = field.grid.wavenumbers()
    outer = np.abs(kx) >= 0.95 * field.grid.nyquist
    return float(np.sum(energy[outer]) / total)
