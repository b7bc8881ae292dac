"""Fringe visibility (V) versus which-way knowledge (K).

Two standard models of a two-path experiment with a which-way probe:

* the photon-probe model: scattering amplitudes ``a`` (correct detector)
  and ``b`` (wrong detector) mix the two path amplitudes, giving the
  screen pattern ``|a*phi1 + b*phi2|^2 + |a*phi2 + b*phi1|^2`` and the
  correspondence ``V = |2ab|``, ``K = sqrt(1 - V^2)``;
* the detector-unitary model: a probe in pure state ``d`` is kicked by
  path-conditioned unitaries ``U+``/``U-`` and ``V = |<d| U- U+^dag |d>|``.

For pure states both models satisfy ``V^2 + K^2 = 1`` exactly; the general
bound is ``V^2 + K^2 <= 1``.  :func:`visibility_from_pattern` estimates V
from a sampled pattern at a chosen spatial resolution (bin width); coarse
bins mix maxima into minima and collapse the estimate, which is the
resolution artifact this estimator exists to expose.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .wavefield import (
    ComplexField,
    FieldFlagWarning,
    Grid,
    _frozen,
    _owned,
    check_window,
)

__all__ = [
    "ProbeAmplitudes",
    "DetectorModel",
    "VKPair",
    "feynman_pattern",
    "vk_from_probe",
    "vk_from_detector",
    "duality_check",
    "visibility_from_pattern",
    "probe_detector_model",
    "random_detector_model",
]

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class ProbeAmplitudes:
    """Scattering amplitudes (a, b) of the photon probe, |a|^2 + |b|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        # abs(z) * abs(z) is inf where abs(z) ** 2 raises OverflowError
        norm = abs(self.a) * abs(self.a) + abs(self.b) * abs(self.b)
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"|a|^2 + |b|^2 = {norm}, expected 1 within {_NORM_TOL}")


@dataclass(frozen=True)
class DetectorModel:
    """Which-way detectors: initial states d and path unitaries U_plus, U_minus.

    ``d`` has shape ``(..., 2)`` and ``U_plus``/``U_minus`` shape
    ``(..., 2, 2)``; a single detector is the stack with no leading axis.
    """

    d: np.ndarray
    U_plus: np.ndarray
    U_minus: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=np.complex128)
        if d.shape[-1:] != (2,):
            raise ValueError(f"detector states have shape {d.shape}, expected (..., 2)")
        stack = d.shape[:-1]
        _reject(
            d,
            stack,
            lambda states: np.abs(np.linalg.norm(states, axis=-1) - 1.0),
            "detector state norm is not 1: |norm - 1| = {}",
        )
        ident = np.eye(2)
        mats = []
        for name in ("U_plus", "U_minus"):
            u = np.asarray(getattr(self, name), dtype=np.complex128)
            if u.shape != stack + (2, 2):
                raise ValueError(f"{name} has shape {u.shape}, expected {stack + (2, 2)}")
            _reject(
                u,
                stack,
                lambda us: np.max(np.abs(_adjoint(us) @ us - ident), axis=(-2, -1)),
                f"{name} is not unitary to {_NORM_TOL}: max|U^dag U - I| = {{}}",
            )
            mats.append(_frozen(u))
        object.__setattr__(self, "d", _frozen(d))
        object.__setattr__(self, "U_plus", mats[0])
        object.__setattr__(self, "U_minus", mats[1])


def _reject(
    values: np.ndarray,
    stack: tuple[int, ...],
    deviation: Callable[[np.ndarray], np.ndarray],
    message: str,
) -> None:
    """Raise ValueError for the first detector whose deviation is not within _NORM_TOL.

    ``values`` holds one state or unitary per detector of a stack of leading
    shape ``stack``; ``deviation`` maps them, flattened, to one deviation
    each.  ``message`` is formatted with the first bad deviation; for a stack
    the error also names the detector's index.
    """
    dev = deviation(values.reshape((-1,) + values.shape[len(stack) :]))
    bad = np.flatnonzero(~(dev <= _NORM_TOL))
    if len(bad):
        index = tuple(int(i) for i in np.unravel_index(bad[0], stack))
        where = f"detector {index[0] if len(index) == 1 else index}: " if index else ""
        raise ValueError(where + message.format(dev[bad[0]]))


def _adjoint(u: np.ndarray) -> np.ndarray:
    return u.conj().swapaxes(-1, -2)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the last axis of a * b for every leading index, as one stacked matmul.

    For real rows this is the BLAS dot ``np.linalg.norm`` uses on a single
    vector, so the stacked normalization keeps the per-vector bits.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class VKPair:
    """Visibility and which-way knowledge: floats, or arrays for a detector stack."""

    V: float | np.ndarray
    K: float | np.ndarray

    def __post_init__(self) -> None:
        v, k = np.asarray(self.V), np.asarray(self.K)
        if not (np.all((0.0 <= v) & (v <= 1.0)) and np.all((0.0 <= k) & (k <= 1.0))):
            raise ValueError(f"V, K must lie in [0, 1], got ({self.V}, {self.K})")


def feynman_pattern(
    phi1: ComplexField, phi2: ComplexField, probe: ProbeAmplitudes
) -> np.ndarray:
    """Screen pattern of the probe model given the two path amplitudes.

    ``b = 0`` removes all cross terms (incoherent sum, sharp which-way
    knowledge); ``a = b`` reproduces the fully coherent pattern.
    """
    if phi1.grid != phi2.grid:
        raise ValueError("path fields live on different grids")
    if phi1.wavelength != phi2.wavelength:
        raise ValueError("path fields have different wavelengths")
    a, b = probe.a, probe.b
    u1, u2 = phi1.amplitudes, phi2.amplitudes
    return np.abs(a * u1 + b * u2) ** 2 + np.abs(a * u2 + b * u1) ** 2


def vk_from_probe(probe: ProbeAmplitudes) -> VKPair:
    """V = |2ab| and K = sqrt(1 - V^2) from the probe amplitudes.

    For unit-norm amplitudes sqrt(1 - |2ab|^2) equals ||a|^2 - |b|^2|;
    the latter is evaluated because it stays exact at the endpoints where
    the direct subtraction would amplify the last-bit norm error.
    """
    v = min(abs(2.0 * probe.a * probe.b), 1.0)
    k = min(abs(abs(probe.a) ** 2 - abs(probe.b) ** 2), 1.0)
    return VKPair(V=v, K=k)


def vk_from_detector(model: DetectorModel) -> VKPair:
    """V = |<d| U_minus U_plus^dag |d>| and K = sqrt(1 - V^2) for every detector.

    V and K have the stack's leading shape (scalars for a single detector).
    """
    stack = model.d.shape[:-1]
    d = model.d.reshape(-1, 2)
    u_plus, u_minus = (u.reshape(-1, 2, 2) for u in (model.U_plus, model.U_minus))
    op = u_minus @ _adjoint(u_plus)
    overlap = np.abs(_dot(d.conj(), (op @ d[..., None])[..., 0]))
    v = np.minimum(overlap, 1.0)
    # the clamp absorbs ~1e-16 negatives from the subtraction
    k = np.sqrt(np.maximum(0.0, 1.0 - v * v))
    return VKPair(V=v.reshape(stack)[()], K=k.reshape(stack)[()])


def duality_check(pair: VKPair) -> float | np.ndarray:
    """Return V^2 + K^2 (1 for pure-state models, <= 1 in general), per detector."""
    return pair.V**2 + pair.K**2


def probe_detector_model(probe: ProbeAmplitudes) -> DetectorModel:
    """Detector-unitary model equivalent to a real-amplitude probe.

    Takes ``d = (1, 1)/sqrt(2)`` and real rotations sending d to (a, b)
    and to (b, a); requires real (a, b).  By construction
    ``vk_from_detector`` of the result equals ``vk_from_probe(probe)``.
    """
    if abs(probe.a.imag) > _NORM_TOL or abs(probe.b.imag) > _NORM_TOL:
        raise ValueError("the real-rotation construction needs real (a, b)")
    theta = np.arctan2(probe.b.real, probe.a.real)

    def rot(angle: float) -> np.ndarray:
        c, s = np.cos(angle), np.sin(angle)
        return np.array([[c, -s], [s, c]])

    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return DetectorModel(
        d=d,
        U_plus=rot(theta - np.pi / 4.0),
        U_minus=rot(np.pi / 4.0 - theta),
    )


def random_detector_model(rng: np.random.Generator, n: int) -> DetectorModel:
    """Stack of n Haar-random pure detector models (random d, random unitaries).

    Each detector takes a row of one ``(n, 20)`` draw of normals: d (real,
    then imaginary parts), then U_plus and U_minus (real 2x2, then imaginary
    2x2).  So detector i does not depend on n.
    """
    z = rng.normal(size=(n, 20))
    re, im = z[:, 0:2], z[:, 2:4]
    d = (re + 1j * im) / np.sqrt(_dot(re, re) + _dot(im, im))[:, None]
    u_plus = _haar_unitaries(z[:, 4:12])
    u_minus = _haar_unitaries(z[:, 12:20])
    return DetectorModel(d=_owned(d), U_plus=_owned(u_plus), U_minus=_owned(u_minus))


def _haar_unitaries(block: np.ndarray) -> np.ndarray:
    """Haar-random 2x2 unitaries from rows of 8 normals (real 2x2, then imaginary 2x2)."""
    q, r = np.linalg.qr((block[:, :4] + 1j * block[:, 4:]).reshape(-1, 2, 2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def visibility_from_pattern(
    pattern: np.ndarray,
    grid: Grid,
    bin_width: float,
    region: tuple[float, float],
) -> float:
    """Visibility (Imax - Imin)/(Imax + Imin) at a chosen resolution.

    The region is partitioned into contiguous disjoint bins of
    ``bin_width`` anchored at its left edge, ``region[0]``; each bin is
    reduced to its mean intensity and V is computed from the bin means.
    ``bin_width == grid.spacing`` recovers the fine-resolution estimator;
    widths approaching one fringe period average maxima and minima
    together and drive the estimate toward zero.
    """
    pattern = np.asarray(pattern, dtype=float)
    if pattern.shape != (grid.n_samples,):
        raise ValueError("pattern length does not match grid")
    if bin_width < grid.spacing:
        raise ValueError(
            f"bin_width {bin_width} is below the sample spacing {grid.spacing}"
        )
    check_window(grid, region, "region")
    lo, hi = region
    x = grid.coordinates
    n_bins = int(np.floor((hi - lo) / bin_width + 1e-12))
    if n_bins < 2:
        raise ValueError("region covers fewer than two bins")
    # half-open bins [lo + j*bw, lo + (j+1)*bw); the half-ulp nudge keeps
    # samples that sit exactly on a bin boundary in the upper bin
    ratio = (x - lo) / bin_width
    idx = np.floor(ratio + 1e-12).astype(int)
    sel = (idx >= 0) & (idx < n_bins)
    sums = np.bincount(idx[sel], weights=pattern[sel], minlength=n_bins)
    counts = np.bincount(idx[sel], minlength=n_bins)
    means = sums[counts > 0] / counts[counts > 0]
    i_max, i_min = float(np.max(means)), float(np.min(means))
    if i_max <= 0.0:
        warnings.warn("all-zero pattern: visibility defined as 0", FieldFlagWarning)
        return 0.0
    return (i_max - i_min) / (i_max + i_min)
