"""Unitary screen model with a vibrational which-slit record.

Each screen site x keeps, besides the arrival amplitude, an internal
"vibrational" mode of its detector element that records which slit fed
it: the joint state after the particle reaches the screen is

    sum_x |x> (a_x |v_U> + b_x |v_L>),

with a_x / b_x the propagated upper/lower slit amplitudes.  Detection at
x keeps a single term of the sum, whose vibrational part is still the
superposition (a_x, b_x) -- so a later measurement of the vibrational
mode in any basis post-selects the recorded events.  Selecting v_U or
v_L splits the arrivals into the two single-slit patterns; selecting the
diagonal directions splits them into fringes and antifringes.

The vibrational modes are taken exactly orthonormal here.  A direct
consequence worth stating plainly: the unconditioned arrival pattern is
then |a_x|^2 + |b_x|^2, which carries no fringes; fully articulated
fringes exist only within the post-selected subensembles.  This module
implements exactly that model and the report surfaces the consequence.

Also included: the spin-1/2 pre/post-selection analogy as a sequence of
projective measurements along x or z starting from the +1 eigenstate
of x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .wavefield import ComplexField, _frozen, _owned, _row_blocks

__all__ = [
    "RemnantState",
    "VibrationalDirection",
    "ORTHONORMAL_NOTE",
    "COMPLETENESS_PAIRS",
    "build_remnant",
    "total_pattern",
    "postselect",
    "completeness_residue",
    "sample_sites",
    "qubit_analogy",
]

_NORM_TOL = 1e-12

ORTHONORMAL_NOTE = (
    "note: with exactly orthonormal vibrational modes the unconditioned "
    "arrival pattern is |a_x|^2 + |b_x|^2 and carries no fringes; fully "
    "articulated fringes appear only in the post-selected subensembles "
    "(diagonal vibrational directions). This tension is a property of the "
    "orthonormal-mode model itself and is reported rather than patched."
)

# Complementary post-selection pairs (label, outcome names): each pair's
# probability-weighted patterns must add up to the unconditioned pattern.
COMPLETENESS_PAIRS = (
    ("v_U/v_L", ("post_vU", "post_vL")),
    ("fringe/antifringe", ("post_plus", "post_minus")),
)


@dataclass(frozen=True)
class RemnantState:
    """Joint particle-position / vibrational state over the screen sites."""

    sites: np.ndarray
    amps_U: np.ndarray
    amps_L: np.ndarray

    def __post_init__(self) -> None:
        sites = np.asarray(self.sites, dtype=float)
        a = np.asarray(self.amps_U, dtype=np.complex128)
        b = np.asarray(self.amps_L, dtype=np.complex128)
        if not (sites.shape == a.shape == b.shape):
            raise ValueError("sites, amps_U and amps_L must share one shape")
        norm = float(np.sum(np.abs(a) ** 2 + np.abs(b) ** 2))
        # written so that a NaN norm, from a NaN amplitude, fails too
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"state norm {norm} differs from 1 beyond {_NORM_TOL}")
        for name, arr in (("sites", sites), ("amps_U", a), ("amps_L", b)):
            object.__setattr__(self, name, _frozen(arr))


@dataclass(frozen=True)
class VibrationalDirection:
    """Post-selection direction alpha|v_U> + beta|v_L> (unit norm)."""

    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        # abs(z) * abs(z) is inf where abs(z) ** 2 raises OverflowError
        norm = abs(self.alpha) * abs(self.alpha) + abs(self.beta) * abs(self.beta)
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise ValueError(f"direction norm {norm} differs from 1")

    @staticmethod
    def v_upper() -> "VibrationalDirection":
        return VibrationalDirection(1.0, 0.0)

    @staticmethod
    def v_lower() -> "VibrationalDirection":
        return VibrationalDirection(0.0, 1.0)

    @staticmethod
    def fringe() -> "VibrationalDirection":
        r = 1.0 / np.sqrt(2.0)
        return VibrationalDirection(r, r)

    @staticmethod
    def antifringe() -> "VibrationalDirection":
        r = 1.0 / np.sqrt(2.0)
        return VibrationalDirection(r, -r)


def build_remnant(phi_U: ComplexField, phi_L: ComplexField) -> RemnantState:
    """Entangled screen state from the propagated per-slit fields.

    The particle enters as the equal superposition of the two slit paths,
    so each field is weighted by 1/sqrt(2) before the joint normalization
    sum(|a_x|^2 + |b_x|^2) = 1.
    """
    if phi_U.grid != phi_L.grid:
        raise ValueError("slit fields live on different grids")
    if phi_U.wavelength != phi_L.wavelength:
        raise ValueError("slit fields have different wavelengths")
    a = phi_U.amplitudes / np.sqrt(2.0)
    b = phi_L.amplitudes / np.sqrt(2.0)
    norm = np.sum(np.abs(a) ** 2 + np.abs(b) ** 2)
    if norm <= 0.0:
        raise ValueError("both slit fields are zero; no state to build")
    scale = 1.0 / np.sqrt(norm)
    return RemnantState(_owned(phi_U.grid.coordinates), _owned(a * scale), _owned(b * scale))


def total_pattern(state: RemnantState) -> np.ndarray:
    """Unconditioned arrival probability per site, |a_x|^2 + |b_x|^2."""
    return np.abs(state.amps_U) ** 2 + np.abs(state.amps_L) ** 2


def postselect(
    state: RemnantState, direction: VibrationalDirection
) -> tuple[float, np.ndarray]:
    """Probability and normalized site pattern of one vibrational outcome.

    Site weights are |alpha* a_x + beta* b_x|^2; their sum is the outcome
    probability.  Post-selecting v_U returns the upper-slit marginal,
    the diagonal directions return the fringe/antifringe patterns.
    """
    w = np.abs(np.conj(direction.alpha) * state.amps_U + np.conj(direction.beta) * state.amps_L) ** 2
    prob = float(np.sum(w))
    if prob < 1e-300:
        raise ValueError("post-selection outcome has vanishing probability")
    return prob, w / prob


def completeness_residue(
    probs: Mapping[str, float],
    patterns: Mapping[str, np.ndarray],
    names: Sequence[str],
    total: np.ndarray,
) -> float:
    """max_x |sum_n P_n p_n(x) - total(x)| over the named post-selection outcomes."""
    return float(np.max(np.abs(sum(probs[n] * patterns[n] for n in names) - total)))


def sample_sites(
    state: RemnantState, n: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Draw n detections from the unconditioned arrival distribution.

    Yields the draws ``_BLOCK`` at a time, as indices into ``state.sites``;
    ``state.sites[indices]`` are the sites.  The state is normalized and
    its amplitudes are finite, so p, the arrival pattern over its sum, is
    finite, non-negative and sums to 1.
    The CDF of p is formed once and each block searches it with that many
    uniforms, the steps ``Generator.choice`` takes, so the blocks
    concatenated equal one ``rng.choice(state.sites.size, size=n, p=p)``.
    """
    p = total_pattern(state)
    cdf = np.cumsum(p / p.sum())
    cdf /= cdf[-1]
    for rows in _row_blocks(n):
        yield cdf.searchsorted(rng.random(rows.stop - rows.start), side="right")


def qubit_analogy(axes: Sequence[str]) -> list[dict[int, float]]:
    """Projective x/z measurement sequence on a spin prepared in |x=+1>.

    Returns one outcome table {+1: p, -1: p} per measurement.  After each
    measurement the state collapses; the sequence deterministically follows
    the +1 branch whenever it has nonzero probability (for the x/z pair the
    later statistics do not depend on the branch whenever both outcomes are
    possible, and the +1 branch is the one a confirming intermediate
    measurement keeps).

    Restricted to x/z measurements, every reachable state is an x or z
    eigenstate, and every overlap probability is exactly 0, 1/2, or 1; the
    computation is carried out in that exact algebra, so the returned
    probabilities carry no floating-point error.
    """
    if not axes:
        raise ValueError("measurement sequence is empty")
    state_axis, state_sign = "x", +1
    tables: list[dict[int, float]] = []
    for axis in axes:
        if axis not in ("x", "z"):
            raise ValueError(f"unknown measurement axis {axis!r}; use 'x' or 'z'")
        if axis == state_axis:
            p_plus = 1.0 if state_sign == +1 else 0.0
        else:
            p_plus = 0.5  # mutually unbiased bases
        tables.append({+1: p_plus, -1: 1.0 - p_plus})
        state_axis, state_sign = axis, (+1 if p_plus > 0.0 else -1)
    return tables
