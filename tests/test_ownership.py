"""Result values freeze their arrays by one rule, the rule of ``ComplexField``.

A value keeps a read-only array that owns its memory as it is and copies any
other, so constructing one never makes a caller's array read-only, and a
later write to that array, or to the base of a view, cannot reach the value.
The producers hand over arrays they have just made, so they pay no copy.
"""

import numpy as np
import pytest

from afsharsim import apparatus, duality, remnant, wavefield
from afsharsim.apparatus import GridState, Scenario, SimulationRecord, Slits
from afsharsim.duality import DetectorModel
from afsharsim.remnant import RemnantState

N = 4


def record(arrays):
    scenario = Scenario(Slits.BOTH, GridState.OUT)
    return SimulationRecord(scenario, 1.0, 1.0, 1.0, 0.5, 0.5, **arrays, minima_positions=())


# each value's arrays in the dtype it keeps, so a value that froze what it
# was given, instead of copying it, would keep the caller's own array
VALUES = {
    "SimulationRecord": (
        record,
        lambda: {"intensity_sigma1": np.ones(N), "intensity_sigma2": np.full(N, 2.0)},
    ),
    "RemnantState": (
        lambda arrays: RemnantState(**arrays),
        lambda: {
            "sites": np.arange(N, dtype=float),
            "amps_U": np.full(N, 1 / np.sqrt(2 * N), dtype=complex),
            "amps_L": np.full(N, 1j / np.sqrt(2 * N)),
        },
    ),
    "DetectorModel": (
        lambda arrays: DetectorModel(**arrays),
        lambda: {
            "d": np.array([1.0, 0.0], dtype=complex),
            "U_plus": np.eye(2, dtype=complex),
            "U_minus": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        },
    ),
}


def kept_arrays(value, names):
    arrays = {name: getattr(value, name) for name in names}
    for name, array in arrays.items():
        assert not array.flags.writeable and array.flags.owndata, name
    return {name: array.copy() for name, array in arrays.items()}


@pytest.mark.parametrize("kind", list(VALUES))
def test_caller_arrays_stay_writeable_and_cannot_reach_the_value(kind):
    build, make = VALUES[kind]
    mine = make()
    value = build(mine)
    before = kept_arrays(value, mine)
    for name, array in mine.items():
        assert array.flags.writeable, name
        array.flat[0] = 7.0
    for name, expected in before.items():
        assert np.array_equal(getattr(value, name), expected), name


@pytest.mark.parametrize("kind", list(VALUES))
def test_value_of_a_view_does_not_follow_its_base(kind):
    build, make = VALUES[kind]
    bases, views = {}, {}
    for name, array in make().items():
        bases[name] = np.concatenate([array.ravel(), array.ravel()])
        views[name] = bases[name][: array.size].reshape(array.shape)
    value = build(views)
    before = kept_arrays(value, views)
    for name, base in bases.items():
        assert base.flags.writeable, name
        base[0] = 7.0
    for name, expected in before.items():
        assert np.array_equal(getattr(value, name), expected), name


def test_producers_hand_over_without_a_copy(geometry, bench_grid, monkeypatch):
    copies = []
    frozen = wavefield._frozen

    def counted_frozen(a):
        kept = frozen(a)
        if kept is not a:
            copies.append(a.size)
        return kept

    for module in (wavefield, apparatus, remnant, duality):
        monkeypatch.setattr(module, "_frozen", counted_frozen)
    for state_ in GridState:
        apparatus.run_scenario(geometry, Scenario(Slits.BOTH, state_), bench_grid)
    remnant.build_remnant(*apparatus.sigma1_fields(geometry, bench_grid))
    duality.random_detector_model(np.random.default_rng(1), 5)
    assert copies == []
