"""Print one sha256 over every number the bench hands out, for a bit-identity check.

Run it with the ``src/`` to check on the path::

    PYTHONPATH=src python tests/record_digest.py

It takes no options.  The digest covers, on the 2^14 x 5e-6 and the
2^16 x 1.25e-6 grid, the six scenario records (five powers, both profiles
and the minima), each run cold and then warm, in forward and in reverse
order; ``fringe_minima``; and the samples of ``sigma1_fields``.  Each
(order, grid) run starts cold: the bench keeps only the last (geometry,
grid), and the run before it used the other grid.  Two source trees give
the same digest only if they give every one of these values bit for bit.
"""

import hashlib

import numpy as np

from afsharsim import AfsharGeometry, Grid, GridState, Scenario, Slits, run_scenario
from afsharsim.apparatus import fringe_minima, sigma1_fields

GRIDS = (Grid(2**14, 5e-6), Grid(2**16, 1.25e-6))
SCENARIOS = [Scenario(slits, state) for slits in Slits for state in GridState]
POWERS = (
    "power_incident",
    "power_after_grid",
    "power_at_detectors",
    "power_window_U",
    "power_window_L",
)


def record_bytes(record) -> bytes:
    """A record's five powers, two profiles and minima as bytes."""
    return b"".join(
        (
            *(np.float64(getattr(record, name)).tobytes() for name in POWERS),
            record.intensity_sigma1.tobytes(),
            record.intensity_sigma2.tobytes(),
            np.array(record.minima_positions, dtype=float).tobytes(),
        )
    )


def digest() -> str:
    geometry = AfsharGeometry.default()
    h = hashlib.sha256()
    for order in (SCENARIOS, SCENARIOS[::-1]):
        for grid in GRIDS:
            # cold: the last bench was the other grid's; then warm
            for scenario in [*order, *order]:
                h.update(record_bytes(run_scenario(geometry, scenario, grid)))
    for grid in GRIDS:
        h.update(fringe_minima(geometry, grid).tobytes())
        for field in sigma1_fields(geometry, grid):
            h.update(field.amplitudes.tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    print(digest())
