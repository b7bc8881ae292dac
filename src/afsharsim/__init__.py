"""Wave-optics bench for the Afshar two-slit experiment.

Modules:

* :mod:`afsharsim.wavefield` -- sampled scalar fields and the elementary
  optical transforms (angular-spectrum propagation, masks, thin lens);
* :mod:`afsharsim.apparatus` -- the slit / wire-grid / lens bench, named
  scenarios, and power accounting;
* :mod:`afsharsim.duality` -- visibility / which-way models and the
  resolution-dependent visibility estimator;
* :mod:`afsharsim.remnant` -- the unitary screen model with vibrational
  post-selection, and the spin pre/post-selection analogy;
* :mod:`afsharsim.config` -- the flat ``key = value`` configuration files
  and their defaults;
* :mod:`afsharsim.report` -- the verdicts recomputed from the CSV outputs;
* :mod:`afsharsim.cli` -- the ``afsharsim`` command line front end.
"""

from .apparatus import (
    AfsharGeometry,
    BandLimitError,
    GridState,
    Scenario,
    SimulationRecord,
    Slits,
    build_wire_grid,
    fill_factor,
    fringe_minima,
    image_windows,
    imaging_distance,
    run_scenario,
    sigma1_fields,
)
from .duality import (
    DetectorModel,
    ProbeAmplitudes,
    VKPair,
    duality_check,
    feynman_pattern,
    probe_detector_model,
    random_detector_model,
    visibility_from_pattern,
    vk_from_detector,
    vk_from_probe,
)
from .remnant import (
    RemnantState,
    VibrationalDirection,
    build_remnant,
    completeness_residue,
    postselect,
    qubit_analogy,
    sample_sites,
    total_pattern,
)
from .wavefield import (
    ComplexField,
    Grid,
    Mask,
    apply_mask,
    intensity,
    make_plane_wave,
    nyquist_tail_fraction,
    propagate,
    thin_lens,
    total_power,
)

__version__ = "0.1.0"
