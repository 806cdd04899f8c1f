"""Configuration-space mapping of bipartite entanglement.

Quantifies where the entanglement between two subsystems sits by filtering
states through region-restricted projective measurements (discarding,
non-discarding and precise-readout ensembles) and measuring what survives,
for a four-qubit spin model and a pair of coupled harmonic oscillators.
"""

__version__ = "0.1.0"

from .distribution import Distribution2D
from .linalg import (
    DensityMatrix,
    Spectrum,
    binary_entropy,
    eigen_symmetric,
    negativity,
    partial_transpose,
    reduce_to_party,
    von_neumann_entropy,
)
from .oscillator import (
    ClassicalWidths,
    GroundStateConstants,
    OscillatorModel,
    classical_widths,
    concurrence_density,
    gaussian_eof,
    ground_state_constants,
    reduced_density_value,
    small_a_epsilon_both,
    small_a_epsilon_one,
    two_particle_wavefunction,
)
from .restrict import (
    EnsembleResult,
    Partition,
    Region,
    basis_expansion_entropy,
    both_restricted_entropy,
    method_equivalence,
    non_discarding_entanglement,
    one_party_map,
    one_restricted_entropy,
    partition_inequality_check,
    precise_measurement_entanglement,
    two_party_map,
)
from .correlate import (
    FitParams,
    conditional_probability,
    fit_surface,
    joint_probability,
    probability_map,
    sigma_vs_alpha_scan,
)
from .spin import (
    build_mixed_state,
    build_pure_state,
    negativity_vanish_point,
    restrict_ms0,
    spin_entropy,
    spin_negativity,
    spin_scan,
)
