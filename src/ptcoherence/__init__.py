"""Coherence dynamics of PT- and anti-PT-symmetric qubits.

A simulator library and CLI for the l1-coherence phenomenology of
non-Hermitian two-level systems: closed-form nonunitary propagators,
coherence trajectories with periods / stable values / backflow
counting, Bloch trajectories, waveplate-sequence inverse design,
noisy-tomography reconstruction, and the two-qubit product extension.
"""
from __future__ import annotations

from .bloch import BlochPoint, bloch_vector, trajectory
from .coherence import (
    BackflowReport,
    Classification,
    CoherenceTrace,
    Extremum,
    PredictedExtrema,
    asymptotic_value,
    classify_backflow,
    coherence_closed_form,
    coherence_series,
    find_extrema,
    find_extrema_of_series,
    l1_coherence,
    theoretical_period,
    verify_extrema_conditions,
)
from .evolution import (
    DegenerateEvolutionError,
    DensityMatrix,
    Propagator,
    PureState,
    evolve_density,
    evolve_pure,
    propagator_analytic,
    propagator_scaled,
)
from .hamiltonian import (
    HamiltonianParams,
    Regime,
    SymmetryClass,
    build_hamiltonian,
    eigenvalues,
    regime,
)
from .optics import (
    ElementKind,
    NoDecompositionError,
    OpticalElement,
    OpticalSequence,
    assemble,
    apt_shape,
    loss_operator,
    pt_shape,
    r_hwp,
    r_qwp,
    scale_invariant_residual,
    sequence_to_dict,
    solve_angles,
    verify_state_action,
)
from .tolerances import DEFAULT_TOLS, Tolerances
from .tomography import (
    BasisSet,
    CountRecord,
    DEFAULT_BASES,
    InsufficientDataError,
    bootstrap_errorbar,
    exact_count_record,
    ideal_probabilities,
    reconstruct,
    simulate_counts,
    trace_distance,
)
from .twoqubit import (
    TwoQubitState,
    evolve_two_qubit,
    two_qubit_coherence,
    two_qubit_coherence_trace,
    two_qubit_propagator,
    two_qubit_series,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # hamiltonian
    "SymmetryClass",
    "Regime",
    "HamiltonianParams",
    "build_hamiltonian",
    "eigenvalues",
    "regime",
    # evolution
    "DegenerateEvolutionError",
    "PureState",
    "DensityMatrix",
    "Propagator",
    "propagator_analytic",
    "propagator_scaled",
    "evolve_pure",
    "evolve_density",
    # coherence
    "Classification",
    "Extremum",
    "CoherenceTrace",
    "BackflowReport",
    "PredictedExtrema",
    "l1_coherence",
    "coherence_closed_form",
    "coherence_series",
    "theoretical_period",
    "asymptotic_value",
    "find_extrema",
    "find_extrema_of_series",
    "verify_extrema_conditions",
    "classify_backflow",
    # bloch
    "BlochPoint",
    "bloch_vector",
    "trajectory",
    # optics
    "ElementKind",
    "OpticalElement",
    "OpticalSequence",
    "NoDecompositionError",
    "r_hwp",
    "r_qwp",
    "loss_operator",
    "pt_shape",
    "apt_shape",
    "assemble",
    "scale_invariant_residual",
    "solve_angles",
    "verify_state_action",
    "sequence_to_dict",
    # tomography
    "BasisSet",
    "CountRecord",
    "DEFAULT_BASES",
    "InsufficientDataError",
    "ideal_probabilities",
    "exact_count_record",
    "simulate_counts",
    "reconstruct",
    "bootstrap_errorbar",
    "trace_distance",
    # two-qubit
    "TwoQubitState",
    "two_qubit_propagator",
    "evolve_two_qubit",
    "two_qubit_coherence",
    "two_qubit_series",
    "two_qubit_coherence_trace",
    # tolerances
    "Tolerances",
    "DEFAULT_TOLS",
]
