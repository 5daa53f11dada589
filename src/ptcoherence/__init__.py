"""Coherence dynamics of PT- and anti-PT-symmetric qubits.

A simulator library and CLI for the l1-coherence phenomenology of
non-Hermitian two-level systems: closed-form nonunitary propagators,
coherence trajectories with periods / stable values / backflow
counting, Bloch trajectories, waveplate-sequence inverse design,
noisy-tomography reconstruction, and the two-qubit product extension.

Public names load lazily (PEP 562): ``import ptcoherence`` imports no
submodule, and the first access to a name imports the module that
defines it, so a CLI call loads only what its subcommand runs.
``_EXPORTS`` is the one list of public names: each submodule's
``__all__`` is its entry, so a name is added or removed in one place.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: Each submodule and the public names it defines, which are its ``__all__``.
_EXPORTS = {
    "hamiltonian": (
        "SymmetryClass",
        "Regime",
        "HamiltonianParams",
        "build_hamiltonian",
        "regime",
    ),
    "evolution": (
        "DegenerateEvolutionError",
        "PureState",
        "DensityMatrix",
        "l1_coherence",
        "coherence_series",
        "trajectory_array",
        "propagator_scaled",
        "evolve_density",
    ),
    "coherence": (
        "Classification",
        "Extremum",
        "CoherenceTrace",
        "BackflowReport",
        "theoretical_period",
        "asymptotic_value",
        "find_extrema",
        "verify_extrema_conditions",
        "classify_backflow",
    ),
    "optics": (
        "OpticalSequence",
        "NoDecompositionError",
        "r_hwp",
        "r_qwp",
        "loss_operator",
        "assemble",
        "solve_angles",
        "verify_state_action",
        "sequence_to_dict",
    ),
    "tomography": (
        "CountRecord",
        "InsufficientDataError",
        "ideal_probabilities",
        "exact_count_record",
        "simulate_counts",
        "reconstruct",
        "bootstrap_errorbar",
        "trace_distance",
    ),
    "twoqubit": (
        "TwoQubitState",
        "two_qubit_series",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
