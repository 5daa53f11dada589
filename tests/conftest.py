"""Shared seeded random-state helpers."""
from __future__ import annotations

import numpy as np

import ptcoherence as pc


def random_states(seed: int, n: int, lo: float = 0.05, hi: float = 0.95):
    """Seeded random pure states with alpha, beta in (lo, hi) renormalized
    and sin(phi) >= 0 (the hypothesis of the stationary-count theorems)."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        alpha = rng.uniform(lo, hi)
        beta = rng.uniform(lo, hi)
        phi = rng.uniform(0.0, np.pi)  # sin(phi) >= 0
        out.append(pc.PureState.from_amplitudes(alpha, beta, phi))
    return out


def random_params(seed: int, n: int, a_lo: float = 0.05, a_hi: float = 3.0):
    """Seeded random Hamiltonian parameter sets spanning both kinds."""
    rng = np.random.default_rng(seed)
    kinds = (pc.SymmetryClass.PT, pc.SymmetryClass.APT)
    return [
        pc.HamiltonianParams(
            kind=kinds[int(rng.integers(2))],
            s=float(rng.uniform(0.2, 2.0)),
            a=float(rng.uniform(a_lo, a_hi)),
        )
        for _ in range(n)
    ]
