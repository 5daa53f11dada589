"""Shared parameter and seeded random-state helpers, and a fresh interpreter
for checks that the test session's loaded modules would hide."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ptcoherence as pc


def pt(a: float, s: float = 1.0) -> pc.HamiltonianParams:
    """PT-symmetric parameters: H = s (sigma_x + i a sigma_z)."""
    return pc.HamiltonianParams(kind=pc.SymmetryClass.PT, s=s, a=a)


def apt(a: float, s: float = 1.0) -> pc.HamiltonianParams:
    """Anti-PT-symmetric parameters: H = s (i sigma_x + a sigma_z)."""
    return pc.HamiltonianParams(kind=pc.SymmetryClass.APT, s=s, a=a)


def random_states(seed: int, n: int, lo: float = 0.05, hi: float = 0.95):
    """Seeded random pure states with alpha, beta in (lo, hi) renormalized
    and phi in [0, 2 pi): the whole state sphere but its poles."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        alpha = rng.uniform(lo, hi)
        beta = rng.uniform(lo, hi)
        phi = rng.uniform(0.0, 2.0 * np.pi)
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


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a new interpreter that imports this package's sources."""
    src = str(Path(pc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
