"""Two-level PT- and anti-PT-symmetric generators.

The package studies the two-parameter Hamiltonian families

    H_PT  = s * (sigma_x + i a sigma_z)   (PT-symmetric)
    H_APT = s * (i sigma_x + a sigma_z)   (anti-PT-symmetric)

with energy scale ``s > 0`` and non-Hermiticity degree ``a > 0`` (the
gain/loss rate is ``gamma = a * s``).  Both are traceless and
non-Hermitian.  Their eigenvalue pairs are

    lambda_PT  = +/- s * sqrt(1 - a^2)
    lambda_APT = +/- s * sqrt(a^2 - 1)

so each family has a real-spectrum ("unbroken") region, an
imaginary-spectrum ("broken") region, and a degeneracy at ``a = 1``
where eigenvalues and eigenvectors coalesce (the exceptional point).
Note the regions are swapped between the families: PT is unbroken for
``a < 1`` while APT is unbroken for ``a > 1``.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS

__all__ = list(_EXPORTS["hamiltonian"])


#: Largest a whose square is finite; w^2 is built from a^2.
_A_MAX = float(np.sqrt(np.finfo(np.float64).max))


class SymmetryClass(enum.Enum):
    """Which of the two generator families a parameter set belongs to."""

    PT = "pt"
    APT = "apt"


class Regime(enum.Enum):
    """Spectral phase of a generator: real, imaginary, or degenerate."""

    UNBROKEN = "unbroken"
    BROKEN = "broken"
    EXCEPTIONAL_POINT = "exceptional_point"


@dataclass(frozen=True)
class HamiltonianParams:
    """Parameters selecting one generator from the two families.

    Attributes
    ----------
    kind:
        The symmetry family (PT or APT).
    s:
        Energy scale, strictly positive.  Times are naturally measured
        through the dimensionless product ``s * t``.
    a:
        Dimensionless non-Hermiticity degree, strictly positive; the
        gain/loss rate is recovered as ``gamma = a * s``.
    """

    kind: SymmetryClass
    s: float = 1.0
    a: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SymmetryClass):
            raise ValueError("kind must be a SymmetryClass member")
        if not (np.isfinite(self.s) and self.s > 0):
            raise ValueError(f"energy scale s must be positive and finite, got {self.s}")
        if not (np.isfinite(self.a) and self.a > 0):
            raise ValueError(f"non-Hermiticity degree a must be positive and finite, got {self.a}")
        if self.a > _A_MAX:
            raise ValueError(f"non-Hermiticity degree a must be at most {_A_MAX:.6g} "
                             f"so that a^2 is finite, got {self.a}")
        if not math.isfinite(float(self.a) * float(self.s)):
            raise ValueError(f"gain/loss rate a*s must be at most {sys.float_info.max:.6g}, "
                             f"got a={self.a}, s={self.s}")


def generator(kind: SymmetryClass, a: float) -> np.ndarray:
    """``M = -i H / s``, so ``U = exp(s t M) = A I + g M`` (see
    :mod:`~ptcoherence.evolution`); the one place the per-kind layout is
    written.  PT: ``[[a, -i], [-i, -a]]``; APT: ``[[-i a, 1], [1, i a]]``."""
    if kind is SymmetryClass.PT:
        return np.array([[a, -1j], [-1j, -a]], dtype=complex)
    return np.array([[-1j * a, 1.0], [1.0, 1j * a]], dtype=complex)


def w_squared(kind: SymmetryClass, a: float) -> float:
    """``w^2`` with ``M^2 = -w^2 I``: ``(1 - a)(1 + a)`` for PT and
    ``(a - 1)(a + 1)`` for APT, positive where unbroken.  The product keeps
    every digit near ``a = 1``, where the rounding of ``a^2`` would not."""
    return (1.0 - a) * (1.0 + a) if kind is SymmetryClass.PT else (a - 1.0) * (a + 1.0)


def frequency(kind: SymmetryClass, a: float) -> float:
    """``w = sqrt(|w^2|)`` of :func:`w_squared`, in units of ``s``."""
    return math.sqrt(abs(w_squared(kind, a)))


def build_hamiltonian(p: HamiltonianParams) -> np.ndarray:
    """The 2x2 generator ``H = i s M`` (:func:`generator`): PT
    ``[[i a s, s], [s, -i a s]]``, APT ``[[a s, i s], [i s, -a s]]``."""
    return 1j * p.s * generator(p.kind, p.a)


def regime(p: HamiltonianParams) -> Regime:
    """Classify the spectral phase of ``p`` by the sign of
    :func:`w_squared`, the rule the evaluator uses.

    Returns
    -------
    Regime
        ``UNBROKEN`` where ``w^2 > 0``, ``BROKEN`` where ``w^2 < 0`` and
        ``EXCEPTIONAL_POINT`` where ``w^2 == 0``, which in doubles is
        ``a == 1.0`` alone: PT is unbroken for ``a < 1`` and APT for
        ``a > 1``.
    """
    w2 = w_squared(p.kind, p.a)
    if w2 > 0.0:
        return Regime.UNBROKEN
    return Regime.BROKEN if w2 < 0.0 else Regime.EXCEPTIONAL_POINT
