"""Four-basis projective tomography of the evolved single-qubit state.

The measurement set is the minimal informationally complete projector
family {H, V, R, D}:

    |H> = (1, 0)                p_H = (1 + z) / 2
    |V> = (0, 1)                p_V = (1 - z) / 2
    |R> = (|H> - i|V>)/sqrt(2)  p_R = (1 - y) / 2
    |D> = (|H> + |V>)/sqrt(2)   p_D = (1 + x) / 2

with (x, y, z) the Bloch components used throughout the package
(``x = 2 Re rho01``, ``y = -2 Im rho01``, ``z = rho00 - rho11``).
Reconstruction is the Poisson maximum-likelihood estimate over the Bloch
ball, solved from its optimality (KKT) conditions without a general
optimizer (Hradil, PRA 55, R1561 (1997); Smolin, Gambetta & Smith, PRL
108, 070502 (2012)); a whole bootstrap sample is solved in one array pass.

Counts are stored as floats so that exact probability records — the
infinite-exposure limit — flow through the same code paths as sampled
integer counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .evolution import DensityMatrix

__all__ = list(_EXPORTS["tomography"])

#: Iteration cap of the Newton and bisection loops (both end far sooner).
_MAX_STEPS = 200


class InsufficientDataError(ValueError):
    """Raised when a record cannot support reconstruction (no H/V events)."""


@dataclass(frozen=True)
class CountRecord:
    """Event counts in the H, V, R, D bases (floats allowed).

    ``exposure`` is the number of trials per basis; it is carried for
    likelihood weighting and resampling.  Counts must be nonnegative
    and no larger than the exposure.
    """

    count_h: float
    count_v: float
    count_r: float
    count_d: float
    exposure: float

    def __post_init__(self) -> None:
        vals = (self.count_h, self.count_v, self.count_r, self.count_d, self.exposure)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("counts and exposure must be finite")
        if self.exposure <= 0:
            raise ValueError("exposure must be positive")
        if any(c < 0 for c in vals[:4]):
            raise ValueError("counts must be nonnegative")
        if any(c > self.exposure * (1.0 + 1e-12) for c in vals[:4]):
            raise ValueError("counts cannot exceed the exposure")

    def as_array(self) -> np.ndarray:
        """Counts as a length-4 array in H, V, R, D order."""
        return np.array([self.count_h, self.count_v, self.count_r, self.count_d])


# ---------------------------------------------------------------------------
# forward model
# ---------------------------------------------------------------------------

def _rho_array(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    arr = rho.rho if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if arr.shape != (2, 2):
        raise ValueError("expected a 2x2 density matrix")
    return arr


def ideal_probabilities(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Exact outcome probabilities ``tr(rho P_b)`` in H, V, R, D order:
    ``rho00``, ``rho11``, ``tr/2 + Im rho01`` and ``tr/2 + Re rho01``."""
    arr = _rho_array(rho)
    p_h, p_v, rho01 = arr[0, 0].real, arr[1, 1].real, arr[0, 1]
    half = 0.5 * (p_h + p_v)
    return np.clip([p_h, p_v, half + rho01.imag, half + rho01.real], 0.0, 1.0)


def exact_count_record(rho: DensityMatrix | np.ndarray, exposure: float = 1.0) -> CountRecord:
    """Infinite-statistics record: ``exposure * p_b`` without sampling."""
    n = exposure * ideal_probabilities(rho)
    return CountRecord(n[0], n[1], n[2], n[3], exposure=float(exposure))


def simulate_counts(
    rho: DensityMatrix | np.ndarray, exposure: float, seed: int = 0
) -> CountRecord:
    """Poisson-sampled counts, one independent draw per basis.

    Each basis observes ``Poisson(exposure * p_b)`` events, clipped at
    the exposure so a record never reports more successes than trials
    (the unclipped Poisson tail slightly exceeds the exposure when
    ``p_b`` is near 1).
    """
    if not 0 < exposure < math.inf:
        raise ValueError(f"exposure must be positive and finite, got {exposure}")
    rng, lam = np.random.default_rng(seed), exposure * ideal_probabilities(rho)
    try:
        n = rng.poisson(lam).astype(float)
    except ValueError:
        raise ValueError(f"cannot sample Poisson counts at exposure {exposure:g}") from None
    n = np.minimum(n, float(exposure))
    return CountRecord(n[0], n[1], n[2], n[3], exposure=float(exposure))


# ---------------------------------------------------------------------------
# inverse model
# ---------------------------------------------------------------------------

def _one_sided_root(n: np.ndarray, c: float, mu: np.ndarray) -> np.ndarray:
    """Root in [-1, 1] of ``-n/(1+u) + c + 2 mu u`` (``c >= 0``): the larger
    root of ``2 mu u^2 + (c + 2 mu) u + c - n``, clamped at 1."""
    with np.errstate(divide="ignore"):
        u = 2.0 * (n - c) / (c + 2.0 * mu + np.sqrt((c - 2.0 * mu) ** 2 + 8.0 * mu * n))
    return np.minimum(u, 1.0)


def _two_sided_root(s: np.ndarray, d: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Root in (-1, 1) of ``2 mu z^3 - (s + 2 mu) z + d`` (``|d| < s``) by
    Newton from 0: the cubic is monotone and convex or concave on the way,
    so the iterates approach the root from one side."""
    z = np.zeros_like(d)
    for _ in range(_MAX_STEPS):
        z, prev = (d - 4.0 * mu * z ** 3) / (s + 2.0 * mu - 6.0 * mu * z ** 2), z
        if np.max(np.abs(z - prev)) <= 1e-15:  # a few ulps of 1
            break
    return z


def _ml_bloch(counts: np.ndarray, exposure: float) -> np.ndarray:
    """Poisson ML Bloch vectors ``(m, 3)`` in the unit ball for ``(m, 4)``
    H, V, R, D count rows, each with ``n_H + n_V > 0``.

    With the ball's multiplier ``mu >= 0`` each axis u solves
    ``-n+/(1+u) + n-/(1-u) + c + 2 mu u = 0``, ``(n+, n-, c)`` =
    ``(n_D, 0, N/2)``, ``(0, n_R, -N/2)``, ``(n_H, n_V, 0)`` for x, y, z.
    ``|r(mu)|`` decreases in ``mu``: rows whose free optimum (``mu = 0``)
    lies outside bisect ``mu`` in ``(0, N]`` down to adjacent floats.
    """
    nh, nv, nr, nd = np.asarray(counts, dtype=float).T
    half, s, d = 0.5 * exposure, nh + nv, nh - nv
    two_sided = (nh > 0) & (nv > 0)

    def bloch(mu: np.ndarray) -> np.ndarray:
        z = np.where(two_sided, _two_sided_root(s, np.where(two_sided, d, 0.0), mu),
                     np.sign(d) * _one_sided_root(s, 0.0, mu))
        return np.stack([_one_sided_root(nd, half, mu), -_one_sided_root(nr, half, mu), z], 1)

    lo = np.zeros_like(s)
    hi = np.where(np.sum(bloch(lo) ** 2, axis=1) > 1.0, float(exposure), 0.0)
    r = bloch(hi)
    for _ in range(_MAX_STEPS):
        mid = 0.5 * (lo + hi)
        if not np.any((mid > lo) & (mid < hi)):
            break
        r_mid = bloch(mid)
        outside = np.sum(r_mid ** 2, axis=1) > 1.0
        lo, hi = np.where(outside, mid, lo), np.where(outside, hi, mid)
        r = np.where(outside[:, None], r, r_mid)
    return r


def reconstruct(record: CountRecord) -> DensityMatrix:
    """Constrained maximum-likelihood density matrix of a count record.

    Minimizes the Poisson negative log-likelihood over the Bloch ball.
    Inside the ball the optimum is ``x = 2 f_D - 1``, ``y = 1 - 2 f_R``,
    ``z = (n_H - n_V) / (n_H + n_V)`` (``f = n / exposure``), so exact
    records round-trip; otherwise it lies on the ball's surface.

    Raises
    ------
    InsufficientDataError
        If the record contains no H or V events, which leave z undetermined.
    """
    if record.count_h + record.count_v <= 0:
        raise InsufficientDataError("record has no H/V events; cannot normalize frequencies")
    x, y, z = _ml_bloch(record.as_array()[None, :], record.exposure)[0]
    return DensityMatrix(0.5 * np.array([[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]]))


def bootstrap_errorbar(
    record: CountRecord, resamples: int = 100, seed: int = 0
) -> tuple[float, float]:
    """Bootstrap mean and standard deviation of the reconstructed coherence.

    Each resample draws fresh Poisson counts around the observed record
    (independent child streams spawned from ``seed``, clipped at the
    exposure).  Resamples without H/V events are dropped; the rest are
    reconstructed in one pass, each giving ``C = 2 |rho_01| = hypot(x, y)``.
    The sample standard deviation uses ``ddof=1``.
    """
    if resamples < 2:
        raise ValueError("resamples must be >= 2")
    observed = record.as_array()
    draws = np.array([np.random.default_rng(child).poisson(observed)
                      for child in np.random.SeedSequence(seed).spawn(resamples)])
    draws = np.minimum(draws.astype(float), record.exposure)
    draws = draws[draws[:, 0] + draws[:, 1] > 0]
    if len(draws) < 2:
        raise InsufficientDataError("too few viable bootstrap resamples")
    values = np.hypot(*_ml_bloch(draws, record.exposure)[:, :2].T)
    return float(np.mean(values)), float(np.std(values, ddof=1))


def trace_distance(
    rho_1: DensityMatrix | np.ndarray, rho_2: DensityMatrix | np.ndarray
) -> float:
    """Trace distance ``0.5 * ||rho_1 - rho_2||_1`` between two states."""
    diff = _rho_array(rho_1) - _rho_array(rho_2)
    eigs = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(0.5 * np.sum(np.abs(eigs)))
