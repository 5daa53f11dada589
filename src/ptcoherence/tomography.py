"""Four-basis projective tomography of the evolved single-qubit state.

The measurement set is the minimal informationally complete projector
family {H, V, R, D}:

    |H> = (1, 0)                p_H = (1 + z) / 2
    |V> = (0, 1)                p_V = (1 - z) / 2
    |R> = (|H> - i|V>)/sqrt(2)  p_R = (1 - y) / 2
    |D> = (|H> + |V>)/sqrt(2)   p_D = (1 + x) / 2

with (x, y, z) the Bloch components used throughout the package
(``x = 2 Re rho01``, ``y = -2 Im rho01``, ``z = rho00 - rho11``).
Linear inversion of measured frequencies gives a Bloch vector directly;
a maximum-likelihood polish (Poisson counting statistics, Bloch ball
constraint) repairs unphysical |r| > 1 estimates caused by shot noise.

Counts are stored as floats so that exact probability records — the
infinite-exposure limit — flow through the same code paths as sampled
integer counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import l1_coherence
from .evolution import DensityMatrix
from .linalg import minimize

__all__ = [
    "BasisSet",
    "CountRecord",
    "InsufficientDataError",
    "DEFAULT_BASES",
    "ideal_probabilities",
    "exact_count_record",
    "simulate_counts",
    "reconstruct",
    "bootstrap_errorbar",
    "trace_distance",
]

_LN_CLIP = 1e-15
_BALL_SHRINK = 1.0 - 1e-12


class InsufficientDataError(ValueError):
    """Raised when a record cannot support reconstruction (no H/V events)."""


@dataclass(frozen=True)
class BasisSet:
    """Named rank-1 projector family used for the four measurements."""

    names: tuple[str, ...]
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.projectors):
            raise ValueError("names and projectors must have equal length")
        for pmat in self.projectors:
            arr = np.asarray(pmat)
            if arr.shape != (2, 2):
                raise ValueError("projectors must be 2x2")


def _ket(components) -> np.ndarray:
    v = np.asarray(components, dtype=complex)
    return v / np.linalg.norm(v)


def _projector(components) -> np.ndarray:
    v = _ket(components)
    return np.outer(v, v.conj())


_SQ2 = math.sqrt(2.0)

#: Measurement order used by every record in this module: H, V, R, D.
DEFAULT_BASES = BasisSet(
    names=("H", "V", "R", "D"),
    projectors=(
        _projector((1.0, 0.0)),
        _projector((0.0, 1.0)),
        _projector((1.0 / _SQ2, -1j / _SQ2)),
        _projector((1.0 / _SQ2, 1.0 / _SQ2)),
    ),
)


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
    """Exact outcome probabilities ``tr(rho P_b)`` in H, V, R, D order."""
    arr = _rho_array(rho)
    probs = np.array([float(np.trace(arr @ pmat).real) for pmat in DEFAULT_BASES.projectors])
    return np.clip(probs, 0.0, 1.0)


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
    if exposure <= 0:
        raise ValueError("exposure must be positive")
    rng = np.random.default_rng(seed)
    lam = exposure * ideal_probabilities(rho)
    n = np.minimum(rng.poisson(lam).astype(float), float(exposure))
    return CountRecord(n[0], n[1], n[2], n[3], exposure=float(exposure))


# ---------------------------------------------------------------------------
# inverse model
# ---------------------------------------------------------------------------

def _bloch_to_rho(r: np.ndarray) -> DensityMatrix:
    x, y, z = (float(v) for v in r)
    rho = 0.5 * np.array(
        [[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=complex
    )
    return DensityMatrix(rho)


def _probabilities_of_bloch(r: np.ndarray) -> np.ndarray:
    x, y, z = r
    return 0.5 * np.array([1.0 + z, 1.0 - z, 1.0 - y, 1.0 + x])


def _poisson_nll(r: np.ndarray, counts: np.ndarray, exposure: float) -> float:
    p = np.clip(_probabilities_of_bloch(r), _LN_CLIP, None)
    return float(np.sum(exposure * p - counts * np.log(p)))


def reconstruct(record: CountRecord) -> DensityMatrix:
    """Density matrix estimate from a count record.

    Linear inversion of the frequencies seeds the estimate
    (``x = 2 f_D - 1``, ``y = 1 - 2 f_R``, ``z = f_H - f_V``); a
    Poisson maximum-likelihood polish constrained to the Bloch ball
    then refines it.  The polish result is kept only when it does not
    worsen the negative log-likelihood, so exact records round-trip
    bit-cleanly.

    Raises
    ------
    InsufficientDataError
        If the record contains no H or V events: the exposure scale of
        the z axis is then unconstrained by the data.
    """
    counts = record.as_array()
    if record.count_h + record.count_v <= 0:
        raise InsufficientDataError("record has no H/V events; cannot normalize frequencies")
    freq = counts / record.exposure
    seed = np.array([2.0 * freq[3] - 1.0, 1.0 - 2.0 * freq[2], freq[0] - freq[1]])
    norm = float(np.linalg.norm(seed))
    if norm > 1.0:
        seed = seed * (_BALL_SHRINK / norm)

    result = minimize(
        _poisson_nll,
        seed,
        args=(counts, record.exposure),
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda r: 1.0 - float(r @ r)}],
        options=dict(maxiter=200, ftol=1e-14),
    )
    best = seed
    if result.success and np.all(np.isfinite(result.x)):
        cand = np.asarray(result.x, dtype=float)
        cnorm = float(np.linalg.norm(cand))
        if cnorm > 1.0:
            cand = cand * (_BALL_SHRINK / cnorm)
        if _poisson_nll(cand, counts, record.exposure) <= _poisson_nll(
            best, counts, record.exposure
        ):
            best = cand
    return _bloch_to_rho(best)


def bootstrap_errorbar(
    record: CountRecord, resamples: int = 100, seed: int = 0
) -> tuple[float, float]:
    """Bootstrap mean and standard deviation of the reconstructed coherence.

    Each resample draws fresh Poisson counts around the observed record
    (independent child streams spawned from ``seed``), reconstructs,
    and evaluates the l1 coherence; the sample standard deviation uses
    ``ddof=1``.
    """
    if resamples < 2:
        raise ValueError("resamples must be >= 2")
    children = np.random.SeedSequence(seed).spawn(resamples)
    observed = record.as_array()
    values = np.empty(resamples)
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        n = np.minimum(rng.poisson(observed).astype(float), record.exposure)
        try:
            rho = reconstruct(
                CountRecord(n[0], n[1], n[2], n[3], exposure=record.exposure)
            )
        except InsufficientDataError:
            values[i] = np.nan
            continue
        values[i] = l1_coherence(rho)
    good = values[np.isfinite(values)]
    if good.size < 2:
        raise InsufficientDataError("too few viable bootstrap resamples")
    return float(np.mean(good)), float(np.std(good, ddof=1))


def trace_distance(
    rho_1: DensityMatrix | np.ndarray, rho_2: DensityMatrix | np.ndarray
) -> float:
    """Trace distance ``0.5 * ||rho_1 - rho_2||_1`` between two states."""
    diff = _rho_array(rho_1) - _rho_array(rho_2)
    eigs = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(0.5 * np.sum(np.abs(eigs)))
