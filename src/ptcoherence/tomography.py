"""Four-basis projective tomography of the evolved single-qubit state.

The measurement set is the minimal informationally complete projector
family {H, V, R, D}:

    |H> = (1, 0)                p_H = (1 + z) / 2
    |V> = (0, 1)                p_V = (1 - z) / 2
    |R> = (|H> - i|V>)/sqrt(2)  p_R = (1 - y) / 2
    |D> = (|H> + |V>)/sqrt(2)   p_D = (1 + x) / 2

with (x, y, z) the package's one Bloch convention, that of
:func:`~ptcoherence.evolution.trajectory_array` (``x = 2 Re rho01``,
``y = -2 Im rho01``, ``z = rho00 - rho11``).
Reconstruction is the Poisson maximum-likelihood estimate over the Bloch
ball, solved from its optimality (KKT) conditions without a general
optimizer (Hradil, PRA 55, R1561 (1997); Smolin, Gambetta & Smith, PRL
108, 070502 (2012)); a whole bootstrap sample is solved in one array pass.

Counts are stored as floats so that exact probability records — the
infinite-exposure limit — flow through the same code paths as sampled
integer counts.

Counts and resamples are numpy's stream, redone bit for bit on Python ints and
``math`` so that no command loads ``numpy.random``: ``SeedSequence``, PCG64
XSL-RR (O'Neill, HMC-CS-2014-0905) and ``random_poisson`` (Hörmann's PTRS at
means >= 10, Insurance: Math. Econ. 12, 39 (1993); multiplication below).  Seed
``s`` draws as ``default_rng(s)``, resample ``i`` as ``SeedSequence(s).spawn(n)[i]``.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .evolution import DensityMatrix

__all__ = list(_EXPORTS["tomography"])

#: Iteration cap of the Newton and bisection loops (both end far sooner).
_MAX_STEPS = 200

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
#: numpy's largest Poisson mean: int64's max less ten of its square roots.
_POISSON_LAM_MAX = float(2**63 - 1) - math.sqrt(2**63 - 1) * 10
#: numpy's ``random_loggam`` series coefficients, in Horner order.
_LOGGAM_A = (-1.39243221690590e+00, 1.796443723688307e-01, -2.955065359477124e-02,
             6.410256410256410e-03, -1.917526917526918e-03, 8.417508417508418e-04,
             -5.952380952380952e-04, 7.936507936507937e-04, -2.777777777777778e-03,
             8.333333333333333e-02)


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

def _uint32s(n: int) -> list[int]:
    """The 32-bit words of ``n``, least significant first (one word for 0)."""
    return [n >> shift & _M32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _hash(value: int, const: int, mult: int = 0x931E8875) -> tuple[int, int]:
    """SeedSequence's hash of ``value`` and its running constant ``const``
    stepped by ``mult``, mod 2**32."""
    value, const = value ^ const, const * mult & _M32
    value = value * const & _M32
    return value ^ value >> 16, const


def _mix(pool: list[int], pairs, const: int) -> int:
    """Mix the hash of ``pool[src]`` into ``pool[dst]`` in place for each
    ``(src, dst)`` of ``pairs``, as SeedSequence mixes its entropy words;
    return the running hash constant ``const`` stepped past them."""
    for src, dst in pairs:
        value, const = _hash(pool[src], const)
        r = (0xCA01F9DD * pool[dst] - 0x4973F715 * value) & _M32
        pool[dst] = r ^ r >> 16
    return const


def _streams(seed: int):
    """``streams(key)`` gives the doubles of child ``key`` of
    ``SeedSequence(seed).spawn(n)``, or of ``default_rng(seed)`` for None.

    The seed's words, padded to the pool's 4, are mixed into the pool once
    here: SeedSequence pads a short seed before a spawn key, and without one
    its pool runs the hash out over zeros alike.  Each stream then mixes in
    only its key's words.  SeedSequence's words seed PCG64 XSL-RR, and each
    64-bit output gives its top 53 bits over 2**53.
    """
    seed = operator.index(seed)  # numpy integers as the int they hold; a float raises TypeError
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words, pool, const = _uint32s(seed), [], 0x43B0D7E5
    for word in (words + [0, 0, 0])[:4]:
        value, const = _hash(word, const)
        pool.append(value)
    pool += words[4:]  # the words past the pool, hashed only as each is mixed in
    const = _mix(pool, [*itertools.permutations(range(4), 2),
                        *itertools.product(range(4, len(pool)), range(4))], const)
    del pool[4:]

    def stream(key: int | None = None):
        mixed = pool + ([] if key is None else _uint32s(key))
        _mix(mixed, itertools.product(range(4, len(mixed)), range(4)), const)
        w, c = [], 0x8B51F9DD
        for value in mixed[:4] * 2:  # 8 uint32 = 4 uint64 words
            value, c = _hash(value, c, 0x58F38DED)
            w.append(value)
        initstate, initseq = (w[i + 2] | w[i + 3] << 32 | w[i] << 64 | w[i + 1] << 96
                              for i in (0, 4))
        mult, inc = 0x2360ED051FC65DA44385DF649FCCF645, (initseq << 1 | 1) & _M128
        state = (initstate + inc) * mult + inc

        def next_double() -> float:
            nonlocal state
            state = (state * mult + inc) & _M128
            rot, x = state >> 122, (state >> 64 ^ state) & _M64
            return (((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0**-53
        return next_double
    return stream


def _loggam(x: float) -> float:
    """numpy's ``random_loggam``: Stirling's series at ``x + n >= 7``, recurred down."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0, gl0 = x + n, 0.0
    x2 = (1.0 / x0) * (1.0 / x0)
    for coef in _LOGGAM_A:
        gl0 = gl0 * x2 + coef
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for j in range(1, n + 1):
        gl -= math.log(x0 - j)
    return gl


def _poisson(lam: float, rand) -> int:
    """numpy's ``random_poisson`` on the doubles ``rand()``, after its guard on
    ``lam``: PTRS at ``lam >= 10``, else multiplication.  Where Python raises
    and C does not, C's result is kept: ``log(0)`` is -inf, and a ``us`` of 0
    or a ``k`` beyond int64 (negative after the cast on x86-64) is rejected."""
    if not 0.0 <= lam <= _POISSON_LAM_MAX:
        raise ValueError(f"Poisson mean {lam} is not in [0, {_POISSON_LAM_MAX}]")
    if lam < 10:
        enlam, k, prod = math.exp(-lam), 0, rand() if lam else 0.0  # no draw at lam = 0
        while prod > enlam:
            k, prod = k + 1, prod * rand()
        return k
    loglam, b = math.log(lam), 0.931 + 2.53 * math.sqrt(lam)
    a, vr = -0.059 + 0.02483 * b, 0.9277 - 3.6224 / (b - 2)
    log_invalpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    while True:
        u, v = rand() - 0.5, rand()
        us = 0.5 - abs(u)
        k = math.floor((2 * a / us + b) * u + lam + 0.43) if us else -1
        if us >= 0.07 and v <= vr:
            return k
        if k < 0 or k >= 2**63 or (us < 0.013 and v > us):
            continue
        if ((math.log(v) if v else -math.inf) + log_invalpha - math.log(a / (us * us) + b)
                <= -lam + k * loglam - _loggam(float(k + 1))):
            return k


def ideal_probabilities(rho: DensityMatrix) -> np.ndarray:
    """Exact outcome probabilities ``tr(rho P_b)`` in H, V, R, D order:
    ``rho00``, ``rho11``, ``tr/2 + Im rho01`` and ``tr/2 + Re rho01``."""
    arr = rho.rho
    p_h, p_v, rho01 = arr[0, 0].real, arr[1, 1].real, arr[0, 1]
    half = 0.5 * (p_h + p_v)
    return np.clip([p_h, p_v, half + rho01.imag, half + rho01.real], 0.0, 1.0)


def exact_count_record(rho: DensityMatrix, exposure: float = 1.0) -> CountRecord:
    """Infinite-statistics record: ``exposure * p_b`` without sampling."""
    n = exposure * ideal_probabilities(rho)
    return CountRecord(n[0], n[1], n[2], n[3], exposure=float(exposure))


def simulate_counts(rho: DensityMatrix, exposure: float, seed: int = 0) -> CountRecord:
    """Poisson-sampled counts, one independent draw per basis.

    Each basis observes ``Poisson(exposure * p_b)`` events, clipped at
    the exposure so a record never reports more successes than trials
    (the unclipped Poisson tail slightly exceeds the exposure when
    ``p_b`` is near 1).  ``seed`` is a non-negative int; a negative one
    raises ValueError.
    """
    if not 0 < exposure < math.inf:
        raise ValueError(f"exposure must be positive and finite, got {exposure}")
    rand, lam = _streams(seed)(), exposure * ideal_probabilities(rho)
    try:
        n = np.minimum([_poisson(v, rand) for v in lam.tolist()], float(exposure))
    except ValueError:
        raise ValueError(f"cannot sample Poisson counts at exposure {exposure:g}") from None
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
    (resample ``i`` from child stream ``i`` of ``seed``, clipped at the
    exposure); ``seed`` is a non-negative int, and a negative one raises
    ValueError.  Resamples without H/V events are dropped; the rest are
    reconstructed in one pass, each giving ``C = 2 |rho_01| = hypot(x, y)``.
    The sample standard deviation uses ``ddof=1``.
    """
    if resamples < 2:
        raise ValueError("resamples must be >= 2")
    observed = record.as_array().tolist()
    streams = _streams(seed)
    draws = np.minimum([[_poisson(v, rand) for v in observed]
                        for rand in map(streams, range(resamples))], record.exposure)
    draws = draws[draws[:, 0] + draws[:, 1] > 0]
    if len(draws) < 2:
        raise InsufficientDataError("too few viable bootstrap resamples")
    values = np.hypot(*_ml_bloch(draws, record.exposure)[:, :2].T)
    return float(np.mean(values)), float(np.std(values, ddof=1))


def trace_distance(rho_1: DensityMatrix, rho_2: DensityMatrix) -> float:
    """Trace distance ``0.5 * ||rho_1 - rho_2||_1`` between two states.

    The Hermitian part of the difference has eigenvalues ``m ± r``, with
    ``m`` the mean of its diagonal and ``r = hypot(half their difference,
    |off-diagonal|)``, so the distance ``(|m + r| + |m - r|) / 2`` is
    ``max(|m|, r)``, in closed form.
    """
    (d00, d01), (d10, d11) = (rho_1.rho - rho_2.rho).tolist()
    m, half_gap = 0.5 * (d00.real + d11.real), 0.5 * (d00.real - d11.real)
    return max(abs(m), math.hypot(half_gap, abs(0.5 * (d01 + d10.conjugate()))))
