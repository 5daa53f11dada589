"""l1 coherence: closed forms, periods, asymptotes, extrema, backflow.

For a pure state ``psi = alpha |H> + beta e^{i phi} |V>`` evolved by
either generator family, the one pure-state evaluator
:func:`~ptcoherence.evolution.pure_rows` gives the unnormalized evolved
state ``v = F psi + G (K psi)``.  With the basis populations x = |v_0|^2
and y = |v_1|^2, the l1 coherence of the normalized state is

    C(t) = 2 sqrt(x y) / (x + y) = 2 |v_0| |v_1| / (x + y)

(:func:`~ptcoherence.evolution.pure_l1`), invariant under the common
rescaling of (F, G) used deep in the broken regime.

Key phenomenology exposed here:

* unbroken regime — C is periodic with period ``T = pi / (s w)``,
  ``w = sqrt(|1 - a^2|)``;
* broken regime — C converges to a state-independent stable value
  (``1/a`` for PT, ``1`` for APT);
* count theorem — for every pure initial state, one unbroken period
  holds exactly four stationary points of C under PT (two full returns
  to C = 1: a double touch) and two under APT (a single backflow), or
  none under APT when ``alpha = beta`` (there ``C == 1``).

The stationary points found numerically (dense sampling plus bisection
on the two exact factors of dC/dt, (y - x) and (x' y - x y')) are
cross-checkable against the analytic stationary conditions via
:func:`verify_extrema_conditions`:

* maxima (C = 1 touches, PT):  tan(2 theta) = -(alpha^2-beta^2) w / (a + 2 k)
* minima (PT): real roots u = tan(theta) of the quadratic
  ``c0 + c1 u + c2 u^2`` with, for n = alpha^2 + beta^2 and
  e = n + 2 k = (alpha + beta sin phi)^2 + (beta cos phi)^2,
      P  = e - 2 k (1 - a)
      c0 = w^2 alpha beta (n (1 + sin phi) - (alpha - beta)^2 - 2 alpha beta (1 - a))
      c1 = w P (beta - alpha)(beta + alpha)
      c2 = 2 a w^2 (alpha beta cos phi)^2 - (a e + k (1 - a)^2) P
  (homogeneous in (alpha, beta), with no cancellation near the EP)
* APT:  tan(2 theta) = -2 alpha beta w cos(phi) / (1 - 2 a alpha beta sin(phi))

where ``theta = w s t`` and ``k = alpha beta sin(phi)``.  These
conditions are re-derived from the closed-form x, y above and verified
against brute-force extrema in the test suite; the quadratic's
coefficients and the factor 2 multiplying ``a alpha beta sin(phi)``
matter and are locked by tests.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import _EXPORTS
from .evolution import (PureState, _evolution_times, evolve_product, pure_l1, pure_rows,
                        pure_terms, shifted_pairs)
from .hamiltonian import (HamiltonianParams, Regime, SymmetryClass, frequency, regime,
                          w_squared)

__all__ = list(_EXPORTS["coherence"])

#: Bisection stops when the bracket is narrower than this.
_BISECT_WIDTH = 1e-9
#: Value range below which a trace counts as constant.
_CONSTANT_RANGE = 1e-10
#: Samples per :func:`find_extrema` window; the two-qubit scan takes at
#: least as many.
_SCAN_SAMPLES = 2048


class Classification(enum.Enum):
    """Shape of a coherence trace over one period (or window)."""

    DOUBLE_TOUCH = "DoubleTouch"
    SINGLE_BACKFLOW = "SingleBackflow"
    CONSTANT = "Constant"
    MONOTONIC = "Monotonic"


@dataclass(frozen=True)
class Extremum:
    """A located stationary point of the coherence trace."""

    time: float
    value: float
    kind: str  # "max" or "min"


@dataclass(frozen=True)
class CoherenceTrace:
    """Sampled coherence series with detected structure.

    Attributes
    ----------
    times, values:
        The sampling grid (sorted, half-open window) and C values.
    extrema:
        Stationary points sorted by time, located to ``_BISECT_WIDTH``
        (1e-9) in ``theta = s t`` (time tolerance ``_BISECT_WIDTH / s``).
    period_estimate:
        Fundamental period recovered from the extremum spacing and
        validated by folding the trace onto itself; None when the
        window contains too few repetitions.
    asymptote_estimate:
        Mean of the final 10% of the window when the trace has
        converged there (|slope| below 1e-6 per unit theta); None
        otherwise.
    """

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    extrema: tuple[Extremum, ...]
    period_estimate: float | None
    asymptote_estimate: float | None


@dataclass(frozen=True)
class BackflowReport:
    """Stationary-point count per period and the implied trace shape."""

    zeros_per_period: int
    classification: Classification


# ---------------------------------------------------------------------------
# basic quantities
# ---------------------------------------------------------------------------

def l1_coherence(rho):
    """l1 coherence ``C = sum_{i != j} |rho_ij|`` of one density matrix or a stack.

    ``rho`` is a :class:`~ptcoherence.evolution.DensityMatrix`, a state
    exposing ``rho4`` (a two-qubit state), or an array of square
    matrices of shape ``(..., n, n)``.  Only the off-diagonal magnitudes
    are added, so a small C keeps its digits (for a Hermitian 2x2 matrix
    it is ``2 |rho_01|``).  Returns a float for one matrix and an array
    of shape ``(...)`` for a stack.
    """
    arr = np.asarray(getattr(rho, "rho", getattr(rho, "rho4", rho)), dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected square matrices (..., n, n), got shape {arr.shape}")
    c = np.abs(arr[..., ~np.eye(arr.shape[-1], dtype=bool)]).sum(axis=-1)
    return float(c) if c.ndim == 0 else c


def coherence_series(st: PureState, p: HamiltonianParams, times: np.ndarray) -> np.ndarray:
    """Closed-form l1 coherence of the evolved state over a time grid.

    ``times`` may be any real values; negative entries evaluate the
    analytic continuation.  The evolved state ``v = F psi + G K psi`` (up
    to a common scale) gives ``C = 2 |v_0| |v_1| / (|v_0|^2 + |v_1|^2)``.
    """
    return pure_l1(pure_rows([p], st.vector(), times))


def coherence_closed_form(st: PureState, p: HamiltonianParams, t: float) -> float:
    """Closed-form l1 coherence at a single finite time ``t >= 0``.

    Agrees with the matrix path (evolve the density matrix, then take
    :func:`l1_coherence`) to 1e-9.  Both routes start from the scaled
    scalars of :func:`~ptcoherence.evolution.shifted_pairs`; from
    there this one evolves the state vector and the other conjugates
    the density matrix.
    """
    return float(coherence_series(st, p, _evolution_times([t]))[0])


def theoretical_period(p: HamiltonianParams) -> float | None:
    """Oscillation period ``pi / (s sqrt(|1 - a^2|))`` in the unbroken
    regime (inf where a tiny ``s`` overflows it); None in the broken
    regime and at the exceptional point."""
    if regime(p) is not Regime.UNBROKEN:
        return None
    sw = p.s * frequency(p.kind, p.a)
    return math.pi / sw if sw > 0.0 else math.inf


def _scan_window(p: HamiltonianParams, periods: int) -> tuple[float, float]:
    """``(0, periods T)`` in the unbroken regime, else ``(0, 10 / s)``: a
    fixed ``theta = s t`` over ``s``, so an ``s`` below ``theta`` over the
    largest double is rejected with that bound."""
    T = theoretical_period(p)
    end = periods * T if T is not None else 10.0 / p.s
    if not math.isfinite(end):
        theta = periods * math.pi / frequency(p.kind, p.a) if T is not None else 10.0
        raise ValueError(f"s = {p.s} must be at least {theta / np.finfo(np.float64).max:.6g} "
                         f"here: the scan ends at t = {theta:.6g}/s, beyond the double range")
    return 0.0, end


def asymptotic_value(p: HamiltonianParams) -> float | None:
    """Long-time stable coherence value in the broken regime.

    ``1/a`` for PT, ``1`` for APT, independent of the initial state;
    None in the unbroken regime and at the exceptional point (where no
    closed-form limit is exposed — sample the trace instead).
    """
    if regime(p) is not Regime.BROKEN:
        return None
    return 1.0 / p.a if p.kind is SymmetryClass.PT else 1.0


# ---------------------------------------------------------------------------
# numerical extrema
# ---------------------------------------------------------------------------

def find_extrema(
    st: PureState,
    p: HamiltonianParams,
    window: tuple[float, float],
) -> CoherenceTrace:
    """Locate stationary points of C(t) on the half-open window [t0, t1).

    Dense sampling of the closed form (``_SCAN_SAMPLES`` points), sign
    changes of the two exact factors of dC/dtheta (see
    :func:`coherence_slope`) refined by bisection, all in
    ``theta = s t``: time tolerance ``_BISECT_WIDTH / s`` (1e-9 in
    theta), and counts do not depend on ``s``.  Seam rule: a stationary
    point within the bisection width of either end of the window is
    counted once, at t0 (so a window of one period, wherever it starts,
    holds each extremum of the period exactly once).

    Returns
    -------
    CoherenceTrace
        With extrema sorted by time, plus period and asymptote
        estimates where the window supports them.
    """
    terms = pure_terms([p], st.vector())  # fixed for the scan
    return _scan(lambda q, th: coherence_series(st, q, th),
                 lambda q, th: coherence_slope(q, terms, th), p, window, _SCAN_SAMPLES)


def _factor(plus: np.ndarray, minus: np.ndarray, den: np.ndarray):
    """``(plus - minus) / den`` and its rounding bound."""
    bound = 64.0 * np.finfo(np.float64).eps * (np.abs(plus) + np.abs(minus))
    return (plus - minus) / den, bound / den


def coherence_slope(p: HamiltonianParams, terms: dict, theta: np.ndarray):
    """Two factors of dC/dtheta and their rounding bounds, shape ``(2, n)``.

    dC/dtheta = (y - x)(x' y - x y') / (sqrt(x y) (x + y)^2) with the fixed
    ``terms`` psi and K psi, v = F psi + G K psi, v' = F' psi + G' K psi,
    x = |v_0|^2 and y = |v_1|^2.  The factor (y - x)/(x + y) vanishes at the
    C = 1 touches, (x' y - x y')/(x + y)^2 at the other extrema (with a sign
    jump at the corner minima C = 0).
    """
    c, dc = shifted_pairs(p, theta, slope=True)
    v, dv = evolve_product([c], terms), evolve_product([dc], terms)
    x, y = (v.real * v.real + v.imag * v.imag).T
    dx, dy = 2.0 * (v.conj() * dv).real.T
    f1, b1 = _factor(y, x, x + y)
    f2, b2 = _factor(dx * y, x * dy, (x + y) ** 2)
    return np.stack([f1, f2]), np.stack([b1, b2])


def _scan(
    series: Callable[[HamiltonianParams, np.ndarray], np.ndarray],
    slope: Callable[[HamiltonianParams, np.ndarray], tuple[np.ndarray, np.ndarray]],
    p: HamiltonianParams,
    window: tuple[float, float],
    samples: int,
) -> CoherenceTrace:
    """Stationary points of a trace on the half-open window, in ``theta = s t``.

    ``series(q, theta)`` is the trace and ``slope(q, theta)`` gives
    ``(f, bound)`` of shape ``(k, n)``: factors whose product has the
    sign of the slope, with their rounding bounds; both get ``p`` at
    ``s = 1``.  A factor's sign change between consecutive samples (t1
    included) that clear its bound is bisected on that factor: samples
    within the bound are skipped.  The seam rule: t0 is stationary when a
    factor there is within its bound or changes sign across
    ``t0 -/+ _BISECT_WIDTH`` (it then contributes the sign just after
    it); a root within ``_BISECT_WIDTH`` of t1, or of the root before it,
    is dropped.  The slope's change across the final bracket gives the
    kind.  In the broken regime the slope is sampled only up to
    ``2 w theta = 52 ln 2``, past which every ratio of propagator entries
    equals its limit to double precision; roots beyond it are dropped.
    Times and period are divided by ``s`` on return.
    """
    w0, w1 = float(window[0]), float(window[1])
    t0, t1 = p.s * w0, p.s * w1
    # name the caller's window in t: s*t can overflow or underflow
    in_theta = f"window ({w0}, {w1}) is ({t0}, {t1}) in theta = s*t at s = {p.s}"
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"{in_theta}; it must be finite")
    if not (t1 > t0):
        raise ValueError(f"{in_theta}; it must satisfy t1 > t0")

    unit = replace(p, s=1.0)
    ts = t0 + (t1 - t0) * np.arange(samples) / samples  # half-open grid
    values = series(unit, ts)
    extrema: list[Extremum] = []
    period = None
    cut = math.inf
    if regime(p) is Regime.BROKEN:
        cut = 26.0 * math.log(2.0) / frequency(p.kind, p.a)
    if not _flat(values) and t0 < cut:
        end = min(t1, cut)
        grid = np.append(ts, t1) if end == t1 else np.linspace(t0, end, samples + 1)
        f, bound = slope(unit, grid)
        neg, strong = f < 0.0, np.abs(f) > bound
        before, after = t0 - _BISECT_WIDTH, np.nextafter(t0 + _BISECT_WIDTH, np.inf)
        edge = slope(unit, np.array([before, after]))[0] < 0.0
        at_t0 = not strong[:, 0].all() or bool(np.any(edge[:, 0] != edge[:, 1]))
        if at_t0:  # t0 is itself stationary: its bracket is (before, after)
            neg[:, 0], strong[:, 0] = edge[:, 1], True
        # consecutive strong samples: a weak run up to the end (the
        # approach to the broken plateau) brackets nothing
        j, i = np.nonzero(strong)
        flip = (j[1:] == j[:-1]) & (neg[j[1:], i[1:]] != neg[j[:-1], i[:-1]])
        j, i, k = j[:-1][flip], i[:-1][flip], i[1:][flip]
        lo, hi, neg_lo = grid[i], grid[k], neg[j, i]
        for _ in range(100):
            if np.all(hi - lo <= _BISECT_WIDTH):
                break
            mid = 0.5 * (lo + hi)
            same = (slope(unit, mid)[0][j, np.arange(j.size)] < 0.0) == neg_lo
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        roots = 0.5 * (lo + hi)
        if at_t0:
            roots, lo, hi = np.append(t0, roots), np.append(before, lo), np.append(after, hi)
        is_max = np.prod(slope(unit, lo)[0], axis=0) > np.prod(slope(unit, hi)[0], axis=0)
        keep = (roots < t1 - _BISECT_WIDTH) & (np.abs(roots) <= cut)
        order = np.flatnonzero(keep)[np.argsort(roots[keep], kind="stable")]
        for r, val, mx in zip(roots[order], series(unit, roots[order]), is_max[order]):
            if extrema and r - extrema[-1].time <= _BISECT_WIDTH:
                continue
            extrema.append(Extremum(time=float(r), value=float(val), kind="max" if mx else "min"))
        period = _period_estimate(lambda th: series(unit, th), extrema, t0, t1,
                                  float(np.ptp(values)))
    return CoherenceTrace(
        times=ts / p.s,
        values=values,
        extrema=tuple(Extremum(e.time / p.s, e.value, e.kind) for e in extrema),
        period_estimate=None if period is None else period / p.s,
        asymptote_estimate=_asymptote_estimate(ts, values),
    )


def _flat(values: np.ndarray) -> bool:
    """Whether a sampled trace counts as constant: its value range is at
    most ``_CONSTANT_RANGE`` times max(1, its maximum)."""
    vmax = float(values.max())
    return vmax - float(values.min()) <= _CONSTANT_RANGE * max(1.0, vmax)


def _median(values: list[float]) -> float:
    """Median with ``statistics.median``'s arithmetic.  Neither that module
    (it loads ``fractions`` and ``decimal``) nor ``np.median`` (it loads
    ``numpy.ma``) is imported, which keeps them off every cold scan."""
    d = sorted(values)
    n = len(d)
    return d[n // 2] if n % 2 else (d[n // 2 - 1] + d[n // 2]) / 2


def _period_estimate(
    series: Callable[[np.ndarray], np.ndarray],
    extrema: Sequence[Extremum],
    t0: float,
    t1: float,
    value_range: float,
) -> float | None:
    """Smallest extremum-spacing candidate under which the trace folds
    onto itself."""
    candidates: set[float] = set()
    for kind in ("max", "min"):
        times = np.array([e.time for e in extrema if e.kind == kind])
        for stride in (1, 2):
            if len(times) > stride:
                diffs = times[stride:] - times[:-stride]
                candidates.add(_median(diffs.tolist()))
    fold_ts = t0 + (t1 - t0) * np.arange(256) / 512.0  # first half of the window
    base = series(fold_ts)
    tol = 1e-4 * max(value_range, 1e-6)
    for cand in sorted(candidates):
        if cand <= 0 or t0 + cand >= t1:
            continue
        shifted = series(fold_ts + cand)
        if float(np.max(np.abs(shifted - base))) <= tol:
            return cand
    return None


def _asymptote_estimate(ts: np.ndarray, values: np.ndarray) -> float | None:
    """Mean of the final 10% of the window, when flat there."""
    n = len(ts)
    tail = slice(max(0, n - max(2, n // 10)), n)
    tt, vv = ts[tail], values[tail]
    if len(tt) < 2 or tt[-1] == tt[0]:
        return None
    # fit on u = (t - centre) / half in [-1, 1]: raw times near 1e300
    # overflow polyfit's column scaling
    half = 0.5 * (float(tt[-1]) - float(tt[0]))
    centre = float(tt[0]) + half
    slope = float(np.polyfit((tt - centre) / half, vv, 1)[0]) / half
    if abs(slope) >= 1e-6:
        return None
    return float(np.mean(vv))


# ---------------------------------------------------------------------------
# analytic stationary conditions
# ---------------------------------------------------------------------------

def _two_theta_roots(num: float, den: float) -> list[float]:
    """Solutions theta in [0, pi) of  num*cos(2 theta) + den*sin(2 theta) = 0."""
    base = 0.5 * math.atan2(-num, den)
    return [(base % math.pi), (base + math.pi / 2.0) % math.pi]


def verify_extrema_conditions(st: PureState, p: HamiltonianParams) -> tuple[float, ...]:
    """Analytic stationary times of C(t) within one period (unbroken only).

    See the module docstring for the conditions.  Times are reported in
    ``[0, T)`` sorted ascending, with the seam rule of
    :func:`find_extrema`: a time within ``_BISECT_WIDTH`` of T (in
    ``theta = s t``) is reported as 0.  They match :func:`find_extrema`
    to ``1e-9 T``.

    Raises
    ------
    ValueError
        If the parameters are not in the unbroken regime.
    """
    if regime(p) is not Regime.UNBROKEN:
        raise ValueError("analytic stationary conditions require the unbroken regime")
    alpha, beta, phi = st.alpha, st.beta, st.phi
    sphi, cphi = math.sin(phi), math.cos(phi)
    a, s = p.a, p.s
    w2, w = abs(w_squared(p.kind, a)), frequency(p.kind, a)
    k = alpha * beta * sphi

    thetas: list[float] = []
    if p.kind is SymmetryClass.PT:
        # C = 1 touches (maxima)
        thetas += _two_theta_roots((alpha**2 - beta**2) * w, a + 2.0 * k)
        # minima: quadratic in u = tan(theta), with no difference of terms
        # of size (1 - a)^2 near the EP
        n, e = alpha**2 + beta**2, (alpha + beta * sphi) ** 2 + (beta * cphi) ** 2
        P = e - 2.0 * k * (1.0 - a)
        c0 = w2 * alpha * beta * (n * (1.0 + sphi) - (alpha - beta) ** 2
                                  - 2.0 * alpha * beta * (1.0 - a))
        c1 = w * P * (beta - alpha) * (beta + alpha)
        lead, rest = 2.0 * a * w2 * (alpha * beta * cphi) ** 2, (a * e + k * (1.0 - a) ** 2) * P
        c2 = lead - rest
        # a vanishing coefficient is judged against its terms' scale
        tiny = 1e-13 * max(abs(c0), abs(c1), abs(lead), abs(rest))
        if abs(c2) > tiny:
            disc = c1 * c1 - 4.0 * c0 * c2
            if disc > 0.0:
                r = math.sqrt(disc)
                thetas += [math.atan((-c1 + sr) / (2.0 * c2)) % math.pi for sr in (r, -r)]
        else:
            # leading coefficient vanished: theta = pi/2 is a root, plus
            # the remaining linear root when present
            thetas.append(math.pi / 2.0)
            if abs(c1) > tiny:
                thetas.append(math.atan(-c0 / c1) % math.pi)
    elif abs(alpha - beta) <= 1e-12:
        # x - y = alpha^2 - beta^2 = 0: the coherence is constant, so there
        # are no isolated stationary points
        return ()
    else:
        thetas += _two_theta_roots(2.0 * alpha * beta * w * cphi,
                                   1.0 - 2.0 * a * alpha * beta * sphi)

    # in s t, where the tolerances hold at every energy scale
    end = math.pi / w - _BISECT_WIDTH
    times: list[float] = []
    for u in sorted(0.0 if th / w > end else th / w for th in thetas):
        if not times or u - times[-1] > _BISECT_WIDTH:
            times.append(u)
    return tuple(u / s for u in times)


# ---------------------------------------------------------------------------
# backflow classification
# ---------------------------------------------------------------------------

def classify_backflow(
    st: PureState,
    p: HamiltonianParams,
) -> BackflowReport:
    """Count stationary points per period and classify the trace shape.

    In the unbroken regime the window is exactly one theoretical
    period, so the count is the count theorem's subject: 4 (PT,
    double touch: both maxima return to the C = 1 level within the
    full-touch threshold) or 2 (APT, single backflow).  In the broken
    regime and at the exceptional point a window of ``10/s`` is used
    and the trace is typically monotonic.  A flat trace (value range
    below 1e-10) classifies as constant with zero stationary points.
    An ``s`` so small that the window's end overflows a double raises
    ValueError.
    """
    trace = find_extrema(st, p, _scan_window(p, 1))
    if _flat(trace.values):
        return BackflowReport(zeros_per_period=0, classification=Classification.CONSTANT)
    count = len(trace.extrema)
    if count >= 4:
        cls = Classification.DOUBLE_TOUCH
    elif count >= 2:
        cls = Classification.SINGLE_BACKFLOW
    else:
        cls = Classification.MONOTONIC
    return BackflowReport(zeros_per_period=count, classification=cls)
