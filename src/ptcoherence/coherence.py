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
* outside the unbroken regime — C converges to a state-independent stable
  value (``1/a`` for PT, ``1`` for APT), so to 1 at the exceptional point,
  where ``U = I + theta M`` carries every state onto the one eigenvector;
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
from typing import Callable, NamedTuple

import numpy as np

from . import _EXPORTS
from .evolution import (PureState, _evolution_times, evolve_product, pure_l1, pure_rows,
                        pure_terms, shifted_pairs)
from .hamiltonian import (HamiltonianParams, Regime, SymmetryClass, frequency, regime,
                          w_squared)

__all__ = list(_EXPORTS["coherence"])

#: Bisection stops when the bracket is narrower than this.
_BISECT_WIDTH = 1e-9
#: Samples per scan over the window, or per period of a tiled window's
#: first ``_SCAN_PERIODS`` periods.
_SCAN_SAMPLES = 2048
#: Unbroken periods sampled at most; the rest of a window is tiled.
_SCAN_PERIODS = 4
#: Extrema a window may hold; a longer window raises ValueError.
_MAX_EXTREMA = 10**6


class Classification(enum.Enum):
    """Shape of a coherence trace over one period (or window)."""

    DOUBLE_TOUCH = "DoubleTouch"
    SINGLE_BACKFLOW = "SingleBackflow"
    CONSTANT = "Constant"
    MONOTONIC = "Monotonic"


class Extremum(NamedTuple):
    """A located stationary point of the coherence trace."""

    time: float
    value: float
    kind: str  # "max" or "min"


@dataclass(frozen=True)
class CoherenceTrace:
    """What an extrema scan (:func:`_scan`) of a window returns.

    Attributes
    ----------
    times, values:
        The span the scan sampled, half-open, and C there.
    extrema:
        Stationary points in the window, sorted by time, each within its
        error interval: 1e-9 in ``theta = s t`` (of the phase ``w theta``
        where ``w > 1``), wider where a slope factor is within its bound.
    constant:
        Whether the trace is constant: no slope sample has every factor
        clear of its bound, or no slope is sampled (a broken window past
        the cut).  A constant trace has no extrema.
    period_estimate:
        Period read from the extremum times of an unbroken span: each
        extremum paired with its copy one period on, the larger of the
        maxima's and the minima's spacings that lies within every paired
        difference's summed error intervals; else None.
    asymptote_estimate:
        Converged value at the end of the sampled span, or None.
    """

    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    extrema: tuple[Extremum, ...]
    constant: bool
    period_estimate: float | None
    asymptote_estimate: float | None


class BackflowReport(NamedTuple):
    """Stationary-point count per period and the implied trace shape."""

    zeros_per_period: int
    classification: Classification


# ---------------------------------------------------------------------------
# basic quantities
# ---------------------------------------------------------------------------

def coherence_series(st: PureState, p: HamiltonianParams, times: np.ndarray) -> np.ndarray:
    """Closed-form l1 coherence of the evolved state over a time grid.

    ``times`` may be any real values; negative entries evaluate the
    analytic continuation.  The evolved state ``v = F psi + G K psi`` (up
    to a common scale) gives ``C = 2 |v_0| |v_1| / (|v_0|^2 + |v_1|^2)``.
    """
    return pure_l1(pure_rows(p, st.vector(), times))


def coherence_closed_form(st: PureState, p: HamiltonianParams, t: float) -> float:
    """Closed-form l1 coherence at a single finite time ``t >= 0``.

    Agrees with the matrix path (evolve the density matrix, then take
    :func:`~ptcoherence.evolution.l1_coherence`) to 1e-9.  Both routes
    start from the scaled scalars of
    :func:`~ptcoherence.evolution.shifted_pairs`; from there this one
    evolves the state vector and the other conjugates the density matrix.
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
    """Long-time stable coherence value outside the unbroken regime.

    ``1/a`` for PT, ``1`` for APT, independent of the initial state, so 1
    at the exceptional point; None in the unbroken regime, where C
    oscillates.
    """
    if regime(p) is Regime.UNBROKEN:
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
    """Stationary points of C(t) on the half-open window ``(t0, t1)``:
    :func:`_scan`'s :class:`CoherenceTrace`, the sampled span with its
    extrema and estimates (the window's rules and errors are ``_scan``'s).
    """
    terms = pure_terms(p, st.vector())  # fixed for the scan
    return _scan(lambda q, th: coherence_series(st, q, th),
                 lambda q, th: coherence_slope(q, terms, th), p, window)


#: Relative rounding level of a sum of a few products of C's terms: the
#: bound of a slope factor.
_ROUNDING = 64.0 * np.finfo(np.float64).eps


def coherence_slope(p: HamiltonianParams, terms: dict, theta: np.ndarray):
    """Two factors of dC/dtheta and their rounding bounds, shape ``(2, n)``.

    dC/dtheta = (y - x)(x' y - x y') / (sqrt(x y) (x + y)^2) with the fixed
    ``terms`` psi and K psi, v = F psi + G K psi, v' = F' psi + G' K psi,
    x = |v_0|^2 and y = |v_1|^2.  The factor (y - x)/(x + y) vanishes at the
    C = 1 touches, (x' y - x y')/(x + y)^2 at the other extrema (with a sign
    jump at the corner minima C = 0).  Each bound is ``_ROUNDING`` times the
    magnitudes of its factor's terms, those of x' and y' included.
    """
    c, dc = shifted_pairs(p, theta, slope=True)
    v, dv = evolve_product([c], terms), evolve_product([dc], terms)
    x, y = (v.real * v.real + v.imag * v.imag).T
    dx, dy = 2.0 * (v.conj() * dv).real.T
    mx, my = 2.0 * (np.abs(v.real * dv.real) + np.abs(v.imag * dv.imag)).T
    size = np.stack([x + y, mx * y + x * my])  # the magnitudes of each factor's terms
    den = np.stack([x + y, (x + y) ** 2])
    return np.stack([y - x, dx * y - x * dy]) / den, _ROUNDING * size / den


def _scan(
    series: Callable[[HamiltonianParams, np.ndarray], np.ndarray],
    slope: Callable[[HamiltonianParams, np.ndarray], tuple[np.ndarray, np.ndarray]],
    p: HamiltonianParams,
    window: tuple[float, float],
) -> CoherenceTrace:
    """Stationary points of a trace on the half-open window, in ``theta = s t``.

    The one extrema scan, behind :func:`find_extrema`; its rules are
    stated here only.  ``series(q, theta)`` is the trace and
    ``slope(q, theta)`` gives ``(f, bound)`` of shape ``(k, n)``: factors
    whose product has the sign of the slope, with their rounding bounds;
    both get ``p`` at ``s = 1``, so counts do not depend on ``s``.  The
    window must be finite in ``theta`` with t1 > t0, else ValueError; a
    negative t0 scans the analytic continuation.

    ``_SCAN_SAMPLES`` samples span the window.  A longer unbroken window
    than ``_SCAN_PERIODS`` periods P = pi / w is tiled: its first
    ``_SCAN_PERIODS`` periods get ``_SCAN_SAMPLES`` samples per period,
    and its later extrema are the first period's shifted by multiples of
    P, since U(theta + P) = -U(theta).  The returned ``times``/``values``
    are the sampled span, and both estimates come from it.  Every width
    below is :func:`_width`: ``_BISECT_WIDTH`` in theta, or that share of
    the phase w theta where w > 1.

    One error model judges the roots.  A factor is strong where it clears
    its bound, and a trace is constant, with no extrema, where no sample
    has every factor strong.  The slope is sampled at the span's samples
    and end, a cell before t0, a width either side of t0 and a width
    before the end.  A factor's sign change between consecutive strong
    samples is bisected on that factor to the width; the root's error
    interval runs out to the nearest strong sample or midpoint each side,
    and is at least the width.  Roots whose intervals overlap are one
    candidate, judged across its strong ends: an extremum where the slope
    changes sign there, else a stationary inflection; a lone root is an
    extremum.  The seam, t0, is a root with an interval of one width: a
    candidate holding it is the extremum at t0, one wholly before it is
    dropped, and so is one whose interval reaches half a width before the
    end, so a window of one period, wherever it starts, holds each
    extremum of the period once.  In the broken regime the slope is
    sampled only up to ``2 w theta = 52 ln 2``, past which every ratio of
    propagator entries equals its limit to double precision; roots beyond
    it are dropped.  More than ``_MAX_EXTREMA`` extrema raise ValueError.

    The period estimate, in the unbroken regime only, reads the span's
    extremum times and their error intervals and evaluates no trace
    (:func:`_period_estimate`): each extremum of the first period P (its
    interval ends half a width before t0 + P), the ones tiling shifts, is
    paired with its copy one period on.  The asymptote estimate is the
    mean of the span's last 10%: in the unbroken regime only where the
    trace is constant, since a periodic trace converges nowhere else; in
    the broken regime and at the EP where the least-squares slope of that
    tail is below 1e-6 per unit theta.  Times and period are divided by
    ``s`` on return.
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
    w = frequency(p.kind, p.a)
    width, periodic = _width(w), regime(p) is Regime.UNBROKEN
    half = 0.5 * width
    period, cut = math.inf, math.inf
    if periodic:
        period = math.pi / w
    elif regime(p) is Regime.BROKEN:
        cut = 26.0 * math.log(2.0) / w
    tiled = t1 - t0 > _SCAN_PERIODS * period
    stop = t0 + _SCAN_PERIODS * period if tiled else t1  # end of the sampled span
    samples = _SCAN_PERIODS * _SCAN_SAMPLES if tiled else _SCAN_SAMPLES
    ts = t0 + (stop - t0) * (np.arange(samples) / samples)  # half-open; k/n exact, n = 2^m
    values = series(unit, ts)
    roots, peaks, is_max = np.empty(0), np.empty(0), np.empty(0, dtype=bool)
    estimate, constant = None, True  # no slope is sampled past the cut
    if t0 < cut:
        end = min(stop, cut)
        grid = np.append(ts, stop) if end == stop else np.linspace(t0, end, samples + 1)
        grid = np.sort(np.append([2.0 * t0 - grid[1], t0 - width, t0 + width, end - width], grid))
        f, bound = slope(unit, grid)
        neg, strong = f < 0.0, np.abs(f) > bound
        constant = not strong.all(axis=0).any()
        strong &= not constant  # a constant trace brackets nothing
        # consecutive strong samples: a weak run up to the end (the
        # approach to the broken plateau) brackets nothing either
        j, i = np.nonzero(strong)
        flip = (j[1:] == j[:-1]) & (neg[j[1:], i[1:]] != neg[j[:-1], i[:-1]])
        j, i, k = j[:-1][flip], i[:-1][flip], i[1:][flip]
        lo, hi, neg_lo = grid[i], grid[k], neg[j, i]
        left, right, cols = lo, hi, np.arange(j.size)  # the strong ends
        for _ in range(100):
            wide = hi - lo > width
            if not wide.any():
                break
            mid = 0.5 * (lo + hi)
            fm, bm = (x[j, cols] for x in slope(unit, mid))
            same, clear = (fm < 0.0) == neg_lo, wide & (np.abs(fm) > bm)
            lo, hi = np.where(wide & same, mid, lo), np.where(wide & ~same, mid, hi)
            left, right = np.where(same & clear, mid, left), np.where(~same & clear, mid, right)
        # error intervals; the seam's strong ends are reversed, so that only
        # the roots merged into it judge its kind
        found = np.append(t0, 0.5 * (lo + hi))
        ends = np.array([np.append(t0 + half, left), np.append(t0 - half, right)])
        span = np.array([np.minimum(ends[0], found - half), np.maximum(ends[1], found + half)])
        order = np.argsort(span[0], kind="stable")
        found, ends, span = found[order], ends[:, order], span[:, order]
        # roots whose intervals overlap are one candidate, at t0 if it holds the seam
        starts = np.flatnonzero(np.append(True, span[0, 1:] > np.maximum.accumulate(span[1])[:-1]))
        lo, hi = span[0, starts], np.maximum.reduceat(span[1], starts)
        at_t0 = (lo <= t0) & (t0 <= hi)
        real = np.diff(starts, append=found.size) - at_t0
        times = np.where(at_t0, t0, found[starts])
        sides = np.append(np.minimum.reduceat(ends[0], starts), np.maximum.reduceat(ends[1], starts))
        sign = np.prod(slope(unit, sides)[0], axis=0).reshape(2, -1)
        # a candidate across whose strong ends the slope keeps its sign is an inflection
        turn = (real == 1) | ((real > 1) & (np.sign(sign[0]) != np.sign(sign[1])))
        keep = turn & (times >= t0) & (hi < stop - half) & (np.abs(times) <= cut)
        roots, spans, reach = times[keep], (hi - lo)[keep], hi[keep]
        peaks, is_max = series(unit, roots), (sign[0] > sign[1])[keep]
        first = reach < t0 + period - half  # the first period's extrema
        if periodic:
            estimate = _period_estimate(roots, is_max, first, spans)
        if tiled:  # the first period's extrema, shifted by whole periods
            copies = np.ceil((t1 - half - reach[first]) / period)
            if copies.sum() > _MAX_EXTREMA:
                raise ValueError(f"window ({w0}, {w1}) holds {int(copies.sum())} extrema, "
                                 f"more than {_MAX_EXTREMA}")
            shift = period * np.arange(int(copies.max(initial=0.0)))[:, None]
            keep = (reach[first] + shift).ravel() < t1 - half
            roots = (roots[first] + shift).ravel()[keep]
            peaks, is_max = (np.tile(peaks[first], shift.size)[keep],
                             np.tile(is_max[first], shift.size)[keep])
    return CoherenceTrace(
        times=ts / p.s,
        values=values,
        extrema=tuple(Extremum(r, v, "max" if mx else "min")
                      for r, v, mx in zip((roots / p.s).tolist(), peaks.tolist(), is_max.tolist())),
        constant=constant,
        period_estimate=None if estimate is None else estimate / p.s,
        asymptote_estimate=_asymptote_estimate(ts, values, periodic, constant),
    )


def _width(w: float) -> float:
    """The scan's width in ``theta = s t`` at frequency ``w``: ``_BISECT_WIDTH``,
    or that share of the phase ``w theta`` where ``w > 1``, so that a fast
    period is resolved as finely as a slow one."""
    return _BISECT_WIDTH / max(1.0, w)


def _period_estimate(times: np.ndarray, is_max: np.ndarray, first: np.ndarray,
                     spans: np.ndarray) -> float | None:
    """The larger of the maxima's and the minima's spacings that lies within
    the error of every paired difference, else None.  A kind pairs each of
    its extrema with its copy one period on: with n of them in the ``first``
    period, its differences at stride n, each known to the sum of its pair's
    error intervals ``spans``; its spacing is their mean.  None also where
    n is 0 or where no extremum has a copy."""
    pairs = []
    for kind in (is_max, ~is_max):
        same, span, n = times[kind], spans[kind], int(np.count_nonzero(first[kind]))
        if n == 0 or same.size == n:
            return None
        pairs.append((same[n:] - same[:-n], span[n:] + span[:-n]))
    diffs, error = map(np.concatenate, zip(*pairs))
    within = [m for m in (float(np.mean(d)) for d, _ in pairs)
              if np.max(diffs - error) <= m <= np.min(diffs + error)]
    return max(within, default=None)


def _asymptote_estimate(ts: np.ndarray, values: np.ndarray, periodic: bool,
                        constant: bool) -> float | None:
    """Mean of the span's last 10% where converged: a periodic trace only
    when it is ``constant``, any other when its tail slope is below 1e-6."""
    tail = slice(len(ts) - max(2, len(ts) // 10), None)
    tt, vv = ts[tail], values[tail]
    converged = constant if periodic else tt[-1] > tt[0] and abs(_tail_slope(tt, vv)) < 1e-6
    return float(np.mean(vv)) if converged else None


def _tail_slope(tt: np.ndarray, vv: np.ndarray) -> float:
    """Least-squares slope of ``vv`` over ``tt`` in closed form, fitted on
    u = (t - centre) / half in [-1, 1], so that times near 1e300 overflow
    no sum of squares."""
    half = 0.5 * (float(tt[-1]) - float(tt[0]))
    centre = float(tt[0]) + half
    u = (tt - centre) / half
    u = u - np.mean(u)
    return float(np.sum(u * (vv - np.mean(vv))) / np.sum(u * u)) / half


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
    ``[0, T)`` sorted ascending, with the seam rule and width of
    :func:`_scan`: a time within the width of T is reported as 0, and
    times within the width of each other once.  They match
    :func:`find_extrema` to ``1e-9 T`` up to ``w = 1e6``, and to ``1e-6 T``
    up to ``w = 1e10`` for states far enough from balance.

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
    width = _width(w)
    end = math.pi / w - width
    times: list[float] = []
    for u in sorted(0.0 if th / w > end else th / w for th in thetas):
        if not times or u - times[-1] > width:
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
    and the trace is typically monotonic.  A trace without stationary
    points that the scan finds constant (``CoherenceTrace.constant``)
    classifies as constant.
    An ``s`` so small that the window's end overflows a double raises
    ValueError.
    """
    trace = find_extrema(st, p, _scan_window(p, 1))
    if not trace.extrema and trace.constant:
        return BackflowReport(zeros_per_period=0, classification=Classification.CONSTANT)
    count = len(trace.extrema)
    if count >= 4:
        cls = Classification.DOUBLE_TOUCH
    elif count >= 2:
        cls = Classification.SINGLE_BACKFLOW
    else:
        cls = Classification.MONOTONIC
    return BackflowReport(zeros_per_period=count, classification=cls)
