"""Coherence closed forms, periods, stable values, extrema, backflow.

Frozen coherence values were produced by evolving the state with the
dense matrix exponential of the explicitly built generator and taking
2 |rho01| of the renormalized density matrix — a route independent of
the scalar closed forms checked here.
"""
from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ptcoherence as pc
from ptcoherence import (
    Classification,
    HamiltonianParams,
    PureState,
    SymmetryClass,
    asymptotic_value,
    classify_backflow,
    coherence_closed_form,
    coherence_series,
    evolve_density,
    find_extrema,
    l1_coherence,
    theoretical_period,
    verify_extrema_conditions,
)
from ptcoherence import coherence
from ptcoherence.coherence import _BISECT_WIDTH, _scan, _tail_slope, coherence_slope
from ptcoherence.evolution import pure_terms

from _oracle import reference_rows
from conftest import apt, pt, random_states


# ---------------------------------------------------------------------------
# l1 coherence of matrices
# ---------------------------------------------------------------------------

def test_l1_of_density_matrix_object():
    st_ = PureState(0.6, 0.8, 0.5)
    assert l1_coherence(st_.density()) == pytest.approx(2 * 0.6 * 0.8, abs=1e-14)


def test_l1_of_raw_array_counts_all_offdiagonals():
    m = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
    expected = 2 * abs(0.1 + 0.2j)
    assert l1_coherence(m) == pytest.approx(expected, abs=1e-14)
    four = np.eye(4) / 4 + 0.05 * (np.ones((4, 4)) - np.eye(4))
    assert l1_coherence(four) == pytest.approx(0.05 * 12, abs=1e-14)


def test_l1_adds_only_the_offdiagonal_magnitudes():
    # the total minus the diagonal would round a 1e-20 coherence to 0
    assert l1_coherence([[1, 1e-20], [1e-20, 0]]) == 2e-20
    assert l1_coherence(np.diag([0.3, 0.7])) == 0.0


def test_l1_of_a_stack_equals_each_matrix_on_its_own():
    rng = np.random.default_rng(5)
    two = np.empty((6, 2, 2), dtype=complex)
    two[:, 0, 0], two[:, 1, 1] = 1.0, 0.0
    two[:, 0, 1] = (rng.normal(size=6) + 1j * rng.normal(size=6)) * 10.0 ** -rng.integers(0, 30, 6)
    two[:, 1, 0] = two[:, 0, 1].conj()
    four = np.eye(4) + 1e-17 * rng.normal(size=(3, 4, 4))
    for stack in (two, four, four.reshape(3, 1, 4, 4)):
        values = l1_coherence(stack)
        assert values.shape == stack.shape[:-2]
        for idx in np.ndindex(values.shape):
            assert values[idx] == l1_coherence(stack[idx])
    assert l1_coherence(two) == pytest.approx(2.0 * np.abs(two[:, 0, 1]), rel=1e-15)
    by_entry = sum(abs(four[0, i, j]) for i in range(4) for j in range(4) if i != j)
    assert l1_coherence(four)[0] == pytest.approx(by_entry, rel=1e-12)


def test_l1_rejects_non_square_input():
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3))):
        with pytest.raises(ValueError, match="square"):
            l1_coherence(bad)


# ---------------------------------------------------------------------------
# frozen closed-form values
# ---------------------------------------------------------------------------

def test_closed_form_pt_unbroken_frozen():
    value = coherence_closed_form(PureState.preset("D"), pt(0.5), 0.7)
    assert value == pytest.approx(0.8957893730879257, abs=1e-12)


def test_closed_form_pt_broken_frozen():
    value = coherence_closed_form(PureState(0.6, 0.8, 0.5), pt(2.0), 1.3)
    assert value == pytest.approx(0.4838916935853138, abs=1e-12)


def test_closed_form_apt_unbroken_frozen():
    value = coherence_closed_form(PureState.preset("h-sqrt3v"), apt(1.5), 0.9)
    assert value == pytest.approx(0.9844047152118356, abs=1e-12)


def test_closed_form_apt_broken_conserved_frozen():
    value = coherence_closed_form(PureState.preset("D"), apt(0.47), 3.0)
    assert value == pytest.approx(1.0, abs=1e-12)


@given(
    a=st.floats(0.05, 3.0),
    t=st.floats(0.0, 12.0),
    alpha=st.floats(0.05, 0.95),
    beta=st.floats(0.05, 0.95),
    phi=st.floats(0.0, 2 * np.pi),
    kind=st.sampled_from([SymmetryClass.PT, SymmetryClass.APT]),
)
@settings(max_examples=120, deadline=None)
def test_closed_form_matches_matrix_route(a, t, alpha, beta, phi, kind):
    """Dual route: scalar closed form vs propagator conjugation."""
    p = HamiltonianParams(kind=kind, s=1.0, a=a)
    st_ = PureState.from_amplitudes(alpha, beta, phi)
    scalar = coherence_closed_form(st_, p, t)
    matrix = l1_coherence(evolve_density(st_.density(), p, t))
    assert scalar == pytest.approx(matrix, abs=1e-9)


def test_series_accepts_negative_probe_times():
    # negative times evaluate the analytic continuation of the closed form
    values = coherence_series(PureState.preset("D"), pt(0.5), np.array([-1e-6, 0.0, 1e-6]))
    assert np.all(np.isfinite(values))
    assert values[1] == pytest.approx(1.0, abs=1e-12)


def test_closed_form_rejects_negative_time():
    with pytest.raises(ValueError):
        coherence_closed_form(PureState.preset("D"), pt(0.5), -0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_closed_form_rejects_non_finite_time(t):
    # rejected before any arithmetic: no RuntimeWarning, no nan result
    with pytest.raises(ValueError, match="finite and nonnegative"):
        coherence_closed_form(PureState.preset("D"), pt(0.5), t)


# ---------------------------------------------------------------------------
# periods and stable values
# ---------------------------------------------------------------------------

def test_theoretical_periods_unbroken():
    assert theoretical_period(pt(0.31)) == pytest.approx(3.3043776763158683, abs=1e-12)
    assert theoretical_period(pt(0.47)) == pytest.approx(3.559207193728368, abs=1e-12)
    assert theoretical_period(apt(1.5)) == pytest.approx(2.8099258924162904, abs=1e-12)
    assert theoretical_period(apt(2.8)) == pytest.approx(1.2012179735761133, abs=1e-12)


def test_theoretical_period_scales_inversely_with_s():
    assert theoretical_period(pt(0.31, s=2.0)) == pytest.approx(
        theoretical_period(pt(0.31)) / 2.0, abs=1e-12
    )


def test_theoretical_period_none_when_aperiodic():
    assert theoretical_period(pt(1.5)) is None
    assert theoretical_period(apt(0.47)) is None
    assert theoretical_period(pt(1.0)) is None
    assert theoretical_period(apt(1.0)) is None


def test_asymptotic_values():
    assert asymptotic_value(pt(1.5)) == pytest.approx(1 / 1.5, abs=1e-14)
    assert asymptotic_value(pt(2.8)) == pytest.approx(1 / 2.8, abs=1e-14)
    assert asymptotic_value(apt(0.31)) == 1.0
    assert asymptotic_value(apt(0.47)) == 1.0
    assert asymptotic_value(pt(0.31)) is None
    assert asymptotic_value(apt(1.5)) is None
    # at the EP U = I + theta M carries every state onto the one eigenvector
    assert asymptotic_value(pt(1.0)) == 1.0
    assert asymptotic_value(apt(1.0)) == 1.0


@pytest.mark.parametrize("kind", list(SymmetryClass))
def test_exceptional_point_reaches_its_stable_value(kind):
    p = HamiltonianParams(kind=kind, a=1.0)
    states = [PureState.preset(n) for n in ("H", "D", "h-sqrt3v")] + random_states(seed=37, n=7)
    for st_ in states:
        c = reference_rows(p, st_.vector(), [1e8])[0, 0]
        assert abs(c - asymptotic_value(p)) <= 1e-12


def test_broken_trace_approaches_stable_value():
    for p, sv in ((pt(1.5), 1 / 1.5), (pt(2.8), 1 / 2.8), (apt(0.31), 1.0)):
        for st_ in (PureState.preset("H"), PureState.preset("D"), PureState(0.6, 0.8, 1.1)):
            assert coherence_closed_form(st_, p, 25.0) == pytest.approx(sv, abs=1e-9)


# ---------------------------------------------------------------------------
# extrema scan
# ---------------------------------------------------------------------------

def test_find_extrema_counts_one_period_pt():
    p = pt(0.31)
    T = theoretical_period(p)
    trace = find_extrema(PureState.preset("D"), p, (0.0, T))
    assert len(trace.extrema) == 4
    kinds = [e.kind for e in trace.extrema]
    assert kinds.count("max") == 2 and kinds.count("min") == 2
    # full touches: both maxima return to C = 1
    for e in trace.extrema:
        if e.kind == "max":
            assert e.value == pytest.approx(1.0, abs=1e-6)


def test_scan_records_are_immutable_with_named_fields():
    trace = find_extrema(PureState.preset("D"), pt(0.31), (0.0, 1.0))
    report = classify_backflow(PureState.preset("D"), pt(0.31))
    assert repr(trace.extrema[0]).startswith("Extremum(time=")
    assert repr(report) == ("BackflowReport(zeros_per_period=4, "
                            "classification=<Classification.DOUBLE_TOUCH: 'DoubleTouch'>)")
    # the arrays stay out of the trace's repr
    assert repr(trace).startswith("CoherenceTrace(extrema=(Extremum(time=")
    for record, name in ((trace.extrema[0], "kind"), (report, "classification"), (trace, "times")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_find_extrema_counts_one_period_apt():
    p = apt(1.5)
    T = theoretical_period(p)
    trace = find_extrema(PureState.preset("h-sqrt3v"), p, (0.0, T))
    assert len(trace.extrema) == 2


def test_find_extrema_boundary_counted_once():
    # window starts exactly at a stationary point: report it exactly once
    p = pt(0.31)
    T = theoretical_period(p)
    trace = find_extrema(PureState.preset("D"), p, (0.0, 2 * T))
    times = [e.time for e in trace.extrema]
    assert times[0] == pytest.approx(0.0, abs=1e-8)
    assert len(times) == 8
    assert np.all(np.diff(times) > 1e-3)


def test_find_extrema_period_estimate():
    p = pt(0.47)
    trace = find_extrema(PureState(0.6, 0.8, 0.9), p, (0.0, 2 * theoretical_period(p)))
    assert trace.period_estimate == pytest.approx(theoretical_period(p), abs=1e-6)


def test_period_estimate_only_in_the_unbroken_regime(monkeypatch):
    calls = []
    estimate = coherence._period_estimate
    monkeypatch.setattr(coherence, "_period_estimate",
                        lambda *args: calls.append(args) or estimate(*args))
    states = [PureState.preset("H"), PureState(0.6, 0.8, 0.9)] + random_states(seed=11, n=4)
    for p in (pt(1.0), apt(1.0), pt(1.5), pt(1e6), apt(0.47)):
        for st_, window in itertools.product(states, [(0.0, 1.0), (0.0, 10.0), (2.0, 50.0)]):
            assert find_extrema(st_, p, window).period_estimate is None
    assert calls == []  # a saturating span has no period to look for
    p = pt(0.47)
    trace = find_extrema(PureState(0.6, 0.8, 0.9), p, (0.0, 2 * theoretical_period(p)))
    assert len(calls) == 1 and trace.period_estimate is not None


def test_period_estimate_sweep():
    # the period command's window (0, 2 T), and windows of 1, 3 and 10
    # periods from 0.37: the estimate is T to 1e-6, or None where the
    # trace is flat (D under APT: C == 1) or the window is one period,
    # which holds each extremum once
    states = {name: PureState.preset(name) for name in ("H", "D", "h-sqrt3v")}
    states.update((f"seed#{i}", st_) for i, st_ in enumerate(random_states(seed=38, n=4)))
    cells = [(SymmetryClass.PT, a) for a in (1e-6, 1e-5, 3e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.47, 0.99)]
    cells += [(SymmetryClass.APT, a) for a in (1.01, 1.1, 1.5, 10.0, 100.0, 1e3)]
    misses = set()
    for (kind, a), s in itertools.product(cells, (1.0, 3.7)):
        p = HamiltonianParams(kind=kind, s=s, a=a)
        T = theoretical_period(p)
        windows = {n: (0.37, 0.37 + n * T) for n in (1, 3, 10)}
        windows[2] = coherence._scan_window(p, 2)
        for (name, st_), (periods, window) in itertools.product(states.items(), windows.items()):
            got = find_extrema(st_, p, window).period_estimate
            if periods == 1 or (kind is SymmetryClass.APT and name == "D"):
                right = got is None
            else:
                right = got is not None and abs(got - T) <= 1e-6 * T
            if not right:
                misses.add((kind.value, a, s, name, periods))
    assert misses == set()


@pytest.mark.parametrize("kind", [SymmetryClass.PT, SymmetryClass.APT])
def test_period_estimate_near_exceptional_point_is_period_or_none(kind):
    # near the EP the flat extrema are located less well than the width,
    # so an estimate may be None, but a number is T and never a multiple
    states = [PureState.preset(name) for name in ("H", "D", "h-sqrt3v")]
    states += random_states(seed=38, n=4)
    wrong = []
    for gap, s in itertools.product((1e-4, 1e-6, 1e-8), (1.0, 3.7)):
        p = HamiltonianParams(kind=kind, s=s, a=1.0 - gap if kind is SymmetryClass.PT else 1.0 + gap)
        T = theoretical_period(p)
        windows = [coherence._scan_window(p, 2)] + [(0.37, 0.37 + n * T) for n in (1, 3, 10)]
        for st_, window in itertools.product(states, windows):
            got = find_extrema(st_, p, window).period_estimate
            if got is not None and abs(got - T) > 1e-6 * T:
                wrong.append((gap, s, st_, window, got / T))
    assert wrong == []


def test_find_extrema_asymptote_estimate_broken():
    p = apt(0.47)
    trace = find_extrema(PureState(0.6, 0.8, 0.9), p, (0.0, 12.0))
    assert not trace.constant
    assert trace.asymptote_estimate == pytest.approx(1.0, abs=1e-6)


def test_find_extrema_past_the_broken_cut_is_constant():
    # no slope is sampled past 2 w theta = 52 ln 2, where C equals its limit
    trace = find_extrema(PureState.preset("h-sqrt3v"), pt(2.8), (100.0, 110.0))
    assert trace.constant
    assert trace.extrema == ()
    assert trace.asymptote_estimate == pytest.approx(1 / 2.8, rel=1e-12)


def test_find_extrema_constant_trace():
    trace = find_extrema(PureState.preset("D"), apt(2.8), (0.0, 5.0))
    assert trace.constant
    assert trace.extrema == ()
    assert trace.period_estimate is None
    assert trace.asymptote_estimate == pytest.approx(1.0, abs=1e-12)


def test_find_extrema_window_validation():
    st_ = PureState.preset("D")
    with pytest.raises(ValueError):
        find_extrema(st_, pt(0.31), (1.0, 1.0))


def test_find_extrema_scans_a_negative_start():
    # a negative start scans the analytic continuation, as coherence_series
    # evaluates it
    st_ = PureState.preset("h-sqrt3v")
    trace = find_extrema(st_, pt(0.8), (-1.0, 0.5))
    assert trace.times[0] == -1.0 and trace.times[-1] < 0.5
    assert np.array_equal(trace.values, coherence_series(st_, pt(0.8), trace.times))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_find_extrema_rejects_non_finite_window(t):
    # rejected before any arithmetic: no RuntimeWarning first
    with pytest.raises(ValueError, match="must be finite"):
        find_extrema(PureState.preset("D"), pt(0.8), (0.0, t))


@pytest.mark.parametrize("p", [pt(0.47), apt(1.5), pt(2.8), apt(0.47)],
                         ids=["pt-unbroken", "apt-unbroken", "pt-broken", "apt-broken"])
def test_find_extrema_kinds_alternate(p):
    # maxima and minima of a smooth trace alternate, also for a boundary
    # extremum at t = 0 and on windows much longer than a period; a broken
    # trace approaches its limit monotonically after its last extremum,
    # which so lies above the limit if a maximum and below it if a minimum
    count = 0
    for st_ in (PureState.preset("D"), PureState.preset("h-sqrt3v"),
                PureState.from_amplitudes(0.3, 1.0, 2.2)):
        for window in (10.0, 1e3):
            trace = find_extrema(st_, p, (0.0, window))
            kinds = [e.kind for e in trace.extrema]
            assert all(k != k_next for k, k_next in zip(kinds, kinds[1:])), (st_, window)
            if kinds and theoretical_period(p) is None:
                last = trace.extrema[-1]
                side = 1.0 if last.kind == "max" else -1.0
                assert side * (last.value - asymptotic_value(p)) > 0, (st_, window)
            count += len(kinds)
    assert count >= 2  # no regime passes vacuously


def test_find_extrema_plateau_has_no_spurious_points():
    # deep broken regime: the settled tail is rounding-noise flat and
    # must not contribute fake stationary points
    p = pt(2.8)
    trace = find_extrema(PureState.preset("D"), p, (0.0, 10.0))
    assert len(trace.extrema) <= 2
    assert all(e.time < 3.0 for e in trace.extrema)


def _two_root_scan(gap: float) -> list[str]:
    """Kinds that _scan finds when the two slope factors vanish at 0.3 and
    0.3 + gap, in one grid cell, with zero rounding bounds."""
    def slope(q, th):
        th = np.asarray(th, dtype=float)
        f = np.stack([0.3 - th, 0.3 + gap - th])
        return f, np.zeros_like(f)

    trace = _scan(lambda q, th: np.cos(3 * th) + 2, slope, pt(0.5), (0.0, 1.0))
    return [e.kind for e in trace.extrema]


def test_scan_keeps_roots_five_bisection_widths_apart():
    # each root is located to _BISECT_WIDTH, so roots 5 widths apart are
    # two stationary points
    assert _two_root_scan(5 * _BISECT_WIDTH) == ["max", "min"]


@pytest.mark.parametrize("gap", [0.0, 0.25, 0.5, 0.75, 0.99])
def test_scan_drops_merged_roots_of_an_inflection(gap):
    # roots closer than _BISECT_WIDTH merge into one candidate; the slope
    # (0.3 - theta)(0.3 + gap - theta) keeps its sign across the pair, so
    # it is a stationary inflection, whatever bracket each root lands in
    assert _two_root_scan(gap * _BISECT_WIDTH) == []


def _zoned_scan(roots: list[float], zone: float) -> list[tuple[float, str]]:
    """Extrema (time in widths, kind) that _scan finds over (0, 1) when slope
    factor i is roots[i] - theta plus a ripple of 3/4 ``zone`` that flips its
    sign near the root, under a rounding bound of ``zone``: each factor is
    within its bound about 1.75 ``zone`` either side of its root, as the
    C = 1 touch is near the Hermitian limit."""
    w = _BISECT_WIDTH

    def slope(q, th):
        th = np.asarray(th, dtype=float)
        f = np.stack([r - th + 0.75 * zone * np.cos(np.pi * (th - r) / (4.0 * w)) for r in roots])
        return f, np.full_like(f, zone)

    trace = _scan(lambda q, th: np.cos(3 * th) + 2, slope, pt(0.5), (0.0, 1.0))
    return [(round(e.time / w, 1), e.kind) for e in trace.extrema]


def test_scan_merges_the_roots_of_one_error_interval():
    # the factor is within its bound over about 7 widths around the root at
    # t0, and its ripple changes sign there: the whole zone is one root's
    # error interval, so the seam holds one extremum, a maximum
    assert _zoned_scan([0.0], 4 * _BISECT_WIDTH) == [(0.0, "max")]
    # zones that do not overlap keep their roots apart, zones that do merge
    # them: the slope keeps its sign across the pair, an inflection, where
    # without the bounds they are a maximum and a minimum 5 widths apart
    far = 0.3 + 30 * _BISECT_WIDTH
    assert [kind for _, kind in _zoned_scan([0.3, far], 4 * _BISECT_WIDTH)] == ["max", "min"]
    assert _zoned_scan([0.3, 0.3 + 5 * _BISECT_WIDTH], 4 * _BISECT_WIDTH) == []


@pytest.mark.parametrize("kind, a", [
    (SymmetryClass.PT, 1.5), (SymmetryClass.PT, 2.8),
    (SymmetryClass.APT, 0.47), (SymmetryClass.APT, 0.9),
])
def test_broken_scan_reports_nothing_on_the_plateau(kind, a):
    # every genuine extremum lies in the transient (w s t <= 3 here); on
    # the approach to the plateau the slope factors sink into their
    # rounding bounds, and past 2 w s t = 52 ln 2 every ratio of
    # propagator entries equals its limit to double precision, so no
    # extremum can be resolved there.  Long windows, whose first grid
    # cell spans the whole transient, find the same extrema.
    p = HamiltonianParams(kind=kind, a=a)
    w = np.sqrt(abs(1.0 - a * a))
    for st_ in random_states(seed=77, n=10):
        short = find_extrema(st_, p, (0.0, 10.0)).extrema
        for window in (10.0, 1e3, 1e6):
            trace = find_extrema(st_, p, (0.0, window))
            assert all(w * e.time <= 16.0 for e in trace.extrema)
            kinds = [e.kind for e in trace.extrema]
            assert all(k != k_next for k, k_next in zip(kinds, kinds[1:]))
            assert kinds == [e.kind for e in short]
            assert [e.time for e in trace.extrema] == pytest.approx(
                [e.time for e in short], abs=1e-8)


def _census_states() -> dict[str, PureState]:
    """The census states by name: H, V and the grid beta/alpha x phi (with
    the PT EP eigenvector (1, -i)/sqrt(2) at b/a=1 phi=3pi/2), the state
    (0.6, 0.8, 4.0), and 50 seeded states from the whole sphere."""
    states = {"H": PureState.from_amplitudes(1.0, 0.0, 0.0),
              "V": PureState.from_amplitudes(0.0, 1.0, 0.0)}
    for ratio in (0.3, 0.9, 1.0, 1.3, 5.0):
        for quarter, label in enumerate(("0", "pi/2", "pi", "3pi/2")):
            states[f"b/a={ratio:g} phi={label}"] = PureState.from_amplitudes(
                1.0, ratio, quarter * np.pi / 2.0)
    states["(0.6, 0.8, 4.0)"] = PureState(0.6, 0.8, 4.0)
    rng = np.random.default_rng(2021)
    alphas, phis = rng.uniform(0.05, 0.95, 50), rng.uniform(0.0, 2.0 * np.pi, 50)
    for i, (al, ph) in enumerate(zip(alphas, phis)):
        states[f"seed#{i}"] = PureState.from_amplitudes(al, np.sqrt(1.0 - al * al), ph)
    return states


#: Census entries that miscount or mislabel, by (kind, gap): state -> its
#: windows ("classify", or "0" at t0 = 0, "extremum", "offset", each also
#: over 10 periods as "0x10", ...) that miscount, or, with ":kinds", whose
#: count and times are right but whose kinds do not alternate.  At PT
#: 1 - a <= 1e-6 a min-max-min cluster can be narrower than one scan cell:
#: a factor then changes sign twice between two samples and brackets
#: neither root.
_CENSUS_KNOWN_MISSES = {
    ("pt", 1e-6): {
        "b/a=0.3 phi=3pi/2": "offset offsetx10", "b/a=1 phi=pi/2": "offset offsetx10",
        "b/a=1 phi=3pi/2": "extremumx10 offset offsetx10",
        "b/a=1.3 phi=3pi/2": "classify",
        **{f"seed#{i}": "0 0x10" for i in (5, 21, 42)},
    },
    ("pt", 1e-8): {
        **dict.fromkeys(["H", "V", "(0.6, 0.8, 4.0)", "b/a=1 phi=pi/2", "b/a=1 phi=3pi/2"]
                        + [f"b/a={r} phi={q}" for r in ("0.3", "0.9", "1.3", "5")
                           for q in ("0", "pi/2", "pi")],
                        "offset offsetx10"),
        "b/a=0.3 phi=3pi/2": "classify extremumx10 offset offsetx10",
        "b/a=0.9 phi=3pi/2": "classify",
        "b/a=1.3 phi=3pi/2": "classify",
        "b/a=5 phi=3pi/2": "classify offset offsetx10",
        **{f"seed#{i}": "0 0x10" for i in (1, 2, 5, 8, 21, 22, 23, 30, 41, 42, 45, 49)},
    },
}


@pytest.mark.parametrize("gap", [0.5, 0.2, 0.1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("kind, side, count", [
    (SymmetryClass.PT, -1.0, 4), (SymmetryClass.APT, 1.0, 2),
], ids=["pt", "apt"])
def test_extrema_census_near_exceptional_point(kind, side, count, gap):
    # the count theorem on the whole state sphere, at every distance from
    # the EP: 4 stationary points per period for PT, 2 for APT (none when
    # alpha = beta, where C == 1), with alternating kinds, in windows of one
    # and of ten periods starting at 0, on an analytic extremum and at a
    # seeded offset; the scanned times equal the analytic ones on the
    # circle of one period, and each analytic time is scanned
    p = HamiltonianParams(kind=kind, a=1.0 + side * gap)
    T = theoretical_period(p)
    rng = np.random.default_rng([int(side > 0), round(-10 * np.log10(gap))])
    shape = {4: Classification.DOUBLE_TOUCH, 2: Classification.SINGLE_BACKFLOW,
             0: Classification.CONSTANT}
    misses = set()
    for name, st_ in _census_states().items():
        expected = 0 if kind is SymmetryClass.APT and abs(st_.alpha - st_.beta) <= 1e-12 else count
        predicted = verify_extrema_conditions(st_, p)
        assert isinstance(predicted, tuple) and len(predicted) == expected, name
        if name.startswith("seed#"):
            windows = {"0": 0.0}
        else:  # classify_backflow scans the window at t0 = 0
            report = classify_backflow(st_, p)
            if (report.zeros_per_period, report.classification) != (expected, shape[expected]):
                misses.add((name, "classify"))
            windows = {"extremum": predicted[-1]} if predicted else {}
            windows["offset"] = float(rng.uniform(0.0, T))
        for (label, t0), periods in itertools.product(windows.items(), (1, 10)):
            window = label if periods == 1 else f"{label}x{periods}"
            extrema = find_extrema(st_, p, (t0, t0 + periods * T)).extrema
            scanned = np.array([e.time for e in extrema])
            if len(scanned) != periods * expected:
                misses.add((name, window))
                continue
            if any(e.kind == e_next.kind for e, e_next in zip(extrema, extrema[1:])):
                misses.add((name, f"{window}:kinds"))
            if expected:  # circular distances between scanned and analytic times
                gaps = np.abs((scanned[:, None] - np.array(predicted) + 0.5 * T) % T - 0.5 * T)
                assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-9 * T, (
                    name, label, periods, scanned)
    known = _CENSUS_KNOWN_MISSES.get((kind.value, gap), {})
    assert misses == {(name, label) for name, labels in known.items() for label in labels.split()}


@pytest.mark.parametrize("a", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
def test_backflow_count_is_the_analytic_count_near_the_hermitian_limit(a):
    # D's trace spans 5e-17 at a = 1e-8, below C's rounding level, yet its
    # slope factors clear their bounds away from the extrema: the count is
    # the count theorem's 4, and each C = 1 touch is found once
    states = [PureState.preset(name) for name in ("H", "D", "h-sqrt3v")]
    for st_ in states + random_states(seed=43, n=4):
        report = classify_backflow(st_, pt(a))
        assert (report.zeros_per_period, report.classification) == (
            len(verify_extrema_conditions(st_, pt(a))), Classification.DOUBLE_TOUCH), st_


def test_touch_at_the_window_start_near_the_ep_is_a_maximum():
    # the touch factor is within its bound around t0, so its kind is judged
    # at the ends of its error interval, where both factors are strong
    p = pt(0.99999999)
    st_ = PureState.from_amplitudes(1.0, 1.0, 4.71238898038469)
    extrema = find_extrema(st_, p, (0.0, theoretical_period(p))).extrema
    assert (extrema[0].time, extrema[0].kind) == (0.0, "max")
    assert [e.kind for e in extrema] == ["max", "min", "max", "min"]


@pytest.mark.parametrize("kind, a, count", [
    (SymmetryClass.PT, 0.47, 4), (SymmetryClass.APT, 1.5, 2),
], ids=["pt", "apt"])
def test_long_windows_hold_every_period(kind, a, count):
    # a window of n periods holds n times the extrema of one, with
    # alternating kinds, at the analytic times of every period: no window
    # length aliases the scan (2048 periods put every sample of a uniform
    # 2048-point grid at one phase).  Every census state gets 1 and 10
    # periods, a seeded draw of 12 of them 1000 to 3000, and 2 of those 10^5.
    p = HamiltonianParams(kind=kind, a=a)
    T = theoretical_period(p)
    states = _census_states()
    drawn = np.random.default_rng(32).choice(sorted(states), size=12, replace=False).tolist()
    for name, st_ in states.items():
        expected = 0 if kind is SymmetryClass.APT and abs(st_.alpha - st_.beta) <= 1e-12 else count
        predicted = np.array(verify_extrema_conditions(st_, p))
        assert predicted.size == expected, name
        lengths = (1, 10) + ((1000, 2048, 3000) if name in drawn else ())
        for n in lengths + ((10**5,) if name in drawn[:2] else ()):
            extrema = find_extrema(st_, p, (0.0, n * T)).extrema
            assert len(extrema) == n * expected, (name, n)
            kinds = [e.kind for e in extrema]
            assert all(k != k_next for k, k_next in zip(kinds, kinds[1:])), (name, n)
            tiled = (predicted + T * np.arange(n)[:, None]).ravel()
            scanned = np.array([e.time for e in extrema])
            assert np.abs(scanned - tiled).max(initial=0.0) <= 1e-8 * T, (name, n)


#: Large-a census entries off their mark, by a: state -> "classify" (count
#: or shape) or "times" (scanned times past the bound, or a wrong count).
#: Near balance C spans little (seed#5 and seed#7: 1.6e-13 and 1.2e-13 at
#: a = 1e10), and x' and y' cancel by about a factor of a: their rounding
#: widens the error intervals and moves the located times by up to
#: 4e-6 T.
_LARGE_A_KNOWN_MISSES = {
    1e10: {"seed#5": "times", "seed#7": "times"},
}


@pytest.mark.parametrize("a", [1e3, 1e6, 1e9, 1e10, 1e12])
def test_extrema_census_at_large_detuning(a):
    # a period is pi / a in theta, and it holds one backflow for every
    # state off the balanced one: the scan's width is a share of the phase
    # a theta, so the scanned times match the analytic ones to 1e-9 T up
    # to a = 1e6 and to 1e-6 T up to 1e10
    p = apt(a)
    T = theoretical_period(p)
    tol = 1e-9 if a <= 1e6 else 1e-6 if a <= 1e10 else None
    states = {"H": PureState.preset("H"), "V": PureState.from_amplitudes(0.0, 1.0, 0.0),
              "h-sqrt3v": PureState.preset("h-sqrt3v")}
    states.update((f"seed#{i}", st_) for i, st_ in enumerate(random_states(seed=12, n=12)))
    misses = set()
    for name, st_ in states.items():
        predicted = np.array(verify_extrema_conditions(st_, p))
        assert predicted.size == 2, name
        report = classify_backflow(st_, p)
        if (report.zeros_per_period, report.classification) != (2, Classification.SINGLE_BACKFLOW):
            misses.add((name, "classify"))
        if tol is None:
            continue
        scanned = np.array([e.time for e in find_extrema(st_, p, (0.0, T)).extrema])
        gaps = np.abs((scanned[:, None] - predicted + 0.5 * T) % T - 0.5 * T)
        if scanned.size != 2 or max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) > tol * T:
            misses.add((name, "times"))
    known = _LARGE_A_KNOWN_MISSES.get(a, {})
    assert misses == {(name, label) for name, label in known.items()}


def test_scan_window_contract():
    # find_extrema rejects an empty, reversed or non-finite window, naming
    # it in theta, and returns the span the scan sampled: the window, or
    # the first four periods of a tiled one
    p = pt(0.47)
    T = theoretical_period(p)
    one = PureState.preset("h-sqrt3v")
    for window in ((1.0, 0.5), (1.0, 1.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match=r"in theta = s\*t at s = 1\.0; it must"):
            find_extrema(one, p, window)
    for periods, samples in ((1, 2048), (10, 8192)):
        trace = find_extrema(one, p, (0.0, periods * T))
        assert trace.times.shape == (samples,)
        assert trace.times[0] == 0.0 and trace.times[-1] < min(periods, 4) * T
        assert np.array_equal(trace.values, coherence_series(one, p, trace.times))


def test_scan_widths_read_the_width_helper():
    # every bisection, seam, merge and tiling width is _width's share of the
    # phase: the absolute _BISECT_WIDTH is read by _width alone
    tree = ast.parse(Path(coherence.__file__).read_text(encoding="utf-8"))
    reads = {}
    for node in tree.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == "_BISECT_WIDTH" \
                    and isinstance(sub.ctx, ast.Load):
                reads.setdefault(getattr(node, "name", "<module>"), []).append(sub.lineno)
    assert list(reads) == ["_width"], reads


def test_extrema_past_the_cap_raise():
    p = pt(0.47)
    T = theoretical_period(p)
    with pytest.raises(ValueError, match=r"holds 4000000 extrema, more than 1000000"):
        find_extrema(PureState.preset("h-sqrt3v"), p, (0.0, 10**6 * T))


# ---------------------------------------------------------------------------
# exact slopes
# ---------------------------------------------------------------------------

def _slope_checked(p, state, theta, h) -> int:
    """Assert that the exact slope is finite and has the sign of the
    central difference of the trace wherever that difference is well
    above its own error; return how many points were compared."""
    f, bound = coherence_slope(p, pure_terms(p, state.vector()), theta)
    sign, series = np.sign(f.prod(axis=0)), lambda th: coherence_series(state, p, th)
    assert np.all(np.isfinite(f)) and np.all(np.isfinite(bound))
    diff = {k: (series(theta + k * h) - series(theta - k * h)) / (2 * k * h)
            for k in (0.5, 1.0, 2.0)}
    err = np.abs(diff[1.0] - diff[2.0]) + np.abs(diff[1.0] - diff[0.5])
    err += 8.0 * np.finfo(float).eps * np.abs(series(theta)) / h  # rounding
    clear = np.abs(diff[1.0]) > 10.0 * err
    assert np.array_equal(sign[clear], np.sign(diff[1.0][clear]))
    return int(clear.sum())


_SLOPE_CASES = [(SymmetryClass.PT, 0.47), (SymmetryClass.APT, 1.5),  # unbroken
                (SymmetryClass.PT, 2.8), (SymmetryClass.APT, 0.47),  # broken
                (SymmetryClass.PT, 1.0 - 1e-4), (SymmetryClass.APT, 1.0 + 1e-4)]
_SLOPE_STATES = pytest.mark.parametrize(
    "state", [PureState(0.6, 0.8, 0.5), PureState.preset("h-sqrt3v"),
              PureState.from_amplitudes(0.3, 1.0, 2.2), PureState.from_amplitudes(1.0, 0.45, -1.1)],
    ids=["q1", "h-sqrt3v", "v-heavy", "h-heavy"])


@_SLOPE_STATES
@pytest.mark.parametrize("kind, a", _SLOPE_CASES)
def test_slope_sign_matches_central_difference(kind, a, state):
    p = HamiltonianParams(kind=kind, a=a)
    w = np.sqrt(abs(1.0 - a * a))
    span = np.pi / w if theoretical_period(p) is not None else 10.0 / w
    theta = span * (np.arange(400) + 0.5) / 400
    assert _slope_checked(p, state, theta, 1e-5 * span) >= 100


@_SLOPE_STATES
@pytest.mark.parametrize("kind, a", _SLOPE_CASES)
def test_slope_across_the_scale_switch(kind, a, state):
    # w theta = 149.5 and 150.5 lie on both sides of the core's switch to
    # the scaled representation; a broken trace there equals its limit to
    # double precision, so its difference never clears its error
    p = HamiltonianParams(kind=kind, a=a)
    w = np.sqrt(abs(1.0 - a * a))
    for phase in (149.5, 150.5):
        theta = (phase + np.linspace(-0.5, 0.5, 101)) / w
        compared = _slope_checked(p, state, theta, 1e-4 / w)
        assert compared >= 20 or theoretical_period(p) is None
    theta = np.logspace(0.0, 6.0, 25) / w  # finite up to w theta = 1e6
    _slope_checked(p, state, theta, 1e-4 / w)


# ---------------------------------------------------------------------------
# analytic stationary conditions vs the numerical scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.31, 0.47, 0.8])
def test_predicted_extrema_match_scan_pt(a):
    p = pt(a)
    T = theoretical_period(p)
    for st_ in random_states(seed=101 + int(100 * a), n=6):
        predicted = verify_extrema_conditions(st_, p)
        scan = find_extrema(st_, p, (0.0, T))
        assert len(predicted) == len(scan.extrema) == 4
        for t_pred, ext in zip(sorted(predicted), scan.extrema):
            assert t_pred == pytest.approx(ext.time, abs=1e-6)


@pytest.mark.parametrize("a", [1.5, 2.8])
def test_predicted_extrema_match_scan_apt(a):
    p = apt(a)
    T = theoretical_period(p)
    for st_ in random_states(seed=211 + int(10 * a), n=6):
        predicted = verify_extrema_conditions(st_, p)
        scan = find_extrema(st_, p, (0.0, T))
        assert len(predicted) == len(scan.extrema) == 2
        for t_pred, ext in zip(sorted(predicted), scan.extrema):
            assert t_pred == pytest.approx(ext.time, abs=1e-6)


def test_predicted_extrema_rejects_aperiodic_regimes():
    with pytest.raises(ValueError):
        verify_extrema_conditions(PureState.preset("D"), pt(1.5))
    with pytest.raises(ValueError):
        verify_extrema_conditions(PureState.preset("D"), pt(1.0))


# ---------------------------------------------------------------------------
# backflow classification
# ---------------------------------------------------------------------------

def test_classify_pt_unbroken_double_touch():
    report = classify_backflow(PureState.preset("h-sqrt3v"), pt(0.47))
    assert report.classification is Classification.DOUBLE_TOUCH
    assert report.zeros_per_period == 4


def test_classify_apt_unbroken_single_backflow():
    report = classify_backflow(PureState.preset("h-sqrt3v"), apt(1.5))
    assert report.classification is Classification.SINGLE_BACKFLOW
    assert report.zeros_per_period == 2


def test_classify_apt_balanced_state_constant():
    report = classify_backflow(PureState.preset("D"), apt(0.31))
    assert report.classification is Classification.CONSTANT
    assert report.zeros_per_period == 0


def test_classify_broken_monotonic_rise():
    report = classify_backflow(PureState.preset("H"), pt(2.8))
    assert report.classification is Classification.MONOTONIC


def test_classify_broken_single_undershoot():
    # broken-regime decay from a bright state overshoots the stable
    # value once and recovers: a genuine (non-periodic) backflow
    report = classify_backflow(PureState.preset("D"), pt(1.5))
    assert report.classification is Classification.SINGLE_BACKFLOW


# ---------------------------------------------------------------------------
# energy-scale invariance of the scans
# ---------------------------------------------------------------------------

def _scan_summary(kind: SymmetryClass, a: float, state: str, s: float) -> tuple:
    """Stationary points per period and the period estimate (in units of
    T, or of 1/s when broken) at energy scale s."""
    p = HamiltonianParams(kind=kind, s=s, a=a)
    st_ = PureState.preset(state)
    T = theoretical_period(p)
    unit = T if T is not None else 1.0 / s
    window = (0.0, 2.0 * T) if T is not None else (0.0, 10.0 / s)
    period = find_extrema(st_, p, window).period_estimate
    return (
        classify_backflow(st_, p).zeros_per_period,
        None if period is None else period / unit,
    )


@pytest.mark.parametrize("s", [1e-4, 1e-2, 1e2, 1e4, 1e6, 1e7, 1e8])
@pytest.mark.parametrize("kind, a, state", [
    (SymmetryClass.PT, 0.47, "h-sqrt3v"),
    (SymmetryClass.APT, 1.5, "h-sqrt3v"),
    (SymmetryClass.PT, 2.8, "D"),
], ids=["pt-unbroken", "apt-unbroken", "pt-broken"])
def test_scans_do_not_depend_on_energy_scale(kind, a, state, s):
    # every observable depends on s and t only through theta = s t
    zeros, period = _scan_summary(kind, a, state, s)
    ref_zeros, ref_period = _scan_summary(kind, a, state, 1.0)
    assert zeros == ref_zeros
    if ref_period is None:
        assert period is None
    else:
        assert period == pytest.approx(ref_period, rel=1e-6)


@pytest.mark.parametrize("s", [1e-4, 1e10])
@pytest.mark.parametrize("kind, a", [(SymmetryClass.PT, 0.47), (SymmetryClass.APT, 1.5)],
                         ids=["pt", "apt"])
def test_predicted_extrema_do_not_depend_on_energy_scale(kind, a, s):
    st_ = PureState.preset("h-sqrt3v")
    ref = verify_extrema_conditions(st_, HamiltonianParams(kind=kind, a=a))
    got = verify_extrema_conditions(st_, HamiltonianParams(kind=kind, s=s, a=a))
    assert [t * s for t in got] == pytest.approx(list(ref), rel=1e-12)


@pytest.mark.parametrize("start, span", [(0.0, 1.0), (9.0, 1.0), (1e300, 1e300), (1e-300, 1e-300)])
def test_tail_slope_matches_polyfit(start, span):
    # the closed-form least-squares slope against numpy's fit on the same
    # u in [-1, 1]; raw times near 1e300 would overflow a fit's column sums
    rng = np.random.default_rng(4)
    tt = start + span * np.sort(rng.uniform(0.0, 1.0, 41))
    half = 0.5 * (tt[-1] - tt[0])
    u = (tt - (tt[0] + half)) / half
    for vv in (0.3 + 1e-3 * u + 1e-5 * rng.normal(size=41), np.full(41, 0.7), 0.2 + 0.1 * u ** 2):
        expected = np.polyfit(u, vv, 1)[0] / half
        assert _tail_slope(tt, vv) == pytest.approx(expected, rel=1e-12, abs=1e-15 / half)
