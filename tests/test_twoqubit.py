"""Two-qubit product evolution and coherence traces.

Evolved states are held to ``_oracle.joint_reference_matrix``, mpmath's
matrix exponential of the joint generator H_A ⊗ I + I ⊗ H_B built from its
definition, independent of the Kronecker closed form under test.  The
frozen C values came from a dense double-precision exponential of the same
generator acting on the explicit 4-vectors.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from _oracle import joint_reference_matrix
from conftest import apt, pt

from ptcoherence import (
    TwoQubitState,
    build_hamiltonian,
    evolve_two_qubit,
    l1_coherence,
    theoretical_period,
    two_qubit_coherence_trace,
    two_qubit_series,
)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def test_reference_states():
    v1 = TwoQubitState.psi_1().vector
    assert np.allclose(v1, np.array([1, 1, 0, 1]) / np.sqrt(3), atol=1e-15)
    v2 = TwoQubitState.psi_2().vector
    assert v2[0] == pytest.approx(1 / np.sqrt(2))
    assert v2[3] == pytest.approx(np.exp(1j * np.pi / 5) / np.sqrt(2))
    v3 = TwoQubitState.psi_3().vector
    assert np.allclose(np.abs(v3), 0.5, atol=1e-15)


def test_state_normalization_and_validation():
    st = TwoQubitState(np.array([2.0, 0.0, 0.0, 0.0]))
    assert np.linalg.norm(st.vector) == pytest.approx(1.0)
    assert np.trace(st.rho4).real == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        TwoQubitState(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        TwoQubitState(np.zeros(4))
    with pytest.raises(ValueError, match="must be finite"):
        TwoQubitState(np.array([np.nan, 0.0, 0.0, 1.0]))


def test_state_normalization_at_extreme_magnitudes():
    # the norm is taken after an exact power-of-two scaling: no square
    # overflows at 1e200, and no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e200, 1.7e308, 1e-6):
            v = TwoQubitState(np.array([scale, 0.0, 0.0, scale])).vector
            assert np.abs(v - np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)).max() < 2e-16
    # a norm below 1e-12 is (numerically) zero, also when split over components
    for vector in ([0.99e-12, 0, 0, 0], [6e-13, 6e-13, 0, 0], [5e-324, 0, 0, 0]):
        with pytest.raises(ValueError, match="numerically"):
            TwoQubitState(np.array(vector, dtype=float))
    for vector in ([1.01e-12, 0, 0, 0], [8e-13, 8e-13, 0, 0]):
        assert np.linalg.norm(TwoQubitState(np.array(vector, dtype=float)).vector) == \
            pytest.approx(1.0, abs=1e-15)


def test_initial_coherences():
    assert l1_coherence(TwoQubitState.psi_1()) == pytest.approx(2.0, abs=1e-12)
    assert l1_coherence(TwoQubitState.psi_2()) == pytest.approx(1.0, abs=1e-12)
    assert l1_coherence(TwoQubitState.psi_3()) == pytest.approx(3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def _same_ray(v: np.ndarray, w: np.ndarray) -> float:
    """``| |<w, v>| - 1 |`` for unit ``v`` and ``w`` normalized here."""
    return abs(abs(np.vdot(w / np.linalg.norm(w), v)) - 1.0)


@pytest.mark.parametrize("p,t", [(pt(0.8), 0.6), (pt(1.0), 1.0), (apt(1.8), 0.45)])
def test_joint_evolution_matches_oracle(p, t):
    u = joint_reference_matrix(p, t)
    for psi in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
        v = evolve_two_qubit(psi, p, t).vector
        assert _same_ray(v, u @ psi.vector) < 1e-10


@pytest.mark.parametrize("p_a,p_b", [(pt(0.6), pt(1.4)), (apt(1.8), pt(0.47)),
                                     (apt(0.5), apt(1.0, s=1.3))])
def test_heterogeneous_evolution_factorizes(p_a, p_b):
    # different parameters per qubit: the grid body's U_A ⊗ U_B vs the
    # exponential of H_A ⊗ I + I ⊗ H_B
    t = 0.8
    u = joint_reference_matrix(p_a, t, p_b)
    for psi in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
        v = evolve_two_qubit(psi, p_a, t, p_second=p_b).vector
        assert _same_ray(v, u @ psi.vector) < 1e-10


def test_evolution_matches_oracle_ray():
    p = apt(1.8)
    psi = TwoQubitState.psi_3()
    for t in (0.0, 0.45, 1.7):
        v = evolve_two_qubit(psi, p, t).vector
        w = joint_reference_matrix(p, t) @ psi.vector
        w = w / np.linalg.norm(w)
        assert abs(abs(np.vdot(w, v)) - 1.0) < 1e-10


def test_evolution_deep_broken_time_is_safe():
    # the scaled route survives times where raw entries would overflow
    v = evolve_two_qubit(TwoQubitState.psi_1(), pt(3.0), 400.0).vector
    assert np.all(np.isfinite(v.view(float)))
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", [pt(1.0), apt(1.0)], ids=["pt", "apt"])
def test_exceptional_point_at_huge_times_is_safe(p):
    # at the EP the entries grow like s t; squared two-qubit magnitudes
    # hold fourth powers, which overflowed from s t ~ 1e77
    ts = np.array([1e70, 1e80, 1e300])
    assert two_qubit_series(TwoQubitState.psi_3(), p, ts) == pytest.approx(3.0, abs=1e-12)
    # the state lands on the one eigenvector pair of the defective generator
    h = build_hamiltonian(p)
    e = np.array([-h[0, 1], h[0, 0]])  # h @ e = 0 for a traceless h with det 0
    ray = np.kron(e, e)
    for t in ts:
        v = evolve_two_qubit(TwoQubitState.psi_3(), p, float(t)).vector
        assert abs(abs(np.vdot(ray / np.linalg.norm(ray), v)) - 1.0) < 1e-12


@pytest.mark.parametrize("p_a,p_b", [(pt(3.0), pt(1.5)), (apt(0.2), apt(0.6))],
                         ids=["pt", "apt"])
def test_heterogeneous_evolution_deep_broken_time_is_safe(p_a, p_b):
    # w s t ~ 400 for the slower qubit: the dense exponential of the joint
    # generator overflows, while each factor's scale cancels on
    # renormalization and the state lands on the dominant eigenvector pair
    w_min = min(np.sqrt(abs(1.0 - q.a**2)) * q.s for q in (p_a, p_b))
    v = evolve_two_qubit(TwoQubitState.psi_3(), p_a, 400.0 / w_min, p_second=p_b).vector
    assert np.all(np.isfinite(v.view(float)))

    def dominant(q):
        vals, vecs = np.linalg.eig(build_hamiltonian(q))
        return vecs[:, np.argmax(vals.imag)]

    ray = np.kron(dominant(p_a), dominant(p_b))
    assert abs(abs(np.vdot(ray / np.linalg.norm(ray), v)) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# coherence traces
# ---------------------------------------------------------------------------

def test_series_frozen_value_pt():
    values = two_qubit_series(TwoQubitState.psi_1(), pt(0.8), np.array([0.0, 0.6]))
    assert values[0] == pytest.approx(2.0, abs=1e-12)
    assert values[1] == pytest.approx(2.2525379976695623, abs=1e-10)


def test_series_frozen_value_apt():
    values = two_qubit_series(TwoQubitState.psi_3(), apt(1.8), np.array([0.45]))
    assert values[0] == pytest.approx(2.987235861069427, abs=1e-10)


def test_series_matches_evolution_route():
    p = pt(0.8)
    psi = TwoQubitState.psi_1()
    ts = np.linspace(0.0, 4.0, 9)
    series = two_qubit_series(psi, p, ts)
    direct = [l1_coherence(evolve_two_qubit(psi, p, float(t))) for t in ts]
    assert np.allclose(series, direct, atol=1e-10)


def test_broken_regime_state_independent_limit():
    # long-time limit equals (1 + c)^2 - 1 with c the single-qubit
    # stable value, for every reference state
    for p, c in ((pt(1.8), 1 / 1.8), (apt(0.8), 1.0)):
        limit = (1.0 + c) ** 2 - 1.0
        for psi in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
            tail = two_qubit_series(psi, p, np.array([40.0]))[0]
            assert tail == pytest.approx(limit, abs=1e-6)


def test_unbroken_traces_are_periodic():
    for p in (pt(0.8), apt(1.8)):
        T = theoretical_period(p)
        ts = np.linspace(0.0, T, 40)
        for psi in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
            base = two_qubit_series(psi, p, ts)
            shifted = two_qubit_series(psi, p, ts + T)
            assert float(np.max(np.abs(base - shifted))) < 1e-8


def test_trace_object_fields():
    p = apt(1.8)
    T = theoretical_period(p)
    trace = two_qubit_coherence_trace(TwoQubitState.psi_3(), p, (0.0, 2 * T))
    assert trace.times.shape == trace.values.shape == (2048,)
    assert trace.values[0] == pytest.approx(3.0, abs=1e-12)
    assert trace.period_estimate == pytest.approx(T, abs=1e-6)
    assert len(trace.extrema) >= 2


@pytest.mark.parametrize("p", [pt(0.47), apt(1.5), pt(2.8), apt(0.47)],
                         ids=["pt-unbroken", "apt-unbroken", "pt-broken", "apt-broken"])
def test_trace_extremum_kinds_alternate(p):
    # maxima and minima of a smooth trace alternate, also for a boundary
    # extremum at t = 0 and on windows much longer than a period
    for psi in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3()):
        for window in (10.0, 1e3):
            trace = two_qubit_coherence_trace(psi, p, (0.0, window))
            kinds = [e.kind for e in trace.extrema]
            assert all(k != k_next for k, k_next in zip(kinds, kinds[1:]))


def test_trace_extrema_repeat_by_the_period():
    # 4 extrema per period of psi_3 at PT 0.47, the last period's those of
    # the first shifted by (n - 1) T; a tiled window returns its first four
    # sampled periods
    p = pt(0.47)
    T = theoretical_period(p)
    for n in (10, 1000, 2048):
        trace = two_qubit_coherence_trace(TwoQubitState.psi_3(), p, (0.0, n * T))
        assert trace.times.shape == trace.values.shape == (4 * 2048,)
        assert len(trace.extrema) == 4 * n
        first = trace.extrema[:4]
        assert [e.time for e in trace.extrema[-4:]] == pytest.approx(
            [e.time + (n - 1) * T for e in first], abs=1e-9 * n * T)
        assert [e.kind for e in trace.extrema] == [e.kind for e in first] * n


def test_trace_window_validation():
    p = pt(0.8)
    psi = TwoQubitState.psi_1()
    for window in ((0.0, 0.0), (1.0, 0.5)):
        with pytest.raises(ValueError, match="must satisfy t1 > t0"):
            two_qubit_coherence_trace(psi, p, window)
    # a negative start scans the analytic continuation, as find_extrema does
    trace = two_qubit_coherence_trace(psi, p, (-1.0, 0.5))
    assert trace.times[0] == -1.0 and trace.times[-1] < 0.5


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_trace_rejects_non_finite_time(t):
    # rejected before any arithmetic: no RuntimeWarning first
    with pytest.raises(ValueError, match="must be finite"):
        two_qubit_coherence_trace(TwoQubitState.psi_1(), pt(0.8), (0.0, t))


def test_coherence_can_exceed_single_qubit_bound():
    # the four-component balanced state reaches C = 3 in the broken limit
    tail = two_qubit_series(TwoQubitState.psi_2(), apt(0.8), np.array([30.0]))[0]
    assert tail > 2.5
