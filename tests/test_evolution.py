"""Closed-form propagators vs the high-precision reference, and state flows.

The reference is ``_oracle.reference_propagator``: ``mpmath.expm`` of the
generator built from its definition, independent of the closed forms under
test.  The frozen matrices below came from a dense double-precision matrix
exponential of the same generators; each test also holds the reference to
its literal within the test's tolerance.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import frobenius_dist, reference_matrix, reference_propagator
from conftest import apt, pt

from ptcoherence import (
    DensityMatrix,
    HamiltonianParams,
    PureState,
    SymmetryClass,
    evolve_density,
    propagator_analytic,
)
from ptcoherence.evolution import abc_scaled, propagator_scaled, pure_rows


def _oracle(p: HamiltonianParams, t: float) -> np.ndarray:
    """:func:`reference_propagator` as complex doubles."""
    return np.array(reference_propagator(p, t).tolist(), dtype=complex)


def _rel_dist(u: np.ndarray, v: np.ndarray) -> float:
    return frobenius_dist(u, v) / max(1.0, float(np.linalg.norm(v)))


# ---------------------------------------------------------------------------
# PureState / DensityMatrix types
# ---------------------------------------------------------------------------

def test_presets():
    h = PureState.preset("H")
    assert (h.alpha, h.beta, h.phi) == (1.0, 0.0, 0.0)
    d = PureState.preset("D")
    assert d.alpha == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    assert d.beta == pytest.approx(1 / np.sqrt(2), abs=1e-15)
    v = PureState.preset("h-sqrt3v")
    assert v.alpha == pytest.approx(0.5, abs=1e-15)
    assert v.beta == pytest.approx(np.sqrt(3) / 2, abs=1e-15)
    with pytest.raises(ValueError):
        PureState.preset("L")


def test_from_amplitudes_normalizes():
    st_ = PureState.from_amplitudes(3.0, 4.0, 0.25)
    assert st_.alpha == pytest.approx(0.6)
    assert st_.beta == pytest.approx(0.8)
    assert st_.phi == pytest.approx(0.25)


@pytest.mark.parametrize("alpha, beta, expected", [
    (1e-200, 1e-200, (1 / np.sqrt(2), 1 / np.sqrt(2))),
    (1e200, 1e200, (1 / np.sqrt(2), 1 / np.sqrt(2))),
    (3e-160, 4e-160, (0.6, 0.8)),
])
def test_from_amplitudes_at_extreme_scales(alpha, beta, expected):
    # the norm must not square the amplitudes: their squares under- or overflow
    st_ = PureState.from_amplitudes(alpha, beta)
    assert (st_.alpha, st_.beta) == pytest.approx(expected, abs=1e-15)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState(0.9, 0.9)  # not normalized
    with pytest.raises(ValueError):
        PureState(-0.6, 0.8)  # negative amplitude
    with pytest.raises(ValueError, match="must be finite"):
        PureState(np.nan, 0.8)
    with pytest.raises(ValueError, match="must not both vanish"):
        PureState.from_amplitudes(0.0, 0.0)
    assert PureState(0.6, 0.8, -1.0).phi == pytest.approx(2 * np.pi - 1.0)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.9, 0.0], [0.0, 0.9]]))  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ValueError, match="must be 2x2"):
        DensityMatrix(np.eye(3) / 3.0)
    mm = DensityMatrix.maximally_mixed()
    assert np.allclose(mm.rho, np.eye(2) / 2)


def test_density_of_pure_state():
    st_ = PureState(0.6, 0.8, 0.5)
    rho = st_.density().rho
    v = st_.vector()
    assert np.allclose(rho, np.outer(v, v.conj()), atol=1e-15)


# ---------------------------------------------------------------------------
# frozen propagator values (independent dense-exponential origin)
# ---------------------------------------------------------------------------

def test_propagator_pt_unbroken_frozen():
    p, t = pt(0.31), 1.0
    expected = np.array(
        [
            [0.8464481203742266, -0.8560139199259117j],
            [-0.8560139199259117j, 0.3157194900201612],
        ]
    )
    for u in (propagator_analytic(p, t), _oracle(p, t)):
        assert frobenius_dist(u, expected) < 1e-12


def test_propagator_pt_exceptional_point_frozen():
    # at a=1 the closed form is linear in t: exactly representable
    p, t = pt(1.0, s=2.0), 0.75
    expected = np.array([[2.5, -1.5j], [-1.5j, -0.5]])
    for u in (propagator_analytic(p, t), _oracle(p, t)):
        assert frobenius_dist(u, expected) < 1e-13


def test_propagator_apt_broken_frozen():
    p, t = apt(2.8), 0.5
    expected = np.array(
        [
            [0.26010084754156426 - 1.0337580327730485j, 0.3691992974189459],
            [0.3691992974189459, 0.26010084754156426 + 1.0337580327730485j],
        ]
    )
    for u in (propagator_analytic(p, t), _oracle(p, t)):
        assert frobenius_dist(u, expected) < 1e-12


def test_propagator_apt_unbroken_growing_frozen():
    p, t = apt(0.47, s=1.3), 2.0
    expected = np.array(
        [
            [5.012268043113757 - 2.6152631369580415j, 5.564389653102216],
            [5.564389653102216, 5.012268043113757 + 2.6152631369580415j],
        ]
    )
    for u in (propagator_analytic(p, t), _oracle(p, t)):
        assert frobenius_dist(u, expected) < 1e-10


def test_propagator_at_zero_time_is_identity():
    for p in (pt(0.31), pt(1.0), pt(2.8), apt(0.31), apt(1.0), apt(2.8)):
        assert frobenius_dist(propagator_analytic(p, 0.0), np.eye(2)) < 1e-15


# ---------------------------------------------------------------------------
# reference equivalence and algebraic properties
# ---------------------------------------------------------------------------

@given(
    a=st.floats(0.05, 3.0),
    s=st.floats(0.2, 2.0),
    t=st.floats(0.0, 20.0),
    kind=st.sampled_from([SymmetryClass.PT, SymmetryClass.APT]),
)
@settings(max_examples=150, deadline=None)
def test_propagator_matches_oracle(a, s, t, kind):
    p = HamiltonianParams(kind=kind, s=s, a=a)
    u = propagator_analytic(p, t)
    assert _rel_dist(u, _oracle(p, t)) < 1e-8


@pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7, 1e-6, -1e-6])
@pytest.mark.parametrize("kind", [SymmetryClass.PT, SymmetryClass.APT])
def test_propagator_matches_oracle_near_coalescence(kind, offset):
    p = HamiltonianParams(kind=kind, s=1.1, a=1.0 + offset)
    for t in (0.3, 2.0, 11.0):
        u = propagator_analytic(p, t)
        assert _rel_dist(u, _oracle(p, t)) < 1e-8


@given(
    a=st.floats(0.05, 3.0),
    s=st.floats(0.2, 2.0),
    t1=st.floats(0.0, 3.0),
    t2=st.floats(0.0, 3.0),
    kind=st.sampled_from([SymmetryClass.PT, SymmetryClass.APT]),
)
@settings(max_examples=100, deadline=None)
def test_propagator_group_property(a, s, t1, t2, kind):
    p = HamiltonianParams(kind=kind, s=s, a=a)
    u1 = propagator_analytic(p, t1)
    u2 = propagator_analytic(p, t2)
    u12 = propagator_analytic(p, t1 + t2)
    assert _rel_dist(u1 @ u2, u12) < 1e-9


@given(
    a=st.floats(0.05, 3.0),
    s=st.floats(0.2, 2.0),
    t=st.floats(0.0, 4.0),
    kind=st.sampled_from([SymmetryClass.PT, SymmetryClass.APT]),
)
@settings(max_examples=100, deadline=None)
def test_propagator_unit_determinant(a, s, t, kind):
    # traceless generator => det U = 1; asserted at moderate hyperbolic
    # arguments where the e^{2x} cancellation stays within 1e-8
    p = HamiltonianParams(kind=kind, s=s, a=a)
    x = s * t * np.sqrt(abs(1.0 - a * a))
    if x > 9.0:
        return
    det = np.linalg.det(propagator_analytic(p, t))
    assert abs(det - 1.0) < 1e-8


def test_propagator_raw_overflow_raises():
    with pytest.raises(OverflowError):
        propagator_analytic(pt(3.0), 300.0)


def test_propagator_scaled_survives_deep_broken_times():
    p = pt(3.0)
    u_hat, log_scale = propagator_scaled(p, 300.0)
    assert np.all(np.isfinite(u_hat.view(float)))
    assert log_scale > 500.0
    assert 0.25 <= float(np.abs(u_hat).max()) <= 4.0


def test_propagator_scaled_consistent_with_raw():
    p = apt(2.5)
    t = 1.7
    u_hat, log_scale = propagator_scaled(p, t)
    assert frobenius_dist(u_hat * np.exp(log_scale), propagator_analytic(p, t)) < 1e-10


def test_propagator_scaled_consistent_with_raw_past_the_switch():
    # broken regime at w s t = 229: above the scale switch, below the raw overflow
    p = pt(2.5)
    u_hat, log_scale = propagator_scaled(p, 100.0)
    assert log_scale > 0.0
    raw = propagator_analytic(p, 100.0)
    assert frobenius_dist(u_hat * np.exp(log_scale), raw) < 1e-12 * np.linalg.norm(raw)


def test_propagator_scaled_matches_normalized_oracle():
    # deep in the broken regime compare direction only (scale removed)
    p = pt(2.9)
    t = 80.0  # x = s t sqrt(a^2-1) ~ 218: raw entries near e^218
    u_hat = propagator_scaled(p, t)[0]
    assert frobenius_dist(u_hat / np.abs(u_hat).max(), reference_matrix(p, t)) < 1e-9


@pytest.mark.parametrize("a, t", [(3.0, 2.0), (1e3, 0.05), (1e8, 1e-7)])
def test_propagator_entries_match_reference_at_large_a(a, t):
    # PT broken at large a: U_11 is about 1/(4 a^2) of U_00, so an entry
    # formed as A - a g of two unit-size terms would lose its digits
    p = pt(a)
    u = propagator_analytic(p, t)
    ref = _oracle(p, t)
    assert np.max(np.abs(u - ref) / np.abs(ref)) <= 1e-14


@pytest.mark.parametrize("kind, a", [(SymmetryClass.PT, 0.47), (SymmetryClass.APT, 1.5),
                                     (SymmetryClass.PT, 2.8), (SymmetryClass.APT, 0.47)],
                         ids=["pt-unbroken", "apt-unbroken", "pt-broken", "apt-broken"])
def test_abc_scaled_small_arguments_match_mpmath(kind, a):
    # sin(x)/x and sinh(x)/x keep full precision down to the smallest subnormal x:
    # A = tr U / 2 and g = U_01 / M_01 of the high-precision reference
    thetas = np.array([sign * th for th in (0.0, 5e-324, 1e-300, 1e-12, 1e-5, 2e-4)
                       for sign in (1.0, -1.0)])
    A, g, log_scale = abc_scaled(kind, a, thetas)
    assert not np.any(log_scale)
    p = HamiltonianParams(kind=kind, a=a)
    m01 = -1j if kind is SymmetryClass.PT else 1.0  # M = -i H / s from its definition
    for th, got_a, got_g in zip(thetas, A, g):
        u = reference_propagator(p, float(th))  # A I + g M
        assert got_a == pytest.approx(complex((u[0, 0] + u[1, 1]) / 2).real, rel=1e-15, abs=0.0), th
        assert got_g == pytest.approx(complex(u[0, 1] / m01).real, rel=1e-15, abs=0.0), th


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        propagator_analytic(pt(0.62), -1.1)


# ---------------------------------------------------------------------------
# state evolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", [SymmetryClass.PT, SymmetryClass.APT])
@pytest.mark.parametrize("a", [0.31, 1.0, 1.5])
def test_pure_rows_match_oracle_direction(kind, a):
    p = HamiltonianParams(kind=kind, s=1.0, a=a)
    st_ = PureState(0.6, 0.8, 0.5)
    ts = (0.0, 0.7, 2.3)
    for t, v in zip(ts, pure_rows([p], st_.vector(), ts)):
        v = v / np.linalg.norm(v)
        w = _oracle(p, t) @ st_.vector()
        w = w / np.linalg.norm(w)
        phase = np.vdot(w, v)
        assert abs(abs(phase) - 1.0) < 1e-10  # same ray


def test_evolve_density_consistent_with_pure_route():
    p = apt(1.5)
    st_ = PureState.preset("h-sqrt3v")
    ts = (0.4, 1.9)
    for t, v in zip(ts, pure_rows([p], st_.vector(), ts)):
        rho = evolve_density(st_.density(), p, t).rho
        assert frobenius_dist(rho, np.outer(v, v.conj()) / np.vdot(v, v).real) < 1e-12


def test_evolve_density_keeps_unit_trace_and_hermiticity():
    p = pt(2.2)
    rho = DensityMatrix.maximally_mixed()
    out = evolve_density(rho, p, 5.0).rho
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert frobenius_dist(out, out.conj().T) < 1e-14


def test_evolve_rejects_bad_time():
    with pytest.raises(ValueError):
        propagator_analytic(pt(0.5), np.nan)
