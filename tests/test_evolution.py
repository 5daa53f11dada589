"""Closed-form propagators vs the high-precision reference, and state flows.

The reference is ``_oracle.reference_propagator``: ``mpmath.expm`` of the
generator built from its definition, independent of the closed forms under
test.  The frozen matrices below came from a dense double-precision matrix
exponential of the same generators; each test also holds the reference to
its literal within the test's tolerance.
"""
from __future__ import annotations

import ast
from pathlib import Path

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
    l1_coherence,
    propagator_scaled,
)
from ptcoherence import evolution
from ptcoherence.evolution import evolve_density_grid, pure_l1, pure_rows, shifted_pairs
from ptcoherence.hamiltonian import Regime, frequency, regime


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
    mm = DensityMatrix(np.eye(2) / 2)
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
    for u in (propagator_scaled(p, t), _oracle(p, t)):
        assert frobenius_dist(u, expected) < 1e-12


def test_propagator_pt_exceptional_point_frozen():
    # at a=1 the closed form is linear in t: exactly representable
    p, t = pt(1.0, s=2.0), 0.75
    expected = np.array([[2.5, -1.5j], [-1.5j, -0.5]])
    for u in (propagator_scaled(p, t), _oracle(p, t)):
        assert frobenius_dist(u, expected) < 1e-13


def test_propagator_apt_broken_frozen():
    p, t = apt(2.8), 0.5
    expected = np.array(
        [
            [0.26010084754156426 - 1.0337580327730485j, 0.3691992974189459],
            [0.3691992974189459, 0.26010084754156426 + 1.0337580327730485j],
        ]
    )
    for u in (propagator_scaled(p, t), _oracle(p, t)):
        assert frobenius_dist(u, expected) < 1e-12


def test_propagator_apt_unbroken_growing_frozen():
    p, t = apt(0.47, s=1.3), 2.0
    expected = np.array(
        [
            [5.012268043113757 - 2.6152631369580415j, 5.564389653102216],
            [5.564389653102216, 5.012268043113757 + 2.6152631369580415j],
        ]
    )
    for u in (propagator_scaled(p, t), _oracle(p, t)):
        assert frobenius_dist(u, expected) < 1e-10


def test_propagator_at_zero_time_is_identity():
    for p in (pt(0.31), pt(1.0), pt(2.8), apt(0.31), apt(1.0), apt(2.8)):
        assert frobenius_dist(propagator_scaled(p, 0.0), np.eye(2)) < 1e-15


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
    u = propagator_scaled(p, t)
    assert _rel_dist(u, _oracle(p, t)) < 1e-8


@pytest.mark.parametrize("offset", [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7, 1e-6, -1e-6])
@pytest.mark.parametrize("kind", [SymmetryClass.PT, SymmetryClass.APT])
def test_propagator_matches_oracle_near_coalescence(kind, offset):
    p = HamiltonianParams(kind=kind, s=1.1, a=1.0 + offset)
    for t in (0.3, 2.0, 11.0):
        u = propagator_scaled(p, t)
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
    u1 = propagator_scaled(p, t1)
    u2 = propagator_scaled(p, t2)
    u12 = propagator_scaled(p, t1 + t2)
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
    det = np.linalg.det(propagator_scaled(p, t))
    assert abs(det - 1.0) < 1e-8


def test_propagator_scaled_survives_deep_broken_times():
    # w s t ~ 849: U's entries would be near e^849, past the double range
    u_hat = propagator_scaled(pt(3.0), 300.0)
    assert np.all(np.isfinite(u_hat.view(float)))
    assert 0.25 <= float(np.abs(u_hat).max()) <= 4.0


def test_propagator_scaled_matches_normalized_oracle():
    # compare direction only (scale removed): PT 2.9 at x = s t sqrt(a^2-1) ~ 218,
    # raw entries near e^218; APT 2.9 at the same phase; both kinds at the EP,
    # where s t = 1e70 is past e^150; APT 1.5 at a phase of about 1118
    for p, t in ((pt(2.9), 80.0), (apt(2.9), 80.0), (pt(1.0), 1e70), (apt(1.0), 1e70),
                 (apt(1.5), 1e3)):
        u_hat = propagator_scaled(p, t)
        assert frobenius_dist(u_hat / np.abs(u_hat).max(), reference_matrix(p, t)) < 1e-9, (p, t)


@pytest.mark.parametrize("p, t", [(pt(2.5), 65.0), (apt(0.5), 170.0), (pt(1.0), 1e64)],
                         ids=["pt-broken", "apt-broken", "pt-ep"])
def test_propagator_scaled_is_u_just_below_the_switch(p, t):
    # |w s t| ~ 149 and 147, and log(s t) ~ 147 at the EP: still U(t) itself,
    # entries near e^148, with no factor removed
    assert _rel_dist(propagator_scaled(p, t), _oracle(p, t)) < 1e-12


@pytest.mark.parametrize("p, t", [(pt(2.5), 100.0), (apt(0.31), 200.0), (apt(1.0), 1e70)],
                         ids=["pt-broken", "apt-broken", "apt-ep"])
def test_propagator_scaled_past_the_switch_is_a_positive_multiple_of_u(p, t):
    # |w s t| ~ 229 and 190, and log(s t) ~ 161 at the EP: U(t) is still a
    # finite double here, so the removed factor can be read off directly
    u_hat, u = propagator_scaled(p, t), _oracle(p, t)
    c = np.vdot(u_hat, u) / np.vdot(u_hat, u_hat).real
    assert c.real > 1.0 and abs(c.imag) <= 1e-12 * c.real
    assert frobenius_dist(c.real * u_hat, u) <= 1e-12 * np.linalg.norm(u)


@pytest.mark.parametrize("p", [pt(0.47), pt(2.8), apt(1.5), apt(0.47)],
                         ids=["pt-unbroken", "pt-broken", "apt-unbroken", "apt-broken"])
def test_propagator_scaled_at_negative_time_is_the_inverse(p):
    # a negative time evaluates the analytic continuation U(-t) = U(t)^-1
    t = 1.3
    back = propagator_scaled(p, -t)
    assert _rel_dist(back, _oracle(p, -t)) < 1e-12
    assert frobenius_dist(back @ propagator_scaled(p, t), np.eye(2)) < 1e-12


@pytest.mark.parametrize("a, t", [(3.0, 2.0), (1e3, 0.05), (1e8, 1e-7)])
def test_propagator_entries_match_reference_at_large_a(a, t):
    # PT broken at large a: U_11 is about 1/(4 a^2) of U_00, so an entry
    # formed as A - a g of two unit-size terms would lose its digits
    p = pt(a)
    u = propagator_scaled(p, t)
    ref = _oracle(p, t)
    assert np.max(np.abs(u - ref) / np.abs(ref)) <= 1e-14


@pytest.mark.parametrize("kind, a", [(SymmetryClass.PT, 0.47), (SymmetryClass.APT, 1.5),
                                     (SymmetryClass.PT, 2.8), (SymmetryClass.APT, 0.47)],
                         ids=["pt-unbroken", "apt-unbroken", "pt-broken", "apt-broken"])
def test_shifted_pairs_small_arguments_match_mpmath(kind, a):
    # sin(x)/x and sinh(x)/x keep full precision down to the smallest subnormal x:
    # A = tr U / 2 and g = U_01 / M_01 of the high-precision reference give
    # (F, G) = (A, g) where unbroken, (A - w g, (1 + w) g) where broken
    thetas = np.array([sign * th for th in (0.0, 5e-324, 1e-300, 1e-12, 1e-5, 2e-4)
                       for sign in (1.0, -1.0)])
    p = HamiltonianParams(kind=kind, a=a)  # s = 1: the times are theta
    F, G = shifted_pairs(p, thetas)
    sigma = frequency(kind, a) if regime(p) is Regime.BROKEN else 0.0
    m01 = -1j if kind is SymmetryClass.PT else 1.0  # M = -i H / s from its definition
    for th, got_f, got_g in zip(thetas, F, G):
        u = reference_propagator(p, float(th))  # A I + g M
        ref_a = complex((u[0, 0] + u[1, 1]) / 2).real
        ref_g = complex(u[0, 1] / m01).real
        assert got_f == pytest.approx(ref_a - sigma * ref_g, rel=1e-15, abs=0.0), th
        assert got_g == pytest.approx((1.0 + sigma) * ref_g, rel=1e-15, abs=0.0), th


def test_only_shifted_pairs_reads_the_energy_scale():
    # theta = s t is formed in one place: the attribute .s is read inside
    # shifted_pairs alone, and abc_scaled, folded into it, is not defined
    tree = ast.parse(Path(evolution.__file__).read_text(encoding="utf-8"))
    reads = {}
    for node in tree.body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "s" \
                    and isinstance(sub.ctx, ast.Load):
                reads.setdefault(getattr(node, "name", "<module>"), []).append(sub.lineno)
    assert list(reads) == ["shifted_pairs"], reads
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "abc_scaled" not in defined


# ---------------------------------------------------------------------------
# state evolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", [SymmetryClass.PT, SymmetryClass.APT])
@pytest.mark.parametrize("a", [0.31, 1.0, 1.5])
def test_pure_rows_match_oracle_direction(kind, a):
    p = HamiltonianParams(kind=kind, s=1.0, a=a)
    st_ = PureState(0.6, 0.8, 0.5)
    ts = (0.0, 0.7, 2.3)
    for t, v in zip(ts, pure_rows(p, st_.vector(), ts)):
        v = v / np.linalg.norm(v)
        w = _oracle(p, t) @ st_.vector()
        w = w / np.linalg.norm(w)
        phase = np.vdot(w, v)
        assert abs(abs(phase) - 1.0) < 1e-10  # same ray


def test_pure_l1_matches_the_density_route():
    # rows of two and four amplitudes scaled by exact powers of two, to
    # magnitudes whose products and squares would underflow or overflow
    # unscaled; the reference is the density matrix of the unscaled row
    rng = np.random.default_rng(11)
    scales = 2.0 ** np.array([0, -560, -1000, 500, 1000, -1020])
    for n in (2, 4):
        v = rng.normal(size=(scales.size, n)) + 1j * rng.normal(size=(scales.size, n))
        v[1, 0] = 0.0
        unit = v / np.linalg.norm(v, axis=1, keepdims=True)
        density = l1_coherence(np.einsum("ni,nj->nij", unit, unit.conj()))
        assert np.max(np.abs(pure_l1(v * scales[:, None]) - density)) < 1e-14


def test_evolve_density_consistent_with_pure_route():
    p = apt(1.5)
    st_ = PureState.preset("h-sqrt3v")
    ts = (0.4, 1.9)
    for t, v in zip(ts, pure_rows(p, st_.vector(), ts)):
        rho = evolve_density(st_.density(), p, t).rho
        assert frobenius_dist(rho, np.outer(v, v.conj()) / np.vdot(v, v).real) < 1e-12


def test_evolve_density_keeps_unit_trace_and_hermiticity():
    p = pt(2.2)
    rho = DensityMatrix(np.eye(2) / 2)
    out = evolve_density(rho, p, 5.0).rho
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert frobenius_dist(out, out.conj().T) < 1e-14


def test_evolve_rejects_bad_time():
    with pytest.raises(ValueError):
        evolve_density(PureState.preset("D").density(), pt(0.5), np.nan)


def test_evolve_rejects_negative_time():
    # the density path runs forward in time only, unlike the pure-state series
    rho = PureState.preset("D").density()
    with pytest.raises(ValueError, match="finite and nonnegative"):
        evolve_density(rho, pt(0.5), -0.1)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        evolve_density_grid(rho, apt(1.5), [0.0, 0.4, -0.1])
