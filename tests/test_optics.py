"""Jones-matrix conventions, sequence assembly, and inverse design."""
from __future__ import annotations

import math

import numpy as np
import pytest

from _oracle import frobenius_dist

from ptcoherence import (
    ElementKind,
    HamiltonianParams,
    NoDecompositionError,
    OpticalElement,
    OpticalSequence,
    SymmetryClass,
    assemble,
    apt_shape,
    loss_operator,
    propagator_scaled,
    pt_shape,
    r_hwp,
    r_qwp,
    scale_invariant_residual,
    sequence_to_dict,
    solve_angles,
    verify_state_action,
)


def _pt(a: float) -> HamiltonianParams:
    return HamiltonianParams(kind=SymmetryClass.PT, s=1.0, a=a)


def _apt(a: float) -> HamiltonianParams:
    return HamiltonianParams(kind=SymmetryClass.APT, s=1.0, a=a)


# ---------------------------------------------------------------------------
# element matrices
# ---------------------------------------------------------------------------

def test_hwp_at_zero_is_sigma_z():
    assert np.allclose(r_hwp(0.0), [[1, 0], [0, -1]], atol=1e-15)


def test_hwp_at_pi_over_8():
    val = 1 / math.sqrt(2)
    assert np.allclose(r_hwp(math.pi / 8), [[val, val], [val, -val]], atol=1e-15)


def test_hwp_swaps_h_and_v_at_pi_over_4():
    out = r_hwp(math.pi / 4) @ np.array([1.0, 0.0])
    assert np.allclose(out, [0.0, 1.0], atol=1e-15)


def test_qwp_is_unitary():
    for theta in (0.0, 0.3, 1.1, 2.9):
        q = r_qwp(theta)
        assert frobenius_dist(q @ q.conj().T, np.eye(2)) < 1e-14


def test_two_quarter_waves_make_a_half_wave():
    # r_qwp(theta)^2 equals r_hwp(theta) up to the global phase -i
    for theta in (0.0, 0.5, 1.3):
        assert frobenius_dist(r_qwp(theta) @ r_qwp(theta), -1j * r_hwp(theta)) < 1e-14


def test_loss_operator_frozen_entries():
    out = loss_operator(math.pi / 12, math.pi / 4)
    assert np.allclose(out, [[0.0, 0.5], [1.0, 0.0]], atol=1e-15)


def test_loss_operator_square_is_half_identity():
    el = loss_operator(math.pi / 8, math.pi / 8)
    assert frobenius_dist(el @ el, 0.5 * np.eye(2)) < 1e-15


def test_loss_operator_is_contractive():
    for xi_i in (0.1, 0.7, math.pi / 4):
        for xi_j in (0.2, 1.2):
            svals = np.linalg.svd(loss_operator(xi_i, xi_j), compute_uv=False)
            assert svals.max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# elements and sequences
# ---------------------------------------------------------------------------

def test_element_angles_reduced_mod_pi():
    el = OpticalElement(ElementKind.HWP, (math.pi + 0.3,))
    assert el.angles[0] == pytest.approx(0.3, abs=1e-12)
    # reduction preserves the matrix
    assert frobenius_dist(el.matrix(), r_hwp(math.pi + 0.3)) < 1e-12


def test_element_angle_count_enforced():
    with pytest.raises(ValueError):
        OpticalElement(ElementKind.HWP, (0.1, 0.2))
    with pytest.raises(ValueError):
        OpticalElement(ElementKind.LOSS, (0.1,))


def test_sequence_shape_enforced():
    elements = pt_shape((0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
    OpticalSequence(elements=elements, target_kind=SymmetryClass.PT, t=1.0, residual=0.0)
    with pytest.raises(ValueError):
        OpticalSequence(elements=elements, target_kind=SymmetryClass.APT, t=1.0, residual=0.0)


def test_assemble_applies_leftmost_last():
    seq = (
        OpticalElement(ElementKind.HWP, (0.0,)),
        OpticalElement(ElementKind.LOSS, (math.pi / 12, math.pi / 4)),
    )
    # product in listed order: r_hwp(0) @ loss
    expected = np.array([[0.0, 0.5], [-1.0, 0.0]], dtype=complex)
    assert frobenius_dist(assemble(seq), expected) < 1e-15


def test_assemble_empty_is_identity():
    assert np.allclose(assemble(()), np.eye(2))


def test_slaved_pt_shape_at_reference_angles():
    # waveplates slaved to theta1 = 0, full-transmission loss: the
    # five-element product collapses to -i times the identity
    elements = pt_shape((0.0, 0.0, math.pi / 4, math.pi / 4, math.pi / 4, 0.0))
    assert frobenius_dist(assemble(elements), -1j * np.eye(2)) < 1e-14


def test_residual_ignores_global_complex_scale():
    m = np.array([[1.0, 2.0j], [0.5, -1.0]])
    assert scale_invariant_residual(m, m * (0.3 - 1.7j)) < 1e-14
    assert scale_invariant_residual(m, m + np.array([[0, 0], [0, 1.0]])) > 1e-3


# ---------------------------------------------------------------------------
# inverse design
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "p,t",
    [
        (_pt(0.47), 1.2),
        (_pt(1.0), 0.5),
        (_pt(2.0), 2.0),
        (_apt(0.5), 1.0),
        (_apt(1.5), 0.9),
    ],
)
def test_solve_angles_round_trip(p, t):
    seq = solve_angles(p, t, seed=3)
    assert seq.residual <= 1e-6
    target, _ = propagator_scaled(p, t)
    assert scale_invariant_residual(target, assemble(seq)) <= 1e-6
    assert verify_state_action(seq, p) <= 1e-6
    # physical realizability: the passive sequence never amplifies
    svals = np.linalg.svd(assemble(seq), compute_uv=False)
    assert svals.max() <= 1.0 + 1e-9


def test_solve_angles_identity_at_zero_time():
    seq = solve_angles(_pt(0.31), 0.0, seed=1)
    m = assemble(seq)
    assert scale_invariant_residual(np.eye(2), m) < 1e-6


def test_solve_angles_is_deterministic():
    a = solve_angles(_apt(2.8), 1.4, seed=11)
    b = solve_angles(_apt(2.8), 1.4, seed=11)
    assert [el.angles for el in a.elements] == [el.angles for el in b.elements]
    assert a.residual == b.residual


def test_solve_angles_failure_carries_diagnostics():
    with pytest.raises(NoDecompositionError) as err:
        solve_angles(_pt(0.47), 1.2, seed=3, restarts=2, success_threshold=0.0)
    assert err.value.best_residual > 0.0
    assert len(err.value.best_angles) == 6


@pytest.mark.parametrize("restarts", [32, 1])
def test_solve_angles_sweep(restarts):
    # both kinds, both regimes and both sides of the exceptional point,
    # from t = 0 to deep in the broken regime
    problems = []
    for make in (_pt, _apt):
        for a in (0.3, 0.47, 0.9, 0.999, 1.0, 1.001, 1.5, 2.5):
            for t in (0.0, 0.5, 1.2, 5.0, 40.0):
                p = make(a)
                try:
                    seq = solve_angles(p, t, restarts=restarts)
                except NoDecompositionError as exc:
                    problems.append((p, t, exc.best_residual))
                    continue
                deviation = verify_state_action(seq, p)
                if seq.residual > 1e-6 or deviation > 1e-6:
                    problems.append((p, t, seq.residual, deviation))
    assert not problems


def test_jones_matrices_broadcast_over_angle_arrays():
    angles = np.array([[0.0, 0.3, 1.1], [2.9, math.pi / 8, 0.7]])
    for build in (r_hwp, r_qwp, lambda v: loss_operator(v, 0.5 - v)):
        batch = build(angles)
        assert batch.shape == (2, 3, 2, 2)
        for idx in np.ndindex(angles.shape):
            assert frobenius_dist(batch[idx], build(float(angles[idx]))) < 1e-15


def test_solve_angles_input_validation():
    with pytest.raises(ValueError):
        solve_angles(_pt(0.47), -1.0)
    with pytest.raises(ValueError):
        solve_angles(_pt(0.47), 1.0, restarts=0)


def test_sequence_to_dict_schema():
    p = _apt(1.5)
    seq = solve_angles(p, 0.9, seed=3)
    d = sequence_to_dict(seq, p)
    assert d["kind"] == "apt" and d["a"] == 1.5 and d["t"] == 0.9
    assert [e["type"] for e in d["elements"]] == ["QWP", "HWP", "Loss", "QWP", "HWP"]
    assert len(d["elements"][2]["angles_rad"]) == 2
    assert d["residual"] == seq.residual
