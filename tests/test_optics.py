"""Jones-matrix conventions, sequence assembly, and inverse design."""
from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

from _oracle import frobenius_dist, reference_matrix, scale_invariant_residual
from conftest import apt, pt

from ptcoherence import (
    NoDecompositionError,
    OpticalSequence,
    SymmetryClass,
    assemble,
    loss_operator,
    r_hwp,
    r_qwp,
    sequence_to_dict,
    solve_angles,
    verify_state_action,
)
from ptcoherence.evolution import propagator_scaled
from ptcoherence.optics import _STARTS, _norm, _orthogonal_part, _solve_spd


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
# sequences and assembly
# ---------------------------------------------------------------------------

_ANGLES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


@pytest.mark.parametrize("kind", list(SymmetryClass))
def test_assemble_is_pi_periodic(kind):
    v = np.array([0.3, 1.1, 2.9, 0.05, 1.7, 3.0])
    for shift in range(6):
        w = v.copy()
        w[shift] += math.pi
        assert frobenius_dist(assemble(kind, w), assemble(kind, v)) < 1e-14


@pytest.mark.parametrize("angles", [
    _ANGLES[:5], _ANGLES + (0.7,), (0.1, 0.2, math.nan, 0.4, 0.5, 0.6),
    (0.1, 0.2, 0.3, 0.4, 0.5, math.inf),
], ids=["five", "seven", "nan", "inf"])
def test_sequence_takes_six_finite_angles(angles):
    with pytest.raises(ValueError, match="6 finite angles"):
        OpticalSequence(params=pt(0.47), angles=angles, t=1.0, residual=0.0)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_sequence_time_must_be_finite_and_nonnegative(t):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        OpticalSequence(params=pt(0.47), angles=_ANGLES, t=t, residual=0.0)


@pytest.mark.parametrize("kind, first, second", [
    (SymmetryClass.PT, r_hwp, r_qwp),
    (SymmetryClass.APT, r_qwp, r_hwp),
])
def test_assemble_applies_leftmost_last(kind, first, second):
    a1, a2, x1, x2, a3, a4 = _ANGLES
    expected = (first(a1) @ second(a2) @ loss_operator(x1, x2)
                @ first(a3) @ second(a4))
    assert frobenius_dist(assemble(kind, _ANGLES), expected) < 1e-15


@pytest.mark.parametrize("kind", list(SymmetryClass))
def test_assemble_broadcasts_over_angle_rows(kind):
    rows = np.random.default_rng(5).uniform(0.0, math.pi, size=(2, 3, 6))
    batch = assemble(kind, rows)
    assert batch.shape == (2, 3, 2, 2)
    for idx in np.ndindex(rows.shape[:-1]):
        assert frobenius_dist(batch[idx], assemble(kind, tuple(rows[idx]))) < 1e-15


@pytest.mark.parametrize("kind", list(SymmetryClass))
def test_assemble_matches_the_matrix_product(kind):
    # the elementwise products against numpy's ``@`` chain on a stack
    rows = np.random.default_rng(11).uniform(0.0, math.pi, size=(64, 6))
    first, second = (r_hwp, r_qwp) if kind is SymmetryClass.PT else (r_qwp, r_hwp)
    a1, a2, x1, x2, a3, a4 = rows.T
    expected = (first(a1) @ second(a2) @ loss_operator(x1, x2) @ first(a3) @ second(a4))
    assert np.abs(assemble(kind, rows) - expected).max() < 1e-15


def test_slaved_pt_shape_at_reference_angles():
    # waveplates slaved to theta1 = 0, full-transmission loss: the
    # five-element product collapses to -i times the identity
    angles = (0.0, 0.0, math.pi / 4, math.pi / 4, math.pi / 4, 0.0)
    assert frobenius_dist(assemble(SymmetryClass.PT, angles), -1j * np.eye(2)) < 1e-14


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
        (pt(0.47), 1.2),
        (pt(1.0), 0.5),
        (pt(2.0), 2.0),
        (apt(0.5), 1.0),
        (apt(1.5), 0.9),
    ],
)
def test_solve_angles_round_trip(p, t):
    seq = solve_angles(p, t)
    assert seq.params == p
    assert seq.residual <= 1e-6
    target = propagator_scaled(p, t)
    m = assemble(p.kind, seq.angles)
    assert scale_invariant_residual(target, m) <= 1e-6
    assert verify_state_action(seq) <= 1e-6
    # physical realizability: the passive sequence never amplifies
    svals = np.linalg.svd(m, compute_uv=False)
    assert svals.max() <= 1.0 + 1e-9


@pytest.mark.parametrize("p", [pt(0.47), pt(2.8), apt(1.5), apt(0.47)],
                         ids=["pt-0.47", "pt-2.8", "apt-1.5", "apt-0.47"])
def test_state_action_of_solved_sequence_keeps_its_digits(p):
    # sqrt(2 - 2 |<u, v>|) can only print sqrt(k eps) ~ 1.5e-8 near overlap 1
    assert verify_state_action(solve_angles(p, 1.0), seed=1) <= 1e-13


def test_state_action_is_inf_when_the_sequence_blocks_every_state():
    # x1 = x2 = 0 closes both interferometer paths: every output vanishes
    seq = OpticalSequence(params=pt(0.47), angles=(0.1, 0.2, 0.0, 0.0, 0.3, 0.4), t=1.0,
                          residual=0.0)
    assert verify_state_action(seq) == math.inf


def test_state_action_is_the_phase_aligned_distance_over_the_same_panel():
    p, t, seed = apt(1.5), 0.9, 7
    solved = solve_angles(p, t)
    seq = OpticalSequence(p, tuple(a + 1e-3 for a in solved.angles), t, solved.residual)
    target = propagator_scaled(p, t)
    mat = assemble(p.kind, seq.angles)
    rng = random.Random(seed)
    expected = 0.0
    for _ in range(10):  # the panel drawn state by state
        raw = np.empty(2, dtype=complex)
        for k in range(2):  # each amplitude by Box-Muller: a radius, then a phase
            radius = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
            raw[k] = radius * cmath.exp(2j * math.pi * rng.random())
        u, v = target @ raw, mat @ raw
        overlap = abs(np.vdot(u / np.linalg.norm(u), v / np.linalg.norm(v)))
        expected = max(expected, math.sqrt(2.0 - 2.0 * overlap))
    assert expected > 1e-4
    assert verify_state_action(seq, seed=seed) == pytest.approx(expected, rel=1e-8)


def test_state_action_rejects_a_negative_seed():
    # random.Random would draw seed -1's panel from seed 1's stream
    with pytest.raises(ValueError, match="non-negative"):
        verify_state_action(solve_angles(pt(0.47), 1.0), seed=-1)


def test_state_action_reads_the_seed_as_an_integer():
    # a numpy integer draws the panel of the int it holds; a float, which
    # random.Random would hash, is refused
    p, t = apt(1.5), 0.9
    solved = solve_angles(p, t)
    seq = OpticalSequence(p, tuple(a + 1e-3 for a in solved.angles), t, solved.residual)
    assert verify_state_action(seq, seed=np.int64(7)) == verify_state_action(seq, seed=7)
    assert verify_state_action(seq, seed=7) != verify_state_action(seq, seed=8)
    with pytest.raises(TypeError):
        verify_state_action(seq, seed=7.0)


def test_solve_angles_identity_at_zero_time():
    seq = solve_angles(pt(0.31), 0.0)
    m = assemble(SymmetryClass.PT, seq.angles)
    assert scale_invariant_residual(np.eye(2), m) < 1e-6


def test_solve_angles_is_deterministic():
    a = solve_angles(apt(2.8), 1.4)
    b = solve_angles(apt(2.8), 1.4)
    assert a.angles == b.angles
    assert a.residual == b.residual


def test_solve_angles_failure_carries_diagnostics(monkeypatch):
    monkeypatch.setattr("ptcoherence.tolerances.optics_residual", 0.0)
    with pytest.raises(NoDecompositionError) as err:
        solve_angles(pt(0.47), 1.2)
    assert err.value.best_residual > 0.0
    assert len(err.value.best_angles) == 6


#: Both kinds, both regimes and both sides of the exceptional point, from
#: t = 0 to deep in the broken regime: (params, t) of the sweep.
_SWEEP = [(make(a), t) for make in (pt, apt) for a in (0.3, 0.47, 0.9, 0.999, 1.0, 1.001, 1.5, 2.5)
          for t in (0.0, 0.5, 1.2, 5.0, 40.0)]


def test_solve_angles_sweep():
    # every angle reduced once into [0, pi] (a tiny negative angle rounds up
    # to pi itself), six of them, and the sequence carries the generator's
    # kind; the loss element is the brightest realization: one path
    # transmits fully, the other the target's singular-value ratio
    problems = []
    for p, t in _SWEEP:
        try:
            seq = solve_angles(p, t)
        except NoDecompositionError as exc:
            problems.append((p, t, exc.best_residual))
            continue
        deviation = verify_state_action(seq)
        if seq.residual > 1e-6 or deviation > 1e-6:
            problems.append((p, t, seq.residual, deviation))
        if len(seq.angles) != 6 or sequence_to_dict(seq)["kind"] != p.kind.value:
            problems.append((p, t, sequence_to_dict(seq)))
        if not all(0.0 <= v <= math.pi for v in seq.angles):
            problems.append((p, t, seq.angles))
        low, high = sorted(abs(math.sin(2.0 * x)) for x in seq.angles[2:4])
        svals = np.linalg.svd(reference_matrix(p, t), compute_uv=False)
        if abs(high - 1.0) > 1e-12 or abs(low - svals[1] / svals[0]) > 1e-12:
            problems.append((p, t, low, high))
    assert not problems


def test_start_points_are_pinned():
    # the lattice built from Python floats and three rows written out: every
    # numpy version fits from the same starts
    lattice = [[math.pi / 32 * ((k * g) % 32 + 0.5) for g in (1, 5, 9, 13)] for k in range(32)]
    assert _STARTS.shape == (32, 4) and _STARTS.tolist() == lattice
    assert _STARTS[0].tolist() == [0.04908738521234052] * 4
    assert _STARTS[1].tolist() == [0.14726215563702155, 0.5399612373357456, 0.9326603190344698,
                                   1.325359400733194]
    assert _STARTS[31].tolist() == [3.0925052683774528, 2.6998061866787286, 2.3071071049800045,
                                    1.9144080232812801]


def test_printed_angles_do_not_depend_on_the_start_order(monkeypatch):
    # the branch rule reads the fitted rows as a set: reversed, rotated and
    # strided orders of the start points print the same setting
    targets = [(p, t) for p, t in _SWEEP if t > 0.0]
    base = [solve_angles(p, t).angles for p, t in targets]
    moved = []
    for order in (np.arange(32)[::-1], np.roll(np.arange(32), 13), 7 * np.arange(32) % 32):
        monkeypatch.setattr("ptcoherence.optics._STARTS", _STARTS[order])
        for (p, t), angles in zip(targets, base):
            worst = max(abs(u - v) for u, v in zip(solve_angles(p, t).angles, angles))
            if worst > 1e-9:
                moved.append((p, t, order[:3], worst))
    assert not moved


#: Both kinds, both regimes, the EP and its neighbours, t = 0 and a target
#: almost of rank one (t = 40): (kind, a, t) of the stability panel.
_STABILITY_CASES = [
    (pt, 0.47, 1.0), (pt, 2.8, 1.0), (apt, 0.47, 1.3), (pt, 2.5, 40.0),
    (apt, 1.5, 1.0), (pt, 0.999999, 3.0), (pt, 1.0, 1.0), (apt, 1.0, 1.2),
    (pt, 0.47, 1.2), (apt, 1.5, 0.8), (apt, 2.5, 40.0), (pt, 1.5, 1.2),
    (apt, 0.47, 1.0), (pt, 0.47, 0.0), (apt, 2.8, 1.4), (pt, 1.001, 5.0),
]


def _ulps(x: float, k: int) -> float:
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@pytest.mark.parametrize("make, a, t", _STABILITY_CASES,
                         ids=[f"{m.__name__}-{a}-t{t}" for m, a, t in _STABILITY_CASES])
def test_printed_angles_are_fixed_by_the_target(make, a, t):
    # the branch rule picks the same setting under a last-bit change of the
    # input, so every printed angle is a function of the target
    base = solve_angles(make(a), t).angles
    moved = []
    for k in (1, -1, 5, -5):
        for p, tt in ((make(_ulps(a, k)), t), (make(a), _ulps(t, k))):
            if tt < 0.0:
                continue
            worst = max(abs(u - v) for u, v in zip(solve_angles(p, tt).angles, base))
            if worst > 1e-9:
                moved.append((p.a, tt, worst))
    assert not moved


@pytest.mark.parametrize("make, a, t", [
    (pt, 0.47, 1.0), (pt, 2.8, 1.0), (apt, 0.47, 1.3), (pt, 2.5, 40.0),
    (apt, 1.5, 1.0), (pt, 0.999999, 3.0),
])
def test_fitted_angles_have_a_full_rank_jacobian(make, a, t):
    # the 8x4 Jacobian of the residual in the wave-plate angles at the
    # solution: no direction of exact solutions is left free
    p = make(a)
    seq = solve_angles(p, t)
    target = propagator_scaled(p, t).reshape(4)
    tau = target / np.linalg.norm(target)
    h = 1e-6
    jac = []
    for col in (0, 1, 4, 5):  # a1, a2, a3, a4
        step = np.zeros(6)
        step[col] = h
        hi, lo = (_orthogonal_part(assemble(p.kind, np.add(seq.angles, d)), tau)
                  for d in (step, -step))
        jac.append((hi - lo) / (2.0 * h))
    assert np.linalg.svd(np.array(jac).T, compute_uv=False).min() >= 0.1


def test_jones_matrices_broadcast_over_angle_arrays():
    angles = np.array([[0.0, 0.3, 1.1], [2.9, math.pi / 8, 0.7]])
    for build in (r_hwp, r_qwp, lambda v: loss_operator(v, 0.5 - v)):
        batch = build(angles)
        assert batch.shape == (2, 3, 2, 2)
        for idx in np.ndindex(angles.shape):
            assert frobenius_dist(batch[idx], build(float(angles[idx]))) < 1e-15


def test_solve_angles_input_validation():
    with pytest.raises(ValueError):
        solve_angles(pt(0.47), -1.0)


def test_sequence_to_dict_schema():
    p = apt(1.5)
    seq = solve_angles(p, 0.9)
    d = sequence_to_dict(seq)
    assert d["kind"] == "apt" and d["a"] == 1.5 and d["t"] == 0.9
    assert [e["type"] for e in d["elements"]] == ["QWP", "HWP", "Loss", "QWP", "HWP"]
    assert [len(e["angles_rad"]) for e in d["elements"]] == [1, 1, 2, 1, 1]
    assert [v for e in d["elements"] for v in e["angles_rad"]] == list(seq.angles)
    assert d["residual"] == seq.residual


def test_norm_is_numpys_norm_bit_for_bit():
    rng = np.random.default_rng(2)
    real, imag = rng.normal(size=(2, 5, 3, 4))
    for x in (rng.normal(size=(7, 8)), real + 1j * imag):
        assert np.array_equal(_norm(x), np.linalg.norm(x, axis=-1))
        assert np.array_equal(_norm(x, keepdims=True), np.linalg.norm(x, axis=-1, keepdims=True))


@pytest.mark.parametrize("damping", [1e-3, 1.0, 1e3, 1e12, 1e24, 1e33])
def test_damped_normal_solve_matches_numpy(damping):
    # the Levenberg-Marquardt system J J^T + lambda I over the damping
    # range a run can reach (x4 per rejected step from 1e-3), at full
    # rank and at rank 2
    rng = np.random.default_rng(3)
    jac = rng.normal(size=(50, 4, 8))
    jac[25:, 2:] = rng.normal(size=(25, 2, 2)) @ jac[25:, :2]  # rows 2, 3 in the span of 0, 1
    normal = jac @ jac.transpose(0, 2, 1) + damping * np.eye(4)
    rhs = rng.normal(size=(50, 4))
    got, expected = _solve_spd(normal, rhs), np.linalg.solve(normal, rhs[..., None])[..., 0]
    error = np.linalg.norm(got - expected, axis=-1) / np.linalg.norm(expected, axis=-1)
    assert error.max() < 1e-9
