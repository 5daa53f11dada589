"""Waveplate/loss-element sequences realizing the nonunitary propagators.

A target propagator is realized — up to an unobservable global complex
scale, since evolved states are renormalized — by a five-element Jones
sequence combining two unitary waveplate groups around one
polarization-dependent loss element:

    PT target:   HWP(a1) · QWP(a2) · L(x1, x2) · HWP(a3) · QWP(a4)
    APT target:  QWP(a1) · HWP(a2) · L(x1, x2) · QWP(a3) · HWP(a4)

(leftmost factor applied last).  The six angles are fitted by a
Levenberg–Marquardt least-squares solve of a scale-invariant residual,
run on all seeded restarts at once.

The target fixes only five combinations of them: the residual ignores a
global scale, so only the loss ratio |sin 2x1| : |sin 2x2| is fixed.  At
PT a = 0.47, 1.0, 2.8 and APT a = 0.47, 1.5 (ROADMAP.md item 3) the 8x6
Jacobian has rank 5 at the converged restarts (smallest singular value
8e-12 to 1.2e-10, the next 0.42-0.82), its null vector in (x1, x2)
alone.  The printed loss angles are one point on a curve of exact
solutions, picked by rounding-level cost differences among the restarts.

Conventions
-----------
* ``r_hwp(theta) = [[cos 2θ, sin 2θ], [sin 2θ, -cos 2θ]]`` (det = -1).
* ``r_qwp(theta) = e^{-iπ/4} [[cos²θ + i sin²θ, (1-i) sinθ cosθ],
  [(1-i) sinθ cosθ, sin²θ + i cos²θ]]`` — unitary, fast axis at θ;
  two quarter waves at equal angle compose to the half-wave matrix up
  to global phase.
* ``loss_operator(xi, xj) = [[0, sin 2ξi], [sin 2ξj, 0]]`` — the
  anti-diagonal transmission matrix of a two-path interferometric loss
  element; singular values |sin 2ξi|, |sin 2ξj| ≤ 1.
* All three broadcast over arrays of angles, returning
  ``angles.shape + (2, 2)``.
* A setting is ``(a1, a2, x1, x2, a3, a4)`` in the element order above,
  which the symmetry class fixes.  :func:`solve_angles` reduces these
  π-periodic angles mod π once: each lies in [0, π], π itself included.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS, tolerances
from .evolution import _evolution_times, propagator_scaled
from .hamiltonian import HamiltonianParams, SymmetryClass

__all__ = list(_EXPORTS["optics"])


#: Element names, leftmost (applied last) first, of each target family.
_SHAPES: dict[SymmetryClass, tuple[str, ...]] = {
    SymmetryClass.PT: ("HWP", "QWP", "Loss", "HWP", "QWP"),
    SymmetryClass.APT: ("QWP", "HWP", "Loss", "QWP", "HWP"),
}


@dataclass(frozen=True)
class OpticalSequence:
    """The six setting angles realizing the propagator of ``params`` at ``t``.

    ``angles`` is ``(a1, a2, x1, x2, a3, a4)`` for the element order of
    ``params.kind``.  ``residual`` is the scale-invariant distance
    achieved between the assembled product and the target (see
    :func:`scale_invariant_residual`).
    """

    params: HamiltonianParams
    angles: tuple[float, ...]
    t: float
    residual: float

    def __post_init__(self) -> None:
        angles = tuple(float(a) for a in self.angles)
        if len(angles) != 6 or not all(math.isfinite(a) for a in angles):
            raise ValueError(f"a sequence takes 6 finite angles, got {angles}")
        object.__setattr__(self, "angles", angles)
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ValueError("t must be finite and nonnegative")


class NoDecompositionError(RuntimeError):
    """Raised when the multi-start budget cannot reach the residual target.

    Carries the best residual and angle vector found, for diagnostics
    and for callers that want to retry with a larger budget.
    """

    def __init__(self, best_residual: float, best_angles: tuple[float, ...], message: str):
        super().__init__(message)
        self.best_residual = best_residual
        self.best_angles = best_angles


# ---------------------------------------------------------------------------
# element matrices and assembly
# ---------------------------------------------------------------------------

def stack2x2(m00, m01, m10, m11) -> np.ndarray:
    """Complex ``(..., 2, 2)`` matrices from four broadcastable entries."""
    m00, m01, m10, m11 = np.broadcast_arrays(m00, m01, m10, m11)
    out = np.empty(m00.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m00, m01, m10, m11
    return out


def r_hwp(theta) -> np.ndarray:
    """Half-wave plate Jones matrix with fast axis at ``theta``."""
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return stack2x2(c, s, s, -c)


def r_qwp(theta) -> np.ndarray:
    """Quarter-wave plate Jones matrix with fast axis at ``theta``."""
    c, s = np.cos(theta), np.sin(theta)
    f = np.exp(-1j * math.pi / 4.0)
    off = f * ((1.0 - 1j) * s * c)
    return stack2x2(f * (c * c + 1j * s * s), off, off, f * (s * s + 1j * c * c))


def loss_operator(xi_i, xi_j) -> np.ndarray:
    """Anti-diagonal polarization-dependent loss element.

    ``[[0, sin 2ξi], [sin 2ξj, 0]]``: the two interferometer paths
    transmit the two polarization components with independent
    amplitudes set by intra-path half-wave-plate angles.
    """
    return stack2x2(0.0, np.sin(2.0 * xi_i), np.sin(2.0 * xi_j), 0.0)


def assemble(kind: SymmetryClass, angles) -> np.ndarray:
    """Product of ``kind``'s five elements, leftmost applied last, for
    every angle row ``(a1, a2, x1, x2, a3, a4)`` of ``angles`` (..., 6);
    shape ``(..., 2, 2)``."""
    v = np.asarray(angles, dtype=np.float64)
    w1, w2, _, w3, w4 = ({"HWP": r_hwp, "QWP": r_qwp}.get(n) for n in _SHAPES[kind])
    return (w1(v[..., 0]) @ w2(v[..., 1]) @ loss_operator(v[..., 2], v[..., 3])
            @ w3(v[..., 4]) @ w4(v[..., 5]))


# ---------------------------------------------------------------------------
# inverse design
# ---------------------------------------------------------------------------

#: Iteration cap, forward-difference step, initial damping and the
#: squared residual (rounding level) at which the Levenberg-Marquardt
#: solve stops early.
_LM_ITERATIONS = 60
_LM_STEP = 1.5e-8
_LM_DAMPING = 1e-3
_LM_FLOOR = 1e-30
#: Random pure states in the `verify_state_action` panel.
_N_STATES = 10


def _largest_entry_normalized(m: np.ndarray) -> np.ndarray:
    n = float(np.abs(m).max())
    if n < 1e-300:
        raise ValueError("cannot normalize a (numerically) zero matrix")
    return m / n


def scale_invariant_residual(target: np.ndarray, assembled: np.ndarray) -> float:
    """Residual between two matrices modulo a global complex scale.

    Both matrices are normalized by their largest-magnitude entry, then
    the assembled side is fit to the target with the closed-form
    least-squares complex scalar; the returned value is the remaining
    Frobenius distance.  Zero iff the matrices are proportional.
    """
    th = _largest_entry_normalized(np.asarray(target, dtype=complex))
    ah = _largest_entry_normalized(np.asarray(assembled, dtype=complex))
    lam = np.vdot(ah, th) / np.vdot(ah, ah).real
    return float(np.linalg.norm(th - lam * ah))


def _orthogonal_part(m: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Component of vec(m)/|m| orthogonal to the unit 4-vector ``tau``, as
    8 reals per matrix; zero iff ``m`` is proportional to the target.  A
    (numerically) zero matrix gets all-ones, far from any solution."""
    vec = m.reshape(m.shape[:-2] + (4,))
    norm = np.linalg.norm(vec, axis=-1, keepdims=True)
    u = vec / np.where(norm > 1e-300, norm, 1.0)
    r = u - tau * (u @ tau.conj())[..., None]
    return np.where(norm > 1e-300, np.concatenate([r.real, r.imag], axis=-1), 1.0)


def _levenberg_marquardt(residual, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Gauss-Newton on every row of ``x`` (n, k) at once.

    ``residual`` maps angle arrays (..., k) to residual vectors (..., m).
    The Jacobian is a forward difference; each row's damping grows ×4 on
    a rejected step and shrinks ÷3 on an accepted one.  Returns the final
    rows and their squared residual norms.
    """
    eye = np.eye(x.shape[-1])
    r = residual(x)
    cost = np.einsum("...i,...i", r, r)
    damping = np.full(len(x), _LM_DAMPING)
    for _ in range(_LM_ITERATIONS):
        jac_t = (residual(x[:, None, :] + _LM_STEP * eye) - r[:, None, :]) / _LM_STEP
        normal = jac_t @ jac_t.transpose(0, 2, 1) + damping[:, None, None] * eye
        x_try = x - np.linalg.solve(normal, jac_t @ r[..., None])[..., 0]
        r_try = residual(x_try)
        cost_try = np.einsum("...i,...i", r_try, r_try)
        better = cost_try < cost
        x = np.where(better[:, None], x_try, x)
        r = np.where(better[:, None], r_try, r)
        cost = np.where(better, cost_try, cost)
        damping = np.where(better, damping / 3.0, damping * 4.0)
        if cost.min() < _LM_FLOOR:
            break
    return x, cost


def solve_angles(
    p: HamiltonianParams,
    t: float,
    seed: int = 0,
    restarts: int = 32,
) -> OpticalSequence:
    """Find setting angles whose assembled sequence realizes ``U(t)``.

    One Levenberg-Marquardt solve, batched over ``restarts`` start
    points drawn uniformly from [0, π)^6 by a generator seeded with
    ``seed``.  Its residual is the part of the normalized product
    orthogonal to the normalized target, so any global complex scale of
    the product is free.  All restarts iterate together until the cap
    of 60 steps, or until the best one reaches rounding level; the
    lowest residual wins, ties going to the lowest restart index, so the
    outcome is deterministic for a given seed.  The winning angles are
    reduced mod π once, so each lies in [0, π] (π itself can occur), and
    the returned residual is :func:`scale_invariant_residual` of their
    product.

    Raises
    ------
    NoDecompositionError
        If no restart reaches ``tolerances.optics_residual``; carries
        the best residual and angles found.
    ValueError
        If ``t`` is negative or not finite, or ``restarts < 1``.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    # scale-invariant fit: the propagator's positive scale is irrelevant
    target = propagator_scaled(p, float(_evolution_times([t])[0]))[0]
    tau = target.reshape(4) / np.linalg.norm(target)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, math.pi, size=(restarts, 6))
    x, cost = _levenberg_marquardt(
        lambda v: _orthogonal_part(assemble(p.kind, v), tau), starts)
    angles = tuple(float(v) % math.pi for v in x[int(np.argmin(cost))])
    best_res = scale_invariant_residual(target, assemble(p.kind, angles))
    threshold = tolerances.optics_residual
    if best_res > threshold:
        raise NoDecompositionError(
            best_residual=best_res,
            best_angles=angles,
            message=(
                f"no angle set reached residual {threshold:g} for "
                f"kind={p.kind.value}, a={p.a}, s={p.s}, t={t}; best residual "
                f"{best_res:.3e} after {restarts} restarts"
            ),
        )
    return OpticalSequence(params=p, angles=angles, t=float(t), residual=best_res)


def verify_state_action(seq: OpticalSequence, seed: int = 12345) -> float:
    """Worst-case state-action deviation between ``seq`` and its target.

    Draws ``_N_STATES`` (10) Haar-like random pure states, evolves each
    with the propagator of ``seq.params`` (u) and with the assembled
    sequence (v), and renormalizes both.  The deviation of a state is
    the distance at the nearest global phase, ``min_phi ||u - e^{i phi} v||``,
    which equals ``sqrt(2 - 2 |<u, v>|)``; it is computed as that norm,
    with v turned by the phase of ``<v, u>``, so a deviation near 0 keeps
    its digits.  Returns the maximum across the panel, inf when an output
    vanishes.
    """
    target = propagator_scaled(seq.params, seq.t)[0]  # seq.t is validated by OpticalSequence
    mat = assemble(seq.params.kind, seq.angles)
    raw = np.random.default_rng(seed).normal(size=(_N_STATES, 2, 2))
    states = raw[:, 0] + 1j * raw[:, 1]  # each state's real pair, then its imaginary pair
    u, v = states @ target.T, states @ mat.T
    nu, nv = (np.linalg.norm(x, axis=1, keepdims=True) for x in (u, v))
    if min(nu.min(), nv.min()) < 1e-300:
        return math.inf
    u, v = u / nu, v / nv
    overlap = np.sum(v.conj() * u, axis=1, keepdims=True)
    phase = np.divide(overlap, np.abs(overlap), out=np.ones_like(overlap), where=overlap != 0)
    return float(np.linalg.norm(u - phase * v, axis=1).max())


def sequence_to_dict(seq: OpticalSequence) -> dict:
    """JSON-ready description of a solved sequence."""
    p = seq.params
    a1, a2, x1, x2, a3, a4 = seq.angles
    groups = ([a1], [a2], [x1, x2], [a3], [a4])
    return {
        "kind": p.kind.value,
        "s": p.s,
        "a": p.a,
        "t": seq.t,
        "elements": [
            {"type": name, "angles_rad": g} for name, g in zip(_SHAPES[p.kind], groups)
        ],
        "residual": seq.residual,
    }
