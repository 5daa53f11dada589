"""Waveplate/loss-element sequences realizing the nonunitary propagators.

A target propagator is realized — up to an unobservable global complex
scale, since evolved states are renormalized — by a five-element Jones
sequence combining two unitary waveplate groups around one
polarization-dependent loss element:

    PT target:   HWP(a1) · QWP(a2) · L(x1, x2) · HWP(a3) · QWP(a4)
    APT target:  QWP(a1) · HWP(a2) · L(x1, x2) · QWP(a3) · HWP(a4)

(leftmost factor applied last).  All six angles are free and found by a
Levenberg–Marquardt least-squares solve of a scale-invariant residual,
run on all seeded restarts at once.

Why six free angles: the loss element contributes the two singular
values, and each waveplate pair contributes the unitary factor on its
side.  Tying angles together (e.g. forcing both loss angles equal, or
slaving waveplate angles to each other) leaves the family unable to
match the targets' polar structure for generic times — the broken- and
unbroken-regime propagators need two *different* singular values and
side unitaries outside any single-parameter slice — so the solver
treats the setting angles as fully free and determines them numerically
for each requested time, exactly as an inverse ("reversal") design.

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
* Setting angles are π-periodic, and are stored reduced mod π.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .evolution import propagator_scaled
from .hamiltonian import HamiltonianParams, SymmetryClass
from .tolerances import DEFAULT_TOLS

__all__ = [
    "ElementKind",
    "OpticalElement",
    "OpticalSequence",
    "NoDecompositionError",
    "r_hwp",
    "r_qwp",
    "loss_operator",
    "pt_shape",
    "apt_shape",
    "assemble",
    "scale_invariant_residual",
    "solve_angles",
    "verify_state_action",
    "sequence_to_dict",
]


class ElementKind(enum.Enum):
    """Optical element families used by the sequences."""

    HWP = "HWP"
    QWP = "QWP"
    LOSS = "Loss"


#: Element-kind order required for each target family.
_SHAPES: dict[SymmetryClass, tuple[ElementKind, ...]] = {
    SymmetryClass.PT: (ElementKind.HWP, ElementKind.QWP, ElementKind.LOSS,
                       ElementKind.HWP, ElementKind.QWP),
    SymmetryClass.APT: (ElementKind.QWP, ElementKind.HWP, ElementKind.LOSS,
                        ElementKind.QWP, ElementKind.HWP),
}


@dataclass(frozen=True)
class OpticalElement:
    """One element: a waveplate (one angle) or loss element (two angles).

    Angles are stored reduced modulo π (the Jones matrices of all three
    element kinds are π-periodic in their setting angles).
    """

    kind: ElementKind
    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        expected = 2 if self.kind is ElementKind.LOSS else 1
        if len(self.angles) != expected:
            raise ValueError(f"{self.kind.value} takes {expected} angle(s), got {len(self.angles)}")
        if not all(np.isfinite(a) for a in self.angles):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "angles", tuple(float(a) % math.pi for a in self.angles))

    def matrix(self) -> np.ndarray:
        """Jones matrix of this element."""
        return _JONES[self.kind](*self.angles)


@dataclass(frozen=True)
class OpticalSequence:
    """An ordered element list realizing a target propagator at time t.

    ``residual`` is the scale-invariant distance achieved between the
    assembled product and the target (see
    :func:`scale_invariant_residual`).  The element-kind order must
    match the five-element shape for ``target_kind``.
    """

    elements: tuple[OpticalElement, ...]
    target_kind: SymmetryClass
    t: float
    residual: float

    def __post_init__(self) -> None:
        kinds = tuple(e.kind for e in self.elements)
        if kinds != _SHAPES[self.target_kind]:
            raise ValueError(
                f"element order {tuple(k.value for k in kinds)} does not match the "
                f"{self.target_kind.value} shape "
                f"{tuple(k.value for k in _SHAPES[self.target_kind])}"
            )
        if self.t < 0:
            raise ValueError("t must be nonnegative")


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
# element matrices
# ---------------------------------------------------------------------------

def _jones(m00, m01, m10, m11) -> np.ndarray:
    """Complex ``(..., 2, 2)`` matrices from four broadcastable entries."""
    m00, m01, m10, m11 = np.broadcast_arrays(m00, m01, m10, m11)
    out = np.empty(m00.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m00, m01, m10, m11
    return out


def r_hwp(theta) -> np.ndarray:
    """Half-wave plate Jones matrix with fast axis at ``theta``."""
    c, s = np.cos(2.0 * theta), np.sin(2.0 * theta)
    return _jones(c, s, s, -c)


def r_qwp(theta) -> np.ndarray:
    """Quarter-wave plate Jones matrix with fast axis at ``theta``."""
    c, s = np.cos(theta), np.sin(theta)
    f = np.exp(-1j * math.pi / 4.0)
    off = f * ((1.0 - 1j) * s * c)
    return _jones(f * (c * c + 1j * s * s), off, off, f * (s * s + 1j * c * c))


def loss_operator(xi_i, xi_j) -> np.ndarray:
    """Anti-diagonal polarization-dependent loss element.

    ``[[0, sin 2ξi], [sin 2ξj, 0]]``: the two interferometer paths
    transmit the two polarization components with independent
    amplitudes set by intra-path half-wave-plate angles.
    """
    return _jones(0.0, np.sin(2.0 * xi_i), np.sin(2.0 * xi_j), 0.0)


_JONES = {ElementKind.HWP: r_hwp, ElementKind.QWP: r_qwp, ElementKind.LOSS: loss_operator}


# ---------------------------------------------------------------------------
# sequence construction and assembly
# ---------------------------------------------------------------------------

def _shape(kind: SymmetryClass, angles: Sequence[float]) -> tuple[OpticalElement, ...]:
    """The five elements of ``kind``'s shape from ``(a1, a2, x1, x2, a3, a4)``."""
    a1, a2, x1, x2, a3, a4 = (float(v) for v in angles)
    k = _SHAPES[kind]
    return (
        OpticalElement(k[0], (a1,)),
        OpticalElement(k[1], (a2,)),
        OpticalElement(k[2], (x1, x2)),
        OpticalElement(k[3], (a3,)),
        OpticalElement(k[4], (a4,)),
    )


def pt_shape(angles: Sequence[float]) -> tuple[OpticalElement, ...]:
    """PT-family element list ``HWP, QWP, Loss, HWP, QWP`` from 6 angles
    ``(a1, a2, x1, x2, a3, a4)``."""
    return _shape(SymmetryClass.PT, angles)


def apt_shape(angles: Sequence[float]) -> tuple[OpticalElement, ...]:
    """APT-family element list ``QWP, HWP, Loss, QWP, HWP`` from 6 angles
    ``(a1, a2, x1, x2, a3, a4)``."""
    return _shape(SymmetryClass.APT, angles)


def assemble(seq: OpticalSequence | Iterable[OpticalElement]) -> np.ndarray:
    """Ordered matrix product of a sequence, leftmost element applied last.

    The empty sequence assembles to the identity.
    """
    elements = seq.elements if isinstance(seq, OpticalSequence) else tuple(seq)
    out = np.eye(2, dtype=complex)
    for el in elements:
        out = out @ el.matrix()
    return out


def _assemble_angles(kind: SymmetryClass, v: np.ndarray) -> np.ndarray:
    """:func:`assemble` of ``kind``'s shape for every angle row of ``v`` (..., 6)."""
    k = _SHAPES[kind]
    return (_JONES[k[0]](v[..., 0]) @ _JONES[k[1]](v[..., 1])
            @ loss_operator(v[..., 2], v[..., 3])
            @ _JONES[k[3]](v[..., 4]) @ _JONES[k[4]](v[..., 5]))


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
    success_threshold: float = DEFAULT_TOLS.optics_residual,
) -> OpticalSequence:
    """Find setting angles whose assembled sequence realizes ``U(t)``.

    One Levenberg-Marquardt solve, batched over ``restarts`` start
    points drawn uniformly from [0, π)^6 by a generator seeded with
    ``seed``.  Its residual is the part of the normalized product
    orthogonal to the normalized target, so any global complex scale of
    the product is free.  All restarts iterate together until the cap
    of 60 steps, or until the best one reaches rounding level; the
    lowest residual wins, ties going to the lowest restart index, so the
    outcome is deterministic for a given seed.  The returned residual is
    :func:`scale_invariant_residual` of the winning sequence.

    Raises
    ------
    NoDecompositionError
        If no restart reaches ``success_threshold``; carries the best
        residual and angles found.
    ValueError
        If ``t`` is negative or ``restarts < 1``.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    target, _ = propagator_scaled(p, t)  # scale-invariant fit: scale is irrelevant
    tau = target.reshape(4) / np.linalg.norm(target)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, math.pi, size=(restarts, 6))
    x, cost = _levenberg_marquardt(
        lambda v: _orthogonal_part(_assemble_angles(p.kind, v), tau), starts)
    elements = _shape(p.kind, x[int(np.argmin(cost))])
    best_res = scale_invariant_residual(target, assemble(elements))
    if best_res > success_threshold:
        raise NoDecompositionError(
            best_residual=best_res,
            best_angles=tuple(a for el in elements for a in el.angles),
            message=(
                f"no angle set reached residual {success_threshold:g} for "
                f"kind={p.kind.value}, a={p.a}, s={p.s}, t={t}; best residual "
                f"{best_res:.3e} after {restarts} restarts"
            ),
        )
    return OpticalSequence(elements=elements, target_kind=p.kind, t=float(t), residual=best_res)


def verify_state_action(
    seq: OpticalSequence,
    p: HamiltonianParams,
    n_states: int = 10,
    seed: int = 12345,
) -> float:
    """Worst-case state-action deviation between target and sequence.

    Draws ``n_states`` Haar-like random pure states, evolves each with
    the target propagator and with the assembled sequence, renormalizes
    both, and compares them modulo global phase.  Returns the maximum
    deviation ``sqrt(2 - 2 |<u, v>|)`` across the panel.
    """
    target, _ = propagator_scaled(p, seq.t)
    mat = assemble(seq)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_states):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        v0 = raw / np.linalg.norm(raw)
        u = target @ v0
        w = mat @ v0
        nu, nw = np.linalg.norm(u), np.linalg.norm(w)
        if nu < 1e-300 or nw < 1e-300:
            return math.inf
        overlap = min(1.0, abs(np.vdot(u / nu, w / nw)))
        worst = max(worst, math.sqrt(max(0.0, 2.0 - 2.0 * overlap)))
    return worst


def sequence_to_dict(seq: OpticalSequence, p: HamiltonianParams) -> dict:
    """JSON-ready description of a solved sequence."""
    return {
        "kind": p.kind.value,
        "s": p.s,
        "a": p.a,
        "t": seq.t,
        "elements": [
            {"type": el.kind.value, "angles_rad": list(el.angles)} for el in seq.elements
        ],
        "residual": seq.residual,
    }
