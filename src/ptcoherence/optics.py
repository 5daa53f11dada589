"""Waveplate/loss-element sequences realizing the nonunitary propagators.

A target propagator is realized — up to an unobservable global complex
scale, since evolved states are renormalized — by a five-element Jones
sequence combining two unitary waveplate groups around one
polarization-dependent loss element:

    PT target:   HWP(a1) · QWP(a2) · L(x1, x2) · HWP(a3) · QWP(a4)
    APT target:  QWP(a1) · HWP(a2) · L(x1, x2) · QWP(a3) · HWP(a4)

(leftmost factor applied last).  All six angles are free and found by
derivative-free multi-start minimization of a scale-invariant residual.

Why six free angles: the loss element contributes the two singular
values, and each waveplate pair contributes the unitary factor on its
side.  Tying angles together (e.g. forcing both loss angles equal, or
slaving waveplate angles to each other) leaves the family unable to
match the targets' polar structure for generic times — the broken- and
unbroken-regime propagators need two *different* singular values and
side unitaries outside any single-parameter slice — so the solver
treats the setting angles as fully free and determines them numerically
for each requested time, exactly as an inverse ("reversal") design.
Constrained variants are still constructible explicitly (see
:func:`pt_shape_slaved` / :func:`apt_shape_slaved`) for studying that
gap.

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
* Setting angles are π-periodic, and are stored reduced mod π.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .evolution import propagator_scaled
from .hamiltonian import HamiltonianParams, SymmetryClass
from .linalg import minimize
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
    "pt_shape_slaved",
    "apt_shape_slaved",
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
        if self.kind is ElementKind.HWP:
            return r_hwp(self.angles[0])
        if self.kind is ElementKind.QWP:
            return r_qwp(self.angles[0])
        return loss_operator(*self.angles)


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

def r_hwp(theta: float) -> np.ndarray:
    """Half-wave plate Jones matrix with fast axis at ``theta``."""
    c, s = math.cos(2.0 * theta), math.sin(2.0 * theta)
    return np.array([[c, s], [s, -c]], dtype=complex)


def r_qwp(theta: float) -> np.ndarray:
    """Quarter-wave plate Jones matrix with fast axis at ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    f = np.exp(-1j * math.pi / 4.0)
    return f * np.array(
        [[c * c + 1j * s * s, (1.0 - 1j) * s * c],
         [(1.0 - 1j) * s * c, s * s + 1j * c * c]]
    )


def loss_operator(xi_i: float, xi_j: float) -> np.ndarray:
    """Anti-diagonal polarization-dependent loss element.

    ``[[0, sin 2ξi], [sin 2ξj, 0]]``: the two interferometer paths
    transmit the two polarization components with independent
    amplitudes set by intra-path half-wave-plate angles.
    """
    return np.array(
        [[0.0, math.sin(2.0 * xi_i)], [math.sin(2.0 * xi_j), 0.0]], dtype=complex
    )


# ---------------------------------------------------------------------------
# sequence construction and assembly
# ---------------------------------------------------------------------------

def pt_shape(angles: Sequence[float]) -> tuple[OpticalElement, ...]:
    """PT-family element list ``HWP, QWP, Loss, HWP, QWP`` from 6 angles
    ``(a1, a2, x1, x2, a3, a4)``."""
    a1, a2, x1, x2, a3, a4 = (float(v) for v in angles)
    return (
        OpticalElement(ElementKind.HWP, (a1,)),
        OpticalElement(ElementKind.QWP, (a2,)),
        OpticalElement(ElementKind.LOSS, (x1, x2)),
        OpticalElement(ElementKind.HWP, (a3,)),
        OpticalElement(ElementKind.QWP, (a4,)),
    )


def apt_shape(angles: Sequence[float]) -> tuple[OpticalElement, ...]:
    """APT-family element list ``QWP, HWP, Loss, QWP, HWP`` from 6 angles
    ``(a1, a2, x1, x2, a3, a4)``."""
    a1, a2, x1, x2, a3, a4 = (float(v) for v in angles)
    return (
        OpticalElement(ElementKind.QWP, (a1,)),
        OpticalElement(ElementKind.HWP, (a2,)),
        OpticalElement(ElementKind.LOSS, (x1, x2)),
        OpticalElement(ElementKind.QWP, (a3,)),
        OpticalElement(ElementKind.HWP, (a4,)),
    )


def pt_shape_slaved(theta1: float, xi1: float, xi2: float) -> tuple[OpticalElement, ...]:
    """Constrained PT-family variant with waveplate angles tied to ``theta1``:
    ``HWP(θ1), QWP(2θ1), L(ξ1, ξ2), HWP(π/4 - θ1), QWP(0)``.

    Kept for reference and for studying the coverage gap; the solver
    uses the free-angle :func:`pt_shape`.
    """
    return pt_shape((theta1, 2.0 * theta1, xi1, xi2, math.pi / 4.0 - theta1, 0.0))


def apt_shape_slaved(xi3: float, phi1: float, phi2: float) -> tuple[OpticalElement, ...]:
    """Constrained APT-family variant with an equal-angle loss element:
    ``QWP(0), HWP(π/4), L(ξ3, ξ3), QWP(φ1), HWP(φ2)``."""
    return apt_shape((0.0, math.pi / 4.0, xi3, xi3, phi1, phi2))


def assemble(seq: OpticalSequence | Iterable[OpticalElement]) -> np.ndarray:
    """Ordered matrix product of a sequence, leftmost element applied last.

    The empty sequence assembles to the identity.
    """
    elements = seq.elements if isinstance(seq, OpticalSequence) else tuple(seq)
    out = np.eye(2, dtype=complex)
    for el in elements:
        out = out @ el.matrix()
    return out


# ---------------------------------------------------------------------------
# inverse design
# ---------------------------------------------------------------------------

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


def _shape_builder(kind: SymmetryClass) -> Callable[[Sequence[float]], tuple[OpticalElement, ...]]:
    return pt_shape if kind is SymmetryClass.PT else apt_shape


def _fast_assembler(kind: SymmetryClass) -> Callable[[np.ndarray], np.ndarray]:
    """Assembly of the 6-angle shape without OpticalElement overhead
    (the optimizer calls this thousands of times)."""
    if kind is SymmetryClass.PT:
        def build(v: np.ndarray) -> np.ndarray:
            return (r_hwp(v[0]) @ r_qwp(v[1]) @ loss_operator(v[2], v[3])
                    @ r_hwp(v[4]) @ r_qwp(v[5]))
    else:
        def build(v: np.ndarray) -> np.ndarray:
            return (r_qwp(v[0]) @ r_hwp(v[1]) @ loss_operator(v[2], v[3])
                    @ r_qwp(v[4]) @ r_hwp(v[5]))
    return build


def solve_angles(
    p: HamiltonianParams,
    t: float,
    seed: int = 0,
    restarts: int = 32,
    success_threshold: float = DEFAULT_TOLS.optics_residual,
    early_stop: float = 1e-9,
) -> OpticalSequence:
    """Find setting angles whose assembled sequence realizes ``U(t)``.

    Multi-start Nelder-Mead over the box [0, π)^6 (all three element
    matrices are π-periodic in their angles).  Restart points are drawn
    from a seeded generator and evaluated in order; the best (residual,
    index)-ordered result wins, so the outcome is deterministic for a
    given seed even if restarts were evaluated concurrently.  The loop
    exits early once a restart lands below ``early_stop`` (well inside
    the success threshold); the final candidate is polished once more
    before acceptance.

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
    th = _largest_entry_normalized(target)
    build = _fast_assembler(p.kind)

    def objective(v: np.ndarray) -> float:
        m = build(v)
        n = float(np.abs(m).max())
        if n < 1e-300:
            return 1e6
        mh = m / n
        lam = np.vdot(mh, th) / np.vdot(mh, mh).real
        return float(np.linalg.norm(th - lam * mh))

    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, math.pi, size=(restarts, 6))
    best_res = math.inf
    best_x: np.ndarray | None = None
    for i in range(restarts):
        r = minimize(
            objective,
            starts[i],
            method="Nelder-Mead",
            options=dict(maxiter=2400, xatol=1e-12, fatol=1e-14),
        )
        if r.fun < best_res:
            best_res, best_x = float(r.fun), r.x
        if best_res < early_stop:
            break
    assert best_x is not None
    polish = minimize(
        objective,
        best_x,
        method="Nelder-Mead",
        options=dict(maxiter=2400, xatol=1e-13, fatol=1e-15),
    )
    if polish.fun < best_res:
        best_res, best_x = float(polish.fun), polish.x

    if best_res > success_threshold:
        raise NoDecompositionError(
            best_residual=best_res,
            best_angles=tuple(float(a) % math.pi for a in best_x),
            message=(
                f"no angle set reached residual {success_threshold:g} for "
                f"kind={p.kind.value}, a={p.a}, s={p.s}, t={t}; best residual "
                f"{best_res:.3e} after {restarts} restarts"
            ),
        )
    return OpticalSequence(
        elements=_shape_builder(p.kind)(best_x),
        target_kind=p.kind,
        t=float(t),
        residual=best_res,
    )


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
