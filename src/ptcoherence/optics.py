"""Waveplate/loss-element sequences realizing the nonunitary propagators.

A target propagator is realized — up to an unobservable global complex
scale, since evolved states are renormalized — by a five-element Jones
sequence combining two unitary waveplate groups around one
polarization-dependent loss element:

    PT target:   HWP(a1) · QWP(a2) · L(x1, x2) · HWP(a3) · QWP(a4)
    APT target:  QWP(a1) · HWP(a2) · L(x1, x2) · QWP(a3) · HWP(a4)

(leftmost factor applied last).  Up to scale the target fixes only the
ratio σ_min/σ_max of the loss element's transmissions, so the loss is the
brightest such element, transmissions 1 (x = π/4) and σ_min/σ_max (x = ½
asin of it), in four gauges: the path of the larger one and their relative
sign (a negative one is π − x).  In each gauge the wave-plate angles are
isolated solutions of a least-squares fit from fixed start points.  The
printed one is picked by a fixed rule, never by cost: HWP angles mod π/2 and
QWP angles mod π (a sign of the product), a value within ``_TIE`` (1e-6) of
0 or of the top read as 0, then the lexicographically first fitted setting,
ties within ``_TIE`` passed on; it is polished and read again with ``_SEAM``.
It is the first among the branches the fixed starts reach, not among all
exact settings: at APT a = 1.5, t = 1 an exact setting that precedes it,
(π/4, 0.6984, …), is reached from no start.

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
  which the symmetry class fixes.  :func:`solve_angles` prints HWP angles
  in [0, π/2), QWP angles in [0, π) and loss angles in [0, π/4] ∪ [3π/4, π].
"""
from __future__ import annotations

import math
import operator
import random
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
    ``params.kind``.  ``residual`` is the norm of the part of the
    normalized product orthogonal to the normalized target: zero iff
    the product is proportional to the target.
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
    """Raised when no fit from the fixed start points reaches the residual
    target.  Carries the best residual and angle vector found, for diagnostics.
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
    out = w1(v[..., 0])
    for factor in (w2(v[..., 1]), loss_operator(v[..., 2], v[..., 3]), w3(v[..., 4]),
                   w4(v[..., 5])):
        # the 2x2 product as two outer products: elementwise, no BLAS
        out = out[..., :, :1] * factor[..., :1, :] + out[..., :, 1:] * factor[..., 1:, :]
    return out


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
#: Columns of a setting row that hold wave-plate angles: the fitted ones.
_PLATES = [0, 1, 4, 5]
#: Tie and seam widths: ``_TIE`` among the fitted rows, above their angle
#: noise of about 1e-7, and ``_SEAM`` for the one polished row.
_TIE = 1e-6
_SEAM = 1e-9
#: The fixed start points of the fit, an exact rank-1 lattice in [0, π)⁴.
_STARTS = math.pi / 32 * (np.arange(32)[:, None] * [1, 5, 9, 13] % 32 + 0.5)


def _norm(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Euclidean norms along the last axis: numpy's own expression for a
    norm with an axis, bit for bit, which calls no BLAS."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1, keepdims=keepdims))


def _solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solutions x of a·x = b for stacks of symmetric positive definite
    matrices ``a`` (n, k, k) and vectors ``b`` (n, k): Gaussian elimination
    without pivoting, stable on such matrices, then back substitution.  A
    matrix singular to rounding (a zero pivot) gets ``x = 0``: no step."""
    a, b = a.copy(), b.copy()
    k = b.shape[-1]
    singular = np.zeros(len(b), dtype=bool)
    for i in range(k):
        singular |= a[:, i, i] == 0.0
        a[singular, i, i] = 1.0  # any nonzero pivot: these rows are zeroed below
        f = a[:, i + 1:, i] / a[:, i, i, None]
        a[:, i + 1:, i:] -= f[..., None] * a[:, None, i, i:]
        b[:, i + 1:] -= f * b[:, i, None]
    x = np.empty_like(b)
    for i in reversed(range(k)):
        x[:, i] = (b[:, i] - np.sum(a[:, i, i + 1:] * x[:, i + 1:], axis=-1)) / a[:, i, i]
    x[singular] = 0.0
    return x


def _orthogonal_part(m: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Component of vec(m)/|m| orthogonal to the unit 4-vector ``tau``, as
    8 reals per matrix; zero iff ``m`` is proportional to the target.  A
    (numerically) zero matrix gets all-ones, far from any solution."""
    vec = m.reshape(m.shape[:-2] + (4,))
    norm = _norm(vec, keepdims=True)
    u = vec / np.where(norm > 1e-300, norm, 1.0)
    r = u - tau * np.sum(u * tau.conj(), axis=-1, keepdims=True)
    return np.where(norm > 1e-300, np.concatenate([r.real, r.imag], axis=-1), 1.0)


def _levenberg_marquardt(residual, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Gauss-Newton on the ``_PLATES`` columns of every row of ``x``
    (n, 6) at once, for ``residual`` mapping rows (..., 6) to vectors
    (..., m).  The Jacobian is a forward difference, and each step solves the
    damped normal equations by :func:`_solve_spd`; each row's damping
    grows ×4 on a rejected step and shrinks ÷3 on an accepted one.
    Returns the final rows and their squared residual norms."""
    step = np.eye(x.shape[-1])[_PLATES]  # one row per fitted column
    eye = np.eye(len(_PLATES))
    r = residual(x)
    cost = np.einsum("...i,...i", r, r)
    damping = np.full(len(x), _LM_DAMPING)
    for _ in range(_LM_ITERATIONS):
        jac_t = (residual(x[:, None, :] + _LM_STEP * step) - r[:, None, :]) / _LM_STEP
        normal = np.sum(jac_t[:, :, None] * jac_t[:, None], axis=-1) + damping[:, None, None] * eye
        x_try = x.copy()
        x_try[:, _PLATES] -= _solve_spd(normal, np.sum(jac_t * r[:, None], axis=-1))
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


def _reduced(kind: SymmetryClass, rows: np.ndarray, seam: float) -> np.ndarray:
    """``rows`` (n, 6), HWP angles mod π/2 and QWP mod π, within ``seam`` of 0 or the top as 0."""
    top = np.array([math.pi / 2 if n == "HWP" else math.pi for n in _SHAPES[kind] if n != "Loss"])
    out, plates = rows.copy(), rows[:, _PLATES] % top
    out[:, _PLATES] = np.where(np.minimum(plates, top - plates) <= seam, 0.0, plates)
    return out


def solve_angles(p: HamiltonianParams, t: float) -> OpticalSequence:
    """Find setting angles whose assembled sequence realizes ``U(t)``.

    One Levenberg-Marquardt solve of :func:`_orthogonal_part` fits the
    wave-plate angles from the 32 fixed ``_STARTS`` in all four loss gauges,
    for up to 60 steps or until the best row reaches rounding level; no random
    number is drawn.  The first converged row by the branch rule (module
    docstring, ties within 1e-6), first among the branches these starts
    reach rather than among all exact settings, is polished and reduced
    again; its residual is returned.

    Raises
    ------
    NoDecompositionError
        If no row reaches ``tolerances.optics_residual``; carries the
        best residual and angles found.
    ValueError
        If ``t`` is negative or not finite.
    """
    target = propagator_scaled(p, float(_evolution_times([t])[0]))
    tau = target.reshape(4) / _norm(target.reshape(4))

    def residual(v):
        return _orthogonal_part(assemble(p.kind, v), tau)
    rows = np.zeros((len(_STARTS), 4, 6))  # each start point in each gauge
    rows[..., _PLATES] = _STARTS[:, None]
    # σ_min/σ_max = |det T| / σ_max², σ_max² the top eigenvalue of h = T^H T: no cancellation
    (t00, t01), (t10, t11) = target.tolist()
    h00, h11 = abs(t00) ** 2 + abs(t10) ** 2, abs(t01) ** 2 + abs(t11) ** 2
    h01 = abs(t00.conjugate() * t01 + t10.conjugate() * t11)
    top = (h00 + h11) / 2 + math.hypot((h00 - h11) / 2, h01)
    dim, q = 0.5 * math.asin(min(1.0, abs(t00 * t11 - t01 * t10) / top)), math.pi / 4
    rows[..., 2:4] = [[q, dim], [q, math.pi - dim], [dim, q], [math.pi - dim, q]]  # brightest loss
    x, cost = _levenberg_marquardt(residual, rows.reshape(-1, 6))
    threshold = tolerances.optics_residual
    # the converged rows, or else the best one, which fails below
    pool = _reduced(p.kind, x[cost <= max(threshold * threshold, cost.min())], _TIE)
    keep = np.arange(len(pool))
    for column in pool.T:  # lexicographic, ties within _TIE passed on
        keep = keep[column[keep] <= column[keep].min() + _TIE]
    angles = _reduced(p.kind, _levenberg_marquardt(residual, pool[keep[:1]])[0], _SEAM)[0]
    best_res = float(_norm(residual(angles)))
    if best_res > threshold:
        raise NoDecompositionError(best_res, tuple(angles.tolist()), (
            f"no angle set reached residual {threshold:g} for kind={p.kind.value}, a={p.a}, "
            f"s={p.s}, t={t}; best residual {best_res:.3e}"))
    return OpticalSequence(params=p, angles=angles, t=float(t), residual=best_res)


def verify_state_action(seq: OpticalSequence, seed: int = 0) -> float:
    """Worst-case state-action deviation between ``seq`` and its target.

    Draws ``_N_STATES`` (10) Haar-random pure states from Python's own
    ``random.Random(seed)``, whose ``random()`` stream Python keeps the
    same across versions, so the check loads no ``numpy.random`` (which
    numpy 2 imports on first use; numpy 1.x imports it with numpy): each
    amplitude is a complex normal from two uniforms by Box-Muller, a
    radius and then a phase.  ``seed`` is a non-negative integer (a float,
    which ``random.Random`` would hash, raises TypeError; a negative one
    ValueError, since ``random.Random`` would read it as its absolute
    value).  It evolves each state with the propagator of ``seq.params`` (u)
    and with the assembled sequence (v), and renormalizes both.  The
    deviation of a state is the distance at the nearest global phase,
    ``min_phi ||u - e^{i phi} v||``, which equals ``sqrt(2 - 2 |<u, v>|)``;
    it is computed as that norm, with v turned by the phase of ``<v, u>``,
    so a deviation near 0 keeps its digits.  Returns the maximum across the
    panel, inf when an output vanishes.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    target = propagator_scaled(seq.params, seq.t)  # seq.t is validated by OpticalSequence
    mat = assemble(seq.params.kind, seq.angles)
    rng = random.Random(seed)
    uniform = np.array([rng.random() for _ in range(4 * _N_STATES)]).reshape(_N_STATES, 2, 2)
    states = np.sqrt(-2.0 * np.log1p(-uniform[..., 0])) * np.exp(2j * np.pi * uniform[..., 1])
    u, v = (np.sum(states[:, None, :] * m, axis=-1) for m in (target, mat))
    nu, nv = (_norm(x, keepdims=True) for x in (u, v))
    if min(nu.min(), nv.min()) < 1e-300:
        return math.inf
    u, v = u / nu, v / nv
    overlap = np.sum(v.conj() * u, axis=1, keepdims=True)
    phase = np.divide(overlap, np.abs(overlap), out=np.ones_like(overlap), where=overlap != 0)
    return float(_norm(u - phase * v).max())


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
