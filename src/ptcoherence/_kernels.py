"""The propagator core and the grid kernels built on it.

:func:`abc_scaled` is the package's one evaluator of the propagator
scalars (A, B, C), in the dimensionless time ``theta = s t`` through
which every observable depends on ``s`` and ``t``.  In the broken
regime the scalars grow like ``exp(w theta)``, but every quantity
computed from them is a ratio invariant under a common positive
rescaling, so the factor ``exp(-w |theta|)`` is pulled out (and
returned as ``log_scale``) once the hyperbolic argument exceeds the one
switch ``_SCALE_SWITCH``.  This keeps all intermediates finite for
arbitrarily large times.  No kernel loops over time points in Python.

Conventions: ``times`` is a float64 array of any real values (negative
entries evaluate the analytic continuation); single-qubit states enter
as ``(alpha, beta, phi)`` with ``alpha^2 + beta^2 = 1``.
"""
from __future__ import annotations

import numpy as np

from .hamiltonian import HamiltonianParams, SymmetryClass

__all__ = [
    "matmul2",
    "abc_scaled",
    "abc_matrices",
    "propagator_grid",
    "coherence_series_numpy",
    "coherence_slope_numpy",
    "two_qubit_coherence_series_numpy",
    "two_qubit_slope_numpy",
]

#: Hyperbolic argument above which the scaled representation is used.
#: At 150 even fourth powers of an unscaled entry (e^600 ~ 4e260, as in
#: squared magnitudes of two-qubit products) stay below the
#: double-precision overflow threshold (~e^709).
_SCALE_SWITCH = 150.0
#: Below this argument the sin(x)/x and sinh(x)/x ratios use series.
_SERIES_SWITCH = 1e-4


# ---------------------------------------------------------------------------
# 2x2 stacks
# ---------------------------------------------------------------------------

def matmul2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` for (stacks of) 2x2 matrices, broadcasting like ``@``.

    Written out entry by entry: on ``(n, 2, 2)`` stacks numpy's batched
    matmul is about ten times slower than these elementwise products.
    """
    x00, x01, x10, x11 = x[..., 0, 0], x[..., 0, 1], x[..., 1, 0], x[..., 1, 1]
    y00, y01, y10, y11 = y[..., 0, 0], y[..., 0, 1], y[..., 1, 0], y[..., 1, 1]
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.result_type(x, y))
    out[..., 0, 0] = x00 * y00 + x01 * y10
    out[..., 0, 1] = x00 * y01 + x01 * y11
    out[..., 1, 0] = x10 * y00 + x11 * y10
    out[..., 1, 1] = x10 * y01 + x11 * y11
    return out


# ---------------------------------------------------------------------------
# scaled (A, B, C) and propagator stacks
# ---------------------------------------------------------------------------

def _discriminant(kind: SymmetryClass, a: float) -> float:
    """``d`` with (A, C) = (cos, sin / w) of ``w theta``, ``w = sqrt(d)``."""
    return 1.0 - a * a if kind is SymmetryClass.PT else a * a - 1.0


def abc_scaled(kind: SymmetryClass, a: float, theta):
    """Scaled propagator scalars ``(A, B, C, log_scale)`` at ``theta = s t``.

    The true scalars are ``exp(log_scale)`` times the returned (A, B, C);
    ``log_scale`` is zero except where the hyperbolic argument
    ``|w theta|`` exceeds ``_SCALE_SWITCH``.  ``theta`` is any real array
    (or scalar); all four outputs are float64 arrays of its shape.
    """
    th = np.asarray(theta, dtype=np.float64)
    d = _discriminant(kind, a)
    log_scale = np.zeros_like(th)
    if d > 0.0:
        w = np.sqrt(d)
        x = w * th
        A = np.cos(x)
        tiny = np.abs(x) < _SERIES_SWITCH
        xs = np.where(tiny, 1.0, x)
        x2 = np.where(tiny, x, 0.0) ** 2  # only the series needs it: never overflows
        g = th * np.where(tiny, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(xs) / xs)
    elif d < 0.0:
        w = np.sqrt(-d)
        x = w * th
        xa = np.abs(x)  # cosh even, sinh odd: branch on |x|, restore sign via theta
        big = xa > _SCALE_SWITCH
        tiny = xa < _SERIES_SWITCH
        xc = np.where(big, 0.0, x)  # safe argument for cosh/sinh
        xs = np.where(tiny | big, 1.0, x)  # safe denominator
        x2 = np.where(tiny, x, 0.0) ** 2  # only the series needs it: never overflows
        q = np.exp(-2.0 * xa)  # underflows harmlessly to 0 for large |x|
        # cosh(x) = e^|x| (1 + e^{-2|x|})/2, sinh(x) = sign(x) e^|x| (1 - e^{-2|x|})/2
        A = np.where(big, 0.5 * (1.0 + q), np.cosh(xc))
        sinhc = np.where(tiny, 1.0 + x2 / 6.0 + x2 * x2 / 120.0, np.sinh(xc) / xs)
        g = np.where(big, np.sign(th) * 0.5 * (1.0 - q) / w, th * sinhc)
        log_scale = np.where(big, xa, log_scale)
    else:
        A = np.ones_like(th)
        g = th.copy()
    return A, -a * g, g, log_scale


def abc_matrices(kind: SymmetryClass, A, B, C) -> np.ndarray:
    """Propagator matrices from (arrays of) scalars, shape ``A.shape + (2, 2)``.

    PT: ``[[A - B, -i C], [-i C, A + B]]``; APT: ``[[A + i B, C], [C, A - i B]]``.
    """
    A, B, C = np.broadcast_arrays(A, B, C)
    u = np.empty(A.shape + (2, 2), dtype=complex)
    if kind is SymmetryClass.PT:
        u[..., 0, 0] = A - B
        u[..., 0, 1] = -1j * C
        u[..., 1, 0] = -1j * C
        u[..., 1, 1] = A + B
    else:
        u[..., 0, 0] = A + 1j * B
        u[..., 0, 1] = C
        u[..., 1, 0] = C
        u[..., 1, 1] = A - 1j * B
    return u


def propagator_grid(p: HamiltonianParams, times: np.ndarray) -> np.ndarray:
    """Scaled propagators ``U_hat(t)`` over a time grid, shape ``(n, 2, 2)``.

    Each matrix equals the true propagator up to a positive per-time
    factor, so every renormalized quantity built from it is exact.
    """
    A, B, C, _ = abc_scaled(p.kind, p.a, p.s * np.asarray(times, dtype=np.float64))
    return abc_matrices(p.kind, A, B, C)


def _propagator_slope(p: HamiltonianParams, theta: np.ndarray):
    """``(U_hat, dU/dtheta)`` over a 1-D grid in ``theta``, each divided by
    the largest ``|U_hat|`` entry at each time.

    ``dA/dtheta = -d C``, ``dB/dtheta = -a A`` and ``dC/dtheta = A``.  A
    per-time scale only adds a multiple of ``U`` to the derivative,
    which no ratio of the state's entries sees.
    """
    A, B, C, _ = abc_scaled(p.kind, p.a, theta)
    u = abc_matrices(p.kind, A, B, C)
    du = abc_matrices(p.kind, -_discriminant(p.kind, p.a) * C, -p.a * A, A)
    top = np.abs(u).max(axis=(1, 2))[:, None, None]
    return u / top, du / top


def _factor(plus: np.ndarray, minus: np.ndarray, den: np.ndarray):
    """``(plus - minus) / den`` and its rounding bound."""
    bound = 64.0 * np.finfo(np.float64).eps * (np.abs(plus) + np.abs(minus))
    return (plus - minus) / den, bound / den


# ---------------------------------------------------------------------------
# coherence series
# ---------------------------------------------------------------------------

def coherence_series_numpy(
    p: HamiltonianParams,
    alpha: float,
    beta: float,
    phi: float,
    times: np.ndarray,
) -> np.ndarray:
    """l1 coherence of the normalized evolved pure state over ``times``.

    Uses the closed-form populations x = |<H|psi(t)>|^2 and
    y = |<V|psi(t)>|^2 (up to common scale) and
    ``C = 2 sqrt(x y) / (x + y)``.
    """
    A, B, C, _ = abc_scaled(p.kind, p.a, p.s * np.asarray(times, dtype=np.float64))
    sphi = np.sin(phi)
    cphi = np.cos(phi)
    ab = alpha * beta
    if p.kind is SymmetryClass.PT:
        pm = A - B
        pp = A + B
        x = alpha * alpha * pm * pm + C * C * beta * beta + 2.0 * ab * C * pm * sphi
        y = beta * beta * pp * pp + C * C * alpha * alpha - 2.0 * ab * C * pp * sphi
    else:
        r2 = A * A + B * B
        cross = 2.0 * ab * C * (A * cphi + B * sphi)
        x = alpha * alpha * r2 + C * C * beta * beta + cross
        y = beta * beta * r2 + C * C * alpha * alpha + cross
    x = np.maximum(x, 0.0)
    y = np.maximum(y, 0.0)
    # 2*sqrt(x)*sqrt(y) instead of sqrt(x*y): the product can overflow
    # at large unscaled hyperbolic arguments even though the ratio is O(1)
    return 2.0 * np.sqrt(x) * np.sqrt(y) / (x + y)


def coherence_slope_numpy(p: HamiltonianParams, psi: np.ndarray, theta: np.ndarray):
    """Two factors of dC/dtheta and their rounding bounds, shape ``(2, n)``.

    dC/dtheta = (y - x)(x' y - x y') / (sqrt(x y) (x + y)^2) with
    v = U psi, x = |v_0|^2, y = |v_1|^2.  The factor (y - x)/(x + y)
    vanishes at the C = 1 touches, (x' y - x y')/(x + y)^2 at the other
    extrema (with a sign jump at the corner minima C = 0).
    """
    u, du = _propagator_slope(p, theta)
    v, dv = (u * psi).sum(axis=2), (du * psi).sum(axis=2)
    x, y = np.abs(v[:, 0]) ** 2, np.abs(v[:, 1]) ** 2
    dx, dy = 2.0 * (v.conj() * dv).real.T
    f1, b1 = _factor(y, x, x + y)
    f2, b2 = _factor(dx * y, x * dy, (x + y) ** 2)
    return np.stack([f1, f2]), np.stack([b1, b2])


def two_qubit_coherence_series_numpy(
    p: HamiltonianParams,
    psi: np.ndarray,
    times: np.ndarray,
) -> np.ndarray:
    """l1 coherence of the normalized pure state ``(U ⊗ U) psi`` over ``times``.

    With ``Psi = psi`` reshaped to 2x2 (row index: first qubit),
    ``(U ⊗ U) psi = vec(U Psi U^T)``.  For the pure state ``v`` the
    off-diagonal magnitudes of ``|v><v|`` sum to
    ``(sum |v_i|)^2 - sum |v_i|^2`` and its trace is ``sum |v_i|^2``.
    """
    u = propagator_grid(p, np.asarray(times, dtype=np.float64))
    psi2 = np.asarray(psi, dtype=complex).reshape(2, 2)
    mags = np.abs(matmul2(matmul2(u, psi2), u.transpose(0, 2, 1)).reshape(-1, 4))
    l1 = mags.sum(axis=1)
    norm2 = (mags * mags).sum(axis=1)
    return (l1 * l1 - norm2) / norm2


def two_qubit_slope_numpy(p: HamiltonianParams, psi: np.ndarray, theta: np.ndarray):
    """The sign of the two-qubit dC/dtheta and its rounding bound, shape ``(1, n)``.

    With v = vec(U Psi U^T), v' = vec(U' Psi U^T + U Psi U'^T),
    L = sum |v_i|, N = sum |v_i|^2 and C = L^2 / N - 1, that sign is the
    sign of L' N - L sum Re(conj(v_i) v_i'), where
    L' = sum Re(conj(v_i) v_i') / |v_i| (terms with v_i = 0 dropped).
    """
    u, du = _propagator_slope(p, theta)
    psi2 = np.asarray(psi, dtype=complex).reshape(2, 2)
    up, ut = matmul2(u, psi2), u.transpose(0, 2, 1)
    v = matmul2(up, ut).reshape(-1, 4)
    dv = (matmul2(matmul2(du, psi2), ut) + matmul2(up, du.transpose(0, 2, 1))).reshape(-1, 4)
    mags, re = np.abs(v), (v.conj() * dv).real
    ratio = np.divide(re, mags, out=np.zeros_like(re), where=mags > 0.0)
    l1, norm2 = mags.sum(axis=1), (mags * mags).sum(axis=1)
    f = ratio.sum(axis=1) * norm2 - l1 * re.sum(axis=1)
    # both sums can cancel (at t = 0 for psi_2 and psi_3): bound by their terms
    scale = np.abs(ratio).sum(axis=1) * norm2 + l1 * np.abs(re).sum(axis=1)
    return f[None], 64.0 * np.finfo(np.float64).eps * scale[None]
