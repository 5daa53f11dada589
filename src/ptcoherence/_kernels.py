"""Grid kernels: propagators and coherence series over time grids.

Every kernel evaluates a whole time grid in array operations; none
loops over time points in Python.

Kernels work in the *scaled* propagator representation: in the broken
regime the scalars (A, B, C) grow like ``exp(w s t)``, but every
quantity computed here is a ratio that is invariant under a common
positive rescaling of (A, B, C), so the factor ``exp(-w s t)`` is
pulled out once the hyperbolic argument exceeds ``_SCALE_SWITCH``.
This keeps all intermediates finite for arbitrarily large times.

Conventions: ``times`` is a float64 array of any real values (negative
entries evaluate the analytic continuation); single-qubit states enter
as ``(alpha, beta, phi)`` with ``alpha^2 + beta^2 = 1``.
"""
from __future__ import annotations

import numpy as np

from .hamiltonian import HamiltonianParams, SymmetryClass

__all__ = [
    "matmul2",
    "propagator_grid",
    "coherence_series_numpy",
    "two_qubit_coherence_series_numpy",
]

#: Hyperbolic argument above which the scaled representation is used.
#: 150 keeps even fourth powers of the scaled-out factor far from the
#: double-precision overflow threshold (exp(4 * 150) >> 1e308 would not
#: be, so scaling must kick in before two-qubit products square the
#: squared entries).
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
# scaled (A, B, C) and propagator grids
# ---------------------------------------------------------------------------

def _abc_grid_numpy(p: HamiltonianParams, times: np.ndarray):
    """Scaled propagator scalars (A, B, C) over a time grid.

    Returns arrays proportional to the true scalars by a common
    positive per-time factor (irrelevant to every ratio computed from
    them).
    """
    s, a = p.s, p.a
    st = s * np.asarray(times, dtype=np.float64)
    d = 1.0 - a * a if p.kind is SymmetryClass.PT else a * a - 1.0
    if d > 0.0:
        w = np.sqrt(d)
        x = w * st
        A = np.cos(x)
        tiny = np.abs(x) < _SERIES_SWITCH
        xs = np.where(tiny, 1.0, x)
        x2 = x * x
        g = st * np.where(tiny, 1.0 - x2 / 6.0 + x2 * x2 / 120.0, np.sin(xs) / xs)
    elif d < 0.0:
        w = np.sqrt(-d)
        x = w * st
        xa = np.abs(x)  # cosh even, sinh odd: branch on |x|, restore sign via st
        big = xa > _SCALE_SWITCH
        tiny = xa < _SERIES_SWITCH
        xc = np.where(big, 0.0, x)  # safe argument for cosh/sinh
        xs = np.where(tiny | big, 1.0, x)  # safe denominator
        x2 = x * x
        q = np.exp(-2.0 * xa)  # underflows harmlessly to 0 for large |x|
        A = np.where(big, 0.5 * (1.0 + q), np.cosh(xc))
        sinhc = np.where(tiny, 1.0 + x2 / 6.0 + x2 * x2 / 120.0, np.sinh(xc) / xs)
        g = np.where(big, np.sign(st) * 0.5 * (1.0 - q) / w, st * sinhc)
    else:
        A = np.ones_like(st)
        g = st.copy()
    return A, -a * g, g


def propagator_grid(p: HamiltonianParams, times: np.ndarray) -> np.ndarray:
    """Scaled propagators ``U_hat(t)`` over a time grid, shape ``(n, 2, 2)``.

    Each matrix equals the true propagator up to a positive per-time
    factor, so every renormalized quantity built from it is exact.
    """
    A, B, C = _abc_grid_numpy(p, times)
    u = np.empty(A.shape + (2, 2), dtype=complex)
    if p.kind is SymmetryClass.PT:
        u[:, 0, 0] = A - B
        u[:, 0, 1] = -1j * C
        u[:, 1, 0] = -1j * C
        u[:, 1, 1] = A + B
    else:
        u[:, 0, 0] = A + 1j * B
        u[:, 0, 1] = C
        u[:, 1, 0] = C
        u[:, 1, 1] = A - 1j * B
    return u


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
    A, B, C = _abc_grid_numpy(p, np.asarray(times, dtype=np.float64))
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
