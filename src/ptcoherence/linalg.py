"""Minimal dense complex matrix helpers, a matrix-exponential oracle and
the package's only doorway to SciPy.

Everything operates on small square complex arrays (2x2 vectors/matrices
for single-qubit work, 4x4 for two-qubit work).  The matrix exponential
is delegated to SciPy's scaling-and-squaring Pade implementation and is
used throughout the package as the independent ground truth against
which closed-form propagators are checked, so this module must never
share code with the analytic propagator path.

SciPy is imported on the first call that needs it (``mat_exp_oracle``
and ``minimize``), never at import time: loading it costs more than
everything the closed-form subcommands compute.

All functions are pure and allocate fresh outputs; inputs are never
mutated, which makes every operation safe to call concurrently.
"""
from __future__ import annotations

import numpy as np

__all__ = ["mat_mul", "mat_exp_oracle", "frobenius_dist"]


def _as_complex_square(m: np.ndarray, name: str) -> np.ndarray:
    """Validate and convert ``m`` to a finite complex square array."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Standard matrix product of two equal-size square complex matrices.

    Parameters
    ----------
    a, b:
        Square complex matrices of identical shape.

    Returns
    -------
    numpy.ndarray
        The product ``a @ b`` as a fresh complex array.
    """
    am = _as_complex_square(a, "a")
    bm = _as_complex_square(b, "b")
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return am @ bm


def mat_exp_oracle(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(m * t)`` via scaling-and-squaring.

    This is the package's ground-truth propagator route: the generator
    is scaled by ``t`` and exponentiated by SciPy's Pade-based
    scaling-and-squaring algorithm, which achieves relative error well
    below 1e-12 for the matrix norms used here (<= 10).

    Parameters
    ----------
    m:
        Square complex generator matrix (2x2 or 4x4 in this package).
    t:
        Real scale factor applied to ``m`` before exponentiation.
        For a Hamiltonian ``H``, pass ``m = -1j * H`` to obtain the
        quantum propagator ``exp(-i H t)``.

    Returns
    -------
    numpy.ndarray
        ``exp(m * t)`` with the same shape as ``m``.

    Raises
    ------
    OverflowError
        If the exponential exceeds the double-precision range.
    ValueError
        If ``m`` is not square or contains non-finite entries, or if
        ``t`` is not finite.
    """
    arr = _as_complex_square(m, "m")
    tf = float(t)
    if not np.isfinite(tf):
        raise ValueError("t must be finite")
    from scipy.linalg import expm

    result = expm(arr * tf)
    if not np.all(np.isfinite(result.view(float))):
        raise OverflowError(
            "matrix exponential overflowed the double-precision range; "
            "reduce |t| or the generator norm"
        )
    return result


def frobenius_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance ``sqrt(sum |a_ij - b_ij|^2)``.

    Parameters
    ----------
    a, b:
        Complex matrices of identical shape.

    Returns
    -------
    float
        Nonnegative distance; zero iff the matrices are identical.
    """
    am = np.asarray(a, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return float(np.linalg.norm(am - bm))


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, with SciPy imported on the first call."""
    from scipy.optimize import minimize as _minimize

    return _minimize(*args, **kwargs)
