"""Independent ground truth for the tests: SciPy's matrix exponential, an
eigendecomposition propagator, and a Frobenius distance.

The closed-form propagators are checked against ``scipy.linalg.expm``
(scaling and squaring with Pade approximants), which shares no code with
the package.  SciPy is a test dependency only.  Where ``expm`` overflows
(broken-regime phases above ~700), :func:`eigen_propagator` gives the
propagator's direction from ``numpy.linalg.eig`` instead.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm


def _as_complex_square(m: np.ndarray, name: str) -> np.ndarray:
    """Validate and convert ``m`` to a finite complex square array."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def mat_exp_oracle(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """``exp(m * t)`` by ``scipy.linalg.expm``.

    For a Hamiltonian ``H``, pass ``m = -1j * H`` to obtain ``exp(-i H t)``.

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
    result = expm(arr * tf)
    if not np.all(np.isfinite(result.view(float))):
        raise OverflowError(
            "matrix exponential overflowed the double-precision range; "
            "reduce |t| or the generator norm"
        )
    return result


def frobenius_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance ``sqrt(sum |a_ij - b_ij|^2)`` of equal-shape arrays."""
    am = np.asarray(a, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return float(np.linalg.norm(am - bm))


def eigen_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """``exp(-i h t)`` of a 2x2 generator, divided by its largest entry.

    A diagonalizable ``h = V diag(lam) V^-1`` gives
    ``V diag(exp(-i lam t)) V^-1``, with the largest growth factor taken
    out of the exponentials before they are evaluated, so every phase
    stays finite.  A traceless ``h`` of zero determinant (the exceptional
    point) has ``h @ h = 0`` and gives exactly ``I - i h t``.
    """
    h = _as_complex_square(h, "h")
    if h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0] == 0:
        u = np.eye(2) - 1j * h * t
    else:
        lam, vecs = np.linalg.eig(h)
        expo = -1j * lam * t
        u = vecs @ np.diag(np.exp(expo - expo.real.max())) @ np.linalg.inv(vecs)
    return u / np.abs(u).max()
