"""Independent ground truth for the tests: SciPy's matrix exponential and
a Frobenius distance.

The closed-form propagators are checked against ``scipy.linalg.expm``
(scaling and squaring with Pade approximants), which shares no code with
the package.  SciPy is a test dependency only.
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
