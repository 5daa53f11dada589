"""Independent ground truth for the tests: SciPy's matrix exponential in
doubles, one high-precision reference propagator, and a Frobenius distance.

:func:`mat_exp_oracle` (``scipy.linalg.expm``, scaling and squaring with
Pade approximants) is the fast double-precision oracle; it overflows past
a phase of about 700.  :func:`reference_propagator` is the one
high-precision reference: ``mpmath.expm`` of ``-i H t``, with ``H`` built
from its definition, s (sigma_x + i a sigma_z) for PT and
s (i sigma_x + a sigma_z) for APT, from the same doubles the package
receives, so a comparison measures the package's arithmetic alone.  It
shares no code with the package's closed form ``U = A I + g M``, and its
exponent does not overflow.  It works at 60 digits, and at
``60 + 2 ceil(log10 a)`` for ``a > 1``: deep in the broken regime the small
eigenvector component is about 1/(2a) of the large one.  SciPy and mpmath
are test dependencies only, and no other test module imports either.
"""
from __future__ import annotations

import functools
import math

import mpmath
import numpy as np
from scipy.linalg import expm

from ptcoherence import HamiltonianParams, SymmetryClass


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


def _digits(a: float) -> int:
    """Working digits of the reference: 60, plus 2 ceil(log10 a) for a > 1."""
    return 60 + 2 * max(0, math.ceil(math.log10(a)))


@functools.lru_cache(maxsize=None)
def reference_propagator(p: HamiltonianParams, t) -> mpmath.matrix:
    """``exp(-i H t)`` by ``mpmath.expm`` at :func:`_digits` of ``p.a``.

    ``t`` is a double or an ``mpmath.mpf`` (a central difference steps
    below one ulp of ``t``).  The cached matrix must not be modified.
    """
    with mpmath.workdps(_digits(p.a)):
        s, a = mpmath.mpf(p.s), mpmath.mpf(p.a)
        sx, sz = mpmath.matrix([[0, 1], [1, 0]]), mpmath.matrix([[1, 0], [0, -1]])
        h = s * (sx + 1j * a * sz) if p.kind is SymmetryClass.PT else s * (1j * sx + a * sz)
        return mpmath.expm(-1j * h * mpmath.mpf(t))


def reference_matrix(p: HamiltonianParams, t) -> np.ndarray:
    """:func:`reference_propagator` as complex doubles, divided by the
    magnitude of its largest entry: finite at every phase."""
    u = reference_propagator(p, t).tolist()
    with mpmath.workdps(_digits(p.a)):
        big = max(abs(x) for row in u for x in row)
        return np.array([[complex(x / big) for x in row] for row in u])


def _l1(v: list) -> mpmath.mpf:
    """l1 coherence of the normalized pure state v: 2 sum_{i<j} |v_i||v_j| / sum |v_i|^2."""
    mags = [abs(x) for x in v]
    off = sum(mags[i] * mags[j] for i in range(len(mags)) for j in range(i + 1, len(mags)))
    return 2 * off / sum(x * x for x in mags)


def _rows(p: HamiltonianParams, psi, times) -> list:
    """:func:`reference_rows` at working precision; call within its ``workdps``."""
    psi = [mpmath.mpc(complex(x)) for x in np.ravel(psi)]
    rows = []
    for t in times:
        u = reference_propagator(p, t)
        if len(psi) == 2:
            v = u * mpmath.matrix(psi)
            norm = abs(v[0]) ** 2 + abs(v[1]) ** 2
            rho01 = v[0] * mpmath.conj(v[1]) / norm
            rows.append([_l1([v[0], v[1]]), 2 * rho01.real, -2 * rho01.imag,
                         (abs(v[0]) ** 2 - abs(v[1]) ** 2) / norm])
        else:  # (U ⊗ U) psi = vec(U Psi U^T)
            w = u * mpmath.matrix([psi[:2], psi[2:]]) * u.T
            rows.append(_l1([w[i, j] for i in range(2) for j in range(2)]))
    return rows


def reference_rows(p: HamiltonianParams, psi, times) -> np.ndarray:
    """For each time, ``(C, x, y, z)`` of the normalized ``U psi`` for one
    qubit (``psi`` of length 2), or C of the normalized ``(U ⊗ U) psi`` for
    two (``psi`` of length 4): shape ``(n, 4)`` or ``(n,)``."""
    with mpmath.workdps(_digits(p.a)):
        return np.array(_rows(p, psi, times), dtype=float)


def reference_slopes(p: HamiltonianParams, psi, times) -> np.ndarray:
    """``theta d/dtheta`` (equally ``t d/dt``) of every :func:`reference_rows`
    entry, by a central difference of relative step 1e-25 in ``t``."""
    step = mpmath.mpf(10) ** -25
    with mpmath.workdps(_digits(p.a)):
        out = []
        for t in times:
            lo, hi = _rows(p, psi, [mpmath.mpf(t) * (1 - step), mpmath.mpf(t) * (1 + step)])
            out.append(np.array(hi, dtype=object) - np.array(lo, dtype=object))
        return np.array(out, dtype=float) / (2 * float(step))
