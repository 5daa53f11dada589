"""Independent ground truth for the tests: one high-precision reference
propagator, of one qubit and of two, and two matrix distances.

:func:`reference_propagator` is ``mpmath.expm`` of ``-i H t``, with ``H``
built from its definition, s (sigma_x + i a sigma_z) for PT and
s (i sigma_x + a sigma_z) for APT, from the same doubles the package
receives, so a comparison measures the package's arithmetic alone.  It
shares no code with the package's closed form ``U = A I + g M``, and its
exponent does not overflow.  It works at 60 digits, and at
``60 + 2 ceil(log10 a)`` for ``a > 1``: deep in the broken regime the small
eigenvector component is about 1/(2a) of the large one.
:func:`joint_reference_matrix` is ``mpmath.expm`` of the joint two-qubit
generator ``H_A ⊗ I + I ⊗ H_B``, built entry by entry, so it shares no code
with the Kronecker product of closed forms under test.  mpmath is a test
dependency only, and no other test module imports it.
"""
from __future__ import annotations

import functools
import math

import mpmath
import numpy as np

from ptcoherence import HamiltonianParams, SymmetryClass


def frobenius_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance ``sqrt(sum |a_ij - b_ij|^2)`` of equal-shape arrays."""
    am = np.asarray(a, dtype=complex)
    bm = np.asarray(b, dtype=complex)
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    return float(np.linalg.norm(am - bm))


def scale_invariant_residual(target: np.ndarray, assembled: np.ndarray) -> float:
    """Frobenius distance between two matrices modulo a global complex scale.

    Both are divided by their largest-magnitude entry, then the assembled
    side is fit to the target by the closed-form least-squares complex
    scalar.  Zero iff the matrices are proportional.
    """
    th, ah = (np.asarray(m, dtype=complex) for m in (target, assembled))
    th, ah = th / np.abs(th).max(), ah / np.abs(ah).max()
    lam = np.vdot(ah, th) / np.vdot(ah, ah).real
    return frobenius_dist(th, lam * ah)


def _digits(a: float) -> int:
    """Working digits of the reference: 60, plus 2 ceil(log10 a) for a > 1."""
    return 60 + 2 * max(0, math.ceil(math.log10(a)))


def _hamiltonian(p: HamiltonianParams) -> mpmath.matrix:
    """``H`` of ``p`` from its definition; call within a ``workdps``."""
    s, a = mpmath.mpf(p.s), mpmath.mpf(p.a)
    sx, sz = mpmath.matrix([[0, 1], [1, 0]]), mpmath.matrix([[1, 0], [0, -1]])
    return s * (sx + 1j * a * sz) if p.kind is SymmetryClass.PT else s * (1j * sx + a * sz)


def _normalized(u: mpmath.matrix) -> np.ndarray:
    """``u`` as complex doubles, divided by the magnitude of its largest
    entry; call within a ``workdps``."""
    rows = u.tolist()
    big = max(abs(x) for row in rows for x in row)
    return np.array([[complex(x / big) for x in row] for row in rows])


@functools.lru_cache(maxsize=None)
def reference_propagator(p: HamiltonianParams, t) -> mpmath.matrix:
    """``exp(-i H t)`` by ``mpmath.expm`` at :func:`_digits` of ``p.a``.

    ``t`` is a double or an ``mpmath.mpf`` (a central difference steps
    below one ulp of ``t``).  The cached matrix must not be modified.
    """
    with mpmath.workdps(_digits(p.a)):
        return mpmath.expm(-1j * _hamiltonian(p) * mpmath.mpf(t))


def reference_matrix(p: HamiltonianParams, t) -> np.ndarray:
    """:func:`reference_propagator` as complex doubles, divided by the
    magnitude of its largest entry: finite at every phase."""
    with mpmath.workdps(_digits(p.a)):
        return _normalized(reference_propagator(p, t))


def joint_reference_matrix(p: HamiltonianParams, t: float,
                           q: HamiltonianParams | None = None) -> np.ndarray:
    """``exp(-i (H_A ⊗ I + I ⊗ H_B) t)`` for ``H_A`` of ``p`` and ``H_B`` of
    ``q`` (default ``p``), by ``mpmath.expm`` at the larger :func:`_digits`,
    as :func:`reference_matrix` gives it."""
    q = p if q is None else q
    with mpmath.workdps(_digits(max(p.a, q.a))):
        h_a, h_b = _hamiltonian(p), _hamiltonian(q)
        h = mpmath.matrix(4, 4)
        for i, j, k, l in np.ndindex(2, 2, 2, 2):  # row 2i + k, column 2j + l
            h[2 * i + k, 2 * j + l] = h_a[i, j] * (k == l) + (i == j) * h_b[k, l]
        return _normalized(mpmath.expm(-1j * h * mpmath.mpf(t)))


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
