"""Closed-form nonunitary propagators and normalized state evolution.

Both generator families admit a propagator ``U(t) = exp(-i H t)`` built
from three real scalars A, B, C:

    PT:   U = [[A - B, -i C], [-i C, A + B]]
    APT:  U = [[A + i B, C], [C, A - i B]]

with a single discriminant ``d`` controlling the time dependence
(``d = 1 - a^2`` for PT, ``d = a^2 - 1`` for APT):

    d > 0 (unbroken):  A = cos(w s t),  g = sin(w s t) / w,   w = sqrt(d)
    d < 0 (broken):    A = cosh(w s t), g = sinh(w s t) / w,  w = sqrt(-d)
    d = 0 (EP):        A = 1,           g = s t

and ``B = -a g``, ``C = g`` in all cases.  ``det U = 1`` exactly in
real arithmetic because the generators are traceless.

Numerical notes
---------------
* (A, B, C) come from :func:`ptcoherence._kernels.abc_scaled`, the one
  evaluator shared with every grid kernel.  It works in ``theta = s t``
  and evaluates ``g`` as ``theta * sinc_like(w theta)`` with a short
  series for tiny arguments, so the formula remains accurate through
  the exceptional point; the exact degenerate branch is used only at
  ``a == 1.0`` where the generic expression is literally 0/0.  This
  keeps the propagator within ~1e-13 relative Frobenius distance of a
  matrix-exponential oracle arbitrarily close to the EP.
* In the broken regime the entries grow like ``exp(w s t)``.  Evolution
  and coherence only ever need the propagator up to a positive scale
  (states are renormalized), so the scaled form
  ``U = exp(log_scale) * U_hat`` is used, with ``U_hat`` kept order
  unity once ``w s t`` exceeds the core's one switch (150).  Rescaling
  by ``exp(-w s t)`` is exact for the *ratios* that all observables
  reduce to.

All functions are pure; every returned array is freshly allocated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import abc_matrices, abc_scaled, matmul2, propagator_grid
from .hamiltonian import HamiltonianParams, Regime, regime
from .tolerances import DEFAULT_TOLS

__all__ = [
    "PureState",
    "DensityMatrix",
    "Propagator",
    "DegenerateEvolutionError",
    "propagator_analytic",
    "propagator_scaled",
    "evolve_pure",
    "evolve_density",
    "evolve_pure_grid",
    "evolve_density_grid",
]

class DegenerateEvolutionError(RuntimeError):
    """Raised when an evolved state's norm underflows to (near) zero.

    The closed-form propagators are invertible, so this signals an
    internal inconsistency rather than a physical phenomenon.
    """


# ---------------------------------------------------------------------------
# state containers
# ---------------------------------------------------------------------------

class _Presets:
    """Named initial states accepted across the package and the CLI."""

    H = ("H", 1.0, 0.0, 0.0)
    D = ("D", 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0)
    H_SQRT3_V = ("h-sqrt3v", 0.5, math.sqrt(3.0) / 2.0, 0.0)


@dataclass(frozen=True)
class PureState:
    """Single-qubit pure state ``alpha |H> + beta e^{i phi} |V>``.

    Attributes
    ----------
    alpha, beta:
        Real amplitudes in [0, 1] with ``alpha^2 + beta^2 = 1`` (to
        1e-12).
    phi:
        Relative phase, stored wrapped into [0, 2*pi).
    """

    alpha: float
    beta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        a, b, ph = float(self.alpha), float(self.beta), float(self.phi)
        if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(ph)):
            raise ValueError("state components must be finite")
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise ValueError(f"amplitudes must lie in [0, 1], got alpha={a}, beta={b}")
        if abs(a * a + b * b - 1.0) > 1e-12:
            raise ValueError(f"state not normalized: alpha^2+beta^2 = {a * a + b * b}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "phi", ph % (2.0 * math.pi))

    @classmethod
    def preset(cls, name: str) -> "PureState":
        """Named states: ``H``, ``D`` (= (|H>+|V>)/sqrt(2)), ``h-sqrt3v``
        (= (|H>+sqrt(3)|V>)/2)."""
        for tag, alpha, beta, phi in (_Presets.H, _Presets.D, _Presets.H_SQRT3_V):
            if name == tag:
                return cls(alpha, beta, phi)
        raise ValueError(f"unknown preset {name!r}; expected one of 'H', 'D', 'h-sqrt3v'")

    @classmethod
    def from_amplitudes(cls, alpha: float, beta: float, phi: float = 0.0) -> "PureState":
        """Build a state from possibly unnormalized nonnegative amplitudes."""
        norm = math.sqrt(alpha * alpha + beta * beta)
        if norm <= 0:
            raise ValueError("amplitudes must not both vanish")
        return cls(alpha / norm, beta / norm, phi)

    def vector(self) -> np.ndarray:
        """Complex amplitude vector ``(alpha, beta e^{i phi})``."""
        return np.array([self.alpha, self.beta * np.exp(1j * self.phi)], dtype=complex)

    def density(self) -> "DensityMatrix":
        """Rank-one density matrix of this state."""
        v = self.vector()
        return DensityMatrix(np.outer(v, v.conj()))


def _check_densities(arr: np.ndarray) -> None:
    """Validate a stack of single-qubit density matrices, shape ``(n, 2, 2)``.

    Every matrix must be finite, Hermitian and of unit trace to 1e-10,
    with eigenvalues >= -1e-10.  The first violation raises
    ``ValueError``; a trace or eigenvalue message quotes the offending
    value of the first matrix that fails it.
    """
    if not np.all(np.isfinite(arr)):
        raise ValueError("density matrix contains non-finite entries")
    tol = DEFAULT_TOLS.density
    dagger = arr.conj().transpose(0, 2, 1)
    drift = np.abs(arr - dagger)
    if np.any(np.sqrt((drift * drift).sum(axis=(1, 2))) > tol):
        raise ValueError("density matrix is not Hermitian to tolerance")
    tr = arr[:, 0, 0] + arr[:, 1, 1]
    bad = np.abs(tr - 1.0) > tol
    if np.any(bad):
        raise ValueError(f"density matrix trace {tr[bad][0]} is not 1 to tolerance")
    # smaller eigenvalue of the Hermitian part [[h00, h01], [h01*, h11]]
    h00, h11 = arr[:, 0, 0].real, arr[:, 1, 1].real
    h01 = (arr[:, 0, 1] + dagger[:, 0, 1]) / 2.0
    low = (h00 + h11) / 2.0 - np.hypot((h00 - h11) / 2.0, np.abs(h01))
    bad = low < -DEFAULT_TOLS.positivity
    if np.any(bad):
        raise ValueError(f"density matrix has negative eigenvalue {low[bad][0]}")


@dataclass(frozen=True)
class DensityMatrix:
    """Validated single-qubit density matrix in the {|H>, |V>} basis.

    The constructor enforces Hermiticity and unit trace to 1e-10 and
    eigenvalues >= -1e-10 (the checks :func:`evolve_density_grid`
    applies to every matrix of a grid); the stored array is a defensive
    copy marked read-only.
    """

    rho: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.rho, dtype=complex)
        if arr.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got {arr.shape}")
        _check_densities(arr[np.newaxis])
        arr.setflags(write=False)
        object.__setattr__(self, "rho", arr)

    @classmethod
    def maximally_mixed(cls) -> "DensityMatrix":
        return cls(np.eye(2, dtype=complex) / 2.0)

    @classmethod
    def from_pure(cls, st: PureState) -> "DensityMatrix":
        return st.density()


@dataclass(frozen=True)
class Propagator:
    """Closed-form propagator with its (A, B, C) decomposition.

    Attributes
    ----------
    matrix:
        The 2x2 complex propagator (see module docstring for the
        kind-dependent arrangement of A, B, C).
    abc:
        The real scalars (A, B, C).
    regime:
        Spectral phase of the generating parameters.
    t:
        Evolution time the propagator corresponds to.
    """

    matrix: np.ndarray = field(repr=False)
    abc: tuple[float, float, float]
    regime: Regime
    t: float


# ---------------------------------------------------------------------------
# single-time propagators
# ---------------------------------------------------------------------------

def _abc_at(p: HamiltonianParams, t: float):
    """``abc_scaled`` at the single time ``t`` (finite, nonnegative)."""
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("evolution time must be finite and nonnegative")
    A, B, C, log_scale = abc_scaled(p.kind, p.a, p.s * float(t))
    return float(A), float(B), float(C), float(log_scale)


def propagator_scaled(p: HamiltonianParams, t: float) -> tuple[np.ndarray, float]:
    """Propagator up to a known positive scale: ``U = exp(log_scale) * U_hat``.

    Useful whenever the result feeds a renormalizing operation (state
    evolution, coherence, optical-target normalization): ``U_hat`` never
    overflows, for arbitrarily large ``t``.

    Returns
    -------
    (U_hat, log_scale):
        Matrix with entries of order unity and the logarithm of the
        factored-out positive scale.
    """
    A, B, C, log_scale = _abc_at(p, t)
    return abc_matrices(p.kind, A, B, C), log_scale


def propagator_analytic(p: HamiltonianParams, t: float) -> Propagator:
    """Closed-form propagator ``exp(-i H t)`` for parameters ``p``.

    Raises
    ------
    OverflowError
        If the raw entries exceed the double-precision range (broken
        regime with extremely large ``w * s * t``); use
        :func:`propagator_scaled` in that situation.
    ValueError
        If ``t`` is negative or not finite.
    """
    A, B, C, log_scale = _abc_at(p, t)
    scale = math.exp(log_scale) if log_scale < 709.0 else math.inf
    A, B, C = A * scale, B * scale, C * scale
    if not (math.isfinite(A) and math.isfinite(B) and math.isfinite(C)):
        raise OverflowError(
            "propagator entries exceed the double-precision range; "
            "use propagator_scaled for renormalized workflows"
        )
    return Propagator(
        matrix=abc_matrices(p.kind, A, B, C),
        abc=(A, B, C),
        regime=regime(p),
        t=float(t),
    )


# ---------------------------------------------------------------------------
# state evolution
# ---------------------------------------------------------------------------

def evolve_pure(st: PureState, p: HamiltonianParams, t: float) -> np.ndarray:
    """Normalized evolution ``U(t)|st> / ||U(t)|st>||``.

    Returns a unit-norm complex 2-vector.  The scaled propagator is
    used internally, so arbitrarily deep broken-regime times are safe.
    """
    U_hat, _ = propagator_scaled(p, t)
    v = U_hat @ st.vector()
    n = float(np.linalg.norm(v))
    if n < 1e-300:
        raise DegenerateEvolutionError(
            "evolved state norm underflowed; the closed-form propagator "
            "should be invertible, so this indicates an internal bug"
        )
    return v / n


def evolve_density(rho: DensityMatrix, p: HamiltonianParams, t: float) -> DensityMatrix:
    """Normalized nonunitary evolution ``U rho U^dag / Tr[U rho U^dag]``."""
    U_hat, _ = propagator_scaled(p, t)
    out = U_hat @ rho.rho @ U_hat.conj().T
    tr = float(np.trace(out).real)
    if tr < 1e-300:
        raise DegenerateEvolutionError(
            "evolved density matrix trace underflowed; this indicates an internal bug"
        )
    out = out / tr
    out = (out + out.conj().T) / 2.0  # remove floating-point Hermiticity drift
    return DensityMatrix(out)


def _propagators(p: HamiltonianParams, times) -> np.ndarray:
    """Scaled propagators over a grid of finite, nonnegative times."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1:
        raise ValueError("evolution times must be a 1-D grid")
    if not np.all(np.isfinite(ts) & (ts >= 0)):
        raise ValueError("evolution time must be finite and nonnegative")
    return propagator_grid(p, ts)


def evolve_pure_grid(st: PureState, p: HamiltonianParams, times) -> np.ndarray:
    """:func:`evolve_pure` over a time grid: unit-norm rows, shape ``(n, 2)``."""
    v = _propagators(p, times) @ st.vector()
    norms = np.sqrt((v.real * v.real).sum(axis=1) + (v.imag * v.imag).sum(axis=1))
    if np.any(norms < 1e-300):
        raise DegenerateEvolutionError(
            "evolved state norm underflowed; the closed-form propagator "
            "should be invertible, so this indicates an internal bug"
        )
    return v / norms[:, np.newaxis]


def evolve_density_grid(rho: DensityMatrix, p: HamiltonianParams, times) -> np.ndarray:
    """:func:`evolve_density` over a time grid, shape ``(n, 2, 2)``.

    Every evolved matrix passes the same checks as a
    :class:`DensityMatrix`; the first failure raises ``ValueError``.
    """
    u = _propagators(p, times)
    out = matmul2(matmul2(u, rho.rho), u.conj().transpose(0, 2, 1))
    tr = (out[:, 0, 0] + out[:, 1, 1]).real
    if np.any(tr < 1e-300):
        raise DegenerateEvolutionError(
            "evolved density matrix trace underflowed; this indicates an internal bug"
        )
    out /= tr[:, np.newaxis, np.newaxis]
    out = (out + out.conj().transpose(0, 2, 1)) / 2.0  # remove Hermiticity drift
    _check_densities(out)
    return out
