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
* :func:`abc_scaled` is the package's one evaluator of (A, B, C).  It
  works in ``theta = s t`` (every observable depends on ``s`` and ``t``
  only through it) and evaluates ``g`` as ``theta * sinc_like(w theta)``
  with a short series for tiny arguments, so it stays accurate through
  the exceptional point (the exact branch is used only at ``a == 1.0``,
  where the generic expression is 0/0): within ~1e-13 relative
  Frobenius distance of a matrix-exponential oracle.
* In the broken regime the entries grow like ``exp(w theta)``.  States
  are renormalized, so ``U = exp(log_scale) * U_hat`` is used, with
  ``exp(-w |theta|)`` pulled out once ``|w theta|`` exceeds
  ``_SCALE_SWITCH = 150``: there even fourth powers of an unscaled
  entry (e^600 ~ 4e260, as in squared magnitudes of two-qubit
  products) stay below the overflow threshold (~e^709).  At the EP
  they grow like ``|theta|``, which is pulled out past ``e^150``.  The
  rescaling is exact for the ratios that all observables reduce to.
* Grid functions work on whole time grids in array operations; none
  loops over time points in Python.

All functions are pure; every returned array is freshly allocated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .hamiltonian import HamiltonianParams, Regime, SymmetryClass, regime

__all__ = [
    "PureState",
    "DensityMatrix",
    "Propagator",
    "DegenerateEvolutionError",
    "propagator_analytic",
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

#: Named initial states (alpha, beta, phi) accepted across the package and the CLI.
_PRESETS = {
    "H": (1.0, 0.0, 0.0),
    "D": (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.0),
    "h-sqrt3v": (0.5, math.sqrt(3.0) / 2.0, 0.0),
}


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
        if name not in _PRESETS:
            raise ValueError(f"unknown preset {name!r}; expected one of 'H', 'D', 'h-sqrt3v'")
        return cls(*_PRESETS[name])

    @classmethod
    def from_amplitudes(cls, alpha: float, beta: float, phi: float = 0.0) -> "PureState":
        """Build a state from possibly unnormalized nonnegative amplitudes."""
        norm = math.hypot(alpha, beta)
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
    tol = tolerances.density
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
    bad = low < -tolerances.positivity
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
# the propagator core
# ---------------------------------------------------------------------------

#: Hyperbolic argument (at the EP, log |theta|) above which the scaled
#: representation is used (see the module docstring for why 150).
_SCALE_SWITCH = 150.0
#: Below this argument the sin(x)/x and sinh(x)/x ratios use series.
_SERIES_SWITCH = 1e-4


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


def _discriminant(kind: SymmetryClass, a: float) -> float:
    """``d`` with (A, C) = (cos, sin / w) of ``w theta``, ``w = sqrt(d)``."""
    return 1.0 - a * a if kind is SymmetryClass.PT else a * a - 1.0


def abc_scaled(kind: SymmetryClass, a: float, theta):
    """Scaled propagator scalars ``(A, B, C, log_scale)`` at ``theta = s t``.

    The true scalars are ``exp(log_scale)`` times the returned (A, B, C);
    ``log_scale`` is zero except where the hyperbolic argument
    ``|w theta|`` (at the EP, ``log |theta|``) exceeds ``_SCALE_SWITCH``.
    ``theta`` is any real array (or scalar); all four outputs are float64
    arrays of its shape.
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
        f = np.abs(th)
        f = np.where(f > math.exp(_SCALE_SWITCH), f, 1.0)
        A, g, log_scale = 1.0 / f, np.where(f > 1.0, np.sign(th), th), np.log(f)
    return A, -a * g, g, log_scale


def stack2x2(m00, m01, m10, m11) -> np.ndarray:
    """Complex ``(..., 2, 2)`` matrices from four broadcastable entries."""
    m00, m01, m10, m11 = np.broadcast_arrays(m00, m01, m10, m11)
    out = np.empty(m00.shape + (2, 2), dtype=complex)
    out[..., 0, 0], out[..., 0, 1], out[..., 1, 0], out[..., 1, 1] = m00, m01, m10, m11
    return out


def abc_matrices(kind: SymmetryClass, A, B, C) -> np.ndarray:
    """Propagator matrices from (arrays of) scalars, shape ``A.shape + (2, 2)``.

    PT: ``[[A - B, -i C], [-i C, A + B]]``; APT: ``[[A + i B, C], [C, A - i B]]``.
    """
    if kind is SymmetryClass.PT:
        return stack2x2(A - B, -1j * C, -1j * C, A + B)
    return stack2x2(A + 1j * B, C, C, A - 1j * B)


def propagator_grid(p: HamiltonianParams, times) -> np.ndarray:
    """Scaled propagators ``U_hat(t)`` over a time grid, shape ``(n, 2, 2)``.

    Each matrix equals the true propagator up to a positive per-time
    factor, so every renormalized quantity built from it is exact.
    ``times`` may be any real values; negative entries evaluate the
    analytic continuation.
    """
    A, B, C, _ = abc_scaled(p.kind, p.a, p.s * np.asarray(times, dtype=np.float64))
    return abc_matrices(p.kind, A, B, C)


def _propagator_slope(p: HamiltonianParams, theta: np.ndarray):
    """``(U_hat, dU/dtheta)`` over a 1-D grid in ``theta``, each divided by
    the largest entry magnitude of ``U_hat``, so products of several stay
    finite.

    ``dA/dtheta = -d C``, ``dB/dtheta = -a A`` and ``dC/dtheta = A``.  A
    per-time scale only adds a multiple of ``U`` to the derivative,
    which no ratio of the state's entries sees.
    """
    A, B, C, _ = abc_scaled(p.kind, p.a, theta)
    u = abc_matrices(p.kind, A, B, C)
    du = abc_matrices(p.kind, -_discriminant(p.kind, p.a) * C, -p.a * A, A)
    top = np.abs(u).max(axis=(-2, -1), keepdims=True)
    return u / top, du / top


# ---------------------------------------------------------------------------
# the single-time propagator
# ---------------------------------------------------------------------------

def propagator_analytic(p: HamiltonianParams, t: float) -> Propagator:
    """Closed-form propagator ``exp(-i H t)`` for parameters ``p``.

    Raises
    ------
    OverflowError
        If the raw entries exceed the double-precision range (broken
        regime with extremely large ``w * s * t``); use
        :func:`propagator_grid`, whose matrices are exact up to a
        positive factor, in that situation.
    ValueError
        If ``t`` is negative or not finite.
    """
    t = float(_evolution_times([t])[0])
    A, B, C, log_scale = (float(v) for v in abc_scaled(p.kind, p.a, p.s * t))
    scale = math.exp(log_scale) if log_scale < 709.0 else math.inf
    A, B, C = A * scale, B * scale, C * scale
    if not (math.isfinite(A) and math.isfinite(B) and math.isfinite(C)):
        raise OverflowError(
            "propagator entries exceed the double-precision range; "
            "use propagator_grid for renormalized workflows"
        )
    return Propagator(matrix=abc_matrices(p.kind, A, B, C), abc=(A, B, C), regime=regime(p), t=t)


# ---------------------------------------------------------------------------
# state evolution
# ---------------------------------------------------------------------------

def _evolution_times(times) -> np.ndarray:
    """``times`` as a 1-D float grid of finite, nonnegative times."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1:
        raise ValueError("evolution times must be a 1-D grid")
    if not np.all(np.isfinite(ts) & (ts >= 0)):
        raise ValueError("evolution time must be finite and nonnegative")
    return ts


def evolve_pure_grid(st: PureState, p: HamiltonianParams, times) -> np.ndarray:
    """Normalized evolution ``U(t)|st> / ||U(t)|st>||`` over a time grid:
    unit-norm rows, shape ``(n, 2)``.  The scaled propagators of
    :func:`propagator_grid` make arbitrarily deep broken-regime times safe."""
    v = propagator_grid(p, _evolution_times(times)) @ st.vector()
    norms = np.sqrt((v.real * v.real).sum(axis=1) + (v.imag * v.imag).sum(axis=1))
    if np.any(norms < 1e-300):
        raise DegenerateEvolutionError(
            "evolved state norm underflowed; the closed-form propagator "
            "should be invertible, so this indicates an internal bug"
        )
    return v / norms[:, np.newaxis]


def evolve_density_grid(rho: DensityMatrix, p: HamiltonianParams, times) -> np.ndarray:
    """Normalized nonunitary evolution ``U rho U^dag / Tr[U rho U^dag]`` over
    a time grid, shape ``(n, 2, 2)``.

    Every evolved matrix passes the same checks as a
    :class:`DensityMatrix`; the first failure raises ``ValueError``.
    """
    u = propagator_grid(p, _evolution_times(times))
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


def evolve_density(rho: DensityMatrix, p: HamiltonianParams, t: float) -> DensityMatrix:
    """:func:`evolve_density_grid` at the single time ``t``."""
    return DensityMatrix(evolve_density_grid(rho, p, [t])[0])
