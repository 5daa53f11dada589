"""Closed-form nonunitary propagators and normalized state evolution.

Both generator families are traceless, so with ``theta = s t`` and the
fixed matrix ``M = -i H / s`` of :func:`~ptcoherence.hamiltonian.generator`
the propagator is ``U = exp(theta M) = A I + g M``.  ``M^2 = -d I``, and
``d = w^2`` of :func:`~ptcoherence.hamiltonian.w_squared` (``1 - a^2``
for PT, ``a^2 - 1`` for APT) sets the time dependence:

    d > 0 (unbroken):  A = cos(w theta),  g = sin(w theta) / w,   w = sqrt(d)
    d < 0 (broken):    A = cosh(w theta), g = sinh(w theta) / w,  w = sqrt(-d)
    d = 0 (EP):        A = 1,             g = theta

``det U = A^2 + d g^2 = 1`` in real arithmetic.  Every evolved state is
``F psi + G (K psi)`` (:func:`evolve_product`) for ``U = F I + G K``: in the
broken regime ``F = exp(-w theta)``, ``G = (1 + w) g`` and the singular
``K = (M + w I) / (1 + w)`` (:func:`shifted_generator`), else ``(A, g, M)``.

Numerical notes
---------------
* :func:`abc_scaled` is the package's one evaluator of (A, g).  It works
  in ``theta`` (every observable depends on ``s`` and ``t`` only through
  it) and evaluates ``g`` as ``theta sin(w theta) / (w theta)`` (sinh when
  broken), accurate to rounding for every nonzero double ``w theta``, so
  0 is its only special case.  It stays within ~1e-13 relative Frobenius
  distance of a matrix-exponential oracle through the EP.
* :func:`pure_rows` builds every pure product state of one or two qubits;
  :func:`pure_l1` takes their C from magnitudes, whose squares underflow.
* The fixed terms (``K psi``) are rounded once from exact sums
  (:func:`apply_exact`): near the EP they are far below their summands.
  At large ``a`` no entry of ``U`` is a difference ``A - a g`` of unit terms.
* In the broken regime the entries grow like ``exp(w theta)``.  States
  are renormalized, so ``U = exp(log_scale) * U_hat`` is used, with
  ``exp(-w |theta|)`` pulled out once ``|w theta|`` exceeds
  ``_SCALE_SWITCH = 150``: there even fourth powers of an unscaled
  entry (e^600 ~ 4e260, as in squared magnitudes of two-qubit
  products) stay below the overflow threshold (~e^709).  At the EP
  they grow like ``|theta|``, which is pulled out past ``e^150``.  The
  rescaling is exact for the ratios that all observables reduce to.
* :func:`propagator_scaled` is the one single-time propagator, the pair
  ``(F I + G K, log_scale)``; :func:`propagator_analytic` returns the
  plain 2x2 ``U`` and raises ``OverflowError`` where an entry would overflow.
* Grid functions work on whole time grids in array operations; none
  loops over time points in Python.

All functions are pure; every returned array is freshly allocated.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS, tolerances
from .hamiltonian import HamiltonianParams, SymmetryClass, generator, w_squared

__all__ = list(_EXPORTS["evolution"])

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
        for name, value in (("alpha", alpha), ("beta", beta), ("phi", phi)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0 and name != "phi":
                raise ValueError(f"{name} must be nonnegative, got {value}")
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


# ---------------------------------------------------------------------------
# the propagator core
# ---------------------------------------------------------------------------

#: Hyperbolic argument (at the EP, log |theta|) above which the scaled
#: representation is used (see the module docstring for why 150).
_SCALE_SWITCH = 150.0


def _over_x(f, x: np.ndarray) -> np.ndarray:
    """``f(x) / x`` for ``f`` in (sin, sinh), 1 at ``x = 0``."""
    return np.divide(f(x), x, out=np.ones_like(x), where=x != 0.0)


def abc_scaled(kind: SymmetryClass, a: float, theta):
    """Scaled propagator scalars ``(A, g, log_scale)`` at ``theta = s t``
    (any real array or scalar; the outputs are float64 arrays of its shape).

    The true scalars are ``exp(log_scale)`` times the returned (A, g);
    ``log_scale`` is zero except where the hyperbolic argument
    ``|w theta|`` (at the EP, ``log |theta|``) exceeds ``_SCALE_SWITCH``.
    """
    th = np.asarray(theta, dtype=np.float64)
    d = w_squared(kind, a)
    log_scale = np.zeros_like(th)
    if d > 0.0:
        w = np.sqrt(d)
        x = w * th
        A, g = np.cos(x), th * _over_x(np.sin, x)
    elif d < 0.0:
        w = np.sqrt(-d)
        x = w * th
        xa = np.abs(x)  # cosh even, sinh odd: branch on |x|, restore sign via theta
        big = xa > _SCALE_SWITCH
        xs = np.where(big, 0.0, x)  # safe argument for cosh/sinh
        q = np.exp(-2.0 * xa)  # underflows harmlessly to 0 for large |x|
        # cosh(x) = e^|x| (1 + e^{-2|x|})/2, sinh(x) = sign(x) e^|x| (1 - e^{-2|x|})/2
        A = np.where(big, 0.5 * (1.0 + q), np.cosh(xs))
        g = np.where(big, np.sign(th) * 0.5 * (1.0 - q) / w, th * _over_x(np.sinh, xs))
        log_scale = np.where(big, xa, log_scale)
    else:
        f = np.abs(th)
        f = np.where(f > math.exp(_SCALE_SWITCH), f, 1.0)
        A, g, log_scale = 1.0 / f, np.where(f > 1.0, np.sign(th), th), np.log(f)
    return A, g, log_scale


def _shift(kind: SymmetryClass, a: float) -> float:
    """``sigma`` of :func:`shifted_generator`: ``w`` in the broken regime, else 0."""
    return math.sqrt(max(0.0, -w_squared(kind, a)))


def shifted_generator(kind: SymmetryClass, a: float) -> np.ndarray:
    """``K = (M + sigma I) / (1 + sigma)`` of ``U = F I + G K``.  Broken, ``K_11``
    (``w - a`` for PT: all cancellation at large ``a``) comes from ``det K = 0``;
    the divisor keeps products such as ``K ⊗ K`` finite."""
    sigma = _shift(kind, a)
    k = (generator(kind, a) + sigma * np.eye(2)) / (1.0 + sigma)
    if abs(k[1, 1]) < abs(k[0, 0]):
        k[1, 1] = k[1, 0] * k[0, 1] / k[0, 0]
    return k


def shifted_pairs(p: HamiltonianParams, theta, slope: bool = False):
    """``(F, G)`` of ``U = F I + G K`` at ``theta``, scaled as in :func:`abc_scaled`.
    With ``slope``, that pair and its theta-derivative ``(-d g - sigma A,
    (1 + sigma) A)``, all divided by the per-time scale ``|A| + max(1, a) |g|``
    so products of several stay finite; no ratio of a state's entries sees it."""
    A, g, log_scale = abc_scaled(p.kind, p.a, theta)
    sigma = _shift(p.kind, p.a)
    # F = A - w g = exp(-w theta) where shifted, formed without that cancellation
    F = np.exp(-sigma * np.asarray(theta, dtype=np.float64) - log_scale) if sigma else A
    G = (1.0 + sigma) * g
    if not slope:
        return F, G
    top = np.abs(A) + max(1.0, p.a) * np.abs(g)
    F, G, A = F / top, G / top, A / top
    # -d g - sigma A is -w F where shifted (d = -w^2), without its cancellation
    return (F, G), (-sigma * F if sigma else -w_squared(p.kind, p.a) * G, (1.0 + sigma) * A)


def apply_exact(mats, psi) -> tuple:
    """``(mats[0] ⊗ mats[1] ⊗ ...) psi`` for 2x2 factors given as flat 4-lists,
    correctly rounded: a double is an integer multiple of 2**-1074, so the sums
    are exact in integers.  Near the EP, rounding each product would leave
    ``K psi`` few correct digits."""
    def ints(x) -> list:  # each entry as integers (re, im) in units of 2**-1074
        ratios = (map(float.as_integer_ratio, (z.real, z.imag)) for z in map(complex, x))
        return [[n << (1075 - d.bit_length()) for n, d in pair] for pair in ratios]
    v = ints(psi)
    for axis, m in enumerate(mats):
        m, step, w = ints(m), 2 ** (len(mats) - 1 - axis), []
        for j in range(len(v)):  # row r of m against the entries j0 and j0 + step
            r = (j // step) % 2
            (ar, ai), (br, bi) = m[2 * r], m[2 * r + 1]
            (xr, xi), (yr, yi) = v[j - r * step], v[j + (1 - r) * step]
            w.append((ar * xr - ai * xi + br * yr - bi * yi,
                      ar * xi + ai * xr + br * yi + bi * yr))
        v = w
    scale = 1 << (1074 * (len(mats) + 1))
    return tuple(complex(re / scale, im / scale) for re, im in v)


def product_terms(mats, psi) -> dict:
    """The fixed terms ``(K_1^k_1 ⊗ K_2^k_2 ⊗ ...) psi`` of a state of one
    or more qubits, keyed by ``k`` in {0, 1}^q, each from :func:`apply_exact`."""
    eye, flat = (1.0, 0.0, 0.0, 1.0), [np.ravel(m).tolist() for m in mats]
    key = np.ravel(psi).tolist()
    return {k: np.array(apply_exact([m if b else eye for m, b in zip(flat, k)], key))
            for k in itertools.product((0, 1), repeat=len(mats))}


def evolve_product(pairs, terms: dict) -> np.ndarray:
    """``(U_1 ⊗ U_2 ⊗ ...) psi`` over a time grid for ``U_j = F_j I + G_j K_j``
    and ``pairs[j] = (F_j, G_j)``, as the sum over k of ``prod_j pairs[j][k_j]``
    times the fixed term ``k`` (``F psi + G K psi`` for one qubit); a pair's
    derivative (:func:`shifted_pairs`) gives that factor's slope."""
    return sum(np.multiply.outer(math.prod(pair[b] for pair, b in zip(pairs, k)), term)
               for k, term in terms.items())


def pure_terms(params, psi) -> dict:
    """The fixed terms of :func:`pure_rows`, which a scan's exact slopes reuse."""
    return product_terms([shifted_generator(q.kind, q.a) for q in params], psi)


def pure_rows(params, psi, times) -> np.ndarray:
    """The one pure-state evaluator: unnormalized ``(U_1 ⊗ U_2 ⊗ ...) psi``
    over a grid of any real times, shape ``(n, 2**len(params))``, qubit ``j``
    evolving under ``params[j]``.  Each distinct parameter set's (F, G) is
    formed once, at its own ``s t``; their per-time scales cancel in C."""
    ts = np.asarray(times, dtype=np.float64)
    pairs = {q: shifted_pairs(q, q.s * ts) for q in dict.fromkeys(params)}
    return evolve_product([pairs[q] for q in params], pure_terms(params, psi))


def pure_l1(v: np.ndarray) -> np.ndarray:
    """l1 coherence ``2 sum_{i<j} |v_i| |v_j| / sum |v_i|^2`` of the
    normalized pure state of each row of ``v``."""
    mags = np.abs(v)
    i, j = np.triu_indices(mags.shape[1], 1)
    return 2.0 * (mags[:, i] * mags[:, j]).sum(axis=1) / (mags * mags).sum(axis=1)


# ---------------------------------------------------------------------------
# the single-time propagator
# ---------------------------------------------------------------------------

def propagator_scaled(p: HamiltonianParams, t: float) -> tuple[np.ndarray, float]:
    """The propagator at one time as ``(U_hat, log_scale)``, with
    ``U(t) = exp(log_scale) U_hat`` and ``U_hat = F I + G K`` from
    :func:`shifted_pairs` and :func:`shifted_generator`.  Its entries stay
    finite at every time; the positive scale cancels in every renormalized
    quantity.  A negative ``t`` evaluates the analytic continuation."""
    F, G = (float(v) for v in shifted_pairs(p, p.s * t))
    log_scale = float(abc_scaled(p.kind, p.a, p.s * t)[2])
    return F * np.eye(2) + G * shifted_generator(p.kind, p.a), log_scale


def propagator_analytic(p: HamiltonianParams, t: float) -> np.ndarray:
    """Closed-form propagator ``exp(-i H t)`` for parameters ``p``, a 2x2
    complex array.

    Raises
    ------
    OverflowError
        If an entry exceeds the double-precision range (broken regime
        with extremely large ``w * s * t``); the renormalized evolutions
        (:func:`evolve_pure_grid`, :func:`evolve_density_grid`) stay
        finite there.
    ValueError
        If ``t`` is negative or not finite.
    """
    u_hat, log_scale = propagator_scaled(p, float(_evolution_times([t])[0]))
    scale = math.exp(log_scale) if log_scale < 709.0 else math.inf
    # checked before multiplying: an infinite scale times a zero entry is nan
    if not math.isfinite(scale * float(np.abs(u_hat).max())):
        raise OverflowError("propagator entries exceed the double-precision range")
    return u_hat * scale


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
    unit-norm rows, shape ``(n, 2)``.  The scaled scalars of
    :func:`abc_scaled` make arbitrarily deep broken-regime times safe."""
    v = pure_rows([p], st.vector(), _evolution_times(times))
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
    F, G = shifted_pairs(p, p.s * _evolution_times(times))
    k = shifted_generator(p.kind, p.a)
    # vec(U rho U^dag) = (U ⊗ conj U) vec(rho): the two-factor evaluator
    terms = product_terms([k, k.conj()], rho.rho.ravel())
    out = evolve_product([(F, G), (F, G)], terms).reshape(-1, 2, 2)
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
