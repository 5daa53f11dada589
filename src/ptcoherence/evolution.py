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
* :func:`shifted_pairs` is the one seam from times to the propagator: it
  alone forms ``theta = s t`` (every observable depends on ``s`` and ``t``
  only through it), rejects a ``theta`` or ``w theta`` that is not a finite
  double, and evaluates (A, g) and from them (F, G).  It takes ``g`` as
  ``theta sin(w theta) / (w theta)`` (sinh when broken), accurate to
  rounding for every nonzero double ``w theta``, so 0 is its only special
  case.  Its propagator's relative Frobenius distance from the tests'
  60-digit ``mpmath.expm`` reference was at most 9.3e-15 over 4000 seeded
  draws with a in (0, 3], s t in [0, 20] and a quarter within 1e-2 to
  1e-12 of the EP (at most 4e-16 there).
* :func:`pure_rows` builds every pure state, of one qubit or of two under
  one generator;
  :func:`pure_l1` takes their C from magnitudes, whose squares underflow,
  and :func:`trajectory_array` their Bloch rows.
  :func:`l1_coherence` is the one C of a density matrix.
* The fixed terms (``K psi``) are rounded once from exact sums
  (:func:`apply_exact`): near the EP they are far below their summands.
  At large ``a`` no entry of ``U`` is a difference ``A - a g`` of unit terms.
* In the broken regime the entries grow like ``exp(w theta)``.  Every
  observable is read from renormalized states, so the package knows ``U``
  only up to a positive factor: ``exp(-w |theta|)`` is pulled out once
  ``|w theta|`` exceeds ``_SCALE_SWITCH = 150``, where even fourth powers
  of an unscaled entry (e^600 ~ 4e260, as in squared magnitudes of
  two-qubit products) stay below the overflow threshold (~e^709).  At
  the EP they grow like ``|theta|``, which is pulled out past ``e^150``.
  The rescaling is exact for the ratios that all observables reduce to.
* :func:`propagator_scaled` is the one single-time propagator,
  ``F I + G K``: ``U`` itself wherever ``|w theta| <= 150`` (at the EP,
  ``|theta| <= e^150``), ``U`` up to a positive factor beyond.
* Grid functions work on whole time grids in array operations; none
  loops over time points in Python.
* No function of the package calls BLAS or LAPACK: the products, norms,
  solves and fits on 2x2 and 4x4 stacks are closed-form elementwise numpy,
  which is faster at that size, and BLAS's first use would add about
  1 MiB to a cold command's peak RSS.

All functions are pure; every returned array is freshly allocated.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS, tolerances
from .hamiltonian import HamiltonianParams, SymmetryClass, frequency, generator, w_squared

__all__ = list(_EXPORTS["evolution"])

class DegenerateEvolutionError(ValueError):
    """Raised by :func:`evolve_density_grid` when an evolved density trace
    falls below 1e-300: its rounded fixed terms (:func:`apply_exact`) have
    underflowed, as for ``|V>`` under PT at ``a`` near 1e150, where the trace
    is about ``1 / (4 a^2)``.  A domain error, so the CLI exits 2.
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


# ---------------------------------------------------------------------------
# the propagator core
# ---------------------------------------------------------------------------

#: Hyperbolic argument (at the EP, log |theta|) above which the scaled
#: representation is used (see the module docstring for why 150).
_SCALE_SWITCH = 150.0


def _over_x(f, x: np.ndarray) -> np.ndarray:
    """``f(x) / x`` for ``f`` in (sin, sinh), 1 at ``x = 0``."""
    return np.divide(f(x), x, out=np.ones_like(x), where=x != 0.0)


def shifted_generator(kind: SymmetryClass, a: float) -> np.ndarray:
    """``K = (M + sigma I) / (1 + sigma)`` of ``U = F I + G K``, with ``sigma = w``
    in the broken regime, else 0.  Broken, ``K_11`` (``w - a`` for PT: all
    cancellation at large ``a``) comes from ``det K = 0``; the divisor keeps
    products such as ``K ⊗ K`` finite."""
    sigma = frequency(kind, a) if w_squared(kind, a) < 0.0 else 0.0
    k = (generator(kind, a) + sigma * np.eye(2)) / (1.0 + sigma)
    if abs(k[1, 1]) < abs(k[0, 0]):
        k[1, 1] = k[1, 0] * k[0, 1] / k[0, 0]
    return k


def shifted_pairs(p: HamiltonianParams, times, slope: bool = False):
    """``(F, G)`` of ``U = F I + G K`` at real ``times`` (any shape; float64
    arrays of that shape): the one place ``theta = s t`` is formed.  A time
    whose ``theta`` or ``w theta`` is not a finite double raises ``ValueError``,
    with no numpy warning before it.  Past ``_SCALE_SWITCH`` the pair is scaled by
    ``exp(-|w theta|)`` (at the EP by ``1 / |theta|``).  With ``slope``, that
    pair and its theta-derivative ``(-d g - sigma A, (1 + sigma) A)``, all
    divided by the per-time scale ``|A| + max(1, a) |g|`` so products of
    several stay finite; no ratio of a state's entries sees it."""
    d = w_squared(p.kind, p.a)
    w = math.sqrt(abs(d))
    sigma = w if d < 0.0 else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        th = p.s * np.asarray(times, dtype=np.float64)
        x = w * th
    if not np.all(np.isfinite(x)):  # nan or inf wherever theta is, at w = 0 too
        raise ValueError("evolution time must be finite, and so must s*t and w*s*t")
    if d > 0.0:
        A = F = np.cos(x)
        g = th * _over_x(np.sin, x)
    elif d < 0.0:
        big = np.abs(x) > _SCALE_SWITCH  # cosh even, sinh odd: sign restored via theta
        xs = np.where(big, 0.0, x)  # safe argument for cosh/sinh
        # cosh(x) = e^|x| (1 + e^{-2|x|})/2: past the switch 1 + e^{-2|x|} rounds to 1
        A = np.where(big, 0.5, np.cosh(xs))
        g = np.where(big, np.sign(th) * 0.5 / w, th * _over_x(np.sinh, xs))
        # F = A - w g = exp(-w theta), scaled alike, without that cancellation; exp(-1e3) is 0
        F = np.exp(np.maximum(-x, -1e3) - np.where(big, np.abs(x), 0.0))
    else:
        f = np.abs(th)
        f = np.where(f > math.exp(_SCALE_SWITCH), f, 1.0)
        A = F = 1.0 / f
        g = np.where(f > 1.0, np.sign(th), th)
    G = (1.0 + sigma) * g
    if not slope:
        return F, G
    top = np.abs(A) + max(1.0, p.a) * np.abs(g)
    F, G, A = F / top, G / top, A / top
    # -d g - sigma A is -w F where shifted (d = -w^2), without its cancellation
    return (F, G), (-sigma * F if sigma else -d * G, (1.0 + sigma) * A)


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


def evolve_product(pair, terms: dict) -> np.ndarray:
    """``(U ⊗ U ⊗ ...) psi`` over a time grid for ``U = F I + G K``, every factor
    under the one ``pair = (F, G)`` of :func:`shifted_pairs` (finite ``theta``
    and ``w theta`` only), as the sum over k of ``prod_j pair[k_j]`` times the
    fixed term ``k`` (``F psi + G K psi`` for one qubit), or its slope."""
    return sum(np.multiply.outer(math.prod(pair[b] for b in k), term)
               for k, term in terms.items())


def pure_terms(p: HamiltonianParams, psi) -> dict:
    """The fixed terms of :func:`pure_rows`, which the scan's exact slopes reuse:
    one factor ``K`` per qubit, the count read from ``len(psi)`` (2 or 4)."""
    k = shifted_generator(p.kind, p.a)
    return product_terms([k] * (len(psi).bit_length() - 1), psi)


def pure_rows(p: HamiltonianParams, psi, times) -> np.ndarray:
    """The one pure-state evaluator: unnormalized ``U psi`` (or ``(U ⊗ U) psi``
    for four amplitudes) over a grid of real times, shape
    ``(n, len(psi))``, every qubit under ``p``.  The (F, G) of ``U`` are
    formed once, by :func:`shifted_pairs`; their per-time scale cancels in C.
    A time whose ``s t`` or ``w s t`` is not a finite double raises
    ``ValueError``; a negative one evaluates the analytic continuation."""
    return evolve_product(shifted_pairs(p, times), pure_terms(p, psi))


def pure_l1(v: np.ndarray) -> np.ndarray:
    """l1 coherence ``2 sum_{i<j} |v_i| |v_j| / sum |v_i|^2`` of the
    normalized pure state of each row of ``v``, each row first scaled by the
    power of two that puts its largest magnitude in [1, 2), so that no product
    underflows (for ``|V>`` under PT it is about ``a^-3``) and no subnormal
    entry of a row led by about 1 is halved to 0."""
    mags = np.abs(v)
    mags = np.ldexp(mags, 1 - np.frexp(mags.max(axis=1))[1][:, None])
    i, j = np.triu_indices(mags.shape[1], 1)
    return 2.0 * (mags[:, i] * mags[:, j]).sum(axis=1) / (mags * mags).sum(axis=1)


def coherence_series(st: PureState, p: HamiltonianParams, times: np.ndarray) -> np.ndarray:
    """Closed-form l1 coherence of the evolved state over a time grid:
    :func:`pure_l1` of :func:`pure_rows`.

    ``times`` may be any real values whose ``s t`` and ``w s t`` are finite
    doubles (another raises ValueError); negative entries evaluate the
    analytic continuation.  The evolved state ``v = F psi + G K psi`` (up to
    a common scale) gives ``C = 2 |v_0| |v_1| / (|v_0|^2 + |v_1|^2)``.
    """
    return pure_l1(pure_rows(p, st.vector(), times))


def trajectory_array(st: PureState, p: HamiltonianParams, grid) -> np.ndarray:
    """Bloch trajectory of the normalized evolved pure state as an
    ``(n, 4)`` array of rows ``(t, x, y, z)``, in the package's one Bloch
    convention (shared with the tomography module's Stokes parameters):

        x = 2 Re rho_01,   y = -2 Im rho_01,   z = rho_00 - rho_11

    so |H> sits at the north pole (0, 0, 1), (|H>+|V>)/sqrt(2) at
    (1, 0, 0) and (|H>-i|V>)/sqrt(2) at (0, -1, 0), and C is the
    equatorial radius ``sqrt(x^2 + y^2)``.

    ``grid`` is a 1-D sequence of finite, nonnegative times, in any order
    and possibly empty (the density path's rule); each row depends on its
    own time alone.  The whole grid is evolved in one batch by
    :func:`pure_rows` and each row normalized, so the radius is 1 to
    within numerical tolerance at any depth of the broken regime.
    """
    ts = _evolution_times(grid)
    v = pure_rows(p, st.vector(), ts)
    norms = np.sqrt((v.real * v.real).sum(axis=1) + (v.imag * v.imag).sum(axis=1))
    v = v / norms[:, np.newaxis]
    # np.multiply, not `*`: `*` lets numpy reuse a large conj temporary as
    # the output, which swaps the operands and so the last bits of a row
    rho01 = np.multiply(v[:, 0], np.conj(v[:, 1]))
    pops = np.abs(v) ** 2
    return np.column_stack([ts, 2.0 * rho01.real, -2.0 * rho01.imag, pops[:, 0] - pops[:, 1]])


def l1_coherence(rho):
    """l1 coherence ``C = sum_{i != j} |rho_ij|`` of one density matrix or a stack.

    ``rho`` is a :class:`DensityMatrix` or an array of square matrices of
    shape ``(..., n, n)``.  Only the off-diagonal magnitudes
    are added, so a small C keeps its digits (for a Hermitian 2x2 matrix
    it is ``2 |rho_01|``).  Returns a float for one matrix and an array
    of shape ``(...)`` for a stack.
    """
    arr = np.asarray(getattr(rho, "rho", rho), dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected square matrices (..., n, n), got shape {arr.shape}")
    c = np.abs(arr[..., ~np.eye(arr.shape[-1], dtype=bool)]).sum(axis=-1)
    return float(c) if c.ndim == 0 else c


# ---------------------------------------------------------------------------
# the single-time propagator
# ---------------------------------------------------------------------------

def propagator_scaled(p: HamiltonianParams, t: float) -> np.ndarray:
    """The propagator at one time, ``F I + G K`` from :func:`shifted_pairs`
    and :func:`shifted_generator`: ``U(t)`` itself wherever the hyperbolic
    argument ``|w s t|`` (at the EP, ``log |s t|``) is at most
    ``_SCALE_SWITCH`` = 150, and ``U(t)`` up to a positive factor beyond, so
    its entries stay finite at every time; the factor cancels in every
    renormalized quantity.  A negative ``t`` evaluates the analytic
    continuation."""
    F, G = (float(v) for v in shifted_pairs(p, t))
    return F * np.eye(2) + G * shifted_generator(p.kind, p.a)


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


def evolve_density_grid(rho: DensityMatrix, p: HamiltonianParams, times) -> np.ndarray:
    """Normalized nonunitary evolution ``U rho U^dag / Tr[U rho U^dag]`` over
    a time grid, shape ``(n, 2, 2)``.

    Every evolved matrix passes the same checks as a
    :class:`DensityMatrix`; the first failure raises ``ValueError``.
    """
    pair = shifted_pairs(p, _evolution_times(times))
    k = shifted_generator(p.kind, p.a)
    # vec(U rho U^dag) = (U ⊗ conj U) vec(rho), and conj U = F I + G conj K
    terms = product_terms([k, k.conj()], rho.rho.ravel())
    out = evolve_product(pair, terms).reshape(-1, 2, 2)
    tr = (out[:, 0, 0] + out[:, 1, 1]).real
    if np.any(tr < 1e-300):
        raise DegenerateEvolutionError("evolved density matrix trace is below 1e-300: the "
                                       "state's fixed terms underflow in double precision")
    out /= tr[:, np.newaxis, np.newaxis]
    out = (out + out.conj().transpose(0, 2, 1)) / 2.0  # remove Hermiticity drift
    _check_densities(out)
    return out


def evolve_density(rho: DensityMatrix, p: HamiltonianParams, t: float) -> DensityMatrix:
    """:func:`evolve_density_grid` at the single time ``t``."""
    return DensityMatrix(evolve_density_grid(rho, p, [t])[0])
