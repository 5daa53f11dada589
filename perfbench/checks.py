"""CLI output checks against references computed here, not by ptcoherence.

The references build the generator matrices themselves and evolve states
with ``scipy.linalg.expm`` (one time) or with an eigenvector expansion of
the generator (a whole grid at once).  Tomography outputs are compared
with a constrained maximum-likelihood optimum found by nested bisection
on the Karush-Kuhn-Tucker conditions.

A check returns a list of findings.  A finding is ``(kind, message)``:
``"wrong"`` marks an output that disagrees with a reference; ``"scale"``
marks the known defect that the period estimate and the stationary-point
count change when only the energy scale ``s`` changes (every observable
depends on ``s*t`` only).  Both make the operation count as failed.
"""
from __future__ import annotations

import ast
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm

SQRT2 = math.sqrt(2.0)
PRESETS = {"H": (1.0, 0.0, 0.0), "D": (1 / SQRT2, 1 / SQRT2, 0.0),
           "h-sqrt3v": (0.5, math.sqrt(3.0) / 2.0, 0.0)}
_E = np.exp(1j * math.pi / 5.0)
TWO_QUBIT_STATES = (np.array([1, 1, 0, 1]) / math.sqrt(3.0),
                    np.array([1, 0, 0, _E]) / SQRT2,
                    np.array([1, 1, 1, _E]) / 2.0)

#: |C - reference| allowed for 12-significant-digit CLI output;
#: statistical checks use 6 standard deviations.
CLI_TOL = 1e-9
SIGMAS = 6.0


def tolerances() -> dict:
    """Optics tolerances read from the package's tolerance table without
    importing the package."""
    path = Path(__file__).resolve().parents[1] / "src" / "ptcoherence" / "tolerances.py"
    found = {"optics_residual": 1e-6, "optics_state_action": 1e-6}
    try:
        tree = ast.parse(path.read_text())
    except OSError:
        return found
    for node in ast.walk(tree):
        if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                and node.target.id in found and node.value is not None):
            found[node.target.id] = float(ast.literal_eval(node.value))
    return found


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def hamiltonian(kind: str, s: float, a: float) -> np.ndarray:
    if kind == "pt":
        return s * np.array([[1j * a, 1.0], [1.0, -1j * a]])
    return s * np.array([[a, 1j], [1j, -a]])


def regime(kind: str, a: float) -> str:
    if abs(a - 1.0) <= 1e-9:
        return "exceptional_point"
    return "unbroken" if (a < 1.0) == (kind == "pt") else "broken"


def period(kind: str, s: float, a: float) -> float | None:
    if regime(kind, a) != "unbroken":
        return None
    return math.pi / (s * math.sqrt(abs(1.0 - a * a)))


def asymptote(kind: str, a: float) -> float | None:
    if regime(kind, a) != "broken":
        return None
    return 1.0 / a if kind == "pt" else 1.0


def state_vector(alpha: float, beta: float, phi: float) -> np.ndarray:
    return np.array([alpha, beta * np.exp(1j * phi)])


def expm_vector(kind, s, a, vec, t) -> np.ndarray:
    v = expm(-1j * hamiltonian(kind, s, a) * t) @ vec
    return v / np.linalg.norm(v)


def eigen_propagators(kind, s, a, times) -> np.ndarray:
    """Propagators on a grid, each divided by a positive scale (which
    normalized states do not see) so deep broken-regime times stay finite."""
    w, vecs = np.linalg.eig(-1j * hamiltonian(kind, s, a))
    growth = float(np.max(w.real))
    phases = np.exp(np.outer(times, w) - growth * np.asarray(times)[:, None])
    return np.einsum("ij,nj,jk->nik", vecs, phases, np.linalg.inv(vecs))


def eigen_vectors(kind, s, a, vec, times) -> np.ndarray:
    v = eigen_propagators(kind, s, a, times) @ vec
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def coherence(v: np.ndarray) -> np.ndarray:
    m0, m1 = np.abs(v[..., 0]), np.abs(v[..., 1])
    return 2.0 * m0 * m1 / (m0 * m0 + m1 * m1)


def bloch(v: np.ndarray) -> np.ndarray:
    rho01 = v[..., 0] * np.conj(v[..., 1])
    z = np.abs(v[..., 0]) ** 2 - np.abs(v[..., 1]) ** 2
    return np.stack([2.0 * rho01.real, -2.0 * rho01.imag, z], axis=-1)


def two_qubit_coherence(v: np.ndarray) -> np.ndarray:
    mags = np.abs(v)
    return mags.sum(axis=-1) ** 2 / (mags * mags).sum(axis=-1) - 1.0


def eigen_two_qubit(kind, s, a, psi, times) -> np.ndarray:
    u = eigen_propagators(kind, s, a, times)
    v = (u @ psi.reshape(2, 2) @ np.transpose(u, (0, 2, 1))).reshape(len(times), 4)
    return two_qubit_coherence(v)


def density_of(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def bloch_of_density(rho: np.ndarray) -> np.ndarray:
    return np.array([2.0 * rho[0, 1].real, -2.0 * rho[0, 1].imag,
                     (rho[0, 0] - rho[1, 1]).real])


def probabilities(r: np.ndarray) -> np.ndarray:
    """H, V, R, D outcome probabilities of Bloch vector ``r``."""
    x, y, z = r
    return 0.5 * np.array([1.0 + z, 1.0 - z, 1.0 - y, 1.0 + x])


def nll(r: np.ndarray, counts: np.ndarray, exposure: float) -> float:
    p = np.clip(probabilities(r), 1e-15, None)
    return float(np.sum(exposure * p - counts * np.log(p)))


def _root(g, lo: float = -1.0, hi: float = 1.0) -> float:
    """Root of an increasing function on [lo, hi], clamped to the ends."""
    if g(lo) >= 0.0:
        return lo
    if g(hi) <= 0.0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _inv(n: float, d: float) -> float:
    if d <= 0.0:
        return math.inf if n > 0.0 else 0.0
    return n / d


def ml_reference(counts: np.ndarray, exposure: float) -> np.ndarray:
    """Bloch vector minimizing the Poisson NLL over the unit ball.

    Stationarity with multiplier ``mu >= 0`` separates by axis; each
    axis equation is increasing in its coordinate and ``|r(mu)|``
    decreases in ``mu``, so both levels are solved by bisection.
    """
    nh, nv, nr, nd = (float(c) for c in counts)
    half = 0.5 * exposure

    def solve(mu: float) -> np.ndarray:
        x = _root(lambda x: half - _inv(nd, 1.0 + x) + 2.0 * mu * x)
        y = _root(lambda y: -half + _inv(nr, 1.0 - y) + 2.0 * mu * y)
        z = _root(lambda z: -_inv(nh, 1.0 + z) + _inv(nv, 1.0 - z) + 2.0 * mu * z)
        return np.array([x, y, z])

    r = solve(0.0)
    if float(r @ r) <= 1.0:
        return r
    lo, hi = 0.0, 1.0
    while float(np.sum(solve(hi) ** 2)) > 1.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if float(np.sum(solve(mid) ** 2)) > 1.0:
            lo = mid
        else:
            hi = mid
    return solve(hi)


def nll_gap(rho_hat: np.ndarray, counts: np.ndarray, exposure: float) -> float:
    """NLL of an estimate minus the NLL of the constrained optimum."""
    return (nll(bloch_of_density(rho_hat), counts, exposure)
            - nll(ml_reference(counts, exposure), counts, exposure))


def trace_distance(r1: np.ndarray, r2: np.ndarray) -> float:
    diff = r1 - r2
    eig = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(0.5 * np.sum(np.abs(eig)))


def density_problems(rho: np.ndarray, tol: float) -> list[str]:
    out = []
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        out.append("not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        out.append(f"trace {np.trace(rho).real:.3g}")
    if np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() < -tol:
        out.append("not positive semidefinite")
    return out


def td_bound(exposure: float) -> float:
    """Trace-distance bound for Poisson counts with mean ``N p`` per basis:
    the x and y estimates have standard deviation at most ``2/sqrt(N)``, z
    at most ``1/sqrt(N)``; the bound allows SIGMAS of each."""
    return 0.5 * SIGMAS * 3.0 / math.sqrt(exposure)


def counts_problems(counts, probs, exposure) -> list[str]:
    spread = SIGMAS * np.sqrt(exposure * probs) + 2.0
    bad = np.abs(counts - exposure * probs) > spread
    return [f"counts {counts.tolist()} far from expectation"] if bad.any() else []


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def _wrong(msg: str) -> tuple[str, str]:
    return ("wrong", msg)


def _parse_csv(text: str):
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        raise ValueError("no header line")
    columns = body[0].split(",")
    rows = np.loadtxt(io.StringIO("\n".join(body[1:])), delimiter=",", ndmin=2)
    return columns, rows


def _close(value, ref, tol) -> bool:
    return value is not None and abs(value - ref) <= tol * abs(ref)


def check_cli(op, stdout: bytes, tols: dict, gaps: list) -> list:
    """Findings for one CLI output; ``gaps`` collects tomography NLL gaps."""
    try:
        text = stdout.decode("utf-8")
        if op.command in ("trace", "bloch", "two-qubit"):
            return _check_csv(op, *_parse_csv(text))
        return _check_json(op, json.loads(text), tols, gaps)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [_wrong(f"unparseable output: {exc!r}")]


def _check_csv(op, columns, rows) -> list:
    found = []
    expected = {"trace": ["t", "C_closed_form", "C_matrix_path"],
                "bloch": ["t", "x", "y", "z"],
                "two-qubit": ["t", "C_psi1", "C_psi2", "C_psi3"]}[op.command]
    if columns != expected or rows.shape != (op.points, len(expected)):
        return [_wrong(f"columns {columns} / shape {rows.shape}")]
    ts = rows[:, 0]
    if np.max(np.abs(ts - np.linspace(0.0, op.t_max, op.points))) > CLI_TOL * op.t_max:
        found.append(_wrong("time grid differs from linspace(0, t_max, points)"))
    if op.command == "trace":
        vec = state_vector(*PRESETS[op.state])
        ref = coherence(eigen_vectors(op.kind, op.s, op.a, vec, ts))
        gap = np.max(np.abs(rows[:, 1] - rows[:, 2]))
        if gap > CLI_TOL:
            found.append(_wrong(f"closed form vs matrix path differ by {gap:.3g}"))
        err = np.max(np.abs(rows[:, 1] - ref))
        if err > CLI_TOL:
            found.append(_wrong(f"closed form off the reference by {err:.3g}"))
    elif op.command == "bloch":
        vec = state_vector(*PRESETS[op.state])
        ref = bloch(eigen_vectors(op.kind, op.s, op.a, vec, ts))
        radius = np.sqrt(np.sum(rows[:, 1:] ** 2, axis=1))
        if np.max(np.abs(radius - 1.0)) > CLI_TOL:
            found.append(_wrong(f"Bloch radius reaches {radius.max():.12g}"))
        err = np.max(np.abs(rows[:, 1:] - ref))
        if err > CLI_TOL:
            found.append(_wrong(f"Bloch vector off the reference by {err:.3g}"))
    else:
        for col, psi in enumerate(TWO_QUBIT_STATES, start=1):
            ref = eigen_two_qubit(op.kind, op.s, op.a, psi, ts)
            err = np.max(np.abs(rows[:, col] - ref) / np.maximum(1.0, ref))
            if err > CLI_TOL:
                found.append(_wrong(f"C_psi{col} off the reference by {err:.3g}"))
        limit = asymptote(op.kind, op.a)
        if limit is not None:
            plateau = (1.0 + limit) ** 2 - 1.0
            if abs(rows[-1, 3] - plateau) > 1e-6:
                found.append(_wrong(f"psi_3 ends at {rows[-1, 3]:.12g}, plateau {plateau:.12g}"))
    return found


def _check_json(op, out: dict, tols: dict, gaps: list) -> list:
    found = []
    if (out.get("command"), out.get("regime"), out.get("s")) != (
            op.command, regime(op.kind, op.a), op.s):
        found.append(_wrong(f"command/regime/s {out.get('command')}/{out.get('regime')}"
                            f"/{out.get('s')}"))
    # at s != 1 the scan-based results show the known scale defect
    defect = "wrong" if op.s == 1.0 else "scale"
    if op.command == "period":
        T = period(op.kind, op.s, op.a)
        if T is None:
            if out["period_theoretical"] is not None or out["period_estimate"] is not None:
                found.append(_wrong("period reported outside the unbroken regime"))
        else:
            if not _close(out["period_theoretical"], T, 1e-10):
                found.append(_wrong(f"period {out['period_theoretical']} != {T:.12g}"))
            if not _close(out["period_estimate"], T, 1e-6):
                found.append((defect, f"period estimate {out['period_estimate']} != {T:.12g}"))
    elif op.command == "asymptote":
        limit = asymptote(op.kind, op.a)
        if limit is None:
            if out["asymptote_theoretical"] is not None:
                found.append(_wrong("asymptote reported outside the broken regime"))
        else:
            if not _close(out["asymptote_theoretical"], limit, 1e-10):
                found.append(_wrong(f"asymptote {out['asymptote_theoretical']} != {limit:.12g}"))
            if not _close(out["asymptote_estimate"], limit, 1e-6):
                found.append(_wrong(f"asymptote estimate {out['asymptote_estimate']}"))
    elif op.command == "backflow":
        alpha, beta, _ = PRESETS[op.state]
        got = (out["zeros_per_period"], out["classification"])
        if regime(op.kind, op.a) == "unbroken":
            if op.kind == "pt":
                want = (4, "DoubleTouch")
            else:
                want = (0, "Constant") if abs(alpha - beta) < 1e-12 else (2, "SingleBackflow")
            if got != want:
                found.append((defect, f"backflow {got}, theorem gives {want}"))
        elif got[1] != _class_of(got[0]) and got != (0, "Constant"):
            found.append(_wrong(f"classification {got[1]} for {got[0]} stationary points"))
    elif op.command == "angles":
        if not out["elements"] or out["residual"] > tols["optics_residual"]:
            found.append(_wrong(f"optics residual {out['residual']}"))
        if out["state_action"]["max_deviation"] > tols["optics_state_action"]:
            found.append(_wrong(f"state action {out['state_action']['max_deviation']}"))
    elif op.command == "tomography":
        found += _check_tomography_json(op, out, gaps)
    return found


def _class_of(count: int) -> str:
    return "DoubleTouch" if count >= 4 else "SingleBackflow" if count >= 2 else "Monotonic"


def _matrix(entries) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in entries])


def _check_tomography_json(op, out, gaps) -> list:
    found = []
    exposure = op.exposure
    if out["exposure"] != exposure or out["t"] != op.t:
        found.append(_wrong(f"exposure/t {out['exposure']}/{out['t']}"))
    rho_true, rho_hat = _matrix(out["rho_true"]), _matrix(out["rho_reconstructed"])
    ref = density_of(expm_vector(op.kind, op.s, op.a, state_vector(*PRESETS[op.state]), op.t))
    if np.max(np.abs(rho_true - ref)) > CLI_TOL:
        found.append(_wrong("true state differs from the reference evolution"))
    found += [_wrong(f"reconstruction {p}") for p in density_problems(rho_hat, CLI_TOL)]
    td = trace_distance(rho_true, rho_hat)
    if abs(td - out["trace_distance"]) > CLI_TOL:
        found.append(_wrong(f"reported trace distance {out['trace_distance']} != {td:.12g}"))
    if td > td_bound(exposure):
        found.append(_wrong(f"trace distance {td:.3g} above {td_bound(exposure):.3g}"))
    c = out["counts"]
    counts = np.array([c["H"], c["V"], c["R"], c["D"]], dtype=float)
    found += [_wrong(p) for p in counts_problems(
        counts, probabilities(bloch_of_density(ref)), exposure)]
    boot = out["coherence_bootstrap"]
    if not (0.0 <= boot["mean"] <= 1.0 + CLI_TOL and boot["sd"] >= 0.0):
        found.append(_wrong(f"bootstrap {boot}"))
    if not found:
        gaps.append(nll_gap(rho_hat, counts, exposure))
    return found
