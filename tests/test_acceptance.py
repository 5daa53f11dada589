"""Acceptance gate.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE <n> (<name>): PASS|FAIL`` line directly to the terminal so the
verdicts are visible even under captured output.  Tolerances and runtime
budgets are pinned inside each test; JIT warm-up happens in the session
fixture so the budgets measure steady-state behaviour.
"""
from __future__ import annotations

import json
import time

import numpy as np

from _oracle import frobenius_dist, reference_propagator
from conftest import apt, pt, random_states

import ptcoherence as pc
from ptcoherence import HamiltonianParams, PureState, SymmetryClass, TwoQubitState
from ptcoherence.cli import main


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _report(capsys, num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line = f"{line} [{detail}]"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1 — oscillation periods in the unbroken regimes
# ---------------------------------------------------------------------------

def test_criterion_1_periods(capsys):
    cases = [
        (SymmetryClass.PT, 0.31, 3.30),
        (SymmetryClass.PT, 0.47, 3.56),
        (SymmetryClass.APT, 1.50, 2.81),
        (SymmetryClass.APT, 2.80, 1.20),
    ]
    probe = PureState.preset("h-sqrt3v")
    problems: list[str] = []
    for kind, a, reference in cases:
        p = HamiltonianParams(kind=kind, s=1.0, a=a)
        start = time.perf_counter()
        analytic = pc.theoretical_period(p)
        trace = pc.find_extrema(probe, p, (0.0, 2.0 * analytic))
        elapsed = time.perf_counter() - start
        if abs(analytic - reference) > 0.01:
            problems.append(f"{kind.value} a={a}: analytic {analytic:.4f}")
        if trace.period_estimate is None or abs(trace.period_estimate - reference) > 0.02:
            problems.append(f"{kind.value} a={a}: estimate {trace.period_estimate}")
        if elapsed >= 1.0:
            problems.append(f"{kind.value} a={a}: {elapsed:.2f}s")
    _report(capsys, 1, "periods", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# criterion 2 — broken-regime stabilization values at s*t = 10
# ---------------------------------------------------------------------------

def test_criterion_2_stable_values(capsys):
    start = time.perf_counter()
    probes: list[tuple[HamiltonianParams, str, float]] = []
    for a, reference in ((1.5, 0.67), (2.8, 0.36)):
        for preset in ("H", "D", "h-sqrt3v"):
            probes.append((pt(a), preset, reference))
    for a in (0.31, 0.47):
        for preset in ("H", "h-sqrt3v"):
            probes.append((apt(a), preset, 1.0))

    problems = []
    for p, preset, reference in probes:
        value = float(pc.coherence_series(PureState.preset(preset), p, np.array([10.0]))[0])
        if abs(value - reference) > 2e-2:
            problems.append(f"{p.kind.value} a={p.a} {preset}: {value:.4f} vs {reference}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s")
    _report(capsys, 2, "stable values", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# criterion 3 — extrema census over 50 seeded states
# ---------------------------------------------------------------------------

def test_criterion_3_extrema_census(capsys):
    states = random_states(seed=424242, n=50)
    start = time.perf_counter()
    problems = []
    plans = [(SymmetryClass.PT, a, 4) for a in (0.31, 0.47, 0.8)]
    plans += [(SymmetryClass.APT, a, 2) for a in (1.5, 2.8)]
    for kind, a, expected in plans:
        p = HamiltonianParams(kind=kind, s=1.0, a=a)
        period = pc.theoretical_period(p)
        for idx, st in enumerate(states):
            predicted = pc.verify_extrema_conditions(st, p)
            scan = pc.find_extrema(st, p, (0.0, period))
            if len(predicted) != expected or len(scan.extrema) != expected:
                problems.append(
                    f"{kind.value} a={a} state#{idx}: "
                    f"{len(predicted)} predicted / {len(scan.extrema)} scanned"
                )
                continue
            for t_pred, ext in zip(sorted(predicted), scan.extrema):
                if abs(t_pred - ext.time) > 1e-6:
                    problems.append(
                        f"{kind.value} a={a} state#{idx}: "
                        f"|{t_pred:.8f} - {ext.time:.8f}| > 1e-6"
                    )
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"runtime {elapsed:.1f}s")
    detail = "; ".join(problems[:4]) + (" ..." if len(problems) > 4 else "")
    _report(capsys, 3, "extrema census", not problems, detail)


# ---------------------------------------------------------------------------
# criterion 4 — balanced-state invariance under the anti-symmetric class
# ---------------------------------------------------------------------------

def test_criterion_4_balanced_state_invariance(capsys):
    grid = np.linspace(0.0, 10.0, 2001)
    balanced = PureState.preset("D")
    problems = []
    for a in (0.31, 0.47, 1.5, 2.8):
        p = apt(a)
        series = pc.coherence_series(balanced, p, grid)
        flatness = float(np.max(np.abs(series - 1.0)))
        z_max = float(np.max(np.abs(pc.trajectory_array(balanced, p, grid)[:, 3])))
        if flatness > 1e-9:
            problems.append(f"a={a}: |C-1| up to {flatness:.2e}")
        if z_max > 1e-9:
            problems.append(f"a={a}: |z| up to {z_max:.2e}")
    _report(capsys, 4, "balanced-state invariance", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# criterion 5 — propagator fidelity against the high-precision reference
# ---------------------------------------------------------------------------

def test_criterion_5_propagator_fidelity(capsys):
    rng = np.random.default_rng(20260819)
    start = time.perf_counter()
    worst = 0.0
    for i in range(1000):
        kind = SymmetryClass.PT if rng.integers(2) == 0 else SymmetryClass.APT
        if i % 20 == 0:
            a = 1.0 + float(rng.uniform(-1e-6, 1e-6))  # draws within 1e-6 of a = 1
        else:
            a = 3.0 * (1.0 - float(rng.random()))  # uniform over (0, 3]
        t = float(rng.uniform(0.0, 20.0))
        p = HamiltonianParams(kind=kind, s=1.0, a=a)
        u = pc.propagator_scaled(p, t)
        reference = np.array(reference_propagator(p, t).tolist(), dtype=complex)
        scale = max(1.0, float(np.linalg.norm(reference)))
        worst = max(worst, frobenius_dist(u, reference) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(capsys, 5, "propagator fidelity", ok,
            f"worst rel. deviation {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 6 — optical decomposition across both classes and all regimes
# ---------------------------------------------------------------------------

def test_criterion_6_optical_decomposition(capsys):
    rng = np.random.default_rng(606)
    a_values = (0.31, 0.47, 0.8, 1.0, 1.5, 2.0, 2.8, 0.9, 1.1, 0.65)
    cases = [
        (kind, a, float(rng.uniform(0.3, 2.0)))
        for kind in (SymmetryClass.PT, SymmetryClass.APT)
        for a in a_values
    ]
    assert len(cases) == 20
    start = time.perf_counter()
    problems = []
    for kind, a, t in cases:
        p = HamiltonianParams(kind=kind, s=1.0, a=a)
        try:
            seq = pc.solve_angles(p, t)
        except pc.NoDecompositionError as exc:
            problems.append(f"{kind.value} a={a} t={t:.3f}: residual {exc.best_residual:.2e}")
            continue
        deviation = pc.verify_state_action(seq)
        if seq.residual > 1e-6 or deviation > 1e-6:
            problems.append(
                f"{kind.value} a={a} t={t:.3f}: "
                f"residual {seq.residual:.2e}, state deviation {deviation:.2e}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s")
    _report(capsys, 6, "optical decomposition", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# criterion 7 — tomographic reconstruction accuracy
# ---------------------------------------------------------------------------

def test_criterion_7_tomography(capsys):
    states = random_states(seed=7007, n=100)
    start = time.perf_counter()
    problems = []

    worst_exact = 0.0
    for st in states:
        rho = st.density()
        recovered = pc.reconstruct(pc.exact_count_record(rho))
        worst_exact = max(worst_exact, pc.trace_distance(recovered, rho))
    if worst_exact > 1e-9:
        problems.append(f"noiseless round trip {worst_exact:.2e}")

    distances = []
    for trial in range(200):
        rho = states[trial % 100].density()
        record = pc.simulate_counts(rho, exposure=30000.0, seed=trial)
        recovered = pc.reconstruct(record)
        eigs = np.linalg.eigvalsh(recovered.rho)
        if eigs.min() < -1e-10 or abs(np.trace(recovered.rho).real - 1.0) > 1e-9:
            problems.append(f"trial {trial}: unphysical reconstruction")
        distances.append(pc.trace_distance(recovered, rho))
    mean_distance = float(np.mean(distances))
    if mean_distance > 0.01:
        problems.append(f"mean trace distance {mean_distance:.4f}")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s")
    _report(capsys, 7, "tomography", not problems,
            "; ".join(problems) or f"mean trace distance {mean_distance:.4f}")


# ---------------------------------------------------------------------------
# criterion 8 — two-qubit long-time limits and periodicity
# ---------------------------------------------------------------------------

def test_criterion_8_two_qubit(capsys):
    psi_states = (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3())
    problems = []
    fixtures = []
    for p in (pt(1.8), apt(0.8)):
        tail = np.array([40.0])
        values = [float(pc.two_qubit_series(psi, p, tail)[0]) for psi in psi_states]
        spread = max(values) - min(values)
        if spread > 1e-3:
            problems.append(f"{p.kind.value} a={p.a}: spread {spread:.2e}")
        fixtures.append(f"{p.kind.value} a={p.a} limit {np.mean(values):.4f}")
    for p in (pt(0.47), apt(1.5)):
        period = pc.theoretical_period(p)
        ts = np.array([0.3, 1.1, 2.6])
        for idx, psi in enumerate(psi_states, start=1):
            drift = float(np.max(np.abs(
                pc.two_qubit_series(psi, p, ts + period) - pc.two_qubit_series(psi, p, ts)
            )))
            if drift > 1e-8:
                problems.append(f"{p.kind.value} a={p.a} psi_{idx}: drift {drift:.2e}")
    detail = "; ".join(problems) if problems else "; ".join(fixtures)
    _report(capsys, 8, "two-qubit dynamics", not problems, detail)


# ---------------------------------------------------------------------------
# criterion 9 — CLI reproducibility
# ---------------------------------------------------------------------------

def test_criterion_9_cli_reproducibility(tmp_path, capsys):
    problems = []
    runs = [
        ["tomography", "--kind", "pt", "--a", "0.47", "--t", "1.0",
         "--exposure", "30000", "--resamples", "50", "--seed", "11"],
        ["trace", "--kind", "apt", "--a", "1.5", "--state", "h-sqrt3v",
         "--t-max", "8", "--points", "161"],
        ["two-qubit", "--kind", "pt", "--a", "1.8", "--t-max", "20", "--points", "81"],
    ]
    for idx, argv in enumerate(runs):
        first = tmp_path / f"run{idx}_a.out"
        second = tmp_path / f"run{idx}_b.out"
        code_a = main(argv + ["--output", str(first)])
        code_b = main(argv + ["--output", str(second)])
        capsys.readouterr()
        if code_a != 0 or code_b != 0:
            problems.append(f"{argv[0]}: exit codes {code_a}/{code_b}")
        elif first.read_bytes() != second.read_bytes():
            problems.append(f"{argv[0]}: outputs differ between repeats")
    # sanity: the seeded artifact is well-formed JSON with the expected schema
    payload = json.loads((tmp_path / "run0_a.out").read_text())
    if payload.get("schema") != 1:
        problems.append("unexpected schema marker")
    _report(capsys, 9, "CLI reproducibility", not problems, "; ".join(problems))
