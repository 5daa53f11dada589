#!/usr/bin/env python3
"""ptcoherence benchmark: end-to-end and per-layer metrics of cold CLI runs.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json records why each exists):

  cli-small  all eight subcommands at their defaults, plus period and
             backflow at two fixed energy scales s != 1
  cli-large  trace, bloch and two-qubit at --points 100000, CSV read
             from a pipe

Every operation is a cold ``python -m ptcoherence`` child.  A round is the
workload's fixed operation list.  A run does a fixed number of rounds,
--seconds divided by the workload's typical round time (at least one), so
the operations attempted do not depend on the host's speed.  Every
output is checked after timing (see checks.py), and a checker self-test
corrupts one output of each subcommand and must see it rejected.

With ``--trace 0`` children run without wrappers.  The run reports
``wall_s`` (median makespan of a round), ``setup_s`` (median wall time of
fresh processes that do the run's set-up, up to the first timed operation)
and ``peak_rss_mb`` (largest resident set of a child).  Above the result
line it prints the median operation latency, each subcommand's median cold
time at s = 1 and the failed fraction, each with its sample count.  With
``--trace 1`` it measures half the time untraced and half traced (children
run ``child.py`` under ``-X importtime``), and reports per-layer metrics
per traced round: self times, the import stage and
``trace.unattributed_s`` add up to ``trace.round_s``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts operations
that exited non-zero or failed a check, including the known defect that
period and backflow results change with the energy scale ``s`` alone;
``correct`` is false for any other failure, or when the self-test fails.
Exits 2 without a result when the package sources are missing.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from workloads import SUBCOMMANDS, WORKLOADS, run_child

#: Fresh processes timed per run for setup_s, which reports their median.
SETUP_PROBES = 3


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python and numpy loop (host speed)."""
    import numpy as np
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    x = np.linspace(0.0, 1.0, 200_000)
    for _ in range(20):
        total += float(np.sin(x).sum())
    return perf_counter() - start


def machine_record() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "loadavg_start": list(os.getloadavg()),
        "calibration_start_s": calibrate(),
    }


def measure(wl, seconds: float, traced: bool):
    """The run's rounds of the fixed operation list; returns (outcomes per
    round, walls)."""
    rounds, walls = [], []
    for _ in range(max(1, round(seconds / wl.round_s))):
        r0 = perf_counter()
        rounds.append([wl.run_op(op, traced) for op in wl.ops])
        walls.append(perf_counter() - r0)
    return rounds, walls


def setup_seconds(args, root: Path, run_dir: Path) -> list[float]:
    """Wall time of fresh processes that do this run's set-up and stop
    before the first timed operation."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
            "--setup-only"]
    walls = []
    for k in range(SETUP_PROBES):
        err = run_dir / f"setup{k}.err"
        wall, _, code, _ = run_child(argv, root, dict(os.environ), err)
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.read_text(errors='replace')}")
        walls.append(wall)
    return walls


def layer_metrics(traced, traced_walls, untraced_walls, gaps) -> dict:
    """Per-layer values per traced round."""
    import tracing
    summary = tracing.Summary.combine(o.spans for r in traced for o in r if o.spans)
    n = len(traced_walls)
    st, calls, counts, total = summary.self_time, summary.calls, summary.counts, summary.total

    def rate(points: str, span: str) -> float:
        return counts[points] / total[span] if total[span] > 0 else 0.0

    m = {"import.total_s": 0.0, "import.scipy_s": 0.0, "import.ptcoherence_self_s": 0.0}
    for o in (o for r in traced for o in r if o.imports):
        for key, value in o.imports.items():
            m[key] += value / n
    for span in tracing.SPAN_NAMES:
        m[span + "_s"] = st[span] / n
    for span in ("evolution.evolve_density", "evolution.evolve_pure", "coherence.series",
                 "tomography.reconstruct"):
        m[span + "_calls"] = calls[span] / n
    m["coherence.scans"] = calls["coherence.scan"] / n
    for key in ("cli.output_bytes", "bloch.points", "coherence.series_points",
                "twoqubit.series_points", "optics.minimize_calls",
                "tomography.resamples_dropped"):
        m[key] = counts[key] / n
    m["coherence.points_per_s"] = rate("coherence.series_points", "coherence.series")
    m["twoqubit.points_per_s"] = rate("twoqubit.series_points", "twoqubit.series")
    scans = calls["coherence.scan"]
    m["coherence.points_per_scan"] = counts["coherence.scan_points"] / scans if scans else 0.0
    m["optics.residual_max"] = summary.maxima.get("optics.residual_max", 0.0)
    m["tomography.nll_gap_max"] = max(gaps) if gaps else 0.0
    m["trace.round_s"] = sum(traced_walls) / n
    attributed = sum(st.values()) / n + m["import.total_s"]
    m["trace.unattributed_s"] = m["trace.round_s"] - attributed
    m["trace.overhead_frac"] = (statistics.median(traced_walls)
                                / statistics.median(untraced_walls) - 1.0)
    m["missing"] = summary.missing
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ptcoherence benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "ptcoherence" / "__init__.py").is_file():
        print(f"error: package sources not found under {root / 'src'}", file=sys.stderr)
        return 2
    run_dir = root / "perfbench" / "_runs" / str(os.getpid())
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.workload, args.seed, root, run_dir).prepare()
            return 0
        return run(args, root, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def run(args, root: Path, run_dir: Path) -> int:
    declared = json.loads((root / "BENCHMARK.json").read_text())
    spec = declared["per_layer" if args.trace else "end_to_end"]
    machine = machine_record()
    setups = setup_seconds(args, root, run_dir)
    wl = WORKLOADS[args.workload](args.workload, args.seed, root, run_dir)
    wl.prepare()

    if args.trace:
        untraced, untraced_walls = measure(wl, args.seconds / 2, traced=False)
        traced, walls = measure(wl, args.seconds / 2, traced=True)
        rounds = untraced + traced
    else:
        rounds, walls = measure(wl, args.seconds, traced=False)
    rss_kb = max(o.rss_kb for r in rounds for o in r)

    gaps: list[float] = []
    findings = wl.check(rounds, gaps)
    selftest = wl.selftest(rounds, findings)
    machine["loadavg_end"] = list(os.getloadavg())
    machine["calibration_end_s"] = calibrate()

    flat = [f for r in findings for f in r]
    attempted, failed = len(flat), sum(1 for f in flat if f)
    correct = not selftest and not any(kind != "scale" for f in flat for kind, _ in f)

    # (name, value, unit, sample count) of everything the run measured;
    # the JSON line carries the metrics BENCHMARK.json declares
    report: list[tuple[str, float, str, int]] = []
    notes: list[str] = []
    if args.trace:
        values = layer_metrics(traced, walls, untraced_walls, gaps)
        report += [(m["name"], values[m["name"]], m["unit"], len(walls)) for m in spec]
        notes.append(f"per round of {len(walls)} traced rounds; "
                     f"{len(untraced_walls)} untraced rounds for trace.overhead_frac")
        if values["missing"]:
            notes.append("wrapped names not found (read as 0): "
                         + ", ".join(sorted(values["missing"])))
    else:
        ops = [o.wall for r in rounds for o in r]
        report += [("wall_s", statistics.median(walls), "s", len(walls)),
                   ("op_p50_s", statistics.median(ops), "s", len(ops))]
        if len(ops) >= 100:
            report.append(("op_p90_s", statistics.quantiles(ops, n=10)[8], "s", len(ops)))
        report += [("setup_s", statistics.median(setups), "s", len(setups)),
                   ("peak_rss_mb", rss_kb / 1024.0, "MiB", len(ops))]
        for cmd in SUBCOMMANDS:
            times = [o.wall for r in rounds for op, o in zip(wl.ops, r)
                     if op.command == cmd and op.s == 1.0]
            if times:
                report.append((f"cli.{cmd}_s", statistics.median(times), "s", len(times)))
    report.append(("ops_failed_frac", failed / attempted, "ratio", attempted))
    measured = {name: value for name, value, _, _ in report}

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# machine " + json.dumps(machine, sort_keys=True))
    for name, value, unit, n in report:
        print(f"# {name} = {value!r} {unit} (n={n})")
    for note in notes:
        print("# " + note)
    for problem in selftest:
        print("# self-test: " + problem)
    for op, f in zip(wl.ops, findings[0]):
        for kind, message in f:
            print(f"# failed [{kind}] {op.label}: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
