"""Command-line front end emitting machine-readable CSV/JSON figure data.

Subcommands
-----------
trace       CSV of C(t) via the closed form and via the matrix path
period      JSON report: theoretical period and trace-measured estimate
asymptote   JSON report: theoretical stable value and tail estimate
backflow    JSON report: stationary points per period and classification
angles      JSON optical sequence realizing U(t) (inverse design)
tomography  JSON true vs reconstructed state with bootstrap error bar
bloch       CSV Bloch trajectory t, x, y, z
two-qubit   CSV two-qubit coherence of the three reference states

One record per subcommand, in ``_SUBCOMMANDS``, holds its help, its
fields and its ``cmd_*`` function; the parser, the run and the dispatch
all read it.

Determinism: identical invocations (flags + config + seed) produce
byte-identical output, whatever the number of usable cores.  No
timestamps are emitted, JSON keys are sorted, and every float is
formatted to 12 significant digits (``%.12g``; values round-trip since
they are re-parsed as the shortest representation at that precision).

Config precedence: command-line flags override an optional ``--config``
file of ``key=value`` lines (``#`` opens a comment at a line's start or
after whitespace), which overrides built-in defaults.  The initial state
comes from the flags if they set any of state, alpha, beta and phi, else
from the file (``_resolve_state``).  Environment variables are
deliberately not consulted.  One table, ``_FIELDS``, holds every key: it
builds the flags, types and bounds flag and config values alike, and its
resolved values are the run.

Documents: every one opens with the run header of ``_meta``; the JSON
reports nest it through ``_report``.  A grid is formatted range by range
by one body (``_csv_rows`` or ``_json_rows``), and the joined rows are
framed once (``_csv_text`` or ``_json_grid_text``).  Forked workers
format ranges 1, 2, ... and send back only text; the calling process
runs every range that no worker delivered, so its errors, and only its,
reach the exit codes below.

Exit codes: 0 success; 2 validation error (the message names the
violated precondition, or the sizes a run found no memory for); 3 solver
failure (no optical decomposition within the ``tolerances.optics_*``
bounds); 4 I/O error, stdout included.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import Sequence

import numpy as np

from .evolution import PureState, evolve_density, evolve_density_grid, l1_coherence
from .hamiltonian import HamiltonianParams, Regime, SymmetryClass, frequency, regime

# Each subcommand imports the modules only it runs (coherence, optics,
# tomography, bloch, twoqubit), so a cold call loads no other.

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_SOLVER = 3
_EXIT_IO = 4

#: Every config key: its default, its flag's ``add_argument`` keywords and,
#: where the CLI bounds it, its domain ``(least, strict)``: a finite value
#: at least ``least``, and above it if ``strict``.  The flag's ``type`` (str
#: when absent) also parses config-file values, and its ``choices`` bound
#: them too.
_FIELDS = {
    "kind": (None, dict(choices=["pt", "apt"], help="generator family"), None),
    "s": (1.0, dict(type=float, help="coupling scale s > 0 (default 1)"), None),
    "a": (None, dict(type=float, help="detuning ratio a > 0"), None),
    "seed": (0, dict(type=int, help="RNG seed of the check states or samples (default 0)"),
             (0, False)),
    "output": (None, dict(help="output path (default: stdout)"), None),
    "format": ("csv", dict(choices=["csv", "json"], help="grid format (default csv)"), None),
    "state": (None, dict(help="preset initial state: H, D, or h-sqrt3v"), None),
    "alpha": (None, dict(type=float, help="|H> amplitude (with --beta)"), None),
    "beta": (None, dict(type=float, help="|V> amplitude (with --alpha)"), None),
    "phi": (None, dict(type=float, help="relative phase in radians"), None),
    "t_min": (0.0, dict(type=float, help="grid start (default 0)"), (0, False)),
    "t_max": (10.0, dict(type=float, help="grid end (default 10)"), (-math.inf, False)),
    "t": (1.0, dict(type=float, help="evolution time (default 1)"), (0, False)),
    "exposure": (30000.0, dict(type=float, help="trials per basis (default 30000)"), (0, True)),
    "resamples": (100, dict(type=int, help="bootstrap resamples (default 100)"), (2, False)),
    "points": (401, dict(type=int, help="grid length (default 401)"), (2, False)),
}

_COMMON = ("kind", "s", "a", "output")
_STATE = ("state", "alpha", "beta", "phi")
_WINDOW = ("t_min", "t_max")

# ---------------------------------------------------------------------------
# parsing and config resolution
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptcoherence",
        description="Coherence dynamics of PT- and anti-PT-symmetric qubits.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, fields, _) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="key=value config file (flags override it)")
        for key in fields:
            sp.add_argument("--" + key.replace("_", "-"), **_FIELDS[key][1])
    return parser


def _read_config_file(path: str) -> dict:
    """Parse a key=value config file; unknown keys are validation errors."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _IOFailure(f"cannot read config file {path!r}: {exc}") from exc
    out: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _FIELDS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _FIELDS[key][1].get("type", str)(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return out


class _IOFailure(RuntimeError):
    """Config/output I/O problems (exit code 4)."""
    code = _EXIT_IO


class _SolverFailure(RuntimeError):
    """No optical decomposition found (exit code 3)."""
    code = _EXIT_SOLVER


def _resolve_state(merged: dict, source: dict) -> tuple[PureState, str]:
    """The initial state that ``source`` picks: the most explicit of (flags,
    config file) that sets any ``_STATE`` key, or ``{}`` (then H).  In it a
    preset together with any amplitude is ambiguous, else a preset wins,
    else the amplitudes come from ``merged``, so a flag --phi combines with
    alpha and beta from the file."""
    if not source:
        return PureState.preset("H"), "H"
    if "state" in source:
        if source.keys() & {"alpha", "beta", "phi"}:
            raise ValueError(
                "give either a preset --state or explicit --alpha/--beta/--phi, not both"
            )
        name = str(merged["state"])
        return PureState.preset(name), name
    if merged["alpha"] is None or merged["beta"] is None:
        raise ValueError("explicit initial states need both alpha and beta")
    st = PureState.from_amplitudes(merged["alpha"], merged["beta"], merged["phi"] or 0.0)
    return st, "custom"


def _require_resolved_phase(p: HamiltonianParams, key: str, t: float) -> None:
    """C depends on ``t`` through ``s |t|`` and the phase ``w s |t|`` (0 at
    the EP), which must both be finite doubles.  In the unbroken regime C
    oscillates with that phase; past 2**52 a double no longer resolves one
    radian of it.  Elsewhere, the EP included, C saturates instead, so every
    finite phase is accepted."""
    theta = p.s * abs(t)
    phase = frequency(p.kind, p.a) * theta
    if not (math.isfinite(theta) and math.isfinite(phase)):
        raise ValueError(f"{key} = {t} gives s*|t| = {theta:.6g} and phase w*s*|t| = "
                         f"{phase:.6g}; both must be at most {sys.float_info.max:.6g}")
    if regime(p) is Regime.UNBROKEN and phase > 2.0 ** 52:
        raise ValueError(f"{key} = {t} gives phase w*s*|t| = {phase:.6g} above "
                         "2**52, where a double no longer resolves one radian")


def _resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The resolved, validated run: every ``_FIELDS`` value after the config
    file and the flags (checked only where the subcommand takes it), with
    ``kind`` a SymmetryClass, ``state`` a PureState (None for a command that
    takes no state), plus ``subcommand``, ``state_label`` and ``params``."""
    sub = args.subcommand
    fields = _SUBCOMMANDS[sub][1]
    config = _read_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in fields if getattr(args, key) is not None}
    merged = {**{key: entry[0] for key, entry in _FIELDS.items()}, **config, **flags}

    if merged["kind"] is None:
        raise ValueError("kind is required (pt or apt)")
    if merged["a"] is None:
        raise ValueError("a is required (detuning ratio, a > 0)")
    for key in fields:  # each bound in _FIELDS: a flag's choices, or a key's domain
        _, spec, domain = _FIELDS[key]
        value, name, choices = merged[key], key.replace("_", "-"), spec.get("choices")
        if choices and value not in choices:
            raise ValueError(f"{name} must be {' or '.join(map(repr, choices))}, got {value!r}")
        if domain is None:
            continue
        least, strict = domain
        if not -math.inf < value < math.inf:  # unlike math.isfinite, takes any int
            raise ValueError(f"{name} must be finite, got {value}")
        if value < least or (strict and value == least):
            raise ValueError(f"{name} must be {'>' if strict else '>='} {least}, got {value}")

    source = next((src for src in (flags, config) if src.keys() & _STATE), {})
    state, state_label = _resolve_state(merged, source) if "state" in fields else (None, "n/a")
    t_min, t_max, t = merged["t_min"], merged["t_max"], merged["t"]
    if "t_min" in fields and not t_max > t_min:
        raise ValueError(f"t-max must exceed t-min, got ({t_min}, {t_max})")

    kind = SymmetryClass(merged["kind"])
    p = HamiltonianParams(kind=kind, s=merged["s"], a=merged["a"])  # checks s > 0, a > 0
    if "t_min" in fields:
        _require_resolved_phase(p, "t-max", t_max)
    if "t" in fields:
        _require_resolved_phase(p, "t", t)
    merged.update(kind=kind, state=state)
    return argparse.Namespace(subcommand=sub, state_label=state_label, params=p, **merged)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{float(v) + 0.0:.12g}"  # adding 0.0 turns -0.0 into 0.0: never print "-0"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


#: How json.dumps spells the non-finite floats that repr() spells otherwise.
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(payload: dict) -> str:
    return json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n"


def _csv_rows(rows: np.ndarray) -> str:
    """The CSV lines of ``(n, k)`` rows in one %-format pass, byte-identical
    to joining _fmt per value; adding 0.0 turns -0.0 into 0.0 (never print "-0")."""
    values = (np.asarray(rows, dtype=float) + 0.0).ravel().tolist()
    row_fmt = ",".join(["%.12g"] * rows.shape[1]) + "\n"
    return (row_fmt * len(rows)) % tuple(values)


def _csv_text(meta: list[tuple[str, object]], columns: Sequence[str], rows_text: str) -> str:
    """The CSV document: the ``meta`` comment lines and the column header
    above ``rows_text``, the lines of :func:`_csv_rows`."""
    lines = ["# schema: 1"]
    for key, value in meta:
        text = _fmt(value) if isinstance(value, float) else str(value)
        lines.append(f"# {key}: {text}")
    lines.append(",".join(columns))
    return "\n".join(lines) + "\n" + rows_text


def _json_rows(rows: np.ndarray) -> str:
    """The ``"rows"`` entries of ``(n, k)`` rows as ``_json_text`` lays them out,
    joined by ",\n": one %.12g pass rounds every value (adding 0.0 drops
    "-0"), the parsed-back floats print as json.dumps prints them, and one
    %-pass lays them out at indent=2."""
    values = np.asarray(rows, dtype=float) + 0.0
    rounded = list(map(float, ("%.12g " * values.size % tuple(values.ravel().tolist())).split()))
    if not np.isfinite(values).all():
        rounded = [_JSON_NON_FINITE.get(v, v) for v in map(repr, rounded)]
    row_fmt = "    [\n" + ",\n".join(["      %s"] * rows.shape[1]) + "\n    ]"
    return ",\n".join([row_fmt] * len(rows)) % tuple(rounded)


def _json_grid_text(meta: list[tuple[str, object]], columns: Sequence[str],
                    rows_text: str) -> str:
    """The grid JSON around ``rows_text``, the entries of :func:`_json_rows`,
    byte-identical to ``_json_text`` on the full payload."""
    payload = {"schema": 1, "columns": list(columns), "rows": []}
    payload.update(meta)
    return _json_text(payload).replace('\n  "rows": []', '\n  "rows": [\n' + rows_text + "\n  ]", 1)


#: Fewest rows that a row range of a grid command is worth.  On a 2-core
#: x86 host, forking and joining a worker costs 3-5 ms, and a second range
#: pays for it from 8k-10k rows (medians of 15 in-process runs: +1.6 to
#: +4.9 ms at 5000 rows, -1 to -8 ms at 10000, -69 to -131 ms at 100000),
#: so the first split comes at 2 * 5000 rows; the default 401-point grids
#: never fork.
_MIN_ROWS = 5000


def _range_count(n: int) -> int:
    """How many row ranges an ``n``-row grid is cut into: one per usable
    core, each of at least ``_MIN_ROWS`` rows; 1 where the platform cannot
    fork or report its usable cores."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n // _MIN_ROWS))


def _fork_range(ts: np.ndarray, rows_of, body) -> tuple[int, int]:
    """Fork a worker that writes ``body(rows_of(ts))`` down a pipe and
    exits 0, or exits 1 if anything fails; returns its pid and the pipe's
    read end.  A refused pipe or fork raises ``OSError``.

    The worker runs only numpy elementwise code and %-formatting on the
    modules its parent loaded, so the fork needs none of the locks a
    library thread (numpy's BLAS pool) may hold, and it imports nothing.
    It leaves through ``os._exit``: never back into the caller, and
    without running the parent's exit handlers or flushing its buffers.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            data = body(rows_of(ts)).encode()
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _join_range(pid: int, read_end: int) -> str | None:
    """Read and reap one worker of :func:`_fork_range`: its text if it
    exited 0, else None (it failed or was killed)."""
    try:
        with open(read_end, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return data.decode() if os.waitstatus_to_exitcode(status) == 0 else None


def _grid_text(cfg: argparse.Namespace, columns: Sequence[str], rows_of) -> str:
    """The document of a grid command: ``rows_of(ts) -> (len(ts), k)`` rows
    over the ``linspace`` grid of ``cfg``, in CSV or JSON.

    The grid is cut into contiguous row ranges (:func:`_range_count`).
    Ranges 1, 2, ... are each evaluated and formatted by a forked worker
    while this process does range 0 with the same body; every worker is
    then read and reaped, whatever range 0 did.  This process runs again,
    in grid order, each range that no worker delivered (the fork was
    refused, or the worker failed or was killed), and the texts join in
    grid order; the document is framed around them once.  Every row is a
    function of its time alone, so the text is the same bytes for any
    number of ranges, and a failure that is not the worker's own raises
    here, from the lowest failing range, before anything is written.
    """
    ts, n = np.linspace(cfg.t_min, cfg.t_max, cfg.points), cfg.points
    count = _range_count(n)
    cuts = [n * k // count for k in range(count + 1)]
    ranges = [ts[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    body, frame, sep = ((_csv_rows, _csv_text, "") if cfg.format == "csv"
                        else (_json_rows, _json_grid_text, ",\n"))
    workers = []
    try:
        for part in ranges[1:]:
            try:
                workers.append(_fork_range(part, rows_of, body))
            except OSError:  # no pipe or no process: the range runs below
                workers.append(None)
        first = body(rows_of(ranges[0]))
    finally:
        delivered = [worker and _join_range(*worker) for worker in workers]
    # each range that no worker delivered runs here, and its error raises
    texts = [first] + [text or body(rows_of(part)) for text, part in zip(delivered, ranges[1:])]
    return frame(_meta(cfg), columns, sep.join(texts))


def _emit(cfg: argparse.Namespace, text: str) -> None:
    if cfg.output in (None, "-"):
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # what stdout still holds goes nowhere, so exit flushes cleanly
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            raise _IOFailure(f"cannot write to stdout: {exc}") from exc
        return
    try:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write output file {cfg.output!r}: {exc}") from exc


def _meta(cfg: argparse.Namespace) -> list[tuple[str, object]]:
    """The run header of every document: the command, the generator and,
    for a command that takes one, the initial state."""
    meta = [("command", cfg.subcommand), ("kind", cfg.kind.value), ("s", cfg.s), ("a", cfg.a)]
    if cfg.state is not None:
        meta += [("state", cfg.state_label), ("alpha", float(cfg.state.alpha)),
                 ("beta", float(cfg.state.beta)), ("phi", float(cfg.state.phi))]
    return meta


def _report(cfg: argparse.Namespace, fields: dict) -> str:
    """A JSON report: the run header of :func:`_meta` (the state nested under
    ``"state"``, its label as ``"label"``), the regime, then ``fields``."""
    meta = _meta(cfg)
    payload = {"schema": 1, **dict(meta[:4]), "regime": regime(cfg.params).value}
    if cfg.state is not None:  # meta[4:] is the state's label, alpha, beta, phi
        payload["state"] = {"label": cfg.state_label, **dict(meta[5:])}
    payload.update(fields)
    return _json_text(payload)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_trace(cfg: argparse.Namespace) -> str:
    """CSV columns t, C_closed_form, C_matrix_path — the scalar closed
    form and the independent propagator-conjugation route, side by side:
    C_matrix_path is :func:`~ptcoherence.evolution.l1_coherence` of the
    density matrices that :func:`evolve_density_grid` evolves."""
    from .coherence import coherence_series

    st, p = cfg.state, cfg.params
    assert st is not None

    def rows_of(ts: np.ndarray) -> np.ndarray:
        closed = coherence_series(st, p, ts)
        matrix_path = l1_coherence(evolve_density_grid(st.density(), p, ts))
        return np.column_stack([ts, closed, matrix_path])

    return _grid_text(cfg, ("t", "C_closed_form", "C_matrix_path"), rows_of)


def cmd_period(cfg: argparse.Namespace) -> str:
    """Theoretical oscillation period plus a trace-measured estimate."""
    from .coherence import _scan_window, find_extrema, theoretical_period

    assert cfg.state is not None
    p = cfg.params
    period = theoretical_period(p)
    estimate = (None if period is None
                else find_extrema(cfg.state, p, _scan_window(p, 2)).period_estimate)
    return _report(cfg, {"period_theoretical": period, "period_estimate": estimate})


def cmd_asymptote(cfg: argparse.Namespace) -> str:
    """Theoretical stable value plus a tail estimate from the trace."""
    from .coherence import asymptotic_value, find_extrema, theoretical_period

    assert cfg.state is not None
    p = cfg.params
    # find_extrema estimates a long unbroken window from its first periods
    # alone; cutting the window at 100 periods changes no estimate and
    # keeps its tiled extrema far below find_extrema's cap
    period = theoretical_period(p)
    t_end = cfg.t_max if period is None else min(cfg.t_max, cfg.t_min + 100 * period)
    scan = find_extrema(cfg.state, p, (cfg.t_min, t_end))
    return _report(cfg, {
        "asymptote_theoretical": asymptotic_value(p),
        "asymptote_estimate": scan.asymptote_estimate,
        "window": [cfg.t_min, cfg.t_max],
    })


def cmd_backflow(cfg: argparse.Namespace) -> str:
    """Stationary-point count per period and trace classification."""
    from .coherence import classify_backflow

    assert cfg.state is not None
    report = classify_backflow(cfg.state, cfg.params)
    return _report(cfg, {
        "zeros_per_period": int(report.zeros_per_period),
        "classification": report.classification.value,
    })


def cmd_angles(cfg: argparse.Namespace) -> str:
    """Inverse design: waveplate/loss angles realizing U(t), verified."""
    from . import tolerances
    from .optics import (_N_STATES, NoDecompositionError, sequence_to_dict, solve_angles,
                         verify_state_action)

    try:
        seq = solve_angles(cfg.params, cfg.t)
    except NoDecompositionError as exc:
        raise _SolverFailure(str(exc)) from exc
    deviation = verify_state_action(seq, seed=cfg.seed)
    tol = tolerances.optics_state_action
    if not deviation <= tol:
        raise _SolverFailure(f"the solved sequence's state-action deviation {deviation:.6g} "
                             f"exceeds the tolerance {tol:g}")
    return _report(cfg, {
        **sequence_to_dict(seq),
        "seed": cfg.seed,
        "state_action": {"n_states": _N_STATES, "max_deviation": deviation},
    })


def cmd_tomography(cfg: argparse.Namespace) -> str:
    """Evolve, sample counts, reconstruct, and bootstrap the coherence."""
    from .tomography import bootstrap_errorbar, reconstruct, simulate_counts, trace_distance

    assert cfg.state is not None
    p = cfg.params
    rho_true = evolve_density(cfg.state.density(), p, cfg.t)
    record = simulate_counts(rho_true, cfg.exposure, seed=cfg.seed)
    rho_hat = reconstruct(record)
    boot_mean, boot_sd = bootstrap_errorbar(record, resamples=cfg.resamples, seed=cfg.seed)

    def rho_entries(m: np.ndarray) -> list:
        return np.stack([m.real, m.imag], axis=-1).tolist()

    return _report(cfg, {
        "t": cfg.t,
        "seed": cfg.seed,
        "exposure": cfg.exposure,
        "resamples": cfg.resamples,
        "counts": dict(zip("HVRD", record.as_array().tolist())),
        "rho_true": rho_entries(rho_true.rho),
        "rho_reconstructed": rho_entries(rho_hat.rho),
        "coherence_true": l1_coherence(rho_true),
        "coherence_reconstructed": l1_coherence(rho_hat),
        "coherence_bootstrap": {"mean": boot_mean, "sd": boot_sd},
        "trace_distance": trace_distance(rho_true, rho_hat),
    })


def cmd_bloch(cfg: argparse.Namespace) -> str:
    """CSV Bloch trajectory of the evolved (renormalized) state."""
    from .bloch import trajectory_array

    st, p = cfg.state, cfg.params
    assert st is not None
    return _grid_text(cfg, ("t", "x", "y", "z"), lambda ts: trajectory_array(st, p, ts))


def cmd_two_qubit(cfg: argparse.Namespace) -> str:
    """CSV two-qubit coherence traces of the three reference states."""
    from .twoqubit import TwoQubitState, two_qubit_series

    p = cfg.params
    states = (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3())

    def rows_of(ts: np.ndarray) -> np.ndarray:
        return np.column_stack([ts] + [two_qubit_series(state, p, ts) for state in states])

    return _grid_text(cfg, ("t", "C_psi1", "C_psi2", "C_psi3"), rows_of)


#: The one record of each subcommand: its help, the fields it takes in
#: flag order, and its command.  Each field changes the output: only the
#: grid commands take a format (CSV by default), only the stochastic ones a
#: seed, and asymptote's scan has its own sampling, so it takes no points.
_SUBCOMMANDS = {
    "trace": ("coherence trace CSV", _COMMON + _STATE + _WINDOW + ("points", "format"),
              cmd_trace),
    "period": ("oscillation-period report", _COMMON + _STATE, cmd_period),
    "asymptote": ("stable-value report", _COMMON + _STATE + _WINDOW, cmd_asymptote),
    "backflow": ("backflow-count report", _COMMON + _STATE, cmd_backflow),
    "angles": ("optical sequence realizing U(t)", _COMMON + ("t", "seed"), cmd_angles),
    "tomography": ("simulated tomography round trip",
                   _COMMON + _STATE + ("t", "exposure", "resamples", "seed"), cmd_tomography),
    "bloch": ("Bloch trajectory CSV", _COMMON + _STATE + _WINDOW + ("points", "format"),
              cmd_bloch),
    "two-qubit": ("two-qubit coherence CSV", _COMMON + _WINDOW + ("points", "format"),
                  cmd_two_qubit),
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args, cfg = _build_parser().parse_args(argv), None
    try:
        cfg = _resolve_config(args)
        _emit(cfg, _SUBCOMMANDS[cfg.subcommand][2](cfg))
    except MemoryError:  # name the sizes the run asked for
        fields = _SUBCOMMANDS[args.subcommand][1] if cfg is not None else ()
        sizes = "".join(f", {key} = {getattr(cfg, key)}"
                        for key in ("points", "resamples") if key in fields)
        message, code = f"not enough memory for {args.subcommand}{sizes}", _EXIT_VALIDATION
    except (_SolverFailure, _IOFailure, ValueError) as exc:
        message, code = exc, getattr(exc, "code", _EXIT_VALIDATION)
    else:
        return _EXIT_OK
    print(f"error: {message}", file=sys.stderr)
    return code
