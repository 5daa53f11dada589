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

Determinism: identical invocations (flags + config + seed) produce
byte-identical output.  No timestamps are emitted, JSON keys are
sorted, and every float is formatted to 12 significant digits
(``%.12g``; values round-trip since they are re-parsed as the shortest
representation at that precision).

Config precedence: command-line flags override an optional ``--config``
file of ``key=value`` lines (``#`` comments allowed), which overrides
built-in defaults.  Environment variables are deliberately not
consulted.

Exit codes: 0 success; 2 validation error (the message names the
violated precondition); 3 solver failure (no optical decomposition);
4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bloch import trajectory_array
from .coherence import (
    classify_backflow,
    coherence_series,
    find_extrema,
    l1_coherence,
    theoretical_period,
    asymptotic_value,
)
from .evolution import PureState, evolve_density, evolve_density_grid
from .hamiltonian import HamiltonianParams, Regime, SymmetryClass, regime
from .optics import NoDecompositionError, sequence_to_dict, solve_angles, verify_state_action
from .tomography import bootstrap_errorbar, reconstruct, simulate_counts, trace_distance
from .twoqubit import TwoQubitState, two_qubit_series

__all__ = ["RunConfig", "main"]

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_SOLVER = 3
_EXIT_IO = 4

_CSV_COMMANDS = ("trace", "bloch", "two-qubit")
_GRID_COMMANDS = ("trace", "asymptote", "bloch", "two-qubit")
_SINGLE_TIME_COMMANDS = ("angles", "tomography")
_JSON_COMMANDS = ("period", "asymptote", "backflow", "angles", "tomography")

#: Keys accepted from flags and config files, with their parsers.
_FIELD_PARSERS = {
    "kind": str,
    "s": float,
    "a": float,
    "state": str,
    "alpha": float,
    "beta": float,
    "phi": float,
    "t_min": float,
    "t_max": float,
    "points": int,
    "t": float,
    "seed": int,
    "exposure": float,
    "resamples": int,
    "restarts": int,
    "format": str,
    "output": str,
}

_DEFAULTS = {
    "kind": None,
    "s": 1.0,
    "a": None,
    "state": None,
    "alpha": None,
    "beta": None,
    "phi": None,
    "t_min": 0.0,
    "t_max": 10.0,
    "points": 401,
    "t": 1.0,
    "seed": 0,
    "exposure": 30000.0,
    "resamples": 100,
    "restarts": 32,
    "format": None,
    "output": None,
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated configuration for one subcommand run."""

    subcommand: str
    kind: SymmetryClass
    s: float
    a: float
    state: PureState | None
    state_label: str
    t_min: float
    t_max: float
    points: int
    t: float
    seed: int
    exposure: float
    resamples: int
    restarts: int
    format: str
    output: str | None

    @property
    def params(self) -> HamiltonianParams:
        return HamiltonianParams(kind=self.kind, s=self.s, a=self.a)


# ---------------------------------------------------------------------------
# parsing and config resolution
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptcoherence",
        description="Coherence dynamics of PT- and anti-PT-symmetric qubits.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp: argparse.ArgumentParser, *, with_state: bool, with_window: bool,
                   with_single_time: bool) -> None:
        sp.add_argument("--config", help="key=value config file (flags override it)")
        sp.add_argument("--kind", choices=["pt", "apt"], help="generator family")
        sp.add_argument("--s", type=float, help="coupling scale s > 0 (default 1)")
        sp.add_argument("--a", type=float, help="detuning ratio a > 0")
        sp.add_argument("--seed", type=int, help="RNG seed (default 0)")
        sp.add_argument("--output", help="output path (default: stdout)")
        sp.add_argument("--format", choices=["csv", "json"], help="output format")
        if with_state:
            sp.add_argument("--state", help="preset initial state: H, D, or h-sqrt3v")
            sp.add_argument("--alpha", type=float, help="|H> amplitude (with --beta)")
            sp.add_argument("--beta", type=float, help="|V> amplitude (with --alpha)")
            sp.add_argument("--phi", type=float, help="relative phase in radians")
        if with_window:
            sp.add_argument("--t-min", dest="t_min", type=float, help="grid start (default 0)")
            sp.add_argument("--t-max", dest="t_max", type=float, help="grid end (default 10)")
        if with_single_time:
            sp.add_argument("--t", type=float, help="evolution time (default 1)")

    add_common(sub.add_parser("trace", help="coherence trace CSV"),
               with_state=True, with_window=True, with_single_time=False)
    add_common(sub.add_parser("period", help="oscillation-period report"),
               with_state=True, with_window=False, with_single_time=False)
    add_common(sub.add_parser("asymptote", help="stable-value report"),
               with_state=True, with_window=True, with_single_time=False)
    add_common(sub.add_parser("backflow", help="backflow-count report"),
               with_state=True, with_window=False, with_single_time=False)
    ang = sub.add_parser("angles", help="optical sequence realizing U(t)")
    add_common(ang, with_state=False, with_window=False, with_single_time=True)
    ang.add_argument("--restarts", type=int, help="solver restarts (default 32)")
    tomo = sub.add_parser("tomography", help="simulated tomography round trip")
    add_common(tomo, with_state=True, with_window=False, with_single_time=True)
    tomo.add_argument("--exposure", type=float, help="trials per basis (default 30000)")
    tomo.add_argument("--resamples", type=int, help="bootstrap resamples (default 100)")
    add_common(sub.add_parser("bloch", help="Bloch trajectory CSV"),
               with_state=True, with_window=True, with_single_time=False)
    add_common(sub.add_parser("two-qubit", help="two-qubit coherence CSV"),
               with_state=False, with_window=True, with_single_time=False)
    for name in _CSV_COMMANDS:  # asymptote's scan has its own fixed sampling
        sub.choices[name].add_argument("--points", type=int, help="grid length (default 401)")
    return parser


def _read_config_file(path: str) -> dict:
    """Parse a key=value config file; unknown keys are validation errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _IOFailure(f"cannot read config file {path!r}: {exc}") from exc
    out: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _FIELD_PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _FIELD_PARSERS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc
    return out


class _IOFailure(RuntimeError):
    """Config/output I/O problems (exit code 4)."""


def _resolve_state(merged: dict, layer: dict) -> tuple[PureState, str]:
    """Pick preset vs explicit amplitudes by which layer set what.

    ``layer`` maps field -> 0 (default), 1 (config), 2 (flag).  The
    more explicit group wins; a tie with both groups set is ambiguous.
    """
    preset_rank = layer.get("state", 0) if merged.get("state") is not None else -1
    amp_fields = [f for f in ("alpha", "beta", "phi") if merged.get(f) is not None]
    amp_rank = max((layer.get(f, 0) for f in amp_fields), default=-1)
    if preset_rank < 0 and amp_rank < 0:
        return PureState.preset("H"), "H"
    if preset_rank >= 0 and amp_rank >= 0 and preset_rank == amp_rank:
        raise ValueError(
            "give either a preset --state or explicit --alpha/--beta/--phi, not both"
        )
    if preset_rank > amp_rank:
        name = str(merged["state"])
        return PureState.preset(name), name
    if merged.get("alpha") is None or merged.get("beta") is None:
        raise ValueError("explicit initial states need both alpha and beta")
    st = PureState.from_amplitudes(
        float(merged["alpha"]), float(merged["beta"]), float(merged.get("phi") or 0.0)
    )
    return st, "custom"


def _require_finite(**values: float) -> None:
    for key, value in values.items():
        if not np.isfinite(value):
            raise ValueError(f"{key.replace('_', '-')} must be finite, got {value}")


def _require_resolved_phase(p: HamiltonianParams, key: str, t: float) -> None:
    """Outside the broken regime C oscillates with phase ``w s |t|`` (``s |t|``
    at the EP); past 2**52 a double no longer resolves one radian of it.  In the
    broken regime C saturates instead, so every finite time is accepted."""
    phase_regime = regime(p)
    if phase_regime is not Regime.BROKEN:
        w = 1.0 if phase_regime is Regime.EXCEPTIONAL_POINT else np.sqrt(abs(1.0 - p.a ** 2))
        if w * p.s * abs(t) > 2.0 ** 52:
            raise ValueError(f"{key} = {t} gives phase w*s*|t| = {w * p.s * abs(t):.6g} above "
                             "2**52, where a double no longer resolves one radian")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    sub = args.subcommand
    merged = dict(_DEFAULTS)
    layer = {k: 0 for k in merged}
    if getattr(args, "config", None):
        for key, value in _read_config_file(args.config).items():
            merged[key] = value
            layer[key] = 1
    for key in _FIELD_PARSERS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
            layer[key] = 2

    if merged["kind"] is None:
        raise ValueError("kind is required (pt or apt)")
    try:
        kind = SymmetryClass(str(merged["kind"]).lower())
    except ValueError:
        raise ValueError(f"kind must be 'pt' or 'apt', got {merged['kind']!r}") from None
    if merged["a"] is None:
        raise ValueError("a is required (detuning ratio, a > 0)")

    fmt = merged["format"]
    natural = "csv" if sub in _CSV_COMMANDS else "json"
    if fmt is None:
        fmt = natural
    if sub in _JSON_COMMANDS and fmt != "json":
        raise ValueError(f"subcommand {sub!r} emits JSON only")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")

    state: PureState | None = None
    state_label = "n/a"
    if sub not in ("angles", "two-qubit"):
        state, state_label = _resolve_state(merged, layer)

    t_min, t_max = float(merged["t_min"]), float(merged["t_max"])
    points = int(merged["points"])
    if sub in _GRID_COMMANDS:
        _require_finite(t_min=t_min, t_max=t_max)
        if not (t_max > t_min):
            raise ValueError(f"t-max must exceed t-min, got ({t_min}, {t_max})")
        if t_min < 0:
            raise ValueError("t-min must be nonnegative")
    if sub in _CSV_COMMANDS and points < 2:
        raise ValueError("points must be >= 2")
    t_single = float(merged["t"])
    if sub in _SINGLE_TIME_COMMANDS:
        _require_finite(t=t_single)
        if t_single < 0:
            raise ValueError("t must be nonnegative")
    exposure = float(merged["exposure"])
    if sub == "tomography":
        _require_finite(exposure=exposure)
        if exposure <= 0:
            raise ValueError("exposure must be positive")
    resamples = int(merged["resamples"])
    if sub == "tomography" and resamples < 2:
        raise ValueError("resamples must be >= 2")
    restarts = int(merged["restarts"])
    if sub == "angles" and restarts < 1:
        raise ValueError("restarts must be >= 1")

    cfg = RunConfig(
        subcommand=sub,
        kind=kind,
        s=float(merged["s"]),
        a=float(merged["a"]),
        state=state,
        state_label=state_label,
        t_min=t_min,
        t_max=t_max,
        points=points,
        t=t_single,
        seed=int(merged["seed"]),
        exposure=exposure,
        resamples=resamples,
        restarts=restarts,
        format=fmt,
        output=merged["output"],
    )
    p = cfg.params  # validates s > 0, a > 0 at parse time
    if sub in _GRID_COMMANDS:
        _require_resolved_phase(p, "t-max", t_max)
    elif sub in _SINGLE_TIME_COMMANDS:
        _require_resolved_phase(p, "t", t_single)
    return cfg


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    f = float(v)
    if f == 0.0:
        f = 0.0  # never print "-0"
    return f"{f:.12g}"


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


def _csv_text(meta: list[tuple[str, object]], columns: Sequence[str],
              rows: np.ndarray) -> str:
    lines = ["# schema: 1"]
    for key, value in meta:
        text = _fmt(value) if isinstance(value, float) else str(value)
        lines.append(f"# {key}: {text}")
    lines.append(",".join(columns))
    # one %-format pass over the whole body, byte-identical to joining
    # _fmt per value; adding 0.0 turns -0.0 into 0.0 (never print "-0")
    values = (np.asarray(rows, dtype=float) + 0.0).ravel().tolist()
    row_fmt = ",".join(["%.12g"] * len(columns)) + "\n"
    return "\n".join(lines) + "\n" + (row_fmt * len(rows)) % tuple(values)


def _json_grid_text(meta: list[tuple[str, object]], columns: Sequence[str],
                    rows: np.ndarray) -> str:
    payload = {"schema": 1, "columns": list(columns), "rows": []}
    payload.update({key.replace(" ", "_"): value for key, value in meta})
    # the rows block in bulk, byte-identical to _json_text on the full
    # payload: one %.12g pass rounds every value (adding 0.0 drops "-0"),
    # the parsed-back floats print as json.dumps prints them, and one
    # %-pass lays them out at indent=2
    values = np.asarray(rows, dtype=float) + 0.0
    rounded = list(map(float, ("%.12g " * values.size % tuple(values.ravel().tolist())).split()))
    if not np.isfinite(values).all():
        rounded = [_JSON_NON_FINITE.get(v, v) for v in map(repr, rounded)]
    row_fmt = "    [\n" + ",\n".join(["      %s"] * len(columns)) + "\n    ]"
    block = ",\n".join([row_fmt] * len(rows)) % tuple(rounded)
    return _json_text(payload).replace('\n  "rows": []', '\n  "rows": [\n' + block + "\n  ]", 1)


def _tabular_text(cfg: RunConfig, meta: list[tuple[str, object]],
                  columns: Sequence[str], rows: np.ndarray) -> str:
    if cfg.format == "csv":
        return _csv_text(meta, columns, rows)
    return _json_grid_text(meta, columns, rows)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write output file {cfg.output!r}: {exc}") from exc


def _state_meta(cfg: RunConfig) -> list[tuple[str, object]]:
    assert cfg.state is not None
    return [
        ("state", cfg.state_label),
        ("alpha", float(cfg.state.alpha)),
        ("beta", float(cfg.state.beta)),
        ("phi", float(cfg.state.phi)),
    ]


def _base_meta(cfg: RunConfig) -> list[tuple[str, object]]:
    return [("command", cfg.subcommand), ("kind", cfg.kind.value),
            ("s", float(cfg.s)), ("a", float(cfg.a))]


def _base_payload(cfg: RunConfig) -> dict:
    payload = {
        "schema": 1,
        "command": cfg.subcommand,
        "kind": cfg.kind.value,
        "s": float(cfg.s),
        "a": float(cfg.a),
        "regime": regime(cfg.params).value,
    }
    if cfg.state is not None:
        payload["state"] = {
            "label": cfg.state_label,
            "alpha": float(cfg.state.alpha),
            "beta": float(cfg.state.beta),
            "phi": float(cfg.state.phi),
        }
    return payload


def _grid(cfg: RunConfig) -> np.ndarray:
    return np.linspace(cfg.t_min, cfg.t_max, cfg.points)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_trace(cfg: RunConfig) -> str:
    """CSV columns t, C_closed_form, C_matrix_path — the scalar closed
    form and the independent propagator-conjugation route, side by side."""
    assert cfg.state is not None
    p = cfg.params
    ts = _grid(cfg)
    closed = coherence_series(cfg.state, p, ts)
    rhos = evolve_density_grid(cfg.state.density(), p, ts)
    matrix_path = 2.0 * np.abs(rhos[:, 0, 1])  # l1 coherence of a Hermitian 2x2
    rows = np.column_stack([ts, closed, matrix_path])
    meta = _base_meta(cfg) + _state_meta(cfg)
    return _tabular_text(cfg, meta, ("t", "C_closed_form", "C_matrix_path"), rows)


def cmd_period(cfg: RunConfig) -> str:
    """Theoretical oscillation period plus a trace-measured estimate."""
    assert cfg.state is not None
    p = cfg.params
    period = theoretical_period(p)
    estimate = None
    if period is not None:
        scan = find_extrema(cfg.state, p, (0.0, 2.0 * period), samples=2048)
        estimate = scan.period_estimate
    payload = _base_payload(cfg)
    payload.update({"period_theoretical": period, "period_estimate": estimate})
    return _json_text(payload)


def cmd_asymptote(cfg: RunConfig) -> str:
    """Theoretical stable value plus a tail estimate from the trace."""
    assert cfg.state is not None
    p = cfg.params
    scan = find_extrema(cfg.state, p, (cfg.t_min, cfg.t_max), samples=2048)
    payload = _base_payload(cfg)
    payload.update({
        "asymptote_theoretical": asymptotic_value(p),
        "asymptote_estimate": scan.asymptote_estimate,
        "window": [float(cfg.t_min), float(cfg.t_max)],
    })
    return _json_text(payload)


def cmd_backflow(cfg: RunConfig) -> str:
    """Stationary-point count per period and trace classification."""
    assert cfg.state is not None
    report = classify_backflow(cfg.state, cfg.params)
    payload = _base_payload(cfg)
    payload.update({
        "zeros_per_period": int(report.zeros_per_period),
        "classification": report.classification.value,
    })
    return _json_text(payload)


def cmd_angles(cfg: RunConfig) -> str:
    """Inverse design: waveplate/loss angles realizing U(t), verified."""
    p = cfg.params
    seq = solve_angles(p, cfg.t, seed=cfg.seed, restarts=cfg.restarts)
    deviation = verify_state_action(seq, p, n_states=10, seed=cfg.seed + 1)
    payload = _base_payload(cfg)
    payload.update(sequence_to_dict(seq, p))
    payload.update({
        "seed": cfg.seed,
        "restarts": cfg.restarts,
        "state_action": {"n_states": 10, "max_deviation": deviation},
    })
    return _json_text(payload)


def cmd_tomography(cfg: RunConfig) -> str:
    """Evolve, sample counts, reconstruct, and bootstrap the coherence."""
    assert cfg.state is not None
    p = cfg.params
    rho_true = evolve_density(cfg.state.density(), p, cfg.t)
    record = simulate_counts(rho_true, cfg.exposure, seed=cfg.seed)
    rho_hat = reconstruct(record)
    boot_mean, boot_sd = bootstrap_errorbar(record, resamples=cfg.resamples, seed=cfg.seed)

    def rho_entries(m: np.ndarray) -> list:
        return [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(2)]
                for i in range(2)]

    payload = _base_payload(cfg)
    payload.update({
        "t": float(cfg.t),
        "seed": cfg.seed,
        "exposure": float(cfg.exposure),
        "resamples": cfg.resamples,
        "counts": {
            "H": float(record.count_h),
            "V": float(record.count_v),
            "R": float(record.count_r),
            "D": float(record.count_d),
        },
        "rho_true": rho_entries(rho_true.rho),
        "rho_reconstructed": rho_entries(rho_hat.rho),
        "coherence_true": l1_coherence(rho_true),
        "coherence_reconstructed": l1_coherence(rho_hat),
        "coherence_bootstrap": {"mean": boot_mean, "sd": boot_sd},
        "trace_distance": trace_distance(rho_true, rho_hat),
    })
    return _json_text(payload)


def cmd_bloch(cfg: RunConfig) -> str:
    """CSV Bloch trajectory of the evolved (renormalized) state."""
    assert cfg.state is not None
    rows = trajectory_array(cfg.state, cfg.params, _grid(cfg))
    meta = _base_meta(cfg) + _state_meta(cfg)
    return _tabular_text(cfg, meta, ("t", "x", "y", "z"), rows)


def cmd_two_qubit(cfg: RunConfig) -> str:
    """CSV two-qubit coherence traces of the three reference states."""
    p = cfg.params
    ts = _grid(cfg)
    curves = [
        two_qubit_series(state, p, ts)
        for state in (TwoQubitState.psi_1(), TwoQubitState.psi_2(), TwoQubitState.psi_3())
    ]
    rows = np.column_stack([ts] + curves)
    return _tabular_text(cfg, _base_meta(cfg), ("t", "C_psi1", "C_psi2", "C_psi3"), rows)


_COMMANDS = {
    "trace": cmd_trace,
    "period": cmd_period,
    "asymptote": cmd_asymptote,
    "backflow": cmd_backflow,
    "angles": cmd_angles,
    "tomography": cmd_tomography,
    "bloch": cmd_bloch,
    "two-qubit": cmd_two_qubit,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        text = _COMMANDS[cfg.subcommand](cfg)
        _emit(cfg, text)
    except NoDecompositionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_SOLVER
    except _IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_VALIDATION
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
