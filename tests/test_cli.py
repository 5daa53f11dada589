"""CLI surface: formats, precedence, exit codes, determinism."""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracle import reference_rows
from conftest import run_fresh

import ptcoherence as pc
from ptcoherence import bloch, cli
from ptcoherence.cli import (_csv_rows, _csv_text, _fmt, _json_grid_text, _json_rows, _json_text,
                             main)
from ptcoherence.tomography import _ml_bloch


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text: str) -> tuple[dict, list[str], np.ndarray]:
    meta: dict = {}
    header: list[str] = []
    rows: list[list[float]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(":")
            meta[key.strip()] = value.strip()
        elif not header:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows)


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_csv_matches_library(capsys):
    code, out = run(
        capsys, "trace", "--kind", "pt", "--a", "0.31", "--state", "D",
        "--t-max", "5", "--points", "11",
    )
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert meta["schema"] == "1"
    assert meta["kind"] == "pt" and meta["a"] == "0.31" and meta["state"] == "D"
    assert header == ["t", "C_closed_form", "C_matrix_path"]
    assert rows.shape == (11, 3)
    p = pc.HamiltonianParams(kind=pc.SymmetryClass.PT, s=1.0, a=0.31)
    expected = pc.coherence_series(pc.PureState.preset("D"), p, rows[:, 0])
    assert np.allclose(rows[:, 1], expected, atol=1e-10)
    # the two routes agree in the emitted file itself
    assert np.allclose(rows[:, 1], rows[:, 2], atol=1e-9)


def test_trace_json_format(capsys):
    code, out = run(
        capsys, "trace", "--kind", "apt", "--a", "1.5", "--t-max", "2",
        "--points", "4", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["columns"] == ["t", "C_closed_form", "C_matrix_path"]
    assert len(payload["rows"]) == 4


def test_trace_has_no_timestamps(capsys):
    _, out = run(capsys, "trace", "--kind", "pt", "--a", "0.5", "--points", "3")
    lowered = out.lower()
    for token in ("date", "time:", "generated", "20:"):
        assert token not in lowered


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_period_report(capsys):
    code, out = run(capsys, "period", "--kind", "apt", "--a", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["regime"] == "unbroken"
    assert payload["period_theoretical"] == pytest.approx(2.80992589242, abs=5e-3)
    assert payload["period_estimate"] == pytest.approx(2.81, abs=5e-3)


def test_period_report_broken_regime_is_null(capsys):
    code, out = run(capsys, "period", "--kind", "pt", "--a", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["period_theoretical"] is None
    assert payload["period_estimate"] is None


def test_asymptote_report(capsys):
    code, out = run(capsys, "asymptote", "--kind", "pt", "--a", "2.8", "--t-max", "15")
    assert code == 0
    payload = json.loads(out)
    assert payload["asymptote_theoretical"] == pytest.approx(1 / 2.8, abs=1e-9)
    assert payload["asymptote_estimate"] == pytest.approx(1 / 2.8, abs=1e-3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    # 8e-7 short of 2048 T, and 2048 T, where every sample of a uniform
    # 2048-point grid falls on one phase
    ("--kind", "pt", "--a", "0.47", "--state", "h-sqrt3v", "--t-max", "7289.25633195570"),
    ("--kind", "pt", "--a", "0.47", "--state", "h-sqrt3v", "--t-max", "7289.256332755697"),
    ("--kind", "apt", "--a", "1.5", "--t-max", "5754.728227668563"),
    ("--kind", "pt", "--a", "0.47", "--t-max", "1e5"),
    # 1e15 periods hold more extrema than a scan may report
    ("--kind", "pt", "--a", "0.47", "--t-max", "1e15"),
    # C spans 5e-7 here: a tail slope below 1e-6 does not make it converge
    ("--kind", "pt", "--a", "1e-3", "--state", "D", "--t-max", "10"),
    ("--kind", "pt", "--a", "1e-3", "--state", "D", "--t-max", "100"),
], ids=["pt-short-of-2048T", "pt-2048T", "apt-2048T", "pt-1e5", "pt-1e15", "pt-slow-D-10",
        "pt-slow-D-100"])
def test_asymptote_of_an_oscillating_trace_is_null(capsys, argv):
    code, out = run(capsys, "asymptote", *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["asymptote_estimate"] is None
    assert payload["window"] == [0.0, pytest.approx(float(argv[-1]), rel=1e-11)]


@pytest.mark.parametrize("kind, a, state, oscillates", [
    ("pt", 1e-5, "D", True),  # C spans 5e-11, but it is periodic: no asymptote
    ("pt", 0.47, "h-sqrt3v", True),
    ("apt", 1.5, "h-sqrt3v", True),
])
@pytest.mark.parametrize("s, t_min", [(1.0, 0.0), (2.5, 5.0), (0.3, 7.0)])
@pytest.mark.parametrize("periods", [3.9, 4.0, 4.1, 150.0, 1e4])
def test_asymptote_is_find_extrema_over_the_window(capsys, kind, a, state, oscillates,
                                                   s, t_min, periods):
    # asymptote prints find_extrema's estimate over the window it names,
    # at any start and scale: cutting a long window does not move it
    p = pc.HamiltonianParams(kind=pc.SymmetryClass(kind), s=s, a=a)
    t_max = t_min + periods * pc.theoretical_period(p)
    code, out = run(capsys, "asymptote", "--kind", kind, "--a", repr(a), "--s", repr(s),
                    "--state", state, "--t-min", repr(t_min), "--t-max", repr(t_max))
    assert code == 0
    estimate = pc.find_extrema(pc.PureState.preset(state), p, (t_min, t_max)).asymptote_estimate
    assert (estimate is None) == oscillates
    assert json.loads(out)["asymptote_estimate"] == (None if oscillates else float(_fmt(estimate)))


def test_backflow_report(capsys):
    code, out = run(capsys, "backflow", "--kind", "pt", "--a", "0.47",
                    "--state", "h-sqrt3v")
    assert code == 0
    payload = json.loads(out)
    assert payload["zeros_per_period"] == 4
    assert payload["classification"] == "DoubleTouch"


@pytest.mark.parametrize("a, state", [("1e9", "h-sqrt3v"), ("1e10", "H")])
def test_backflow_report_at_large_detuning(capsys, a, state):
    # a period of pi / a in theta still holds one backflow: the scan's
    # width is a share of the phase, not of theta
    code, out = run(capsys, "backflow", "--kind", "apt", "--a", a, "--state", state)
    assert code == 0
    payload = json.loads(out)
    assert (payload["zeros_per_period"], payload["classification"]) == (2, "SingleBackflow")


def test_period_report_at_large_detuning(capsys):
    code, out = run(capsys, "period", "--kind", "apt", "--a", "1e9", "--state", "h-sqrt3v")
    assert code == 0
    payload = json.loads(out)
    assert payload["period_estimate"] == pytest.approx(payload["period_theoretical"], rel=1e-6)


@pytest.mark.parametrize("kind, a, expected", [
    ("apt", "1.01", (2, "SingleBackflow")),  # a flat maximum C = 0.9999877
    ("pt", "0.9999", (4, "DoubleTouch")),
    # within 1e-9 of a = 1, still on the unbroken side
    ("pt", "0.9999999995", (4, "DoubleTouch")),
    ("apt", "1.0000000005", (2, "SingleBackflow")),
])
def test_backflow_report_near_exceptional_point(capsys, kind, a, expected):
    code, out = run(capsys, "backflow", "--kind", kind, "--a", a, "--state", "h-sqrt3v")
    assert code == 0
    payload = json.loads(out)
    assert (payload["zeros_per_period"], payload["classification"]) == expected


@pytest.mark.parametrize("kind, a, state, expected", [
    *(("pt", a, state, (4, "DoubleTouch"))
      for a in ("1e-3", "1e-4", "1e-5", "1e-6") for state in ("H", "D", "h-sqrt3v")),
    ("apt", "1.5", "D", (0, "Constant")),  # C == 1 up to rounding
    # C rises from 0 to 1/a: tiny, but far above its own rounding
    ("pt", "1e14", "H", (1, "Monotonic")),
    ("pt", "1e100", "H", (1, "Monotonic")),
])
def test_backflow_report_is_constant_only_at_rounding_level(capsys, kind, a, state, expected):
    # D's PT trace spans 5e-11 at a = 1e-5 and 5e-13 at 1e-6: small, but
    # far above C's rounding, so it is not constant
    code, out = run(capsys, "backflow", "--kind", kind, "--a", a, "--state", state)
    assert code == 0
    payload = json.loads(out)
    assert (payload["zeros_per_period"], payload["classification"]) == expected


@pytest.mark.parametrize("a, state", [("3e-5", "H"), ("1e-4", "h-sqrt3v"), ("1e-3", "D"),
                                      ("1e-5", "D"), ("1e-6", "D")])
def test_period_report_near_hermitian_limit_is_not_half(capsys, a, state):
    # C(theta + T/2) -> C(theta) as a -> 0, and D's minima alternate their
    # spacings by about a^2 T, under the root error at a = 1e-5: the
    # estimate pairs each extremum with its copy a whole period on
    code, out = run(capsys, "period", "--kind", "pt", "--a", a, "--state", state)
    assert code == 0
    payload = json.loads(out)
    assert payload["period_estimate"] == pytest.approx(payload["period_theoretical"], rel=1e-9)


@pytest.mark.parametrize("kind, a", [("pt", "0.9999999995"), ("apt", "1.0000000005")])
def test_period_report_near_exceptional_point(capsys, kind, a):
    code, out = run(capsys, "period", "--kind", kind, "--a", a, "--state", "h-sqrt3v")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "unbroken"
    assert np.isfinite(payload["period_theoretical"])
    assert payload["period_estimate"] == pytest.approx(payload["period_theoretical"], rel=1e-6)


def test_asymptote_report_near_exceptional_point(capsys):
    code, out = run(capsys, "asymptote", "--kind", "pt", "--a", "1.0000000005",
                    "--state", "h-sqrt3v")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "broken"
    assert payload["asymptote_theoretical"] == 1 / 1.0000000005


@pytest.mark.parametrize("argv, expected", [
    (("period", "--kind", "apt", "--a", "1.5", "--state", "h-sqrt3v", "--s", "0.01"), None),
    (("backflow", "--kind", "pt", "--a", "0.47", "--state", "h-sqrt3v", "--s", "1e6"),
     (4, "DoubleTouch")),
    # the scan still ends within the double range
    (("period", "--kind", "pt", "--a", "0.47", "--s", "1e-300"), None),
    (("backflow", "--kind", "pt", "--a", "2", "--s", "1e-300"), (1, "Monotonic")),
], ids=["period-small-s", "backflow-large-s", "period-tiny-s", "backflow-broken-tiny-s"])
def test_scan_reports_hold_away_from_unit_scale(capsys, argv, expected):
    code, out = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    if argv[0] == "period":
        assert payload["period_estimate"] == pytest.approx(
            payload["period_theoretical"], rel=1e-6)
    else:
        assert (payload["zeros_per_period"], payload["classification"]) == expected


def test_angles_report(capsys):
    code, out = run(capsys, "angles", "--kind", "pt", "--a", "0.47", "--t", "1.2")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= 1e-6
    assert [e["type"] for e in payload["elements"]] == ["HWP", "QWP", "Loss", "HWP", "QWP"]
    assert payload["state_action"]["max_deviation"] <= 1e-6


def test_angles_print_the_same_setting_at_every_seed(capsys):
    # the seed draws only the state-action panel: the printed setting and
    # its residual are a function of the target, at each perfbench point
    changed = []
    for kind, a in (("pt", "0.47"), ("pt", "2.8"), ("apt", "1.5"), ("apt", "0.47")):
        printed = []
        for seed in ("0", "7", "424242"):
            code, out = run(capsys, "angles", "--kind", kind, "--a", a, "--seed", seed)
            assert code == 0
            payload = json.loads(out)
            printed.append((payload["elements"], payload["residual"]))
        if any(other != printed[0] for other in printed[1:]):
            changed.append((kind, a, printed))
    assert not changed


def test_tomography_report(capsys):
    code, out = run(capsys, "tomography", "--kind", "apt", "--a", "1.5",
                    "--state", "D", "--t", "0.8", "--exposure", "2000",
                    "--resamples", "20")
    assert code == 0
    payload = json.loads(out)
    assert payload["exposure"] == 2000.0
    assert set(payload["counts"]) == {"H", "V", "R", "D"}
    assert all(v <= 2000.0 for v in payload["counts"].values())
    rho = np.array(
        [[complex(re, im) for re, im in row] for row in payload["rho_reconstructed"]]
    )
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert payload["coherence_bootstrap"]["sd"] >= 0.0
    assert payload["trace_distance"] < 0.05


def test_tomography_coherences_keep_their_digits(capsys):
    # at a = 1e8 the true coherence is 1e-8, far below the diagonal's 1
    code, out = run(capsys, "tomography", "--kind", "pt", "--a", "1e8", "--state", "D",
                    "--t", "10")
    assert code == 0
    payload = json.loads(out)
    re01, im01 = payload["rho_true"][0][1]
    assert payload["coherence_true"] == pytest.approx(2.0 * math.hypot(re01, im01), rel=1e-11)
    assert payload["coherence_true"] == 1e-08
    # the reconstruction's C is hypot(x, y) of its Bloch vector, as in the bootstrap
    p = pc.HamiltonianParams(kind=pc.SymmetryClass.PT, s=1.0, a=1e8)
    rho_true = pc.evolve_density(pc.PureState.preset("D").density(), p, 10.0)
    record = pc.simulate_counts(rho_true, 30000.0, seed=0)
    x, y, _ = _ml_bloch(record.as_array()[None, :], record.exposure)[0]
    assert payload["coherence_reconstructed"] == float(_fmt(math.hypot(x, y)))


def test_bloch_csv(capsys):
    code, out = run(capsys, "bloch", "--kind", "apt", "--a", "0.47", "--state", "D",
                    "--t-max", "3", "--points", "7")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["t", "x", "y", "z"]
    assert rows.shape == (7, 4)
    assert np.max(np.abs(rows[:, 3])) < 1e-9  # balanced state: z stays 0
    assert "-0," not in out and not out.rstrip().endswith("-0")


def test_two_qubit_csv(capsys):
    code, out = run(capsys, "two-qubit", "--kind", "apt", "--a", "0.8",
                    "--t-max", "12", "--points", "5")
    assert code == 0
    _, header, rows = parse_csv(out)
    assert header == ["t", "C_psi1", "C_psi2", "C_psi3"]
    assert rows[0, 1:] == pytest.approx([2.0, 1.0, 3.0], abs=1e-9)
    assert rows[-1, 1:] == pytest.approx([3.0, 3.0, 3.0], abs=1e-3)


# ---------------------------------------------------------------------------
# config file and precedence
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = pt\na = 0.31\nstate = D  # preset\npoints = 3\nt_max = 2\n")
    code, out = run(capsys, "trace", "--config", str(cfg))
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["a"] == "0.31" and meta["state"] == "D"
    assert rows.shape[0] == 3


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = pt\na = 0.31\npoints = 3\n")
    code, out = run(capsys, "trace", "--config", str(cfg), "--a", "0.47")
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["a"] == "0.47"


def test_flag_amplitudes_override_config_preset(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = pt\na = 0.31\nstate = D\npoints = 3\n")
    code, out = run(capsys, "trace", "--config", str(cfg),
                    "--alpha", "0.6", "--beta", "0.8")
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["state"] == "custom"
    assert meta["alpha"] == "0.6"


def test_most_explicit_state_source_decides(tmp_path, capsys):
    """Every pair of subsets of {state, alpha, beta, phi}, one in a config
    file and one in flags: the flags decide if they set any state key, else
    the file, else the state is H.  In that source a preset with any
    amplitude exits 2, a preset alone wins, and amplitudes are read from the
    merged values, flags over file."""
    from_file = {"state": "D", "alpha": "0.6", "beta": "0.8", "phi": "0.5"}
    from_flags = {"state": "h-sqrt3v", "alpha": "0.8", "beta": "0.3", "phi": "1.5"}
    subsets = [keys for n in range(5) for keys in itertools.combinations(cli._STATE, n)]
    cfg = tmp_path / "run.cfg"
    for file_keys, flag_keys in itertools.product(subsets, subsets):
        cfg.write_text("".join(f"{k} = {from_file[k]}\n" for k in file_keys))
        argv = ["bloch", "--config", str(cfg), "--kind", "pt", "--a", "0.5", "--points", "2"]
        argv += [arg for k in flag_keys for arg in ("--" + k, from_flags[k])]
        code = main(argv)
        captured = capsys.readouterr()
        case = f"file {file_keys}, flags {flag_keys}"
        source = flag_keys or file_keys
        merged = {**{k: from_file[k] for k in file_keys}, **{k: from_flags[k] for k in flag_keys}}
        if "state" in source and len(source) > 1:
            error = "give either a preset --state or explicit --alpha/--beta/--phi, not both"
        elif source and "state" not in source and not {"alpha", "beta"} <= merged.keys():
            error = "explicit initial states need both alpha and beta"
        else:
            error = None
        if error is not None:
            assert (code, captured.out, captured.err) == (2, "", f"error: {error}\n"), case
            continue
        if "state" in source:
            label, state = merged["state"], pc.PureState.preset(merged["state"])
        elif source:
            label, state = "custom", pc.PureState.from_amplitudes(
                float(merged["alpha"]), float(merged["beta"]), float(merged.get("phi", 0.0)))
        else:
            label, state = "H", pc.PureState.preset("H")
        assert (code, captured.err) == (0, ""), case
        meta, _, _ = parse_csv(captured.out)
        assert [meta[k] for k in cli._STATE] == [
            label, _fmt(state.alpha), _fmt(state.beta), _fmt(state.phi)], case


def test_unknown_config_key_is_validation_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = pt\na = 0.31\nbogus = 1\n")
    code, _ = run(capsys, "trace", "--config", str(cfg))
    assert code == 2


@pytest.mark.parametrize("command, text, message", [
    ("trace", "kind = pt\na = 0.5\npoints\n", "run.cfg:3: expected key=value, got 'points'"),
    ("trace", "kind = pt\na = 0.5\npoints = many\n", "run.cfg:3: bad value for points: 'many'"),
    ("period", "kind = xx\na = 0.5\n", "kind must be 'pt' or 'apt', got 'xx'"),
    ("period", "kind = PT\na = 0.5\n", "kind must be 'pt' or 'apt', got 'PT'"),
    ("trace", "kind = pt\na = 0.5\nformat = xml\n", "format must be 'csv' or 'json', got 'xml'"),
    ("angles", "kind = pt\na = 0.5\nrestarts = 32\n", "run.cfg:3: unknown config key 'restarts'"),
], ids=["no-equals", "bad-points", "unknown-kind", "upper-case-kind", "bad-format",
        "removed-restarts"])
def test_config_error_exits_2_naming_the_field(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_config_comments_and_blank_lines_are_skipped(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a run of the APT family\n\nkind = apt  # generator family\na = 1.5\n")
    code, out = run(capsys, "period", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["period_theoretical"] == 2.80992589242


def test_config_file_with_byte_order_mark_runs(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\ufeffkind = apt\na = 1.5\n", encoding="utf-8")
    assert run(capsys, "period", "--config", str(cfg)) == run(
        capsys, "period", "--kind", "apt", "--a", "1.5")


def test_hash_inside_a_config_value_is_kept(tmp_path, capsys):
    # '#' opens a comment only at the start of a line or after whitespace
    out = tmp_path / "out#1.json"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"kind = apt\na = 1.5\noutput = {out}  # a comment\n")
    assert run(capsys, "period", "--config", str(cfg)) == (0, "")
    assert out.read_text() == run(capsys, "period", "--kind", "apt", "--a", "1.5")[1]


def test_missing_config_file_is_io_error(capsys):
    code, _ = run(capsys, "trace", "--kind", "pt", "--a", "0.31",
                  "--config", "/nonexistent/path.cfg")
    assert code == 4


# ---------------------------------------------------------------------------
# flag surface
# ---------------------------------------------------------------------------

#: The long flags each subcommand accepts, in --help order.
SUBCOMMAND_FLAGS = {
    "trace": ["--config", "--kind", "--s", "--a", "--output", "--state", "--alpha", "--beta",
              "--phi", "--t-min", "--t-max", "--points", "--format"],
    "period": ["--config", "--kind", "--s", "--a", "--output", "--state", "--alpha", "--beta",
               "--phi"],
    "asymptote": ["--config", "--kind", "--s", "--a", "--output", "--state", "--alpha",
                  "--beta", "--phi", "--t-min", "--t-max"],
    "backflow": ["--config", "--kind", "--s", "--a", "--output", "--state", "--alpha",
                 "--beta", "--phi"],
    "angles": ["--config", "--kind", "--s", "--a", "--output", "--t", "--seed"],
    "tomography": ["--config", "--kind", "--s", "--a", "--output", "--state", "--alpha",
                   "--beta", "--phi", "--t", "--exposure", "--resamples", "--seed"],
    "bloch": ["--config", "--kind", "--s", "--a", "--output", "--state", "--alpha", "--beta",
              "--phi", "--t-min", "--t-max", "--points", "--format"],
    "two-qubit": ["--config", "--kind", "--s", "--a", "--output", "--t-min", "--t-max",
                  "--points", "--format"],
}


def test_flag_surface(tmp_path, capsys):
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: [opt for action in sp._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"]
        for name, sp in subparsers.choices.items()
    }
    assert accepted == SUBCOMMAND_FLAGS
    # a config file holds the same keys as the long flags
    keys = {flag[2:].replace("-", "_") for flags in SUBCOMMAND_FLAGS.values()
            for flag in flags} - {"config"}
    assert keys == cli._FIELDS.keys()
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = 1\n" for key in sorted(keys)))
    assert cli._read_config_file(str(cfg)).keys() == keys
    # every help text builds: the program's and each subcommand's
    for argv in (["--help"], *([name, "--help"] for name in SUBCOMMAND_FLAGS)):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0, argv
        assert capsys.readouterr().out.startswith("usage: ptcoherence"), argv


#: A cheap base run of every subcommand: the sizes it takes, kept small.
_CHEAP = {"points": "3", "resamples": "4", "exposure": "300"}
#: A valid value of every field other than its base value; an amplitude
#: comes with the others it needs (_WITH), so the state stays valid.
_OTHER = {"kind": "apt", "s": "2", "a": "0.5", "state": "D", "alpha": "0.6", "beta": "0.5",
          "phi": "1", "t_min": "1", "t_max": "5", "t": "0.5", "points": "4",
          "format": "json", "exposure": "400", "resamples": "5", "seed": "1"}
_WITH = {"alpha": ["--beta", "0.8"], "beta": ["--alpha", "1"],
         "phi": ["--alpha", "0.6", "--beta", "0.8"]}


def _fields(name: str) -> list[str]:
    """The config keys of the flags that SUBCOMMAND_FLAGS pins for ``name``."""
    return [flag[2:].replace("-", "_") for flag in SUBCOMMAND_FLAGS[name] if flag != "--config"]


def _base_argv(name: str) -> list[str]:
    fields = cli._SUBCOMMANDS[name][1]
    return [name, "--kind", "pt", "--a", "0.47",
            *(arg for key in fields if key in _CHEAP for arg in ("--" + key, _CHEAP[key]))]


def _flag(key: str, value: str) -> list[str]:
    return ["--" + key.replace("_", "-"), value]


@pytest.mark.parametrize("name", list(SUBCOMMAND_FLAGS))
def test_every_flag_changes_the_output(tmp_path, capsys, name):
    # a flag that changes nothing is surface without function: each field a
    # subcommand takes, set to another valid value, gives other output
    base = _base_argv(name)
    code, base_out = run(capsys, *base)
    assert code == 0, base
    outs = {"base": base_out}
    for key in cli._SUBCOMMANDS[name][1]:
        if key == "output":
            path = tmp_path / "out"
            assert run(capsys, *base, "--output", str(path)) == (0, "")
            assert path.read_bytes() == base_out.encode()
            continue
        argv = [*base, *_WITH.get(key, []), *_flag(key, _OTHER[key])]
        code, outs[key] = run(capsys, *argv)
        assert code == 0, argv
    repeated = [key for key, out in outs.items() if list(outs.values()).count(out) > 1]
    assert not repeated, f"{name}: these runs print the same output: {repeated}"


@pytest.mark.parametrize("name", list(SUBCOMMAND_FLAGS))
def test_keys_a_subcommand_does_not_take_are_refused(tmp_path, capsys, name):
    # a key outside the subcommand's fields is refused as a flag (argparse
    # exits 2 before the run, printing nothing on stdout) and ignored in a
    # config file: e.g. period --format csv, trace --seed 1, asymptote --points
    base = _base_argv(name)
    _, base_out = run(capsys, *base)
    cfg = tmp_path / "run.cfg"
    for key in sorted(cli._FIELDS.keys() - set(_fields(name))):
        with pytest.raises(SystemExit) as exc:
            main([*base, *_flag(key, _OTHER[key])])
        assert exc.value.code == 2, key
        assert capsys.readouterr().out == "", key
        cfg.write_text(f"{key} = {_OTHER[key]}\n")
        assert run(capsys, *base, "--config", str(cfg)) == (0, base_out), key


# ---------------------------------------------------------------------------
# exit codes and validation
# ---------------------------------------------------------------------------

def test_invalid_a_exits_2(capsys):
    assert run(capsys, "trace", "--kind", "pt", "--a", "0")[0] == 2
    assert run(capsys, "trace", "--kind", "pt", "--a", "-1")[0] == 2


def test_missing_required_fields_exit_2(capsys):
    assert run(capsys, "trace", "--a", "0.5")[0] == 2  # no kind
    assert run(capsys, "trace", "--kind", "pt")[0] == 2  # no a


def test_preset_and_amplitudes_together_exit_2(capsys):
    code, _ = run(capsys, "trace", "--kind", "pt", "--a", "0.5",
                  "--state", "D", "--alpha", "0.6", "--beta", "0.8")
    assert code == 2


def _main_from(source: str, tmp_path, argv) -> int:
    """``main`` on ``argv``, a subcommand and its flag-value pairs, with the
    pairs given as flags or, for ``source == "config"``, as config lines."""
    if source == "flag":
        return main(list(argv))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in zip(argv[1::2], argv[2::2])))
    return main([argv[0], "--config", str(cfg)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv, message", [
    (("trace", "--kind", "pt", "--a", "0.5", "--t-min", "nan"), "t-min must be finite, got nan"),
    (("trace", "--kind", "pt", "--a", "0.5", "--t-max", "inf"), "t-max must be finite, got inf"),
    (("angles", "--kind", "pt", "--a", "0.5", "--t", "inf"), "t must be finite, got inf"),
    (("trace", "--kind", "pt", "--a", "0.5", "--s", "inf"),
     "energy scale s must be positive and finite, got inf"),
    (("trace", "--kind", "pt", "--a", "nan"),
     "non-Hermiticity degree a must be positive and finite, got nan"),
    (("tomography", "--kind", "pt", "--a", "0.5", "--exposure", "nan"),
     "exposure must be finite, got nan"),
    (("tomography", "--kind", "pt", "--a", "0.5", "--exposure", "inf"),
     "exposure must be finite, got inf"),
    (("backflow", "--kind", "pt", "--a", "0.47", "--alpha", "inf", "--beta", "1"),
     "alpha must be finite, got inf"),
    (("backflow", "--kind", "pt", "--a", "0.47", "--alpha", "1", "--beta", "nan"),
     "beta must be finite, got nan"),
    (("backflow", "--kind", "pt", "--a", "0.47", "--alpha", "1", "--beta", "1", "--phi", "nan"),
     "phi must be finite, got nan"),
], ids=["t_min", "t_max", "t", "s", "a", "exposure_nan", "exposure_inf", "alpha", "beta", "phi"])
def test_non_finite_input_exits_2(tmp_path, capsys, source, argv, message):
    code = _main_from(source, tmp_path, argv)
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("argv, message", [
    (("trace", "--kind", "pt", "--a", "0.5", "--t-min", "2", "--t-max", "1"),
     "t-max must exceed t-min, got (2.0, 1.0)"),
    (("trace", "--kind", "pt", "--a", "0.5", "--t-min", "-1"), "t-min must be >= 0, got -1.0"),
    (("angles", "--kind", "pt", "--a", "0.5", "--t", "-1"), "t must be >= 0, got -1.0"),
    (("tomography", "--kind", "pt", "--a", "0.5", "--exposure", "-5"),
     "exposure must be > 0, got -5.0"),
    (("tomography", "--kind", "pt", "--a", "0.5", "--exposure", "0"),
     "exposure must be > 0, got 0.0"),
    (("trace", "--kind", "pt", "--a", "0.5", "--points", "1"), "points must be >= 2, got 1"),
    (("tomography", "--kind", "pt", "--a", "0.5", "--resamples", "1"),
     "resamples must be >= 2, got 1"),
    (("angles", "--kind", "pt", "--a", "0.5", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("period", "--kind", "pt", "--a", "0.5", "--alpha", "1"),
     "explicit initial states need both alpha and beta"),
    (("backflow", "--kind", "pt", "--a", "0.47", "--alpha", "-1", "--beta", "1"),
     "alpha must be nonnegative, got -1.0"),
], ids=["window-reversed", "t_min-negative", "t-negative", "exposure-negative",
        "exposure-zero", "points-one", "resamples-one", "seed-negative", "alpha-without-beta",
        "alpha-negative"])
def test_out_of_range_input_exits_2_naming_the_field(tmp_path, capsys, source, argv, message):
    code = _main_from(source, tmp_path, argv)
    assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["pt", "apt"])
def test_a_with_overflowing_square_exits_2(capsys, kind):
    code = main(["bloch", "--kind", kind, "--a", "1e300"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "1.34078e+154" in captured.err


def test_tiny_amplitudes_match_unit_amplitudes(capsys):
    base = ("period", "--kind", "pt", "--a", "0.47")
    code, unit = run(capsys, *base, "--alpha", "1", "--beta", "1")
    assert code == 0
    assert run(capsys, *base, "--alpha", "1e-200", "--beta", "1e-200") == (0, unit)


@pytest.mark.filterwarnings("error")
def test_exposure_beyond_poisson_sampler_exits_2(capsys):
    code = main(["tomography", "--kind", "pt", "--a", "0.5", "--exposure", "1e30"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: cannot sample Poisson counts at exposure 1e+30\n"


@pytest.mark.parametrize("command", ["angles", "tomography"])
def test_negative_seed_exits_2(capsys, command):
    code = main([command, "--kind", "pt", "--a", "0.47", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "seed" in captured.err


@pytest.mark.parametrize("argv", [
    ("--kind", "pt", "--a", "0.47", "--s", "1e-200"),
    ("--kind", "apt", "--a", "0.47", "--s", "1e-200"),
    ("--kind", "pt", "--a", "0.47", "--s", "1e-160"),
    ("--kind", "pt", "--a", "0.47", "--alpha", "1", "--beta", "1e-170"),
], ids=["pt-s-1e-200", "apt-s-1e-200", "pt-s-1e-160", "beta-1e-170"])
def test_tiny_coherence_closed_form_matches_matrix_path(capsys, argv):
    # a coherence far below 1e-154 squares into the subnormal range or to 0
    code, out = run(capsys, "trace", *argv, "--points", "3")
    assert code == 0
    rows = parse_csv(out)[2]
    assert rows.shape == (3, 3) and np.any(rows[:, 2] > 0.0)
    assert rows[:, 1] == pytest.approx(rows[:, 2], rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, field, phase", [
    (("trace", "--kind", "pt", "--a", "0.47", "--t-min", "1e300", "--t-max", "2e300"), "t-max",
     "1.76533e+300"),
    (("bloch", "--kind", "apt", "--a", "1.5", "--s", "1e10", "--t-max", "1e6"), "t-max",
     "1.11803e+16"),
    (("tomography", "--kind", "apt", "--a", "1.5", "--t", "1e16"), "t", "1.11803e+16"),
    # w = sqrt(1 - a^2) = 3.16228e-5
    (("trace", "--kind", "pt", "--a", "0.9999999995", "--t-max", "1e21"), "t-max",
     "3.16228e+16"),
], ids=["pt-unbroken", "apt-unbroken-large-s", "single-time",
        "pt-unbroken-near-exceptional-point"])
def test_unresolved_phase_exits_2(capsys, argv, field, phase):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} = ")
    assert f"phase w*s*|t| = {phase} above 2**52" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["pt", "apt"])
@pytest.mark.parametrize("t_max", ["1e16", "1e300"])
def test_exceptional_point_saturates_at_every_finite_time(capsys, kind, t_max):
    # U = I + theta M carries every state onto the one eigenvector: C -> 1,
    # as on the broken side, so no phase is too large to resolve
    code, out = run(capsys, "trace", "--kind", kind, "--a", "1", "--state", "D",
                    "--t-max", t_max, "--points", "3")
    assert code == 0
    rows = parse_csv(out)[2]
    assert np.array_equal(rows[:, 1], rows[:, 2])
    assert rows[1:, 1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_resolved_phase_near_exceptional_point(capsys):
    # t-max = 1e16 is a phase of w t = 3.2e11 at a = 0.9999999995
    code, out = run(capsys, "trace", "--kind", "pt", "--a", "0.9999999995",
                    "--t-max", "1e16", "--points", "3")
    assert code == 0
    rows = parse_csv(out)[2]
    assert rows.shape == (3, 3)
    assert np.array_equal(rows[:, 1], rows[:, 2])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, message", [
    (("trace", "--kind", "pt", "--a", "1e154", "--s", "1e300"), "a*s must be at most"),
    (("trace", "--kind", "apt", "--a", "1e154", "--s", "1e300"), "a*s must be at most"),
    (("period", "--kind", "apt", "--a", "1e154", "--s", "1e300"), "a*s must be at most"),
    (("asymptote", "--kind", "pt", "--a", "2", "--s", "1e308", "--t-max", "1e10"),
     "a*s must be at most"),
    (("trace", "--kind", "pt", "--a", "2", "--s", "1e150", "--t-max", "1e300", "--points", "3"),
     "t-max = 1e+300 gives s*|t| = inf"),
    (("tomography", "--kind", "pt", "--a", "2", "--s", "1e150", "--t", "1e300"),
     "t = 1e+300 gives s*|t| = inf"),
    (("asymptote", "--kind", "pt", "--a", "2", "--s", "1e150", "--t-max", "1e300"),
     "t-max = 1e+300 gives s*|t| = inf"),
    (("trace", "--kind", "pt", "--a", "1e10", "--t-max", "1e300", "--points", "3"),
     "phase w*s*|t| = inf"),
], ids=["rate-pt", "rate-apt", "rate-period", "rate-asymptote", "theta-trace",
        "theta-tomography", "theta-asymptote", "broken-phase"])
def test_overflowing_rate_or_phase_exits_2(capsys, argv, message):
    # rejected before any arithmetic: no numpy RuntimeWarning first
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "1.79769e+308" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, bound", [
    (("period", "--kind", "pt", "--a", "0.47", "--s", "1e-320"), "3.95975e-308"),
    (("period", "--kind", "pt", "--a", "0.99999999", "--s", "1e-305"), "2.47144e-304"),
    (("backflow", "--kind", "apt", "--a", "1.00000001", "--s", "1e-305"), "1.23572e-304"),
    (("backflow", "--kind", "pt", "--a", "2", "--s", "1e-308"), "5.56268e-308"),
    # s*w underflows to zero: the period itself is inf
    (("period", "--kind", "pt", "--a", "0.99999", "--s", "1e-322"), "7.81539e-306"),
], ids=["period-pt", "period-near-ep", "backflow-apt", "backflow-broken", "period-zero-sw"])
def test_tiny_s_overflowing_the_scan_exits_2(capsys, argv, bound):
    # the scanned span theta/s is not a finite double: rejected naming s
    # and its bound, not a window the user never gave
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: s = {argv[-1]} must be at least {bound}")
    assert "window" not in captured.err


@pytest.mark.filterwarnings("error")
def test_broken_regime_saturates_at_huge_times(capsys):
    code, out = run(capsys, "trace", "--kind", "pt", "--a", "2.8", "--state", "D",
                    "--t-min", "1e300", "--t-max", "2e300", "--points", "3")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[:, 1:] == pytest.approx(1 / 2.8, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_asymptote_fit_holds_at_huge_times(capsys):
    code, out = run(capsys, "asymptote", "--kind", "pt", "--a", "2.8",
                    "--t-min", "1e300", "--t-max", "2e300")
    assert code == 0
    assert json.loads(out)["asymptote_estimate"] == pytest.approx(1 / 2.8, abs=1e-9)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["trace", "tomography"])
@pytest.mark.parametrize("a", ["1e150", "1.3e154"])
def test_underflowing_density_path_exits_2(capsys, command, a):
    # |V> under PT: the evolved density matrix's trace, about 1/(4 a^2), is
    # below the 1e-300 guard
    code = main([command, "--kind", "pt", "--a", a, "--alpha", "1e-300", "--beta", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: evolved density matrix trace is below 1e-300")
    assert captured.err.count("\n") == 1


def _domain_commands():
    """Every subcommand over both kinds, a around the EP and at its extremes,
    and (s, t) at a phase near the double max, at t = 1e16 and at a tiny
    s*t; plus |V> at PT's largest gains, where its C is about 1/a."""
    for kind, a, (s, t) in itertools.product(
            ("pt", "apt"), ("1e-8", "0.99999999", "1", "1.00000001", "2", "1e154"),
            (("1e8", "1e300"), ("1", "1e16"), ("1e-8", "1e-300"))):
        base = ("--kind", kind, "--a", a, "--s", s)
        for command in ("trace", "bloch", "two-qubit"):
            yield (command, *base, "--t-max", t, "--points", "3")
        yield ("asymptote", *base, "--t-max", t)
        yield ("period", *base)
        yield ("backflow", *base)
        yield ("angles", *base, "--t", t)
        yield ("tomography", *base, "--t", t, "--exposure", "1000", "--resamples", "2")
    for a in ("1e110", "1.3e154"):
        base = ("--kind", "pt", "--a", a, "--alpha", "0", "--beta", "1")
        yield from (("trace", *base, "--points", "3"), ("bloch", *base, "--points", "3"),
                    ("asymptote", *base), ("backflow", *base),
                    ("tomography", *base, "--exposure", "1000", "--resamples", "2"))


@pytest.mark.filterwarnings("error")
def test_accepted_domain_runs_without_warnings(capsys):
    # a RuntimeWarning raises here, and so does any uncaught error
    for argv in _domain_commands():
        assert main(list(argv)) in (0, 2, 3), argv
        capsys.readouterr()


#: Close to the EP, on its eigenvector (1, -i)/sqrt(2), over a window around
#: a half period where the propagator contracts that state the most.
_NEAR_EP = ("--kind", "pt", "--a", "0.99999999", "--alpha", "1", "--beta", "1",
            "--phi", "4.71238898038469")
_NEAR_EP_WINDOW = ("--t-min", "11106.207348319087", "--t-max", "11108.207348319087",
                   "--points", "5")


def _near_ep_reference() -> np.ndarray:
    """Rows (C, x, y, z) of the normalized evolved state over the window, from
    the high-precision reference at the CLI's doubles."""
    p = pc.HamiltonianParams(kind=pc.SymmetryClass.PT, a=0.99999999)
    psi = pc.PureState.from_amplitudes(1.0, 1.0, 4.71238898038469).vector()
    return reference_rows(p, psi, np.linspace(11106.207348319087, 11108.207348319087, 5))


@pytest.mark.filterwarnings("error")
def test_near_ep_backflow_is_double_touch(capsys):
    code, out = run(capsys, "backflow", *_NEAR_EP)
    assert code == 0
    assert json.loads(out)["classification"] == "DoubleTouch"


@pytest.mark.filterwarnings("error")
def test_near_ep_trace_matches_reference(capsys):
    # the matrix path must not report a valid state's evolution as invalid
    code, out = run(capsys, "trace", *_NEAR_EP, *_NEAR_EP_WINDOW)
    assert code == 0
    _, _, rows = parse_csv(out)  # closed form and matrix path against the reference C
    assert np.max(np.abs(rows[:, 1:] - _near_ep_reference()[:, :1])) <= 1e-9


@pytest.mark.filterwarnings("error")
def test_near_ep_bloch_matches_reference(capsys):
    code, out = run(capsys, "bloch", *_NEAR_EP, *_NEAR_EP_WINDOW)
    assert code == 0
    _, _, rows = parse_csv(out)
    assert np.max(np.abs(rows[:, 1:] - _near_ep_reference()[:, 1:])) <= 1e-9


@pytest.mark.filterwarnings("error")
def test_large_gain_plateaus_are_resolved(capsys):
    # PT broken at a = 1.3e154: the plateaus 1/a and (1 + 1/a)^2 - 1 lie far
    # below the rounding of unit-size terms, so C must not be formed from them
    a = "1.3e154"
    code, out = run(capsys, "trace", "--kind", "pt", "--a", a, "--state", "h-sqrt3v",
                    "--points", "3")
    assert code == 0
    _, _, rows = parse_csv(out)  # t = 5 and 10, both columns
    assert rows[1:, 1:] == pytest.approx(np.full((2, 2), 1.0 / float(a)), rel=1e-9, abs=0.0)
    code, out = run(capsys, "two-qubit", "--kind", "pt", "--a", a, "--points", "3")
    assert code == 0
    _, _, rows = parse_csv(out)
    assert rows[1:, 1:] == pytest.approx(np.full((2, 3), 2.0 / float(a)), rel=1e-9, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_underflowing_window_names_the_callers_window(capsys):
    # s * t-max underflows to 0: the error names the window the caller gave
    argv = ["--kind", "pt", "--a", "2", "--s", "1e-320", "--t-max", "1e-10"]
    assert main(["asymptote", *argv]) == 2
    err = capsys.readouterr().err
    assert "1e-10" in err and "1e-320" in err
    assert main(["trace", *argv, "--points", "3"]) == 0


def test_unwritable_output_exits_4(capsys):
    code, _ = run(capsys, "period", "--kind", "pt", "--a", "0.5",
                  "--output", "/nonexistent-dir/x.json")
    assert code == 4


def test_solver_failure_exits_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise pc.NoDecompositionError(0.5, (0.0,) * 6, "no decomposition found")

    monkeypatch.setattr("ptcoherence.optics.solve_angles", boom)
    code, _ = run(capsys, "angles", "--kind", "pt", "--a", "0.5", "--t", "1")
    assert code == 3


def test_state_action_above_tolerance_exits_3(monkeypatch, capsys):
    # a solved sequence whose state action misses tolerances.optics_state_action
    monkeypatch.setattr("ptcoherence.optics.verify_state_action", lambda seq, seed: 1e-3)
    code = main(["angles", "--kind", "pt", "--a", "0.47"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "0.001" in captured.err and "1e-06" in captured.err


# ---------------------------------------------------------------------------
# grid commands in row ranges
# ---------------------------------------------------------------------------

_GRID_COMMANDS = (
    ["trace", "--kind", "pt", "--a", "0.47", "--state", "h-sqrt3v"],
    ["bloch", "--kind", "apt", "--a", "1.5", "--state", "h-sqrt3v"],
    ["two-qubit", "--kind", "pt", "--a", "2.4"],
)

#: Grid lengths around the first split, an odd one that cuts into ranges
#: of unequal length, and the benchmark's large grid.
_RANGE_SIZES = (2 * cli._MIN_ROWS - 1, 2 * cli._MIN_ROWS, 2 * cli._MIN_ROWS + 1, 12345, 100_000)

_ONE_CORE_SCRIPT = """
import contextlib, hashlib, io, json, os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from ptcoherence.cli import main
out = []
for argv in %r:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append([code, hashlib.md5(buf.getvalue().encode()).hexdigest()])
print(json.dumps(out))
"""


def _three_cores(monkeypatch) -> None:
    """Report three usable cores, so that every grid of at least
    2 * _MIN_ROWS rows forks a worker whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


def test_row_ranges_are_byte_identical_to_one_core(monkeypatch, capsys):
    _three_cores(monkeypatch)
    argvs = [[*argv, "--points", str(n), "--format", fmt]
             for argv in _GRID_COMMANDS for n in _RANGE_SIZES for fmt in ("csv", "json")]
    ranged = []
    for argv in argvs:
        code, out = run(capsys, *argv)
        ranged.append([code, hashlib.md5(out.encode()).hexdigest()])
    result = run_fresh(_ONE_CORE_SCRIPT % (argvs,))
    assert result.returncode == 0, result.stderr
    assert [code for code, _ in ranged] == [0] * len(argvs)
    assert ranged == json.loads(result.stdout)


def _failing_rows(monkeypatch, failures: dict) -> None:
    """Bloch rows that fail by range, at 3 * _MIN_ROWS rows in 3 ranges:
    ``failures`` maps a range's first row to an action that raises."""
    real, grid = bloch.trajectory_array, np.linspace(0.0, 10.0, 3 * cli._MIN_ROWS)

    def rows(st, p, ts):
        action = failures.get(int(np.searchsorted(grid, ts[0])))
        if action is not None:
            action()
        return real(st, p, ts)

    _three_cores(monkeypatch)
    monkeypatch.setattr("ptcoherence.bloch.trajectory_array", rows)


def _no_worker_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail(message: str):
    def action():
        raise ValueError(message)
    return action


@pytest.mark.parametrize("failing, message", [
    ((1,), "range 1 fails"),
    ((1, 2), "range 1 fails"),
    ((0, 1, 2), "range 0 fails"),
])
def test_failing_range_exits_2_with_the_lowest_message(monkeypatch, capsys, failing, message):
    rows = 3 * cli._MIN_ROWS
    _failing_rows(monkeypatch, {k * rows // 3: _fail(f"range {k} fails") for k in failing})
    code = main(["bloch", "--kind", "pt", "--a", "0.47", "--points", str(rows)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    _no_worker_left()


def _one_core_md5(monkeypatch, capsys, argv) -> str:
    """The md5 of ``argv``'s stdout when the host reports one usable core."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    code, out = run(capsys, *argv)
    assert code == 0
    return hashlib.md5(out.encode()).hexdigest()


def test_killed_worker_range_runs_in_process(monkeypatch, capsys):
    rows, parent = 3 * cli._MIN_ROWS, os.getpid()

    def die_in_a_worker():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    _failing_rows(monkeypatch, {rows // 3: die_in_a_worker})
    argv = ["bloch", "--kind", "pt", "--a", "0.47", "--points", str(rows)]
    code, out = run(capsys, *argv)
    assert code == 0
    _no_worker_left()
    assert hashlib.md5(out.encode()).hexdigest() == _one_core_md5(monkeypatch, capsys, argv)


@pytest.mark.parametrize("refused", [{1, 2}, {2}], ids=["every", "second"])
def test_refused_fork_runs_the_range_in_process(monkeypatch, capsys, refused):
    real, calls = os.fork, []

    def fork():
        calls.append(None)
        if len(calls) in refused:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real()

    _three_cores(monkeypatch)
    monkeypatch.setattr(os, "fork", fork)
    argv = ["two-qubit", "--kind", "pt", "--a", "0.47", "--points", str(3 * cli._MIN_ROWS),
            "--format", "json"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 2
    _no_worker_left()
    assert hashlib.md5(out.encode()).hexdigest() == _one_core_md5(monkeypatch, capsys, argv)


class _DetailedError(Exception):
    """An error whose ``__init__`` takes more than its message, as
    ``optics.NoDecompositionError`` does: ``pickle`` cannot rebuild it."""

    def __init__(self, detail: float, message: str):
        super().__init__(message)
        self.detail = detail


def test_error_of_a_range_raises_with_its_own_class(monkeypatch, capsys):
    rows = 3 * cli._MIN_ROWS

    def fail():
        raise _DetailedError(0.5, "range 1 fails")

    _failing_rows(monkeypatch, {rows // 3: fail})
    with pytest.raises(_DetailedError, match="range 1 fails") as info:
        main(["bloch", "--kind", "pt", "--a", "0.47", "--points", str(rows)])
    assert info.value.detail == 0.5
    assert capsys.readouterr().out == ""
    _no_worker_left()


def _out_of_memory(*args, **kwargs):
    raise MemoryError()


def test_failed_allocation_in_a_range_exits_2(monkeypatch, capsys):
    rows = 3 * cli._MIN_ROWS
    _failing_rows(monkeypatch, {rows // 3: _out_of_memory})
    code = main(["bloch", "--kind", "pt", "--a", "0.47", "--points", str(rows)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: not enough memory for bloch, points = {rows}\n"
    _no_worker_left()


@pytest.mark.parametrize("argv", _GRID_COMMANDS)
def test_small_grids_do_not_fork(monkeypatch, capsys, argv):
    def no_fork():
        raise AssertionError("a small grid forked")

    _three_cores(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run(capsys, *argv)[0] == 0  # the 401-point default
    assert run(capsys, *argv, "--points", str(2 * cli._MIN_ROWS - 1), "--format", "json")[0] == 0


def test_grid_evaluation_imports_nothing():
    # what a worker runs (rows_of and the %-pass) loads no module: checked
    # in one process, where the same code runs as range 0
    result = run_fresh("""
import sys
from ptcoherence import bloch, cli, coherence, twoqubit
for argv in %r:
    for fmt in ("csv", "json"):
        cfg = cli._resolve_config(cli._build_parser().parse_args([*argv, "--format", fmt]))
        before = set(sys.modules)
        cli._SUBCOMMANDS[cfg.subcommand][2](cfg)
        print(sorted(set(sys.modules) - before))
""" % (list(_GRID_COMMANDS),))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n" * 6


_DEV_MODE_SCRIPT = """
import os
os.sched_getaffinity = lambda pid: {0, 1}
from ptcoherence import cli
assert cli._range_count(%d) == 2
for argv in %r:
    assert cli.main(argv) == 0, argv
    assert cli.main([*argv, "--output", %r]) == 0, argv
"""


def test_row_ranges_leak_no_pipe_or_file(tmp_path):
    # development mode reports an unclosed pipe or file as a ResourceWarning,
    # which -W error prints to stderr as an ignored exception
    n = 2 * cli._MIN_ROWS + 1
    argvs = [[*argv, "--points", str(n), "--format", fmt]
             for argv in _GRID_COMMANDS for fmt in ("csv", "json")]
    result = run_fresh(_DEV_MODE_SCRIPT % (n, argvs, str(tmp_path / "grid")),
                       "-X", "dev", "-W", "error")
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.count("# schema: 1") == result.stdout.count('"schema": 1') == 3


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _boundary_values() -> list[float]:
    """Values next to a 12-significant-digit rounding boundary."""
    out = []
    for b in (1.0000000000005, 9.9999999999995, 0.1234567890125, 999999999999.5,
              1.2345678901245e-7, 4.4444444444445e200):
        for v in (b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)):
            out += [float(v), -float(v)]
    return out


_SPECIAL_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
    1.0, -7.0, 123456789012.0, 1234567890123.0, 2.0 ** 53, -1e16,
    np.inf, -np.inf, np.nan,
] + _boundary_values()

_TABLES = st.integers(1, 5).flatmap(lambda width: st.tuples(
    st.just(width),
    st.lists(st.lists(st.one_of(st.floats(), st.sampled_from(_SPECIAL_VALUES)),
                      min_size=width, max_size=width), max_size=12),
))


@settings(max_examples=300, deadline=None)
@given(_TABLES)
def test_bulk_csv_matches_per_value_format(table):
    width, values = table
    columns = [f"c{i}" for i in range(width)]
    rows = np.array(values, dtype=float).reshape(-1, width)
    meta = [("command", "trace"), ("a", 0.47)]
    per_value = "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    expected = "# schema: 1\n# command: trace\n# a: 0.47\n" + ",".join(columns) + "\n"
    assert _csv_text(meta, columns, _csv_rows(rows)) == expected + per_value


def test_bulk_csv_covers_every_special_value():
    rows = np.array(_SPECIAL_VALUES, dtype=float).reshape(-1, 1)
    text = _csv_text([], ["v"], _csv_rows(rows))
    assert text == "# schema: 1\nv\n" + "".join(_fmt(v) + "\n" for v in rows[:, 0])
    assert "\n-0\n" not in text and "\n0\n" in text


def _json_per_value(meta, columns, rows) -> str:
    """The grid JSON as json.dumps writes it from one float per value."""
    payload = {"schema": 1, "columns": list(columns),
               "rows": [[float(v) for v in row] for row in rows]}
    payload.update({key.replace(" ", "_"): value for key, value in meta})
    return _json_text(payload)


@settings(max_examples=300, deadline=None)
@given(_TABLES)
def test_bulk_json_matches_per_value_format(table):
    width, values = table
    assume(values)  # the CLI grids have at least two rows
    columns = [f"c{i}" for i in range(width)]
    rows = np.array(values, dtype=float).reshape(-1, width)
    meta = [("command", "trace"), ("a", 0.47), ("state", "D")]
    text = _json_grid_text(meta, columns, _json_rows(rows))
    assert text == _json_per_value(meta, columns, rows)


def test_bulk_json_covers_every_special_value():
    rows = np.array(_SPECIAL_VALUES, dtype=float).reshape(-1, 1)
    text = _json_grid_text([], ["v"], _json_rows(rows))
    assert text == _json_per_value([], ["v"], rows)
    assert "-0.0" not in text and "      0.0" in text
    assert "NaN" in text and "-Infinity" in text


@pytest.mark.parametrize("argv", [
    ["trace", "--kind", "pt", "--a", "0.47", "--state", "h-sqrt3v"],
    ["bloch", "--kind", "apt", "--a", "1.5", "--state", "D"],
    ["two-qubit", "--kind", "pt", "--a", "2.4"],  # a run header with no state
])
def test_trace_json_is_byte_identical_to_per_value_format(capsys, argv):
    argv = [*argv, "--points", "50"]
    _, csv_out = run(capsys, *argv)
    code, out = run(capsys, *argv, "--format", "json")
    assert code == 0
    meta, columns, rows = parse_csv(csv_out)
    meta.pop("schema")
    typed = [(k, v if k in ("command", "kind", "state") else float(v)) for k, v in meta.items()]
    assert out == _json_per_value(typed, columns, rows)


def test_repeat_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["tomography", "--kind", "pt", "--a", "0.47", "--t", "1.1",
            "--exposure", "3000", "--resamples", "25", "--seed", "7"]
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "ptcoherence", "period", "--kind", "apt", "--a", "1.5"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["schema"] == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv, buffered", [
    (["period", "--kind", "pt", "--a", "0.47"], True),  # fails in the flush at exit
    (["period", "--kind", "pt", "--a", "0.47"], False),
    (["trace", "--kind", "pt", "--a", "0.47", "--points", "20000"], True),
], ids=["report-buffered", "report-unbuffered", "grid-buffered"])
def test_full_stdout_exits_4(argv, buffered):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "ptcoherence", *argv], stdout=full,
                                stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert result.returncode == 4
    assert result.stderr.startswith("error: cannot write to stdout: ")
    assert result.stderr.count("\n") == 1, result.stderr


@pytest.mark.parametrize("argv, target, message", [
    (["trace", "--points", "2000000000"], "numpy.linspace", "trace, points = 2000000000"),
    (["angles", "--seed", "7"], "ptcoherence.optics.solve_angles", "angles"),
    (["tomography", "--resamples", "50"], "ptcoherence.tomography.bootstrap_errorbar",
     "tomography, resamples = 50"),
    (["period"], "ptcoherence.coherence.find_extrema", "period"),
], ids=["points", "angles-no-size", "resamples", "no-size"])
def test_failed_allocation_exits_2_naming_the_sizes(monkeypatch, capsys, argv, target, message):
    # no test allocates the array: the allocation is made to fail
    monkeypatch.setattr(target, _out_of_memory)
    code = main([argv[0], "--kind", "pt", "--a", "0.47", *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: not enough memory for {message}\n"


@pytest.mark.parametrize("args, code, message", [
    (["--a", "-1"], 2, "error: non-Hermiticity degree a must be positive"),
    (["--a", "0.47", "--output", "/nonexistent-dir/x.json"], 4,
     "error: cannot write output file '/nonexistent-dir/x.json'"),
])
def test_module_entry_point_failures(args, code, message):
    result = subprocess.run(
        [sys.executable, "-m", "ptcoherence", "period", "--kind", "pt", *args],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == code
    assert result.stdout == ""
    assert result.stderr.startswith(message), result.stderr
