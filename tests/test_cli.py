"""CLI surface: formats, precedence, exit codes, determinism."""
from __future__ import annotations

import argparse
import hashlib
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


def test_asymptote_has_no_points_flag(tmp_path, capsys):
    # the asymptote scan samples its window at a fixed density, so a
    # grid length would do nothing: the flag is refused, and a config
    # file's points key is ignored like any other irrelevant key
    with pytest.raises(SystemExit) as exc:
        main(["asymptote", "--kind", "pt", "--a", "2.8", "--points", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    _, default = run(capsys, "asymptote", "--kind", "pt", "--a", "2.8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 1\n")
    code, out = run(capsys, "asymptote", "--config", str(cfg), "--kind", "pt", "--a", "2.8")
    assert code == 0
    assert out == default


def test_backflow_report(capsys):
    code, out = run(capsys, "backflow", "--kind", "pt", "--a", "0.47",
                    "--state", "h-sqrt3v")
    assert code == 0
    payload = json.loads(out)
    assert payload["zeros_per_period"] == 4
    assert payload["classification"] == "DoubleTouch"


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
    ("trace", "kind = pt\na = 0.5\nformat = xml\n", "format must be csv or json, got 'xml'"),
], ids=["no-equals", "bad-points", "unknown-kind", "upper-case-kind", "bad-format"])
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


def test_missing_config_file_is_io_error(capsys):
    code, _ = run(capsys, "trace", "--kind", "pt", "--a", "0.31",
                  "--config", "/nonexistent/path.cfg")
    assert code == 4


# ---------------------------------------------------------------------------
# flag surface
# ---------------------------------------------------------------------------

#: The long flags each subcommand accepts, in --help order.
SUBCOMMAND_FLAGS = {
    "trace": ["--config", "--kind", "--s", "--a", "--seed", "--output", "--format",
              "--state", "--alpha", "--beta", "--phi", "--t-min", "--t-max", "--points"],
    "period": ["--config", "--kind", "--s", "--a", "--seed", "--output", "--format",
               "--state", "--alpha", "--beta", "--phi"],
    "asymptote": ["--config", "--kind", "--s", "--a", "--seed", "--output", "--format",
                  "--state", "--alpha", "--beta", "--phi", "--t-min", "--t-max"],
    "backflow": ["--config", "--kind", "--s", "--a", "--seed", "--output", "--format",
                 "--state", "--alpha", "--beta", "--phi"],
    "angles": ["--config", "--kind", "--s", "--a", "--seed", "--output", "--format",
               "--t", "--restarts"],
    "tomography": ["--config", "--kind", "--s", "--a", "--seed", "--output", "--format",
                   "--state", "--alpha", "--beta", "--phi", "--t", "--exposure", "--resamples"],
    "bloch": ["--config", "--kind", "--s", "--a", "--seed", "--output", "--format",
              "--state", "--alpha", "--beta", "--phi", "--t-min", "--t-max", "--points"],
    "two-qubit": ["--config", "--kind", "--s", "--a", "--seed", "--output", "--format",
                  "--t-min", "--t-max", "--points"],
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, field", [
    (("trace", "--kind", "pt", "--a", "0.5", "--t-min", "nan"), "t-min"),
    (("trace", "--kind", "pt", "--a", "0.5", "--t-max", "inf"), "t-max"),
    (("angles", "--kind", "pt", "--a", "0.5", "--t", "inf"), "t"),
    (("trace", "--kind", "pt", "--a", "0.5", "--s", "inf"), "s"),
    (("trace", "--kind", "pt", "--a", "nan"), "a"),
    (("tomography", "--kind", "pt", "--a", "0.5", "--exposure", "nan"), "exposure"),
    (("tomography", "--kind", "pt", "--a", "0.5", "--exposure", "inf"), "exposure"),
    (("backflow", "--kind", "pt", "--a", "0.47", "--alpha", "inf", "--beta", "1"), "alpha"),
    (("backflow", "--kind", "pt", "--a", "0.47", "--alpha", "1", "--beta", "nan"), "beta"),
    (("backflow", "--kind", "pt", "--a", "0.47", "--alpha", "1", "--beta", "1", "--phi", "nan"),
     "phi"),
], ids=["t_min", "t_max", "t", "s", "a", "exposure_nan", "exposure_inf", "alpha", "beta", "phi"])
def test_non_finite_input_exits_2(capsys, argv, field):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f" {field} must be" in captured.err
    assert "finite" in captured.err


@pytest.mark.parametrize("argv, message", [
    (("trace", "--kind", "pt", "--a", "0.5", "--t-min", "2", "--t-max", "1"),
     "t-max must exceed t-min, got (2.0, 1.0)"),
    (("trace", "--kind", "pt", "--a", "0.5", "--t-min", "-1"), "t-min must be nonnegative"),
    (("angles", "--kind", "pt", "--a", "0.5", "--t", "-1"), "t must be nonnegative"),
    (("tomography", "--kind", "pt", "--a", "0.5", "--exposure", "-5"),
     "exposure must be positive"),
    (("tomography", "--kind", "pt", "--a", "0.5", "--exposure", "0"),
     "exposure must be positive"),
    (("period", "--kind", "pt", "--a", "0.5", "--alpha", "1"), "need both alpha and beta"),
    (("backflow", "--kind", "pt", "--a", "0.47", "--alpha", "-1", "--beta", "1"),
     "alpha must be nonnegative, got -1.0"),
], ids=["window-reversed", "t_min-negative", "t-negative", "exposure-negative",
        "exposure-zero", "alpha-without-beta", "alpha-negative"])
def test_out_of_range_input_exits_2_naming_the_field(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


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
    (("trace", "--kind", "pt", "--a", "1.0", "--t-max", "1e16"), "t-max", "1e+16"),
    (("tomography", "--kind", "apt", "--a", "1.5", "--t", "1e16"), "t", "1.11803e+16"),
    # w = sqrt(1 - a^2) = 3.16228e-5
    (("trace", "--kind", "pt", "--a", "0.9999999995", "--t-max", "1e21"), "t-max",
     "3.16228e+16"),
], ids=["pt-unbroken", "apt-unbroken-large-s", "exceptional-point", "single-time",
        "pt-unbroken-near-exceptional-point"])
def test_unresolved_phase_exits_2(capsys, argv, field, phase):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} = ")
    assert f"phase w*s*|t| = {phase} above 2**52" in captured.err


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


def test_csv_format_rejected_for_reports(capsys):
    code, _ = run(capsys, "period", "--kind", "pt", "--a", "0.5", "--format", "csv")
    assert code == 2


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


def test_killed_worker_is_named_and_nothing_is_written(monkeypatch, capsys):
    rows, parent = 3 * cli._MIN_ROWS, os.getpid()

    def die():
        assert os.getpid() != parent, "range 1 ran in the calling process"
        os.kill(os.getpid(), signal.SIGKILL)

    _failing_rows(monkeypatch, {rows // 3: die})
    with pytest.raises(RuntimeError, match="SIGKILL"):
        main(["bloch", "--kind", "pt", "--a", "0.47", "--points", str(rows)])
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
    (["angles", "--restarts", "7"], "ptcoherence.optics.solve_angles", "angles, restarts = 7"),
    (["tomography", "--resamples", "50"], "ptcoherence.tomography.bootstrap_errorbar",
     "tomography, resamples = 50"),
    (["period"], "ptcoherence.coherence.find_extrema", "period"),
], ids=["points", "restarts", "resamples", "no-size"])
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
