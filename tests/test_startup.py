"""What a cold start loads.

The runtime needs numpy alone: a fresh interpreter installs a
``sys.meta_path`` finder that makes any ``scipy`` import raise
ImportError, then imports the package and runs all eight subcommands with
their default options; each must exit 0.  A cold call loads only what its
subcommand runs: ``import ptcoherence`` loads no submodule, and the scan
subcommands load neither the optics, tomography, Bloch and two-qubit
modules nor ``statistics``.  The checks need their own interpreter
because the test session has every module loaded.
"""
from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import ptcoherence

_SCRIPT = textwrap.dedent("""
    import contextlib, io, sys

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, NoScipy())

    from ptcoherence.cli import main
    for cmd in ("trace", "period", "asymptote", "backflow", "angles", "tomography",
                "bloch", "two-qubit"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([cmd, "--kind", "pt", "--a", "0.47"]) == 0, cmd
    print("ok")
""")


_LOADS_SCRIPT = textwrap.dedent("""
    import contextlib, io, sys

    import ptcoherence
    print(sorted(name for name in sys.modules if name.startswith("ptcoherence.")))

    from ptcoherence.cli import main
    for cmd in ("period", "asymptote", "backflow", "trace"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([cmd, "--kind", "pt", "--a", "0.47"]) == 0, cmd
    print(sorted({"ptcoherence.optics", "ptcoherence.tomography", "ptcoherence.twoqubit",
                  "ptcoherence.bloch", "statistics"} & set(sys.modules)))
""")


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    src = str(Path(ptcoherence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)


def test_every_subcommand_runs_without_scipy():
    result = _run_fresh(_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_cold_calls_load_only_their_subcommand():
    result = _run_fresh(_LOADS_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\n"


def test_public_names_resolve():
    modules = [ptcoherence] + [
        importlib.import_module(f"ptcoherence.{info.name}")
        for info in pkgutil.iter_modules(ptcoherence.__path__) if not info.name.startswith("_")]
    assert len(modules) == 10  # the package and its nine public modules
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
