"""The runtime needs numpy alone: no subcommand imports SciPy.

A fresh interpreter installs a ``sys.meta_path`` finder that makes any
``scipy`` import raise ImportError, then imports the package and runs all
eight subcommands with their default options; each must exit 0.  The
check needs its own interpreter because the test session has SciPy
loaded for the oracle.
"""
from __future__ import annotations

import os
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


def test_every_subcommand_runs_without_scipy():
    src = str(Path(ptcoherence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
