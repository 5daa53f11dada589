"""SciPy stays off the path of every subcommand but ``angles``.

Only the optics solver, ``mat_exp_oracle`` and the heterogeneous
two-qubit propagator need SciPy; importing the package or running any
other subcommand, tomography included, must not load it.  The check runs
in a fresh interpreter because the test session itself has SciPy loaded.
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

    def scipy_loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import ptcoherence
    from ptcoherence.cli import main
    assert not scipy_loaded(), ("import", scipy_loaded())
    for cmd in ("trace", "period", "asymptote", "backflow", "bloch", "two-qubit",
                "tomography"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([cmd, "--kind", "pt", "--a", "0.47"]) == 0, cmd
        assert not scipy_loaded(), (cmd, scipy_loaded())
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["angles", "--kind", "pt", "--a", "0.47"]) == 0
    assert "scipy.optimize" in sys.modules
    print("ok")
""")


def test_closed_form_subcommands_never_load_scipy():
    src = str(Path(ptcoherence.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"
