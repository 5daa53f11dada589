"""What a cold start loads.

The runtime needs numpy alone: a fresh interpreter installs a
``sys.meta_path`` finder that makes any ``scipy``, ``mpmath`` or
``hypothesis`` import raise ImportError, makes a RuntimeWarning an error,
then imports the package and runs all eight subcommands at the
benchmark's four parameter points, at state H and at each point's state;
each must exit 0.  The README's Quick start runs there too.  A cold call
loads only what its subcommand runs:
``import ptcoherence`` loads no submodule, the scan
subcommands and ``trace`` load neither the optics, tomography and
two-qubit modules nor ``statistics``, the grid commands (``trace``,
``two-qubit``, ``bloch``) load no coherence module, ``angles`` and
``tomography`` load only their own chain, and no command loads
``numpy.random`` (with ``secrets``, ``hmac`` and OpenSSL's ``_hashlib``
under it, about 6 MiB of peak RSS): the ``angles`` check panel comes
from Python's own generator, and the ``tomography`` counts from the
package's own copy of numpy's stream.  On
numpy 1.x, whose ``import numpy`` loads ``numpy.random`` itself, every
command has it, and what bare numpy loads is left out of the check.  The
checks need their own interpreter because the test session has every
module loaded.  ``_EXPORTS`` is the one list of public names:
each table module's ``__all__`` is its entry.  No package source calls
BLAS or LAPACK, whose first use costs about 1 MiB of peak RSS.
"""
from __future__ import annotations

import ast
import importlib
import pkgutil
import re
import textwrap
from pathlib import Path

from conftest import run_fresh

import ptcoherence

#: The benchmark's four parameter points, each with its state: both kinds,
#: both regimes.
_POINTS = (("pt", 0.47, "h-sqrt3v"), ("pt", 2.8, "D"), ("apt", 1.5, "h-sqrt3v"),
           ("apt", 0.47, "D"))

#: The start of a check on numpy alone: any ``scipy``, ``mpmath`` or
#: ``hypothesis`` import raises ImportError, and a RuntimeWarning is an error.
_NUMPY_ONLY = textwrap.dedent("""
    import sys, warnings

    class Blocked:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in ("scipy", "mpmath", "hypothesis"):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, Blocked())
    warnings.simplefilter("error", RuntimeWarning)
""")

_SCRIPT = _NUMPY_ONLY + textwrap.dedent("""
    import contextlib, io

    from ptcoherence.cli import main
    for kind, a, state in %r:
        for cmd in ("trace", "period", "asymptote", "backflow", "angles", "tomography",
                    "bloch", "two-qubit"):
            argv = [cmd, "--kind", kind, "--a", repr(a)]
            # at the default state H and, where the command takes one, at the point's
            for states in ([], ["--state", state]) if cmd not in ("angles", "two-qubit") else ([],):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv + states) == 0, argv + states
    print("ok")
""" % (_POINTS,))


#: Run ``commands`` cold, then print the ``unloaded`` modules they
#: loaded.  What a bare ``import numpy`` loads is not the commands' doing:
#: numpy 1.x imports ``numpy.random`` (and with it ``secrets``) eagerly,
#: numpy 2 only on first use.
_LOADS_SCRIPT = textwrap.dedent("""
    import contextlib, io, sys

    import ptcoherence
    print(sorted(name for name in sys.modules if name.startswith("ptcoherence.")))

    import numpy
    unloaded = set(%r) - set(sys.modules)
    from ptcoherence.cli import main
    for cmd in %r:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([cmd, "--kind", "pt", "--a", "0.47"]) == 0, cmd
    print(sorted(unloaded & set(sys.modules)))
""")

#: Numpy's generator and what it loads (``secrets``, ``hmac`` and OpenSSL's
#: ``_hashlib``): no command loads it.
_NUMPY_RANDOM = ("numpy.random", "secrets", "hmac", "_hashlib")

#: Each command set and the modules it must not load: the scan commands
#: and ``trace`` load no optics, tomography or two-qubit module and no
#: ``statistics``; the grid commands run no scan and load no coherence;
#: ``angles`` loads no coherence, tomography or two-qubit module, and
#: ``tomography`` no optics or two-qubit module, and neither loads
#: ``statistics``; no command loads ``_NUMPY_RANDOM``.
_COLD_LOADS = (
    (("period", "asymptote", "backflow"),
     ("ptcoherence.optics", "ptcoherence.tomography", "ptcoherence.twoqubit",
      "statistics", *_NUMPY_RANDOM)),
    (("trace",),
     ("ptcoherence.coherence", "ptcoherence.optics", "ptcoherence.tomography",
      "ptcoherence.twoqubit", "statistics", *_NUMPY_RANDOM)),
    (("two-qubit", "bloch"), ("ptcoherence.coherence", *_NUMPY_RANDOM)),
    (("angles",),
     ("ptcoherence.coherence", "ptcoherence.tomography", "ptcoherence.twoqubit",
      "statistics", *_NUMPY_RANDOM)),
    (("tomography",),
     ("ptcoherence.coherence", "ptcoherence.optics", "ptcoherence.twoqubit",
      "statistics", *_NUMPY_RANDOM)),
)


def test_every_subcommand_runs_without_scipy():
    result = run_fresh(_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_readme_quick_start_runs_without_scipy():
    # the README's ```python blocks, in order in one interpreter, as a reader
    # runs them: a public name that the docs use cannot go unnoticed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 2
    result = run_fresh(_NUMPY_ONLY + "".join(blocks))
    assert result.returncode == 0, result.stderr


def test_cold_calls_load_only_their_subcommand():
    for commands, unloaded in _COLD_LOADS:
        result = run_fresh(_LOADS_SCRIPT % (unloaded, commands))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n[]\n", commands


def test_public_names_resolve():
    modules = [ptcoherence] + [
        importlib.import_module(f"ptcoherence.{info.name}")
        for info in pkgutil.iter_modules(ptcoherence.__path__) if not info.name.startswith("_")]
    assert len(modules) == 9  # the package and its eight public modules
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
    # the table is the one list: each module's __all__ is its entry, and
    # the package exports the table's names in order
    table = ptcoherence._EXPORTS
    for name, names in table.items():
        module = importlib.import_module(f"ptcoherence.{name}")
        assert module.__all__ == list(names), name
    assert ptcoherence.__all__ == ["__version__", *(n for names in table.values() for n in names)]


def test_dir_lists_every_public_name():
    # dir() lists the lazy names too, resolved or not, in sorted order
    listed = dir(ptcoherence)
    assert listed == sorted(listed)
    assert {"__version__", *ptcoherence._MODULE_OF} <= set(listed)
    assert "trajectory_array" in listed
    evolution = importlib.import_module("ptcoherence.evolution")
    assert ptcoherence.trajectory_array is evolution.trajectory_array


#: Names that reach BLAS or LAPACK: numpy's ``linalg`` and the products
#: and fits built on them.  ``einsum`` stays allowed: its default path
#: calls no BLAS.
_BLAS_NAMES = {"linalg", "dot", "vdot", "inner", "tensordot", "matmul", "polyfit"}


def _referenced_names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return node.name.split(".")
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")
    return []


def test_package_calls_no_blas():
    # every kernel of the package is elementwise on 2x2 and 4x4 stacks:
    # no ``@`` operator and no name that reaches BLAS or LAPACK
    found = []
    for path in sorted(Path(ptcoherence.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            names = _BLAS_NAMES.intersection(_referenced_names(node))
            if isinstance(getattr(node, "op", None), ast.MatMult) or names:
                found.append(f"{path.name}:{node.lineno} {sorted(names) or '@'}")
    assert not found
