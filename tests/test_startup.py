"""What a cold start loads.

The runtime needs numpy alone: a fresh interpreter installs a
``sys.meta_path`` finder that makes any ``scipy``, ``mpmath`` or
``hypothesis`` import raise ImportError, makes a RuntimeWarning an error,
then imports the package and runs all eight subcommands at the
benchmark's four parameter points, at state H and at each point's state;
each must exit 0.  A cold call loads only what its subcommand runs:
``import ptcoherence`` loads no submodule, the scan
subcommands load neither the optics, tomography, Bloch and two-qubit
modules nor ``statistics``, ``two-qubit`` and ``bloch`` load no
coherence module, and ``angles`` and ``tomography`` load only their own
chain.  The checks need their own interpreter because the test session
has every module loaded.  ``_EXPORTS`` is the one list of public names:
each table module's ``__all__`` is its entry.
"""
from __future__ import annotations

import importlib
import pkgutil
import textwrap

from conftest import run_fresh

import ptcoherence

#: The benchmark's four parameter points, each with its state: both kinds,
#: both regimes.
_POINTS = (("pt", 0.47, "h-sqrt3v"), ("pt", 2.8, "D"), ("apt", 1.5, "h-sqrt3v"),
           ("apt", 0.47, "D"))

_SCRIPT = textwrap.dedent("""
    import contextlib, io, sys, warnings

    class Blocked:
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in ("scipy", "mpmath", "hypothesis"):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, Blocked())
    warnings.simplefilter("error", RuntimeWarning)

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


#: Run ``commands`` cold, then print the loaded ``unloaded`` modules.
_LOADS_SCRIPT = textwrap.dedent("""
    import contextlib, io, sys

    import ptcoherence
    print(sorted(name for name in sys.modules if name.startswith("ptcoherence.")))

    from ptcoherence.cli import main
    for cmd in %r:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([cmd, "--kind", "pt", "--a", "0.47"]) == 0, cmd
    print(sorted(set(%r) & set(sys.modules)))
""")

#: Each command set and the modules it must not load: the scan commands
#: load no optics, tomography, two-qubit or Bloch module and no
#: ``statistics``; the grid commands that run no scan load no coherence;
#: ``angles`` loads no coherence, tomography, two-qubit or Bloch module,
#: and ``tomography`` no optics, two-qubit or Bloch module, and neither
#: loads ``statistics``.
_COLD_LOADS = (
    (("period", "asymptote", "backflow", "trace"),
     ("ptcoherence.optics", "ptcoherence.tomography", "ptcoherence.twoqubit",
      "ptcoherence.bloch", "statistics")),
    (("two-qubit", "bloch"), ("ptcoherence.coherence",)),
    (("angles",),
     ("ptcoherence.coherence", "ptcoherence.tomography", "ptcoherence.twoqubit",
      "ptcoherence.bloch", "statistics")),
    (("tomography",),
     ("ptcoherence.coherence", "ptcoherence.optics", "ptcoherence.twoqubit",
      "ptcoherence.bloch", "statistics")),
)


def test_every_subcommand_runs_without_scipy():
    result = run_fresh(_SCRIPT)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def test_cold_calls_load_only_their_subcommand():
    for commands, unloaded in _COLD_LOADS:
        result = run_fresh(_LOADS_SCRIPT % (commands, unloaded))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n[]\n", commands


def test_public_names_resolve():
    modules = [ptcoherence] + [
        importlib.import_module(f"ptcoherence.{info.name}")
        for info in pkgutil.iter_modules(ptcoherence.__path__) if not info.name.startswith("_")]
    assert len(modules) == 10  # the package and its nine public modules
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
