"""In-memory spans and counters recorded around calls into ptcoherence.

The wrappers live here, in the benchmark, so the package stays untouched;
``child.py`` installs them in a traced CLI child.
Installing them rebinds every reference to a wrapped function in the
loaded ``ptcoherence`` modules (the home module, modules that imported
the name directly, the package namespace and the CLI's command table),
so calls made through module globals are seen too: the scan's own
``coherence_series`` probes and the bootstrap's ``reconstruct`` calls.

A span is (name, start, end, parent).  Self time is a span's duration
minus the durations of its direct children; calls never overlap because
the package is single threaded.  A wrapped name that a refactor removes
is listed in ``missing`` and its metrics read as zero.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

import numpy as np

#: (module, attribute, span name) of every timed boundary.
SPAN_TARGETS = (
    ("ptcoherence.cli", "_resolve_config", "cli.resolve"),
    ("ptcoherence.cli", "_csv_text", "cli.serialize"),
    ("ptcoherence.cli", "_json_text", "cli.serialize"),
    ("ptcoherence.cli", "_emit", "cli.emit"),
    ("ptcoherence.evolution", "evolve_density", "evolution.evolve_density"),
    ("ptcoherence.evolution", "evolve_pure", "evolution.evolve_pure"),
    ("ptcoherence.bloch", "trajectory", "bloch.trajectory"),
    ("ptcoherence.coherence", "coherence_series", "coherence.series"),
    ("ptcoherence.coherence", "find_extrema", "coherence.scan"),
    ("ptcoherence.coherence", "classify_backflow", "coherence.classify"),
    ("ptcoherence.twoqubit", "two_qubit_series", "twoqubit.series"),
    ("ptcoherence.optics", "solve_angles", "optics.solve"),
    ("ptcoherence.optics", "verify_state_action", "optics.verify"),
    ("ptcoherence.tomography", "simulate_counts", "tomography.simulate"),
    ("ptcoherence.tomography", "reconstruct", "tomography.reconstruct"),
    ("ptcoherence.tomography", "bootstrap_errorbar", "tomography.bootstrap"),
)

#: Every span name a summary reports, including the CLI command bodies.
SPAN_NAMES = tuple(dict.fromkeys(["cli.compute"] + [t[2] for t in SPAN_TARGETS]))


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None, on_error=None):
        names, starts, ends, parents, stack, open_ = (
            self.names, self.starts, self.ends, self.parents, self.stack, self.open)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            open_[name] += 1
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error is not None:
                    on_error()
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                open_[name] -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count_calls(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def _hooks(self) -> dict:
        counts, open_ = self.counts, self.open

        def series_points(args, result):
            n = int(np.size(result))
            counts["coherence.series_points"] += n
            if open_["coherence.scan"]:
                counts["coherence.scan_points"] += n

        def twoqubit_points(args, result):
            counts["twoqubit.series_points"] += int(np.size(result))

        def bloch_points(args, result):
            counts["bloch.points"] += len(result)

        def output_bytes(args, result):
            counts["cli.output_bytes"] += len(args[1].encode())

        def residual(args, result):
            self._maximum("optics.residual_max", float(result.residual))

        def dropped():
            if open_["tomography.bootstrap"]:
                counts["tomography.resamples_dropped"] += 1

        return {
            "coherence_series": (series_points, None),
            "two_qubit_series": (twoqubit_points, None),
            "trajectory": (bloch_points, None),
            "_emit": (output_bytes, None),
            "solve_angles": (residual, None),
            "reconstruct": (None, dropped),
        }

    def install(self) -> None:
        """Wrap every target in the already imported ptcoherence modules."""
        hooks = self._hooks()
        replace: dict[int, tuple[object, object]] = {}
        for module_name, attr, span in SPAN_TARGETS:
            fn = _lookup(module_name, attr)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            after, on_error = hooks.get(attr, (None, None))
            replace[id(fn)] = (fn, self.wrap(span, fn, after, on_error))
        for mod in [m for n, m in list(sys.modules.items())
                    if n == "ptcoherence" or n.startswith("ptcoherence.")]:
            for key, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, key, hit[1])
        commands = _lookup("ptcoherence.cli", "_COMMANDS", callable_only=False)
        if isinstance(commands, dict):
            for key, fn in list(commands.items()):
                commands[key] = self.wrap("cli.compute", fn)
        else:
            self.missing.append("ptcoherence.cli._COMMANDS")
        # only the optics solver's restarts: tomography binds the same
        # scipy function under the same name
        optics = sys.modules.get("ptcoherence.optics")
        if optics is not None and callable(getattr(optics, "minimize", None)):
            optics.minimize = self.count_calls("optics.minimize_calls", optics.minimize)
        else:
            self.missing.append("ptcoherence.optics.minimize")

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans and counters to an ``.npz`` file."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        meta = {"names": table, "counts": dict(self.counts),
                "maxima": self.maxima, "missing": self.missing}
        np.savez(path, name=np.array([index[n] for n in self.names], dtype=np.int32),
                 start=np.array(self.starts), end=np.array(self.ends),
                 parent=np.array(self.parents, dtype=np.int64),
                 meta=np.array(json.dumps(meta)))

def _lookup(module_name: str, attr: str, callable_only: bool = True):
    try:
        mod = importlib.import_module(module_name)
    except ImportError:
        return None
    value = getattr(mod, attr, None)
    if callable_only and not callable(value):
        return None
    return value


class Summary:
    """Per-span-name totals (calls, total time, self time) plus counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.missing: set[str] = set()

    @classmethod
    def from_arrays(cls, table, name, start, end, parent, counts, maxima, missing):
        out = cls()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        for i, n in enumerate(table):
            sel = name == i
            out.calls[n] += int(np.count_nonzero(sel))
            out.total[n] += float(dur[sel].sum())
            out.self_time[n] += float(own[sel].sum())
        out.counts.update(counts)
        out.maxima.update(maxima)
        out.missing.update(missing)
        return out

    @classmethod
    def load(cls, path: str) -> "Summary":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            return cls.from_arrays(meta["names"], data["name"], data["start"],
                                   data["end"], data["parent"], meta["counts"],
                                   meta["maxima"], meta["missing"])

    @classmethod
    def combine(cls, parts) -> "Summary":
        """Sum of several summaries (one per traced CLI child)."""
        out = cls()
        for part in parts:
            out.calls.update(part.calls)
            out.total.update(part.total)
            out.self_time.update(part.self_time)
            out.counts.update(part.counts)
            for key, value in part.maxima.items():
                out.maxima[key] = max(out.maxima.get(key, value), value)
            out.missing |= part.missing
        return out


def parse_importtime(text: str, exclude=("tracing",)) -> dict[str, float]:
    """Self import times in seconds from ``python -X importtime`` output."""
    total = scipy = package = 0.0
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name in exclude:
            continue
        seconds = int(fields[0]) * 1e-6
        total += seconds
        if name == "scipy" or name.startswith("scipy."):
            scipy += seconds
        elif name == "ptcoherence" or name.startswith("ptcoherence."):
            package += seconds
    return {"import.total_s": total, "import.scipy_s": scipy,
            "import.ptcoherence_self_s": package}
