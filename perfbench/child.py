"""One traced ``ptcoherence`` CLI invocation.

Usage: ``python -X importtime perfbench/child.py SPANS.npz <cli args...>``

Behaves like ``python -m ptcoherence <cli args...>`` (same stdout, same
exit code) with the benchmark's layer wrappers installed; the spans are
written to ``SPANS.npz`` when the command returns.
"""
from __future__ import annotations

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import ptcoherence.cli as cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
