"""The ``ptcoherence`` command: ``python -m ptcoherence`` and the console script.

The collector is off while the CLI's modules import, and what the import
made is then frozen out of its generations (``gc.freeze``), so neither
the collections during import nor the interpreter's final collection
walk the numpy and package objects.  ``run`` freezes again before it
exits, so the final collection skips what the command made too.  The
exit is a normal ``sys.exit``: atexit handlers run and buffers flush.
"""
from __future__ import annotations

import gc
import sys

gc.disable()
try:
    from .cli import main
finally:
    gc.freeze()
    gc.enable()


def run() -> None:
    """Run the CLI on ``sys.argv`` and exit with its code."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
