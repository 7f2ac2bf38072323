"""Start ``repro serve`` with the pool dispatch layer timed.

Used by the traced ``serve`` run only: wraps
:meth:`repro.analysis.pool.WorkerPool.run` so every dispatch lands in the
server's own metrics registry (``perfbench.pool.run.seconds`` and
``perfbench.pool.run.tasks``), which ``/v1/metrics`` then exports.  All
arguments are passed to the ``repro`` CLI unchanged::

    python3 perfbench/serve_boot.py serve --port 0 --pool-workers 1
"""

from __future__ import annotations

import functools
import sys
import time


def _install() -> None:
    from repro.analysis.pool import WorkerPool
    from repro.obs import get_registry

    original = WorkerPool.run

    @functools.wraps(original)
    def run(self, fn, tasks, *args, **kwargs):
        start = time.perf_counter()
        try:
            return original(self, fn, tasks, *args, **kwargs)
        finally:
            registry = get_registry()
            registry.observe("perfbench.pool.run.seconds",
                             time.perf_counter() - start)
            registry.inc("perfbench.pool.run.tasks", len(tasks))

    WorkerPool.run = run


if __name__ == "__main__":
    _install()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
