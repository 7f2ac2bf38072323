"""Placement-as-a-service: the async HTTP front door (``repro.serve``).

The layers below this package — vectorized :mod:`repro.memory.batch_sim`,
the content-keyed :class:`~repro.analysis.cache.ResultCache`, persistent
:mod:`repro.analysis.pool` workers, streaming ``.rtb`` traces and the
:mod:`repro.obs` metrics registry — are building blocks for serving heavy
placement/simulation traffic.  This package is the front door:

* :mod:`repro.serve.server` — a long-running :mod:`asyncio` HTTP+JSON
  service exposing trace-upload, optimize, simulate and job-status
  endpoints; each cold simulate is one scan over the trace's dense arrays
  (:class:`repro.trace.model.ResolvedTrace`, built with the trace);
* :mod:`repro.serve.admission` — token-bucket + bounded-queue admission
  control with typed 429/503 rejections;
* :mod:`repro.serve.client` — the blocking stdlib client used by tests,
  the CI smoke/load gates, and example drivers;
* :mod:`repro.serve.protocol` — the wire schema shared by all of the
  above.

See ``docs/SERVING.md`` for the endpoint reference and operational knobs.
"""

from repro.serve.protocol import (
    BadRequest,
    NotFound,
    Overloaded,
    RateLimited,
    ServeError,
)

__all__ = [
    "BadRequest",
    "NotFound",
    "Overloaded",
    "RateLimited",
    "ServeError",
]
