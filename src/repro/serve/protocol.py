"""Wire schema shared by the placement server and its client.

Everything that crosses the HTTP boundary is JSON; this module owns the
conversions between the JSON payloads and the library's domain objects
(:class:`~repro.dwm.config.DWMConfig`,
:class:`~repro.core.placement.Placement`,
:class:`~repro.core.problem.PlacementResult`,
:class:`~repro.memory.result.SimulationResult`) plus the typed error
hierarchy both sides raise.  Keeping the schema in one importable place
means the server and client cannot drift apart silently.

Error model
-----------
:class:`ServeError` carries an HTTP ``status`` and a stable machine
``code``.  The admission-control rejections are the load-bearing ones:

* :class:`RateLimited` — HTTP 429, ``rate_limited``: the token bucket ran
  dry; retry after backoff.
* :class:`Overloaded` — HTTP 503, ``overloaded``: the bounded compute
  queue is full (or the server is shutting down); shed, don't wait.

Both are *typed and immediate* — an overloaded server answers in
microseconds instead of hanging clients on a queue it cannot drain.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.placement import Placement
from repro.core.problem import PlacementResult
from repro.dwm.config import DWMConfig, PortPolicy
from repro.errors import ReproError
from repro.memory.result import SimulationResult

#: Bump when a payload layout changes incompatibly.
PROTOCOL_VERSION = 1


# ---------------------------------------------------------------------------
# Typed errors (shared by server responses and client exceptions)
# ---------------------------------------------------------------------------


class ServeError(ReproError):
    """Base service error: HTTP ``status`` plus a stable ``code``."""

    status = 500
    code = "internal"

    def __init__(self, message: str, *, status: int | None = None,
                 code: str | None = None) -> None:
        super().__init__(message)
        if status is not None:
            self.status = status
        if code is not None:
            self.code = code


class BadRequest(ServeError):
    """Malformed request body, unknown field values, oversized payload."""

    status = 400
    code = "bad_request"


class NotFound(ServeError):
    """Unknown trace id, job id, or route."""

    status = 404
    code = "not_found"


class RateLimited(ServeError):
    """Admission token bucket empty — typed 429, never a hang."""

    status = 429
    code = "rate_limited"


class Overloaded(ServeError):
    """Bounded compute queue full or server draining — typed 503."""

    status = 503
    code = "overloaded"


#: code → exception class, for the client to re-raise what the server threw.
ERROR_CODES: dict[str, type[ServeError]] = {
    cls.code: cls
    for cls in (BadRequest, NotFound, RateLimited, Overloaded, ServeError)
}


def error_payload(exc: ServeError) -> dict:
    """JSON body of an error response."""
    return {"error": {"code": exc.code, "message": str(exc)}}


#: status → default error code when the body doesn't carry one (e.g. a
#: failed-job status payload, whose "error" is a bare message string).
_STATUS_CODES = {400: "bad_request", 404: "not_found",
                 429: "rate_limited", 503: "overloaded"}


def raise_for_payload(status: int, payload: dict) -> None:
    """Client side: re-raise the typed error encoded in an error body."""
    error = payload.get("error")
    if isinstance(error, dict):
        code = error.get("code", "internal")
        message = error.get("message", f"HTTP {status}")
    else:
        code = _STATUS_CODES.get(status, "internal")
        message = str(error) if error else f"HTTP {status}"
    cls = ERROR_CODES.get(code, ServeError)
    raise cls(message, status=status, code=code)


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def config_from_payload(
    payload: dict | None,
    *,
    num_items: int,
) -> DWMConfig:
    """Build the requested geometry; defaults mirror the library defaults.

    With no payload (or only some keys) the array is sized to fit
    ``num_items`` exactly as :func:`repro.core.api.build_problem` would.
    """
    payload = dict(payload or {})
    try:
        words_per_dbc = int(payload.pop("words_per_dbc", 64))
        num_ports = int(payload.pop("num_ports", 1))
        policy = PortPolicy.parse(payload.pop("policy", PortPolicy.LAZY))
        num_dbcs = payload.pop("num_dbcs", None)
        if payload:
            raise BadRequest(
                f"unknown config field(s): {sorted(payload)}"
            )
        if num_dbcs is not None:
            return DWMConfig.with_uniform_ports(
                words_per_dbc=words_per_dbc,
                num_dbcs=int(num_dbcs),
                num_ports=num_ports,
                port_policy=policy,
            )
        return DWMConfig.for_items(
            num_items,
            words_per_dbc=words_per_dbc,
            num_ports=num_ports,
            port_policy=policy,
        )
    except BadRequest:
        raise
    except (TypeError, ValueError, ReproError) as exc:
        raise BadRequest(f"invalid config: {exc}") from exc


def config_key(config: DWMConfig) -> str:
    """Canonical caching key of a geometry (covers port layout)."""
    return json.dumps(
        {
            "words_per_dbc": config.words_per_dbc,
            "num_dbcs": config.num_dbcs,
            "bits_per_word": config.bits_per_word,
            "port_offsets": list(config.port_offsets),
            "policy": config.port_policy.value,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


# ---------------------------------------------------------------------------
# Placements and results
# ---------------------------------------------------------------------------


def placement_to_payload(placement: Placement) -> dict:
    """``{item: [dbc, offset]}`` JSON form."""
    return {item: list(slot) for item, slot in placement.as_dict().items()}


def placement_from_payload(payload: dict) -> Placement:
    """Rebuild a placement from its JSON form."""
    try:
        return Placement(
            {
                str(item): (int(slot[0]), int(slot[1]))
                for item, slot in payload.items()
            }
        )
    except (AttributeError, TypeError, ValueError, IndexError, KeyError) as exc:
        raise BadRequest(f"invalid placement payload: {exc}") from exc
    except ReproError as exc:
        raise BadRequest(f"invalid placement: {exc}") from exc


def result_to_payload(result: PlacementResult) -> dict:
    """JSON form of an optimize result."""
    return {
        "method": result.method,
        "total_shifts": result.total_shifts,
        "runtime_seconds": result.runtime_seconds,
        "placement": placement_to_payload(result.placement),
        "details": result.details,
    }


def sim_result_to_payload(result: SimulationResult) -> dict:
    """JSON form of a simulate result."""
    return {
        "trace_name": result.trace_name,
        "config": result.config_description,
        "shifts": result.shifts,
        "reads": result.reads,
        "writes": result.writes,
        "per_dbc_shifts": list(result.per_dbc_shifts),
        "max_access_shifts": result.max_access_shifts,
        "details": result.details,
    }


def simulate_key(
    trace_fingerprint: str,
    config: DWMConfig,
    placement_payload: dict,
) -> str:
    """Content hash of one simulate request (hex sha256).

    Keys the generic :meth:`~repro.analysis.cache.ResultCache.get`/``put``
    layer so warm simulate traffic is served without any compute, the same
    way :func:`~repro.analysis.cache.placement_key` fronts optimize runs.
    """
    document = {
        "kind": "simulate",
        "schema": PROTOCOL_VERSION,
        "trace": trace_fingerprint,
        "config": config_key(config),
        "placement": {
            str(item): [int(slot[0]), int(slot[1])]
            for item, slot in sorted(placement_payload.items())
        },
    }
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
