"""Design-service layer: one warm engine answering many design requests.

This package turns the library's batch flows into a long-lived service:

* :mod:`~repro.service.contract` — the versioned JSON request/response
  contract (``select`` / ``synthesize`` / ``campaign`` envelopes,
  validation, normalization, request fingerprints). Documented with
  worked examples in ``docs/SERVICE_API.md``.
* :mod:`~repro.service.jobqueue` — in-flight request dedup,
  bit-neutral by construction.
* :mod:`~repro.service.server` — the asyncio server
  (:class:`DesignService`), its newline-delimited-JSON transport, and
  the :func:`submit` client used by ``repro submit``.

The service guarantees the same invariant as every other layer: a
response's ``result`` is byte-identical to the equivalent direct
library call, whatever the cache backend, dedup or concurrency
(``docs/ARCHITECTURE.md`` walks the full request lifecycle).
"""

from repro.service.contract import (
    CACHE_CONTROLS,
    CONTRACT_VERSION,
    KINDS,
    DesignRequest,
    DesignResponse,
    error_response,
    parse_request,
)
from repro.service.jobqueue import InFlightTable
from repro.service.server import DesignService, submit, submit_async

__all__ = [
    "CACHE_CONTROLS",
    "CONTRACT_VERSION",
    "KINDS",
    "DesignRequest",
    "DesignResponse",
    "DesignService",
    "InFlightTable",
    "error_response",
    "parse_request",
    "submit",
    "submit_async",
]
