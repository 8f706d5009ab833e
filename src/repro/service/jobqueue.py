"""Request-level dedup for the design service.

:class:`InFlightTable` turns N concurrent identical design requests
into one computation, without changing a single result bit: requests
with the same normalized contract fingerprint that overlap in time
share one computation — the first becomes the owner, the rest await
its future. This is the request-granularity analogue of the engine's
in-batch job dedup, and it is what makes a thundering herd of
identical queries cost one evaluation pass.
"""

from __future__ import annotations

import asyncio

from repro.obs import metrics as obs_metrics

_DEDUPED = obs_metrics.REGISTRY.counter(
    "repro_service_deduped_total",
    "Requests that joined an identical in-flight computation",
)


class InFlightTable:
    """Fingerprint → future map of requests currently being computed.

    Single-threaded by design: all calls happen on the event-loop
    thread (the compute itself runs in a worker thread, but joining,
    resolving and rejecting are loop-side), so no lock is needed.
    """

    def __init__(self):
        """Create an empty table."""
        self._futures: dict[str, asyncio.Future] = {}
        #: Requests that joined an in-flight computation instead of
        #: starting their own (asserted by the dedup tests).
        self.deduped = 0

    def join(self, fingerprint: str) -> tuple[asyncio.Future, bool]:
        """Return ``(future, owner)`` for a request fingerprint.

        The first caller for a fingerprint becomes the owner
        (``owner=True``): it must compute the result and call
        :meth:`resolve` or :meth:`reject`. Later callers get the same
        future with ``owner=False`` and simply await it.
        """
        future = self._futures.get(fingerprint)
        if future is not None:
            self.deduped += 1
            _DEDUPED.inc()
            return future, False
        future = asyncio.get_running_loop().create_future()
        self._futures[fingerprint] = future
        return future, True

    def resolve(self, fingerprint: str, result) -> None:
        """Deliver the owner's result to every awaiter and retire the entry."""
        future = self._futures.pop(fingerprint)
        if not future.done():
            future.set_result(result)

    def reject(self, fingerprint: str, exc: BaseException) -> None:
        """Deliver the owner's failure to every awaiter and retire the entry."""
        future = self._futures.pop(fingerprint)
        if not future.done():
            future.set_exception(exc)
            # Mark the exception as retrieved: when no follower joined,
            # nobody awaits this future and asyncio would otherwise log
            # "exception was never retrieved" at GC time.
            future.exception()

    def __len__(self) -> int:
        """Number of computations currently in flight."""
        return len(self._futures)
