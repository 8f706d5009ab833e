"""Exception hierarchy for the SUNMAP reproduction.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CoreGraphError(ReproError):
    """Raised for malformed application core graphs."""


class TopologyError(ReproError):
    """Raised for invalid topology parameters or queries."""


class UnsupportedRoutingError(ReproError):
    """Raised when a routing function does not apply to a topology.

    Example: dimension-ordered routing is undefined for a 3-stage Clos
    network; the selector treats this as "skip this combination".
    """


class UnroutableError(UnsupportedRoutingError):
    """Raised when a fault set partitions a commodity's endpoints.

    Subclasses :class:`UnsupportedRoutingError` so every existing "skip
    this combination" handler (selector, engine job capture) treats a
    partitioned fabric like any other unroutable pairing — but callers
    that care can distinguish "routing function undefined here" from
    "this fabric is physically severed".
    """


class MappingInfeasibleError(ReproError):
    """Raised when no feasible mapping exists for a topology.

    A mapping is infeasible when the core count exceeds the slot count, or
    when every evaluated assignment violates the bandwidth or area
    constraints (e.g. MPEG4 on a butterfly, Section 6.1 of the paper).
    """


class FloorplanError(ReproError):
    """Raised when the LP floorplanner cannot produce a legal placement."""


class SimulationError(ReproError):
    """Raised for invalid simulator configuration or broken invariants."""


class GenerationError(ReproError):
    """Raised when SystemC generation is asked for an incomplete design."""


class RetryableError(ReproError):
    """Base class for transient infrastructure failures worth retrying.

    The resilience layer (:mod:`repro.engine.resilience`) re-runs a job
    whose failure is retryable — a crashed worker, a flaky filesystem —
    because the job itself is deterministic: success after a retry is
    bit-identical to first-try success. Domain errors (an infeasible
    mapping, an unroutable fabric) are *not* retryable: re-running
    deterministic work cannot change a deterministic answer.
    """


class WorkerCrashError(RetryableError):
    """Raised when a worker process died mid-job (broken process pool).

    The pool is rebuilt and the lost jobs resubmitted; a job that keeps
    crashing its worker exhausts its retry budget and surfaces as a
    :class:`~repro.engine.resilience.JobFailure`.
    """


class JobFailedError(ReproError):
    """Raised when a job failed permanently (retries exhausted or fatal).

    :meth:`~repro.engine.ExplorationEngine.run` maps a terminal
    :class:`~repro.engine.resilience.JobFailure` back to the original
    exception when one was captured, and to this class otherwise.
    """


class ServiceError(ReproError):
    """Raised for design-service failures (server setup, transport)."""


class ServiceBusyError(ServiceError, RetryableError):
    """Raised when the service's in-flight job budget is exhausted.

    Maps to the wire contract's typed ``busy`` error: the request was
    *not* admitted (nothing was computed), so the client should retry
    after :attr:`retry_after_s` seconds. Subclasses
    :class:`RetryableError` because retrying is exactly the remedy.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        """Create the error with a client backoff hint in seconds."""
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ContractError(ServiceError):
    """Raised when a design request violates the JSON contract.

    The message names the offending field path and constraint, so
    clients can fix the request without reading server logs; the server
    maps this to an ``invalid-request`` error envelope instead of
    crashing the connection.
    """
