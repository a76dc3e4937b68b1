"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A configuration object is inconsistent or out of range.

    Raised eagerly at construction time (e.g. a cache whose size is not
    divisible by ``associativity * line_size``) so that simulations
    never start from an invalid machine description.
    """


class SimulationError(ReproError):
    """An invariant was violated while a simulation was running.

    This always indicates a bug in the simulator (or a hand-built,
    inconsistent hierarchy), never a property of the workload.
    """


class SanitizerError(SimulationError):
    """A CacheSan invariant checker found corrupted hierarchy state.

    Raised in fail-fast mode by :class:`repro.sanitize.HierarchySanitizer`;
    the message carries every violation found in the failing scan, each
    with the set/way/line-address coordinates of the corrupt state.
    """


class InclusionViolationError(SimulationError):
    """A line was found in a core cache but not in an inclusive LLC."""


class TraceError(ReproError):
    """A trace record or trace file could not be parsed or generated."""


class ExperimentError(ReproError):
    """An experiment driver was asked for an unknown or invalid run."""


class EvalError(ExperimentError):
    """An evaluation request could not be satisfied.

    Raised by :mod:`repro.eval` when pairing finds no usable runs
    (empty cache, missing baseline policy) or a statistics routine is
    asked for a degenerate computation (no paired samples, bad
    confidence level).
    """


class OrchestrationError(ExperimentError):
    """A parallel sweep could not complete.

    Raised by :class:`repro.orchestrate.Orchestrator` when jobs keep
    failing past their retry budget, or when the worker pool cannot be
    (re)built at all.  The message lists every permanently failed job
    with its final error; partial results stay in the result cache, so
    re-running the sweep only re-executes the failed jobs.
    """


class ExecutorConfigError(OrchestrationError):
    """An execution backend was *misconfigured* by the caller.

    An unknown executor kind, or a pool asked for no workers.
    Distinguished from environment failures (no subprocesses available
    on this box) so the scheduler can refuse a bad configuration
    loudly instead of silently degrading to serial — a user who asked
    for a parallel sweep must not discover at the end that it ran
    single-threaded because of a typo.
    """


class UnknownPolicyError(ConfigurationError):
    """A replacement or TLA policy name did not match any registered one."""


class ServiceError(ReproError):
    """Base class for errors raised by the ``repro.service`` layer."""


class SweepSpecError(ServiceError):
    """A submitted sweep specification failed validation.

    Raised before any job is admitted, so a bad spec never occupies
    queue capacity; the HTTP layer maps it to ``400 Bad Request`` with
    the validation errors in the response body.
    """


class AdmissionError(ServiceError):
    """The service refused a sweep for capacity reasons (HTTP 429).

    ``retry_after`` is the backpressure hint (seconds) surfaced as the
    ``Retry-After`` response header.  Admission is all-or-nothing: a
    refused sweep admits none of its jobs, so a retried submission is
    idempotent thanks to job-key dedup.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QueueFullError(AdmissionError):
    """The bounded admission queue has no room for the sweep's jobs."""


class QuotaExceededError(AdmissionError):
    """A tenant's queued-jobs or queued-instructions budget is spent."""
