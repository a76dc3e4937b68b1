"""Service configuration: ports, workers, queue bounds, tenant quotas.

Every knob has a ``REPRO_SERVICE_*`` environment equivalent so the
server can be configured without flags (containers, CI); explicit CLI
flags override the environment.  Validation happens eagerly in
``__post_init__`` — a service must refuse to boot with a nonsensical
capacity configuration rather than discover it under load.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..config import env_flag
from ..errors import ConfigurationError
from ..orchestrate.executor import EXECUTOR_KINDS
from ..sanitize import env_override

#: accepted ``--executor`` / ``REPRO_SERVICE_EXECUTOR`` values.
SERVICE_EXECUTORS = ("auto",) + EXECUTOR_KINDS


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one ``repro.service`` instance.

    Capacity model: at most ``queue_limit`` jobs may be queued (not yet
    running) across all tenants; per tenant, at most ``tenant_jobs``
    queued jobs and ``tenant_instructions`` queued simulated
    instructions (``job.quota x cores`` summed over that tenant's
    queued jobs).  Cache hits and in-flight coalesced jobs are free —
    they occupy no queue slot and charge no quota, which is what makes
    identical concurrent sweeps cheap by construction.
    """

    host: str = "127.0.0.1"
    port: int = 8321
    #: worker processes for job execution; 0 executes jobs inline on
    #: the broker thread (no subprocesses — the serial fallback mode).
    workers: int = 2
    #: execution backend: ``auto`` (serial when ``workers == 0``, the
    #: local pool otherwise), ``serial`` or ``pool``.
    executor: str = "auto"
    #: bound on queued (admitted, not yet dispatched) jobs, all tenants.
    queue_limit: int = 256
    #: largest number of jobs one sweep submission may expand to.
    max_sweep_jobs: int = 512
    #: per-tenant bound on queued jobs.
    tenant_jobs: int = 128
    #: per-tenant bound on queued simulated instructions (quota x cores).
    tenant_instructions: int = 500_000_000
    #: result cache directory shared with the CLI (same entries, same
    #: bytes); ``None`` keeps the memo in memory only.
    cache_dir: Optional[str] = ".repro-cache"
    #: per-job timeout in seconds on the worker pool; None = none.
    job_timeout: Optional[float] = None
    #: retry budget per job (matches the orchestrator's default).
    retries: int = 2
    #: base of the exponential retry backoff, seconds.
    backoff: float = 0.25
    #: largest accepted request body, bytes (sweep specs are small;
    #: anything bigger is a client bug, not a bigger sweep).
    max_body_bytes: int = 4_000_000
    #: request-scoped tracing (repro.obs): mint/propagate trace ids,
    #: record spans, export per-sweep span artefacts.  Off makes every
    #: tracing hook a no-op (disabled-is-free); the metrics registry
    #: is always on — it backs /v1/metrics.
    tracing: bool = True
    #: bound on spans held in memory; newest spans beyond it are
    #: dropped (and counted) rather than evicting parents.
    max_spans: int = 20_000

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 0")
        if self.executor not in SERVICE_EXECUTORS:
            raise ConfigurationError(
                f"executor must be one of {SERVICE_EXECUTORS}, "
                f"not {self.executor!r}"
            )
        if not 0 <= self.port <= 65535:
            raise ConfigurationError("port must be in [0, 65535]")
        if self.queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        if self.max_sweep_jobs < 1:
            raise ConfigurationError("max_sweep_jobs must be >= 1")
        if self.tenant_jobs < 1:
            raise ConfigurationError("tenant_jobs must be >= 1")
        if self.tenant_instructions < 1:
            raise ConfigurationError("tenant_instructions must be >= 1")
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.backoff < 0:
            raise ConfigurationError("backoff must be >= 0")
        if self.max_body_bytes < 1:
            raise ConfigurationError("max_body_bytes must be >= 1")
        if self.max_spans < 1:
            raise ConfigurationError("max_spans must be >= 1")

    @classmethod
    def from_env(cls) -> "ServiceConfig":
        env = os.environ

        def _get(name: str, default, cast):
            raw = env.get(f"REPRO_SERVICE_{name}", "")
            return cast(raw) if raw else default

        timeout = env.get("REPRO_SERVICE_JOB_TIMEOUT", "")
        # jobs read REPRO_SANITIZE as they build their hierarchies;
        # parsing it here makes a malformed value fail at boot.
        env_override(False)
        return cls(
            host=_get("HOST", cls.host, str),
            port=_get("PORT", cls.port, int),
            workers=_get("WORKERS", cls.workers, int),
            executor=_get("EXECUTOR", cls.executor, str),
            queue_limit=_get("QUEUE_LIMIT", cls.queue_limit, int),
            max_sweep_jobs=_get("MAX_SWEEP_JOBS", cls.max_sweep_jobs, int),
            tenant_jobs=_get("TENANT_JOBS", cls.tenant_jobs, int),
            tenant_instructions=_get(
                "TENANT_INSTRUCTIONS", cls.tenant_instructions, int
            ),
            cache_dir=env.get("REPRO_SERVICE_CACHE_DIR", cls.cache_dir),
            job_timeout=float(timeout) if timeout else None,
            retries=_get("RETRIES", cls.retries, int),
            backoff=_get("BACKOFF", cls.backoff, float),
            tracing=env_flag("REPRO_SERVICE_TRACING", cls.tracing),
            max_spans=_get("MAX_SPANS", cls.max_spans, int),
        )
