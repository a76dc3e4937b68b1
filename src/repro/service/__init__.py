"""``repro.service`` — the simulator as a long-lived HTTP service.

A stdlib-only (``http.server``) job API over the orchestration layer:
clients ``POST /v1/sweeps`` with a JSON sweep spec, the
:class:`JobBroker` decomposes it into :class:`~repro.orchestrate.SimJob`
entries and admits them against a bounded queue and per-tenant quotas,
and one shared worker pool + result cache executes each unique
:func:`~repro.orchestrate.job_key` exactly once no matter how many
clients ask for it (memoization, in-flight coalescing, in-sweep dedup).

Layering::

    __main__      CLI entrypoint (python -m repro.service)
    app           HTTP router/handlers (ThreadingHTTPServer)
    broker        admission control + shared execution engine
    schemas       sweep-spec validation, job wire form
    config        ServiceConfig (+ REPRO_SERVICE_* environment)

See DESIGN.md §9 for the admission-control and dedup contract, and the
README's "Running as a service" section for a curl walkthrough.
"""

from ..orchestrate.cache import summary_to_dict
from .app import ReproServiceServer, ServiceRequestHandler, create_server
from .broker import (
    JOB_CACHED,
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    METRICS_SCHEMA,
    JobBroker,
    Sweep,
)
from .config import ServiceConfig
from .schemas import (
    GRID_SCHEMA,
    JOB_SCHEMA,
    SWEEP_SPEC_SCHEMA,
    expand_spec,
    job_from_dict,
    job_to_dict,
)

__all__ = [
    "GRID_SCHEMA",
    "JOB_CACHED",
    "JOB_CANCELLED",
    "JOB_DONE",
    "JOB_FAILED",
    "JOB_QUEUED",
    "JOB_RUNNING",
    "JOB_SCHEMA",
    "JobBroker",
    "METRICS_SCHEMA",
    "ReproServiceServer",
    "SWEEP_SPEC_SCHEMA",
    "ServiceConfig",
    "ServiceRequestHandler",
    "Sweep",
    "create_server",
    "expand_spec",
    "job_from_dict",
    "job_to_dict",
    "summary_to_dict",
]
