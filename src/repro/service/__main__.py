"""``python -m repro.service`` — boot the simulation service.

Flags override ``REPRO_SERVICE_*`` environment variables, which
override the :class:`~repro.service.ServiceConfig` defaults.  With
``--port 0`` the OS assigns a free port; ``--port-file`` writes the
bound port to a file so a harness (CI's smoke job, the e2e tests) can
discover it without racing the listener.
"""

from __future__ import annotations

import argparse
import signal
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from ..errors import ConfigurationError
from ..telemetry import get_logger
from .app import create_server
from .broker import JobBroker
from .config import SERVICE_EXECUTORS, ServiceConfig

log = get_logger("repro.service.main")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve TLA cache simulations over HTTP.",
    )
    parser.add_argument("--host", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port", type=int, help="bind port; 0 = OS-assigned ephemeral port"
    )
    parser.add_argument(
        "--workers",
        type=int,
        help="worker processes; 0 executes jobs inline (serial mode)",
    )
    parser.add_argument(
        "--executor",
        choices=SERVICE_EXECUTORS,
        help="execution backend (default auto: serial when --workers 0, "
        "the local pool otherwise)",
    )
    parser.add_argument(
        "--queue-limit", type=int, help="global bound on queued jobs"
    )
    parser.add_argument(
        "--max-sweep-jobs",
        type=int,
        help="largest job count one sweep may expand to",
    )
    parser.add_argument(
        "--tenant-jobs", type=int, help="per-tenant queued-jobs quota"
    )
    parser.add_argument(
        "--tenant-instructions",
        type=int,
        help="per-tenant queued simulated-instructions quota",
    )
    parser.add_argument(
        "--cache-dir",
        help="result cache directory shared with the CLI "
        "(default .repro-cache)",
    )
    parser.add_argument(
        "--job-timeout", type=float, help="per-job timeout in seconds"
    )
    parser.add_argument(
        "--no-tracing",
        action="store_true",
        help="disable request tracing (spans); metrics stay on",
    )
    parser.add_argument(
        "--max-spans",
        type=int,
        help="bound on spans held in memory (default 20000)",
    )
    parser.add_argument(
        "--port-file",
        help="write the bound port to this file once listening "
        "(for harnesses using --port 0)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> ServiceConfig:
    """Environment-derived defaults, overridden by explicit flags."""
    config = ServiceConfig.from_env()
    overrides = {
        name: getattr(args, name)
        for name in (
            "host",
            "port",
            "workers",
            "executor",
            "queue_limit",
            "max_sweep_jobs",
            "tenant_jobs",
            "tenant_instructions",
            "cache_dir",
            "job_timeout",
            "max_spans",
        )
        if getattr(args, name) is not None
    }
    if args.no_tracing:
        overrides["tracing"] = False
    return replace(config, **overrides) if overrides else config


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    broker = JobBroker(config)
    server = create_server(config, broker=broker)
    host, port = server.server_address[:2]
    if args.port_file:
        Path(args.port_file).write_text(f"{port}\n")
    broker.start()
    log.info("service_listening", host=str(host), port=port)
    print(f"repro.service listening on http://{host}:{port}", flush=True)

    def _shutdown(signum, frame) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _shutdown)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        log.info("service_stopping")
        server.server_close()
        broker.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
