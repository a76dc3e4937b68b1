"""Run experiments against a ``repro.service`` instance over HTTP.

:class:`ServiceClient` is a thin stdlib (``urllib``) client for the
service API; :class:`RemoteRunner` plugs it under the experiment
drivers as a drop-in :class:`~repro.experiments.runner.Runner`, so
``python -m repro.experiments --submit URL figure7`` produces exactly
the table a local run would — every simulation is just executed (and
memoized) server-side.

The dedup contract: the client resolves run requests into fully
explicit :class:`~repro.orchestrate.SimJob` objects with the *same*
``build_job`` the local path uses, serialises their identity knobs
with :func:`~repro.service.schemas.job_to_dict`, and the server
reconstructs jobs whose :func:`~repro.orchestrate.job_key` matches the
client's.  Results fetched back are the cache's own JSON shape, so the
server's ``.repro-cache`` entries are byte-identical to local ones.

Remote submission always runs untraced: event tracing and host phase
attribution are host-side observability that belongs to the machine
doing the executing, so those knobs are stripped before serialisation
(they never join the job key anyway).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Mapping, Optional

from ..errors import (
    AdmissionError,
    ExperimentError,
    ServiceError,
    SweepSpecError,
)
from ..obs import new_trace_id
from ..orchestrate import ResultCache, RunSummary, SimJob, job_key
from ..service.broker import SWEEP_RUNNING
from ..service.schemas import job_to_dict
from ..telemetry import get_logger
from .runner import Runner, build_job

log = get_logger("repro.experiments.remote")

#: terminal per-job states that carry a fetchable result.
_OK_STATES = frozenset({"done", "cached"})


class ServiceClient:
    """Minimal HTTP client for the ``repro.service`` API."""

    def __init__(
        self,
        base_url: str,
        tenant: Optional[str] = None,
        timeout: float = 30.0,
        trace_id: Optional[str] = None,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout = timeout
        #: client-minted trace id sent as ``X-Repro-Trace`` on every
        #: request, so the server's access log, spans, and manifest
        #: entries all join back to this client session.
        self.trace_id = trace_id if trace_id is not None else new_trace_id()

    def _request(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> Dict[str, Any]:
        headers = {"Content-Type": "application/json"}
        if self.tenant:
            headers["X-Repro-Tenant"] = self.tenant
        if self.trace_id:
            headers["X-Repro-Trace"] = self.trace_id
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=json.dumps(body).encode() if body is not None else None,
            headers=headers,
            method=method,
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            payload = exc.read()
            try:
                message = json.loads(payload).get("error", "")
            except ValueError:
                message = payload.decode(errors="replace")
            if exc.code == 400:
                raise SweepSpecError(message) from exc
            if exc.code == 429:
                raise AdmissionError(message) from exc
            raise ServiceError(
                f"{method} {path} -> HTTP {exc.code}: {message}"
            ) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc.reason}"
            ) from exc

    # -- API calls -------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/metrics")

    def submit_jobs(self, jobs: List[SimJob]) -> Dict[str, Any]:
        """POST a fully-resolved job list; returns the sweep snapshot."""
        body = {"jobs": [job_to_dict(job) for job in jobs]}
        return self._request("POST", "/v1/sweeps", body)["sweep"]

    def sweep(self, sweep_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/sweeps/{sweep_id}")["sweep"]

    def cancel(self, sweep_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/sweeps/{sweep_id}")

    def result(self, key: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{key}/result")

    def wait(
        self,
        sweep_id: str,
        poll_s: float = 0.25,
        timeout: Optional[float] = None,
        on_progress=None,
    ) -> Dict[str, Any]:
        """Poll until the sweep leaves the running state.

        ``on_progress`` (snapshot -> None) fires once per poll; raises
        :class:`ServiceError` if ``timeout`` seconds pass first.
        """
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        while True:
            snapshot = self.sweep(sweep_id)
            if on_progress is not None:
                on_progress(snapshot)
            if snapshot["state"] != SWEEP_RUNNING:
                return snapshot
            if deadline is not None and time.perf_counter() > deadline:
                raise ServiceError(
                    f"sweep {sweep_id} still running after {timeout}s"
                )
            time.sleep(poll_s)


class RemoteRunner(Runner):
    """A :class:`Runner` whose simulations execute on a service.

    The local result cache is memory-only: a remote run must observe
    the *server's* memoization, not shortcut through whatever stale
    ``.repro-cache`` happens to sit in the client's working directory.
    Within one process, repeated requests for the same key are still
    free (the memory tier memoizes fetched results).
    """

    def __init__(
        self,
        url: str,
        settings=None,
        reporter=None,
        telemetry=None,
        tenant: Optional[str] = None,
        poll_s: float = 0.25,
    ) -> None:
        super().__init__(settings, reporter=reporter, telemetry=telemetry)
        self.client = ServiceClient(url, tenant=tenant)
        self.cache = ResultCache(None)
        self.poll_s = poll_s

    # -- execution over HTTP ---------------------------------------------------
    def run(
        self,
        mix,
        mode: str = "inclusive",
        tla: str = "none",
        llc_bytes=None,
        tla_config=None,
        quota=None,
        warmup=None,
        victim_cache_entries: int = 0,
        intervals=None,
    ) -> RunSummary:
        job = _wire_job(
            build_job(
                self.settings, mix, mode, tla, llc_bytes, tla_config,
                quota, warmup, victim_cache_entries, intervals,
            )
        )
        return self._run_remote([job])[0]

    def run_many(
        self, requests: Iterable[Mapping], jobs=None
    ) -> List[RunSummary]:
        sim_jobs = []
        for request in requests:
            request = dict(request)
            try:
                mix = request.pop("mix")
            except KeyError:
                raise ExperimentError(
                    "run_many request needs a 'mix' entry"
                ) from None
            sim_jobs.append(
                _wire_job(build_job(self.settings, mix, **request))
            )
        return self._run_remote(sim_jobs)

    def _run_remote(self, sim_jobs: List[SimJob]) -> List[RunSummary]:
        keys = [job_key(job) for job in sim_jobs]
        missing = {}
        for key, job in zip(keys, sim_jobs):
            if self.cache.load(key) is None:
                missing.setdefault(key, job)
        if missing:
            self._submit_and_fetch(list(missing.values()))
        results = []
        for key in keys:
            summary = self.cache.load(key)
            if summary is None:  # _submit_and_fetch raises first, but be safe
                raise ExperimentError(f"no remote result for job {key}")
            results.append(summary)
        return results

    def _submit_and_fetch(self, jobs: List[SimJob]) -> None:
        sweep = self.client.submit_jobs(jobs)
        log.info(
            "sweep_submitted",
            sweep=sweep["id"],
            total=sweep["total"],
            url=self.client.base_url,
            trace_id=self.client.trace_id,
        )
        if self.reporter is not None:
            self.reporter.start(
                sweep["total"], cached=sweep["counts"].get("cached", 0)
            )
        final = self.client.wait(
            sweep["id"], poll_s=self.poll_s, on_progress=self._on_progress
        )
        if self.reporter is not None:
            self.reporter.finish()
        bad = [
            f"{entry['label'] or entry['key']}: "
            f"{entry.get('error', entry['status'])}"
            for entry in final["jobs"]
            if entry["status"] not in _OK_STATES
        ]
        if bad:
            raise ExperimentError(
                f"remote sweep {final['id']} failed: " + "; ".join(bad)
            )
        for entry in final["jobs"]:
            payload = self.client.result(entry["key"])
            self.cache.store(entry["key"], RunSummary(**payload))

    def _on_progress(self, snapshot: Dict[str, Any]) -> None:
        if self.reporter is None:
            return
        counts = snapshot["counts"]
        self.reporter.update(
            completed=counts.get("done", 0) + counts.get("cached", 0),
            failed=counts.get("failed", 0) + counts.get("cancelled", 0),
            running=counts.get("running", 0),
            workers=0,
        )


def _wire_job(job: SimJob) -> SimJob:
    """Strip host-side observability so the job matches its wire form."""
    if not (job.trace or job.host_phases or job.trace_out):
        return job
    return replace(
        job,
        trace=False,
        trace_out=None,
        trace_sample=1,
        trace_categories=(),
        host_phases=False,
    )
