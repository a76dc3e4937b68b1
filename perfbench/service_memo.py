"""``service_memo``: cold and memoized round trips through the service.

Boots ``python -m repro.service`` as its own process (pool executor,
one worker) and drives it from this process as one closed-loop client
with one connection open at a time.  The client learns that a sweep
finished from its NDJSON event stream (polling at the stock client's
0.25 s would round every cold round trip up to that step).

Each round POSTs one sweep of two never-seen short-quota jobs (one mix
under the inclusive baseline and under a TLA policy), re-POSTs it
at once so its jobs coalesce in flight, waits for the event stream to
end and fetches both results: the cold round trip.  It then re-POSTs
earlier finished sweeps and fetches their results (memoized round
trips served from ``ResultCache`` reads beside the cold sweeps'
writes), re-POSTs the union of the last few sweeps and fetches its
``/report``.  HTTP, admission, dispatch, dedup, cache reads and the
pool dominate; simulation is a small share.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    SETUP_PROBES,
    BenchError,
    CheckFailed,
    HostSpeed,
    Spans,
    check_counts_equal,
    check_pinned,
    child_env,
    entries_digest,
    median,
    percentile,
    process_peak_rss_mb,
    put_host_scaled,
)
from sweeps import direct_hit_ratios, put_message_counts

SCALE = 0.015625
WARMUP = 1500
QUOTA = 1500
#: one pool worker leaves the second CPU of a two-CPU host to the
#: service's HTTP threads and this client, so round trips measure the
#: service rather than CPU contention between two busy workers.
WORKERS = 1
BASELINE = ("inclusive", "none")
CANDIDATES = (
    ("inclusive", "eci"),
    ("inclusive", "qbs"),
    ("inclusive", "tlh-l1"),
    ("non_inclusive", "none"),
)
#: memoized re-POSTs per round; 100 rounds give 2000 samples, so
#: ``memo_roundtrip_ms_p99`` has twenty beyond it.
MEMO_PER_ROUND = 20
#: the ``/report`` of each round covers this many recent sweeps.
UNION_SWEEPS = 8
REPORT_RESAMPLES = 200
#: an untraced run measures at least this many rounds (100 cold round
#: trips put ten samples beyond ``cold_roundtrip_s_p90``).
MIN_ROUNDS = 100
#: rounds per service in the traced run (once untraced, once traced).
TRACED_ROUNDS = 40
#: the output digest covers the results of the first jobs submitted.
DIGEST_JOBS = 16
#: cold jobs re-run through the serial ``Runner`` and compared.
VERIFY_JOBS = 3
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def _settings(cache_dir: Optional[Path] = None):
    from repro.experiments import ExperimentSettings

    return ExperimentSettings(
        scale=SCALE,
        quota=QUOTA,
        warmup=WARMUP,
        cache_dir=str(cache_dir) if cache_dir else None,
    )


@dataclass(frozen=True)
class ColdSweep:
    mix: object
    policies: Tuple[Tuple[str, str], ...]
    jobs: Tuple
    keys: Tuple[str, ...]
    body: bytes


def cold_sweeps(seed: int) -> List[ColdSweep]:
    """Every pair in both core orders, each with the baseline and one
    candidate policy; no two sweeps share a job.

    The order is seed-drawn but stratified: every workload category
    (CCF+LLCT, LLCT+LLCT, ...) is spread evenly along it and the
    candidates take turns, so whatever prefix a run gets through has
    the same mix of job costs for every seed.
    """
    from repro.experiments.runner import build_job
    from repro.orchestrate import job_key
    from repro.service import job_to_dict
    from repro.workloads import WorkloadMix, all_two_core_mixes, mix_category

    rng = random.Random(f"service_memo:{seed}")
    pairs = [tuple(m.apps) for m in all_two_core_mixes()]
    pairs += [apps[::-1] for apps in pairs]
    groups: Dict[str, List[Tuple[str, ...]]] = {}
    for apps in pairs:
        groups.setdefault(mix_category(apps), []).append(apps)
    placed = []
    for name in sorted(groups):
        members = groups[name]
        rng.shuffle(members)
        offset = rng.random()
        placed += [((i + offset) / len(members), apps) for i, apps in enumerate(members)]
    placed.sort()
    candidates = list(CANDIDATES)
    rng.shuffle(candidates)
    settings = _settings()
    sweeps = []
    for index, (_, apps) in enumerate(placed):
        mix = WorkloadMix("+".join(apps), apps)
        policies = (BASELINE, candidates[index % len(candidates)])
        jobs = tuple(build_job(settings, mix, mode, tla) for mode, tla in policies)
        body = json.dumps({"jobs": [job_to_dict(job) for job in jobs]}).encode()
        keys = tuple(job_key(job) for job in jobs)
        sweeps.append(ColdSweep(mix, policies, jobs, keys, body))
    return sweeps


class Service:
    """One ``python -m repro.service`` process on an ephemeral port."""

    def __init__(self, work: Path, tag: str, tracing: bool) -> None:
        self.cache_dir = work / f"cache-{tag}"
        self.port_file = work / f"port-{tag}"
        self.log_path = work / f"service-{tag}.log"
        argv = [
            sys.executable, "-m", "repro.service",
            "--port", "0",
            "--port-file", str(self.port_file),
            "--executor", "pool",
            "--workers", str(WORKERS),
            "--cache-dir", str(self.cache_dir),
        ]
        if not tracing:
            argv.append("--no-tracing")
        started = time.perf_counter()
        self._log = self.log_path.open("w")
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
            env=child_env(),
            cwd=str(work),
        )
        try:
            self.port = self._wait_port(started)
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started

    def _wait_port(self, started: float) -> int:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise BenchError(f"service exited at boot: {self._log_tail()}")
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.endswith("\n"):
                return int(text)
            time.sleep(0.002)
        raise BenchError("service did not bind a port")

    def _wait_healthy(self, started: float) -> None:
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/v1/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise BenchError("service never became healthy")

    def _log_tail(self) -> str:
        self._log.flush()
        return self.log_path.read_text()[-2000:]

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class Client:
    """Closed-loop HTTP client, one connection per request as the
    program's own ``ServiceClient`` uses.  (On a kept-alive connection
    the service's separate header and body writes meet delayed ACKs, so
    every response would stall ~40 ms and hide the service's own time.)
    """

    def __init__(self, port: int, spans: Spans) -> None:
        self.port = port
        self.spans = spans
        self.attempted = 0
        self.failed = 0

    def call(self, span: str, method: str, path: str, body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body else {}
        self.attempted += 1
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            with self.spans.span(span):
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
        finally:
            conn.close()
        if response.status >= 400:
            self.failed += 1
            raise CheckFailed(f"{method} {path} -> {response.status}: {data[:300]!r}")
        return response.status, data

    def events(self, sweep_id: str) -> List[Dict]:
        """The sweep's event stream, read until the service closes it
        (which it does once the sweep is terminal)."""
        _, data = self.call("events", "GET", f"/v1/sweeps/{sweep_id}/events")
        return [json.loads(line) for line in data.splitlines() if line]


@dataclass
class Session:
    """What one service session measured."""

    round_s: List[float] = field(default_factory=list)
    cold_s: List[float] = field(default_factory=list)
    memo_ms: List[float] = field(default_factory=list)
    job_s: List[float] = field(default_factory=list)
    instructions: int = 0
    accesses: int = 0
    loop_s: float = 0.0
    requests: int = 0
    cold_ids: List[str] = field(default_factory=list)
    #: key -> result body as first fetched.
    results: Dict[str, bytes] = field(default_factory=dict)
    submitted: List[str] = field(default_factory=list)
    done_hosts: List[Dict] = field(default_factory=list)


def run_session(client: Client, sweeps: List[ColdSweep], seed: int,
                min_rounds: int, seconds: float,
                speed: Optional[HostSpeed] = None) -> Session:
    """Rounds until ``seconds`` passed and ``min_rounds`` ran; a host
    speed sample precedes each round, outside every measured span."""
    rng = random.Random(f"service_memo:memo:{seed}")
    session = Session()
    finished: List[ColdSweep] = []
    sampling_s = 0.0
    start = time.perf_counter()
    for sweep in sweeps:
        if len(finished) >= min_rounds and time.perf_counter() - start >= seconds:
            break
        if speed is not None:
            sampling_s += speed.sample()
        began = time.perf_counter()
        _, data = client.call("submit", "POST", "/v1/sweeps", sweep.body)
        snapshot = json.loads(data)["sweep"]
        if tuple(job["key"] for job in snapshot["jobs"]) != sweep.keys:
            raise CheckFailed("service assigned different job keys")
        client.call("submit", "POST", "/v1/sweeps", sweep.body)  # coalesces
        for event in client.events(snapshot["id"]):
            if event["event"] == "job_failed":
                raise CheckFailed(f"job failed: {event.get('error')}")
            if event["event"] == "job_done":
                host = event["host"]
                session.job_s.append(host["job_wall_s"])
                session.instructions += int(host["instructions"])
                session.accesses += int(host["accesses"])
                session.done_hosts.append(host)
        for key in sweep.keys:
            _, body = client.call("result", "GET", f"/v1/jobs/{key}/result")
            session.results[key] = body
        session.cold_s.append(time.perf_counter() - began)
        session.cold_ids.append(snapshot["id"])
        session.submitted.extend(sweep.keys)
        finished.append(sweep)
        for _ in range(MEMO_PER_ROUND):
            session.memo_ms.append(_memo_roundtrip(client, rng.choice(finished), session))
        union = finished[-UNION_SWEEPS:]
        body = json.dumps(
            {"jobs": [json.loads(s.body)["jobs"][i] for s in union for i in range(2)]}
        ).encode()
        _, data = client.call("submit", "POST", "/v1/sweeps", body)
        union_id = json.loads(data)["sweep"]["id"]
        _, data = client.call(
            "report", "GET",
            f"/v1/sweeps/{union_id}/report?resamples={REPORT_RESAMPLES}",
        )
        if not json.loads(data).get("comparisons"):
            raise CheckFailed(f"report for {union_id} has no comparisons")
        session.round_s.append(time.perf_counter() - began)
    session.loop_s = time.perf_counter() - start - sampling_s
    session.requests = client.attempted
    return session


def _memo_roundtrip(client: Client, sweep: ColdSweep, session: Session) -> float:
    began = time.perf_counter()
    _, data = client.call("submit", "POST", "/v1/sweeps", sweep.body)
    snapshot = json.loads(data)["sweep"]
    if snapshot["state"] == "running":
        client.events(snapshot["id"])
    bodies = [
        client.call("result", "GET", f"/v1/jobs/{key}/result")[1]
        for key in sweep.keys
    ]
    elapsed_ms = (time.perf_counter() - began) * 1000.0
    for key, body in zip(sweep.keys, bodies):
        if body != session.results[key]:
            raise CheckFailed(f"memoized result of {key} differs from its cold fetch")
    return elapsed_ms


def check_outputs(service: Service, session: Session, sweeps: List[ColdSweep],
                  seed: int, work: Path, golden: Path) -> str:
    """Cache bytes vs HTTP bodies, serial re-runs, pinned digest."""
    for key, body in session.results.items():
        stored = (service.cache_dir / f"{key}.json").read_bytes()
        if json.dumps(json.loads(stored), sort_keys=True).encode() != body:
            raise CheckFailed(f"HTTP result of {key} differs from its cache entry")
    digest = entries_digest(
        (key, (service.cache_dir / f"{key}.json").read_bytes())
        for key in session.submitted[:DIGEST_JOBS]
    )
    check_pinned(golden, "service_memo", seed, digest)
    from repro.experiments import Runner

    runner = Runner(_settings(work / "serial"))
    ran = [s for s in sweeps if s.keys[0] in session.results]
    rng = random.Random(f"service_memo:verify:{seed}")
    for sweep in rng.sample(ran, min(VERIFY_JOBS, len(ran))):
        mode, tla = sweep.policies[1]
        runner.run(sweep.mix, mode, tla)
        key = sweep.keys[1]
        serial = runner.cache.path_for(key).read_bytes()
        if serial != (service.cache_dir / f"{key}.json").read_bytes():
            raise CheckFailed(f"service result of {key} differs from the serial Runner's")
    return digest


def setup(workload: str, seed: int, work: Path):
    """Imports and the seed's job list (a service boot is timed apart)."""
    from repro.service import job_to_dict  # noqa: F401

    return cold_sweeps(seed)


def untraced(workload, seed, seconds, sweeps, work, result, golden):
    """The end-to-end run: service boots, then rounds for ``seconds``."""
    speed = HostSpeed()
    boots = []
    for index in range(SETUP_PROBES - 1):
        probe = Service(work, f"probe{index}", tracing=False)
        boots.append(probe.boot_s)
        probe.stop()
        speed.sample()
    service = Service(work, "run", tracing=False)
    boots.append(service.boot_s)
    client = Client(service.port, Spans())
    try:
        session = run_session(client, sweeps, seed, MIN_ROUNDS, seconds, speed)
        metrics = json.loads(client.call("metrics", "GET", "/v1/metrics")[1])
        peak = service.peak_rss_mb()
    finally:
        result.attempted += client.attempted
        result.failed += client.failed
        service.stop()
    if metrics["jobs"]["jobs_failed"]:
        raise CheckFailed(f"{metrics['jobs']['jobs_failed']} job(s) failed in the service")
    digest = check_outputs(service, session, sweeps, seed, work, golden)
    measured = {
        "setup_s": median(boots),
        "wall_s": median(session.round_s),
        "sim_instr_per_s": session.instructions / session.loop_s,
        "job_s_p50": percentile(session.job_s, 0.50),
        "job_s_p90": percentile(session.job_s, 0.90),
        "cold_roundtrip_s_p50": percentile(session.cold_s, 0.50),
        "cold_roundtrip_s_p90": percentile(session.cold_s, 0.90),
        "memo_roundtrip_ms_p50": percentile(session.memo_ms, 0.50),
        "memo_roundtrip_ms_p99": percentile(session.memo_ms, 0.99),
        "requests_per_s": session.requests / session.loop_s,
    }
    put_host_scaled(result, measured, speed)
    result.put("peak_rss_mb", peak, "MiB")
    result.note(
        f"service_memo seed {seed}: {len(session.round_s)} rounds in "
        f"{session.loop_s:.1f} s, digest {digest}"
    )
    result.note(
        f"samples: cold_roundtrip {len(session.cold_s)}, memo_roundtrip "
        f"{len(session.memo_ms)}, job_s {len(session.job_s)}; setup_s "
        "samples " + ", ".join(f"{b:.3f}" for b in boots)
    )


def traced(workload, seed, sweeps, work, result, golden):
    """The per-layer run: the same rounds on an untraced, then a traced service."""
    sessions = {}
    for tag, tracing in (("untraced", False), ("traced", True)):
        spans = Spans()
        service = Service(work, tag, tracing=tracing)
        client = Client(service.port, spans)
        try:
            session = run_session(client, sweeps, seed, TRACED_ROUNDS, 0.0)
            traces = [
                json.loads(client.call("trace", "GET", f"/v1/sweeps/{sid}/trace")[1])
                for sid in (session.cold_ids if tracing else [])
            ]
            metrics = json.loads(client.call("metrics", "GET", "/v1/metrics")[1])
        finally:
            result.attempted += client.attempted
            result.failed += client.failed
            service.stop()
        digest = check_outputs(service, session, sweeps, seed, work, golden)
        sessions[tag] = (session, digest, spans, traces, metrics)
    untraced, digest_u, _, _, _ = sessions["untraced"]
    session, digest, spans, traces, metrics = sessions["traced"]
    if digest != digest_u:
        raise CheckFailed("traced output digest differs from the untraced run's")
    counts = session_counts(session)
    check_counts_equal("traced vs untraced", session_counts(untraced), counts)
    _layer_metrics(result, session, counts, spans, traces, metrics, sweeps)
    overhead = math.fsum(session.round_s) - math.fsum(untraced.round_s)
    result.put("trace.overhead_s", overhead, "s")
    result.note(
        f"service_memo seed {seed}: {TRACED_ROUNDS} rounds per service; traced "
        f"digest {digest} == untraced; tracing overhead {overhead:+.3f} s"
    )
    memo_service_ms = math.fsum(session.memo_ms)
    result.note(
        f"memoized round trips: {memo_service_ms:.1f} ms in HTTP/admission/"
        f"cache reads, 0 jobs simulated for them (jobs executed "
        f"{metrics['jobs']['jobs_executed']} = cold jobs {len(session.submitted)})"
    )


def _summaries(session: Session) -> Dict[str, object]:
    from repro.orchestrate import RunSummary

    return {key: RunSummary(**json.loads(body)) for key, body in session.results.items()}


def session_counts(session: Session) -> Dict[str, int]:
    """Simulated counts of a session's cold jobs; identical whenever the
    same rounds run again."""
    counts = {
        "instructions": session.instructions,
        "accesses": session.accesses,
        "llc_accesses": 0,
        "llc_misses": 0,
        "inclusion_victims": 0,
    }
    for summary in _summaries(session).values():
        counts["llc_accesses"] += summary.llc_accesses
        counts["llc_misses"] += summary.llc_misses
        counts["inclusion_victims"] += summary.inclusion_victims
        for message, count in summary.traffic.items():
            counts[f"msgs.{message}"] = counts.get(f"msgs.{message}", 0) + count
    return counts


def _layer_metrics(result, session, counts, spans, traces, metrics, sweeps):
    phases: Dict[str, List[float]] = {}
    for trace in traces:
        for span in trace["spans"]:
            if span.get("kind") == "phase":
                row = phases.setdefault(span["name"], [0.0, 0])
                row[0] += span["end"] - span["start"]
                row[1] += int(span.get("attrs", {}).get("count", 0))
    summaries = _summaries(session)

    def phase_s(name: str) -> float:
        return phases.get(name, [0.0, 0])[0]

    put = result.put
    put("workloads.trace_gen_s", phase_s("trace_gen"), "s")
    put("workloads.records", phases.get("trace_gen", [0.0, 0])[1], "count")
    put("cpu.sim_loop_s", phase_s("sim_loop"), "s")
    put("cpu.instructions", counts["instructions"], "count")
    put("cpu.accesses", counts["accesses"], "count")
    put("hierarchy.l1_access_s", phase_s("l1_access"), "s")
    put("hierarchy.llc_access_s", phase_s("llc_access"), "s")
    put("cache.replacement_s", phase_s("replacement"), "s")
    put("hierarchy.back_invalidate_s", phase_s("back_invalidate"), "s")
    put("hierarchy.llc_accesses", counts["llc_accesses"], "count")
    put("hierarchy.llc_misses", counts["llc_misses"], "count")
    put("hierarchy.inclusion_victims", counts["inclusion_victims"], "count")
    put_message_counts(result, counts, list(summaries.values()))
    verify = [s for s in sweeps if s.keys[0] in summaries][:VERIFY_JOBS]
    jobs = [job for s in verify for job in s.jobs]
    l1, l2 = direct_hit_ratios(jobs, [summaries[k] for s in verify for k in s.keys])
    put("cache.l1_hit_ratio", l1, "ratio")
    put("cache.l2_hit_ratio", l2, "ratio")
    broker = metrics["phases"]
    put("orchestrate.execute_job_s", broker.get("execute_job", {}).get("s", 0.0), "s")
    put("orchestrate.overhead_s", broker.get("orchestrate_overhead", {}).get("s", 0.0), "s")
    put("orchestrate.pool_wait_s", broker.get("pool_wait", {}).get("s", 0.0), "s")
    # The service's cache lives in its own process; its store and load
    # times are not visible from the client.
    put("orchestrate.cache_store_s", 0.0, "s")
    put("orchestrate.cache_load_s", 0.0, "s")
    jobs_counters = metrics["jobs"]
    put("orchestrate.jobs_executed", jobs_counters["jobs_executed"], "count")
    put("orchestrate.jobs_memoized", jobs_counters["jobs_cached"], "count")
    put("orchestrate.retries", jobs_counters["jobs_retried"], "count")
    put("eval.report_s", spans.total("report"), "s")
    put("service.submit_ms_p50", median(spans.durations("submit")) * 1000.0, "ms")
    put("service.result_ms_p50", median(spans.durations("result")) * 1000.0, "ms")
    put("service.report_ms_p50", median(spans.durations("report")) * 1000.0, "ms")
    put("service.coalesced_jobs", jobs_counters["jobs_coalesced"], "count")
    put(
        "service.admission_rejects",
        jobs_counters["rejected_queue_full"] + jobs_counters["rejected_quota"],
        "count",
    )
    put(
        "trace.orchestrate_phase_coverage",
        math.fsum(row["s"] for row in broker.values()) / metrics["uptime_s"],
        "ratio",
    )
    put(
        "trace.job_phase_coverage",
        math.fsum(row[0] for row in phases.values())
        / math.fsum(h["job_wall_s"] for h in session.done_hosts),
        "ratio",
    )
