"""``sweep_llct`` and ``sweep_ccf``: cold serial policy sweeps.

Each sweep is what a user waits for when regenerating a figure: trace
generation, simulation, the ``ResultCache`` write, then a
``repro.eval`` report, all from an empty cache directory through
``Runner.run_many`` on the serial executor.  The two workloads run the
same pipeline over different workload categories, so they load the
simulator's layers differently:

* ``sweep_llct`` pairs an LLC-thrashing app with another LLCT or an
  LLC-fitting app.  Most LLC misses, fills, replacements and
  back-invalidates happen here; ECI and QBS act on that path.
* ``sweep_ccf`` pairs a core-cache-fitting app with another CCF or an
  LLCF app.  The LLC path is a few per cent of host time; L1 probing,
  the core's burst loop and trace generation take the rest, and the
  TLH-L1 hit hook moves the core off its inline loop.

A change to the miss path should move ``sweep_llct`` and leave
``sweep_ccf`` alone; a change to the core loop or hook seam shows on
``sweep_ccf``.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    SETUP_PROBES,
    CheckFailed,
    HostSpeed,
    Result,
    Spans,
    check_counts_equal,
    check_pinned,
    child_env,
    entries_digest,
    median,
    peak_rss_mb,
    percentile,
    probe_setup,
    put_host_scaled,
    setup_probe_argv,
    wrap_cache,
)

#: machine scale and per-core instruction windows.  At 1/64 scale
#: (512-line LLC) a 6000-instruction warm-up fills the LLC, so the
#: measured window sees inclusion victims and the TLA policies act;
#: at the experiments' default 1/16 scale they would not yet.
#: 35 pairs x 4 policies = 140 jobs per sweep, so ``job_s_p90`` has
#: 14 samples beyond it.
SCALE = 0.015625
WARMUP = 6000
QUOTA = 4000

#: (mode, tla) per sweep; the first is the baseline of the report.
BASELINE = ("inclusive", "none")
NON_INCLUSIVE = ("non_inclusive", "none")


@dataclass(frozen=True)
class SweepSpec:
    categories: Tuple[Tuple[str, str], ...]
    policies: Tuple[Tuple[str, str], ...]


SWEEPS: Dict[str, SweepSpec] = {
    "sweep_llct": SweepSpec(
        categories=(("LLCT", "LLCT"), ("LLCT", "LLCF")),
        policies=(BASELINE, ("inclusive", "eci"), ("inclusive", "qbs"), NON_INCLUSIVE),
    ),
    "sweep_ccf": SweepSpec(
        categories=(("CCF", "CCF"), ("CCF", "LLCF")),
        policies=(BASELINE, ("inclusive", "tlh-l1"), ("inclusive", "qbs"), NON_INCLUSIVE),
    ),
}

#: fresh-runner replays of every job from the warm cache after each
#: cold sweep; 8 x 140 requests give ``memo_roundtrip_ms_p99`` more
#: than ten samples beyond it.
MEMO_REPLAYS = 8

#: memoized requests between two host speed samples.
MEMO_SAMPLE_EVERY = 35

#: jobs the traced run re-simulates through ``CMPSimulator`` directly
#: (per-level hit ratios, and a cross-check of the runner's counts).
PROBE_PAIRS = 2

#: the paper's "All" (105 two-core mixes) throughput gains over the
#: inclusive baseline, from EXPERIMENTS.md's headline table; ECI and
#: TLH-L1 are given there as shares of the non-inclusive gap.
PAPER_GAIN_PCT = {
    "non_inclusive/none": 6.1,
    "inclusive/qbs": 6.5,
    "inclusive/eci": 0.55 * 6.1,
    "inclusive/tlh-l1": 0.85 * 6.1,
}


def sweep_requests(workload: str, seed: int):
    """The seed's job list: every pair of the workload's categories,
    each in a seed-drawn core order, in a seed-drawn sweep order."""
    from repro.workloads import WorkloadMix
    from repro.workloads.mixes import mixes_with_categories

    spec = SWEEPS[workload]
    rng = random.Random(f"{workload}:{seed}")
    pairs = []
    for categories in spec.categories:
        for mix in mixes_with_categories(categories):
            apps = tuple(mix.apps)
            pairs.append(apps[::-1] if rng.random() < 0.5 else apps)
    rng.shuffle(pairs)
    return [
        {"mix": WorkloadMix("+".join(apps), apps), "mode": mode, "tla": tla}
        for apps in pairs
        for mode, tla in spec.policies
    ]


def settings_for(cache_dir: Path, traced: bool):
    from repro.experiments import ExperimentSettings

    return ExperimentSettings(
        scale=SCALE,
        quota=QUOTA,
        warmup=WARMUP,
        cache_dir=str(cache_dir),
        jobs=1,
        host_phases=traced,
    )


class CompletionClock:
    """Progress sink for the orchestrator: times each finished job from
    the previous one's completion (or the sweep's start), and takes a
    host speed sample between jobs, outside those times."""

    def __init__(self, speed: Optional[HostSpeed]) -> None:
        self.speed = speed
        self.last = 0.0
        self.roundtrips: List[float] = []
        #: seconds spent sampling, kept out of the sweep's spans.
        self.sampling_s = 0.0

    def start(self, total: int = 0, cached: int = 0) -> None:
        self.last = time.perf_counter()

    def update(self, **_progress) -> None:
        pass

    def note_result(self, _result) -> None:
        self.roundtrips.append(time.perf_counter() - self.last)
        if self.speed is not None:
            self.sampling_s += self.speed.sample()
        self.last = time.perf_counter()

    def finish(self) -> None:
        pass


@dataclass
class SweepOutcome:
    wall_s: float
    run_many_s: float
    digest: str
    counts: Dict[str, int]
    summaries: List
    job_s: List[float]
    roundtrips: List[float]
    report: Dict
    runner: object
    memo_ms: List[float] = field(default_factory=list)
    memo_s: float = 0.0
    memo_hits: int = 0


def exact_counts(summaries: Sequence) -> Dict[str, int]:
    """Simulated counts of a sweep; identical on every repetition."""
    counts: Dict[str, int] = {
        "instructions": 0,
        "accesses": 0,
        "window_instructions": 0,
        "llc_accesses": 0,
        "llc_misses": 0,
        "inclusion_victims": 0,
    }
    for summary in summaries:
        counts["instructions"] += int(summary.host["instructions"])
        counts["accesses"] += int(summary.host["accesses"])
        counts["window_instructions"] += sum(summary.instructions)
        counts["llc_accesses"] += summary.llc_accesses
        counts["llc_misses"] += summary.llc_misses
        counts["inclusion_victims"] += summary.inclusion_victims
        for message, count in summary.traffic.items():
            name = f"msgs.{message}"
            counts[name] = counts.get(name, 0) + count
    return counts


def cold_sweep(
    requests, cache_dir: Path, traced: bool,
    speed: Optional[HostSpeed] = None, spans: Optional[Spans] = None,
) -> SweepOutcome:
    """One sweep from an empty cache: ``run_many``, then the report."""
    from repro.eval import build_report, discover_records
    from repro.experiments import Runner

    clock = CompletionClock(speed)
    runner = Runner(settings_for(cache_dir, traced), reporter=clock)
    spans = spans if spans is not None else Spans()
    if traced:
        wrap_cache(runner.cache, spans)
    start = time.perf_counter()
    with spans.span("run_many"):
        summaries = runner.run_many(requests)
    ran = time.perf_counter()
    with spans.span("build_report"):
        report = build_report(discover_records(cache_dir))
    end = time.perf_counter()
    keys = {_key(runner.settings, r) for r in requests}
    digest = entries_digest(
        (key, runner.cache.path_for(key).read_bytes()) for key in keys
    )
    return SweepOutcome(
        wall_s=end - start - clock.sampling_s,
        run_many_s=ran - start - clock.sampling_s,
        digest=digest,
        counts=exact_counts(summaries),
        summaries=summaries,
        job_s=[s.host["job_wall_s"] for s in summaries],
        roundtrips=clock.roundtrips,
        report=report,
        runner=runner,
    )


def _key(settings, request) -> str:
    from repro.experiments import cache_key

    request = dict(request)
    return cache_key(settings, request.pop("mix"), **request)


def memo_replay(
    outcome: SweepOutcome, requests,
    speed: Optional[HostSpeed] = None, spans: Optional[Spans] = None,
) -> None:
    """Serve every job again from the sweep's cache directory.

    Each replay uses a new ``Runner`` (empty in-memory memo), so every
    request reads and parses its cache file, as regenerating a figure
    from a warm cache does.
    """
    from repro.experiments import Runner

    settings = outcome.runner.settings
    served = []
    for _ in range(MEMO_REPLAYS):
        runner = Runner(settings)
        if spans is not None:
            wrap_cache(runner.cache, spans)
        start = time.perf_counter()
        sampling_s = 0.0
        for index, request in enumerate(requests):
            request = dict(request)
            mix = request.pop("mix")
            began = time.perf_counter()
            served.append(runner.run(mix, **request))
            outcome.memo_ms.append((time.perf_counter() - began) * 1000.0)
            if speed is not None and index % MEMO_SAMPLE_EVERY == 0:
                sampling_s += speed.sample()
        outcome.memo_s += time.perf_counter() - start - sampling_s
        if runner.host_digests:
            raise CheckFailed("a memoized request re-executed its job")
    outcome.memo_hits += len(served)
    cold = [replace(summary, host=None) for summary in outcome.summaries]
    for index, summary in enumerate(served):
        if summary != cold[index % len(cold)]:
            raise CheckFailed(
                f"memoized {summary.mix}/{summary.mode}/{summary.tla} "
                "differs from its cold run"
            )


def check_report(report: Dict, policies: Sequence[Tuple[str, str]]) -> None:
    wanted = sorted(f"{mode}/{tla}" for mode, tla in policies[1:])
    got = sorted(c["policy"] for c in report["comparisons"])
    if got != wanted:
        raise CheckFailed(f"report compares {got}, expected {wanted}")


def model_error_lines(report: Dict, workload: str) -> List[str]:
    """Simulated geomean throughput gains beside the paper's numbers."""
    lines = [
        f"model error ({workload}: a category-slice sample, not the "
        "paper's 105-mix 'All'):",
        "  policy               simulated   paper(All)   difference",
    ]
    for comparison in report["comparisons"]:
        policy = comparison["policy"]
        cell = next(
            c
            for c in comparison["cells"]
            if c["metric"] == "throughput" and c["slice"] == "All"
        )
        gain = (cell["geomean_ratio"] - 1.0) * 100.0
        paper = PAPER_GAIN_PCT.get(policy)
        paper_text = f"{paper:+10.1f} %" if paper is not None else "         —"
        diff_text = (
            f"{gain - paper:+10.1f} pp" if paper is not None else "         —"
        )
        lines.append(
            f"  {policy:20s} {gain:+9.1f} %  {paper_text}  {diff_text}"
            f"   ({comparison['num_pairs']} pairs)"
        )
    return lines


def setup(workload: str, seed: int, scratch: Path):
    """Everything before the first timed operation: imports, the job
    list, and one job executed untimed so lazy initialisation (trace
    generator tables, numpy) is paid here and not inside a sweep."""
    from repro.eval import build_report, discover_records  # noqa: F401
    from repro.experiments import Runner

    requests = sweep_requests(workload, seed)
    first = dict(requests[0])
    Runner(settings_for(scratch, False)).run(first.pop("mix"), **first)
    return requests


def untraced(workload, seed, seconds, requests, work, result, golden):
    """The end-to-end run: cold sweeps until ``seconds`` have passed."""
    speed = HostSpeed()
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(probe_setup(setup_probe_argv(workload, seed), child_env()))
        speed.sample()
    outcomes: List[SweepOutcome] = []
    start = time.perf_counter()
    while True:
        outcome = cold_sweep(requests, work / f"sweep-{len(outcomes)}", False, speed)
        memo_replay(outcome, requests, speed)
        outcomes.append(outcome)
        result.attempted += len(requests) + outcome.memo_hits
        elapsed = time.perf_counter() - start
        if elapsed + outcome.wall_s + outcome.memo_s > seconds:
            break
    first = outcomes[0]
    check_report(first.report, SWEEPS[workload].policies)
    for index, other in enumerate(outcomes[1:], 1):
        if other.digest != first.digest:
            raise CheckFailed(f"sweep {index} output digest differs from sweep 0")
        check_counts_equal(f"sweep {index} vs sweep 0", first.counts, other.counts)
    check_pinned(golden, workload, seed, first.digest)
    run_many_s = math.fsum(o.run_many_s for o in outcomes)
    job_s = [t for o in outcomes for t in o.job_s]
    roundtrips = [t for o in outcomes for t in o.roundtrips]
    memo_ms = [t for o in outcomes for t in o.memo_ms]
    memo_s = math.fsum(o.memo_s for o in outcomes)
    measured = {
        "setup_s": median(probes),
        "wall_s": median([o.wall_s for o in outcomes]),
        "sim_instr_per_s": sum(o.counts["instructions"] for o in outcomes) / run_many_s,
        "job_s_p50": percentile(job_s, 0.50),
        "job_s_p90": percentile(job_s, 0.90),
        "cold_roundtrip_s_p50": percentile(roundtrips, 0.50),
        "cold_roundtrip_s_p90": percentile(roundtrips, 0.90),
        "memo_roundtrip_ms_p50": percentile(memo_ms, 0.50),
        "memo_roundtrip_ms_p99": percentile(memo_ms, 0.99),
        "requests_per_s": len(memo_ms) / memo_s,
    }
    put_host_scaled(result, measured, speed)
    result.put("peak_rss_mb", peak_rss_mb(), "MiB")
    result.note(
        f"{workload} seed {seed}: {len(outcomes)} cold sweep(s) of "
        f"{len(requests)} jobs, digest {first.digest}"
    )
    result.note(
        "setup_s samples " + ", ".join(f"{p:.3f}" for p in probes)
        + "; sweep walls " + ", ".join(f"{o.wall_s:.3f}" for o in outcomes)
    )
    result.note(
        f"samples: job_s {len(job_s)}, cold_roundtrip {len(roundtrips)}, "
        f"memo_roundtrip {len(memo_ms)}"
    )
    result.notes.extend(model_error_lines(first.report, workload))


def traced(workload, seed, requests, work, result, golden):
    """The per-layer run: one untraced and one traced cold sweep."""
    from repro.perf import merge_phase_reports

    reference = cold_sweep(requests, work / "untraced", False)
    spans = Spans()
    outcome = cold_sweep(requests, work / "traced", True, spans=spans)
    memo_replay(outcome, requests, spans=spans)
    result.attempted += 2 * len(requests) + outcome.memo_hits
    if outcome.digest != reference.digest:
        raise CheckFailed("traced output digest differs from the untraced run's")
    check_counts_equal("traced vs untraced", reference.counts, outcome.counts)
    check_pinned(golden, workload, seed, reference.digest)
    check_report(outcome.report, SWEEPS[workload].policies)

    phases = merge_phase_reports(s.host.get("phases") for s in outcome.summaries)
    sweep_phases = outcome.runner.phase_timer.report()
    counts = outcome.counts

    def phase_s(name: str) -> float:
        return phases.get(name, {}).get("s", 0.0)

    put = result.put
    put("workloads.trace_gen_s", phase_s("trace_gen"), "s")
    put("workloads.records", phases.get("trace_gen", {}).get("count", 0), "count")
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
    put_message_counts(result, counts, outcome.summaries)
    l1, l2 = probe_hit_ratios(workload, seed, requests, outcome)
    put("cache.l1_hit_ratio", l1, "ratio")
    put("cache.l2_hit_ratio", l2, "ratio")
    put("orchestrate.execute_job_s", sweep_phases.get("execute_job", {}).get("s", 0.0), "s")
    put("orchestrate.overhead_s", sweep_phases.get("orchestrate_overhead", {}).get("s", 0.0), "s")
    put("orchestrate.pool_wait_s", sweep_phases.get("pool_wait", {}).get("s", 0.0), "s")
    put("orchestrate.cache_store_s", spans.total("cache_store"), "s")
    put("orchestrate.cache_load_s", spans.total("cache_load"), "s")
    put("orchestrate.jobs_executed", len(outcome.runner.host_digests), "count")
    put("orchestrate.jobs_memoized", outcome.memo_hits, "count")
    put("orchestrate.retries", manifest_retries(work / "traced"), "count")
    put("eval.report_s", spans.total("build_report"), "s")
    for name in SERVICE_ONLY:
        put(name, 0.0, SERVICE_ONLY[name])
    put("trace.overhead_s", outcome.wall_s - reference.wall_s, "s")
    put(
        "trace.orchestrate_phase_coverage",
        math.fsum(row["s"] for row in sweep_phases.values())
        / spans.total("run_many"),
        "ratio",
    )
    job_wall = math.fsum(outcome.job_s)
    put(
        "trace.job_phase_coverage",
        math.fsum(row["s"] for row in phases.values()) / job_wall,
        "ratio",
    )
    llc_path = phase_s("llc_access") + phase_s("replacement") + phase_s("back_invalidate")
    result.note(
        f"{workload} seed {seed}: traced digest {outcome.digest} == untraced; "
        f"tracing overhead {outcome.wall_s - reference.wall_s:+.3f} s "
        f"({reference.wall_s:.3f} s -> {outcome.wall_s:.3f} s)"
    )
    result.note(
        f"LLC-path share of simulated host time: "
        f"{llc_path / math.fsum(row['s'] for row in phases.values()):.3f}"
    )
    result.notes.extend(model_error_lines(outcome.report, workload))


#: per-layer metrics only the service exposes; zero on the sweeps.
SERVICE_ONLY = {
    "service.submit_ms_p50": "ms",
    "service.result_ms_p50": "ms",
    "service.report_ms_p50": "ms",
    "service.coalesced_jobs": "count",
    "service.admission_rejects": "count",
}


def put_message_counts(result: Result, counts: Dict[str, int], summaries) -> None:
    """The TLA cost counters, summed over every job of the sweep."""
    for metric, message in (
        ("coherence.back_invalidate_msgs", "back_invalidate"),
        ("coherence.eci_invalidate_msgs", "eci_invalidate"),
        ("coherence.qbs_query_msgs", "qbs_query"),
        ("coherence.tlh_hint_msgs", "tlh_hint"),
        ("coherence.writeback_msgs", "writeback"),
    ):
        result.put(metric, counts.get(f"msgs.{message}", 0), "count")
    # Queries per LLC miss over the QBS jobs, both counted over the
    # whole run (traffic is never windowed; memory requests are misses).
    queries = misses = 0
    for summary in summaries:
        if summary.tla.startswith("qbs"):
            queries += summary.traffic.get("qbs_query", 0)
            misses += summary.traffic.get("memory_request", 0)
    result.put(
        "core.qbs_queries_per_llc_miss", queries / misses if misses else 0.0, "ratio"
    )


def manifest_retries(cache_dir: Path) -> int:
    from repro.experiments import Runner
    from repro.orchestrate import SweepManifest

    statuses = SweepManifest(cache_dir / Runner.MANIFEST_NAME).statuses()
    return sum(max(0, record.attempts - 1) for record in statuses.values())


def probe_hit_ratios(workload: str, seed: int, requests, outcome: SweepOutcome):
    """Per-level hit ratios over a seed-drawn handful of the sweep's pairs."""
    from repro.experiments.runner import build_job

    settings = outcome.runner.settings
    by_job = {(s.mix, s.mode, s.tla): s for s in outcome.summaries}
    mixes = sorted({r["mix"] for r in requests}, key=lambda m: m.name)
    chosen = random.Random(f"probe:{workload}:{seed}").sample(mixes, PROBE_PAIRS)
    jobs = [
        build_job(settings, mix, mode, tla)
        for mix in chosen
        for mode, tla in SWEEPS[workload].policies
    ]
    return direct_hit_ratios(
        jobs, [by_job[(job.mix_name, job.mode, job.tla)] for job in jobs]
    )


def direct_hit_ratios(jobs, summaries):
    """Re-simulate ``jobs`` through ``CMPSimulator`` to read per-level
    hit counts (the cached summary keeps only misses), checking on the
    way that the direct simulation reproduces each job's summary."""
    from repro.config import baseline_hierarchy, variant_sim_config
    from repro.cpu import CMPSimulator
    from repro.workloads import WorkloadMix

    l1_hits = l1_accesses = l2_hits = l2_accesses = 0
    for job, summary in zip(jobs, summaries):
        config = variant_sim_config(
            num_cores=job.num_cores,
            mode=job.mode,
            tla=job.tla_config,
            llc_bytes=job.llc_bytes,
            scale=job.scale,
            quota=job.quota,
            warmup=job.warmup,
            victim_cache_entries=job.victim_cache_entries,
        )
        mix = WorkloadMix(job.mix_name, job.apps)
        traces = mix.traces(baseline_hierarchy(2, scale=job.scale))
        sim = CMPSimulator(config, traces).run()
        direct = (sim.total_llc_misses, sim.total_llc_accesses, dict(sim.traffic))
        cached = (summary.llc_misses, summary.llc_accesses, summary.traffic)
        if direct != cached:
            raise CheckFailed(
                f"CMPSimulator on {job.label()} disagrees with the cached summary"
            )
        for core in sim.cores:
            stats = core.stats
            l1_accesses += stats.l1_accesses
            l1_hits += stats.l1_accesses - stats.l1_misses
            l2_accesses += stats.l2_accesses
            l2_hits += stats.l2_accesses - stats.l2_misses
    return l1_hits / l1_accesses, l2_hits / l2_accesses
