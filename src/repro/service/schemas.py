"""Sweep-spec validation and the JSON wire form of jobs.

The service's POST body is validated twice: structurally against
:data:`SWEEP_SPEC_SCHEMA` with the same hand-rolled JSON-Schema subset
checker the telemetry exporters are pinned by
(:func:`repro.telemetry.schema.check`), then semantically while
resolving names (apps, mixes, TLA presets, hierarchy modes) into
:class:`~repro.orchestrate.SimJob` objects.  Both failure modes raise
:class:`~repro.errors.SweepSpecError` carrying every error found, so a
client gets one 400 with the full list instead of a fix-one-resubmit
loop.

Two spec forms are accepted:

* ``{"jobs": [{...SimJob fields...}]}`` — fully resolved jobs, the
  form the ``repro.experiments submit`` client sends.  Because every
  knob is explicit, the server-side :func:`job_from_dict` reconstructs
  a ``SimJob`` whose :func:`~repro.orchestrate.job_key` is identical
  to the client's, which is the whole dedup contract.
* ``{"grid": {...}}`` — a convenience cross-product (mixes x modes x
  TLA presets) resolved against the server's fidelity defaults, for
  curl users.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Dict, List

from ..config import HIERARCHY_MODES, TLA_PRESETS, TLAConfig
from ..errors import ConfigurationError, SweepSpecError
from ..orchestrate import SimJob
from ..telemetry.schema import check
from ..workloads import WorkloadMix, all_two_core_mixes
from ..workloads.mixes import TABLE2_MIXES
from ..workloads.spec import SPEC_APPS

#: one fully-resolved job, the wire form of a ``SimJob``.
JOB_SCHEMA: Dict = {
    "type": "object",
    "required": ["mix_name", "apps"],
    "properties": {
        "mix_name": {"type": "string"},
        "apps": {"type": "array", "items": {"type": "string"}},
        "mode": {"type": "string", "enum": list(HIERARCHY_MODES)},
        "tla": {"type": "string"},
        "tla_config": {"type": "object"},
        "llc_bytes": {"type": "integer", "minimum": 1},
        "scale": {"type": "number", "minimum": 0},
        "quota": {"type": "integer", "minimum": 1},
        "warmup": {"type": "integer", "minimum": 0},
        "victim_cache_entries": {"type": "integer", "minimum": 0},
        "intervals": {"type": "integer", "minimum": 0},
    },
}

#: a server-side cross-product request (curl convenience form).
GRID_SCHEMA: Dict = {
    "type": "object",
    "required": ["mixes"],
    "properties": {
        "mixes": {"type": "array", "items": {"type": "string"}},
        "modes": {
            "type": "array",
            "items": {"type": "string", "enum": list(HIERARCHY_MODES)},
        },
        "tlas": {"type": "array", "items": {"type": "string"}},
        "scale": {"type": "number", "minimum": 0},
        "quota": {"type": "integer", "minimum": 1},
        "warmup": {"type": "integer", "minimum": 0},
    },
}

#: the POST /v1/sweeps body: exactly one of ``jobs`` / ``grid``.
SWEEP_SPEC_SCHEMA: Dict = {
    "type": "object",
    "properties": {
        "jobs": {"type": "array", "items": JOB_SCHEMA},
        "grid": GRID_SCHEMA,
    },
}


def job_to_dict(job: SimJob) -> Dict[str, Any]:
    """The JSON wire form of one job (every identity knob explicit).

    Host-side observability knobs (``trace_out``, ``host_phases``) are
    deliberately left out: they never join the job key and the server
    decides its own observability, so the wire form carries identity
    and nothing else.
    """
    fields: Dict[str, Any] = {
        "mix_name": job.mix_name,
        "apps": list(job.apps),
        "mode": job.mode,
        "tla": job.tla,
        "tla_config": asdict(job.tla_config),
        "llc_bytes": job.llc_bytes,
        "scale": job.scale,
        "quota": job.quota,
        "warmup": job.warmup,
        "victim_cache_entries": job.victim_cache_entries,
        "intervals": job.intervals,
    }
    if fields["llc_bytes"] is None:
        del fields["llc_bytes"]
    return fields


def job_from_dict(data: Dict[str, Any]) -> SimJob:
    """Reconstruct a ``SimJob`` from its wire form.

    Raises :class:`SweepSpecError` on unknown apps or inconsistent
    values (``TLAConfig``'s own validation applies), so a bad job is
    rejected at admission, never queued.
    """
    unknown_apps = [app for app in data["apps"] if app not in SPEC_APPS]
    if unknown_apps:
        raise SweepSpecError(
            f"unknown benchmark app(s) {unknown_apps}; "
            f"known: {sorted(SPEC_APPS)}"
        )
    tla_cfg = data.get("tla_config")
    try:
        tla_config = (
            TLAConfig(**tla_cfg)
            if tla_cfg is not None
            else TLA_PRESETS.get(data.get("tla", "none"), TLAConfig())
        )
        return SimJob(
            mix_name=data["mix_name"],
            apps=tuple(data["apps"]),
            mode=data.get("mode", "inclusive"),
            tla=data.get("tla", "none"),
            tla_config=_frozen_tla(tla_config),
            llc_bytes=data.get("llc_bytes"),
            scale=float(data.get("scale", 1.0)),
            quota=int(data.get("quota", 100_000)),
            warmup=int(data.get("warmup", 0)),
            victim_cache_entries=int(data.get("victim_cache_entries", 0)),
            intervals=int(data.get("intervals", 0)),
        )
    except (ConfigurationError, TypeError) as exc:
        raise SweepSpecError(f"invalid job: {exc}") from exc


def _frozen_tla(config: TLAConfig) -> TLAConfig:
    """Normalise JSON's list-typed ``levels`` back to the tuple form."""
    if isinstance(config.levels, tuple):
        return config
    return TLAConfig(
        policy=config.policy,
        levels=tuple(config.levels),
        sample_rate=config.sample_rate,
        mru_filter=config.mru_filter,
        max_queries=config.max_queries,
        back_invalidate=config.back_invalidate,
    )


def _known_mixes() -> Dict[str, WorkloadMix]:
    mixes = {mix.name: mix for mix in all_two_core_mixes()}
    mixes.update({mix.name: mix for mix in TABLE2_MIXES})
    return mixes


def expand_spec(spec: Any, settings=None) -> List[SimJob]:
    """Validate a sweep spec and expand it to a flat job list.

    ``settings`` (an :class:`repro.experiments.ExperimentSettings`)
    supplies the fidelity defaults for the ``grid`` form; the ``jobs``
    form is fully explicit and ignores it.
    """
    if not isinstance(spec, dict):
        raise SweepSpecError("sweep spec must be a JSON object")
    errors = check(spec, SWEEP_SPEC_SCHEMA)
    if errors:
        raise SweepSpecError("; ".join(errors))
    has_jobs = "jobs" in spec
    has_grid = "grid" in spec
    if has_jobs == has_grid:
        raise SweepSpecError(
            "sweep spec needs exactly one of 'jobs' or 'grid'"
        )
    if has_jobs:
        if not spec["jobs"]:
            raise SweepSpecError("'jobs' must not be empty")
        return [job_from_dict(job) for job in spec["jobs"]]
    return _expand_grid(spec["grid"], settings)


def _expand_grid(grid: Dict[str, Any], settings) -> List[SimJob]:
    from ..experiments.runner import ExperimentSettings, build_job

    if settings is None:
        settings = ExperimentSettings()
    known = _known_mixes()
    unknown = [name for name in grid["mixes"] if name not in known]
    if unknown:
        raise SweepSpecError(
            f"unknown mix(es) {unknown}; known: {sorted(known)}"
        )
    tlas = grid.get("tlas", ["none"])
    bad_tlas = [name for name in tlas if name not in TLA_PRESETS]
    if bad_tlas:
        raise SweepSpecError(
            f"unknown TLA preset(s) {bad_tlas}; known: {sorted(TLA_PRESETS)}"
        )
    jobs = []
    for name in grid["mixes"]:
        for mode in grid.get("modes", ["inclusive"]):
            for tla in tlas:
                jobs.append(
                    build_job(
                        settings,
                        known[name],
                        mode=mode,
                        tla=tla,
                        quota=grid.get("quota"),
                        warmup=grid.get("warmup"),
                    )
                )
    if "scale" in grid:
        from dataclasses import replace

        jobs = [replace(job, scale=float(grid["scale"])) for job in jobs]
    return jobs
