"""Unit tests for the configuration layer."""

import dataclasses

import pytest

from repro.config import (
    KB,
    MB,
    CacheConfig,
    HierarchyConfig,
    PrefetchConfig,
    SimConfig,
    TimingConfig,
    TLAConfig,
    TLA_PRESETS,
    baseline_hierarchy,
    scale_hierarchy,
    tla_preset,
)
from repro.errors import ConfigurationError


class TestCacheConfig:
    def test_geometry_derivation(self):
        config = CacheConfig(32 * KB, 4, 64)
        assert config.num_sets == 128
        assert config.num_lines == 512
        assert config.line_shift == 6

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(32 * KB, 4, 60)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(1000, 4, 64)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(3 * 4 * 64, 4, 64)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(0, 4)
        with pytest.raises(ConfigurationError):
            CacheConfig(1024, 0)

    def test_scaled(self):
        config = CacheConfig(32 * KB, 4)
        half = config.scaled(0.5)
        assert half.size_bytes == 16 * KB
        assert half.associativity == 4


class TestTimingConfig:
    def test_baseline_latencies(self):
        timing = TimingConfig()
        assert timing.latency_for_level("l1") == 1
        assert timing.latency_for_level("l2") == 10
        assert timing.latency_for_level("llc") == 24
        assert timing.latency_for_level("memory") == 174

    def test_latency_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            TimingConfig(l1_latency=20, l2_latency=10)

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigurationError):
            TimingConfig().latency_for_level("l4")

    def test_exposure_bounds(self):
        with pytest.raises(ConfigurationError):
            TimingConfig(load_exposure=1.5)
        with pytest.raises(ConfigurationError):
            TimingConfig(ifetch_exposure=-0.1)


class TestTLAConfig:
    def test_defaults(self):
        config = TLAConfig()
        assert config.policy == "none"

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigurationError):
            TLAConfig(policy="tlh", levels=("l3",))

    def test_sample_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            TLAConfig(policy="tlh", sample_rate=2.0)

    def test_presets_cover_paper_variants(self):
        for name in (
            "tlh-il1", "tlh-dl1", "tlh-l1", "tlh-l2", "tlh-l1-l2",
            "eci", "qbs-il1", "qbs-dl1", "qbs-l1", "qbs-l2", "qbs",
        ):
            assert name in TLA_PRESETS, name

    def test_preset_lookup_unknown(self):
        with pytest.raises(ConfigurationError):
            tla_preset("qbs-l9")


class TestHierarchyConfig:
    def test_paper_baseline_geometry(self):
        config = HierarchyConfig()
        assert config.l1i.size_bytes == 32 * KB
        assert config.l1d.size_bytes == 32 * KB
        assert config.l2.size_bytes == 256 * KB
        assert config.llc.size_bytes == 2 * MB
        assert config.llc.associativity == 16
        assert config.llc.replacement == "nru"

    def test_core_to_llc_ratio(self):
        config = HierarchyConfig()
        # 2 cores x 320 KB of core caches over a 2 MB LLC.
        assert config.core_to_llc_ratio == pytest.approx(640 / 2048)

    def test_mode_validation(self):
        with pytest.raises(ConfigurationError):
            HierarchyConfig(mode="semi_inclusive")

    def test_line_size_agreement_enforced(self):
        with pytest.raises(ConfigurationError):
            HierarchyConfig(l1i=CacheConfig(32 * KB, 4, line_size=128))

    def test_with_helpers(self):
        config = HierarchyConfig()
        assert config.with_llc_size(MB).llc.size_bytes == MB
        assert config.with_mode("exclusive").mode == "exclusive"
        assert config.with_tla(TLAConfig(policy="eci")).tla.policy == "eci"

    def test_victim_cache_only_with_inclusion(self):
        with pytest.raises(ConfigurationError):
            HierarchyConfig(mode="exclusive", victim_cache_entries=8)


class TestBaselines:
    def test_two_core_baseline_llc(self):
        assert baseline_hierarchy(2).llc.size_bytes == 2 * MB

    def test_llc_scales_with_cores(self):
        assert baseline_hierarchy(8).llc.size_bytes == 8 * MB

    def test_scale_applies_uniformly(self):
        config = baseline_hierarchy(2, scale=0.25)
        assert config.l1d.size_bytes == 8 * KB
        assert config.l2.size_bytes == 64 * KB
        assert config.llc.size_bytes == 512 * KB

    def test_scale_with_llc_override(self):
        config = baseline_hierarchy(2, llc_bytes=8 * MB, scale=0.5)
        assert config.llc.size_bytes == 4 * MB

    def test_scale_hierarchy_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            scale_hierarchy(HierarchyConfig(), 0)


class TestSimAndPrefetchConfig:
    def test_quota_positive(self):
        with pytest.raises(ConfigurationError):
            SimConfig(instruction_quota=0)

    def test_warmup_non_negative(self):
        with pytest.raises(ConfigurationError):
            SimConfig(warmup_instructions=-1)

    def test_prefetch_validation(self):
        with pytest.raises(ConfigurationError):
            PrefetchConfig(num_streams=0)
        with pytest.raises(ConfigurationError):
            PrefetchConfig(degree=0)

    def test_configs_are_frozen(self):
        config = HierarchyConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.num_cores = 4


def check_switch(monkeypatch, name, read, default):
    """``read()`` follows the boolean switch ``name`` as ``env_flag``
    parses it, and a malformed value raises naming the variable."""
    monkeypatch.delenv(name, raising=False)
    assert read() is default
    monkeypatch.setenv(name, "")
    assert read() is default
    for raw in ("1", "true", "YES", " On "):
        monkeypatch.setenv(name, raw)
        assert read() is True, raw
    for raw in ("0", "False", "no", "OFF"):
        monkeypatch.setenv(name, raw)
        assert read() is False, raw
    monkeypatch.setenv(name, "maybe")
    with pytest.raises(ConfigurationError, match=name):
        read()


class TestBooleanEnvSwitches:
    """Every boolean ``REPRO_*`` switch parses through ``env_flag``."""

    def test_full(self, monkeypatch):
        from repro.experiments import ExperimentSettings

        monkeypatch.delenv("REPRO_SAMPLE", raising=False)
        check_switch(
            monkeypatch,
            "REPRO_FULL",
            lambda: ExperimentSettings.from_env().full,
            False,
        )
        monkeypatch.setenv("REPRO_FULL", "false")
        assert ExperimentSettings.from_env().sample == 24

    def test_trace(self, monkeypatch):
        from repro.telemetry import TelemetryConfig

        check_switch(
            monkeypatch,
            "REPRO_TRACE",
            lambda: TelemetryConfig.from_env().enabled,
            False,
        )

    def test_host_phases(self, monkeypatch):
        from repro.experiments import ExperimentSettings

        check_switch(
            monkeypatch,
            "REPRO_HOST_PHASES",
            lambda: ExperimentSettings.from_env().host_phases,
            False,
        )

    def test_sanitize(self, monkeypatch):
        from repro.config import SanitizeConfig
        from repro.experiments import ExperimentSettings
        from repro.sanitize import sanitizer_from_config
        from repro.service import ServiceConfig

        check_switch(
            monkeypatch,
            "REPRO_SANITIZE",
            lambda: sanitizer_from_config(SanitizeConfig()) is not None,
            False,
        )
        # both entry points parse it before any job builds a hierarchy
        for from_env in (ExperimentSettings.from_env, ServiceConfig.from_env):
            with pytest.raises(ConfigurationError, match="REPRO_SANITIZE"):
                from_env()

    def test_service_tracing(self, monkeypatch):
        from repro.service import ServiceConfig

        check_switch(
            monkeypatch,
            "REPRO_SERVICE_TRACING",
            lambda: ServiceConfig.from_env().tracing,
            True,
        )

    def test_manifest_fsync(self, monkeypatch, tmp_path):
        from repro.orchestrate import SweepManifest
        from repro.orchestrate.manifest import _fsync_from_env

        check_switch(
            monkeypatch, "REPRO_MANIFEST_FSYNC", _fsync_from_env, False
        )
        # opening a journal parses it, before the sweep runs a job
        with pytest.raises(ConfigurationError, match="REPRO_MANIFEST_FSYNC"):
            SweepManifest(tmp_path / "sweep-manifest.jsonl")


class TestServiceExecutorKinds:
    """The service refuses a kind it has no backend for, and says which
    kinds it accepts."""

    ALLOWED = r"\('auto', 'serial', 'pool'\)"

    def test_config_refuses_bus(self):
        from repro.service import ServiceConfig

        with pytest.raises(ConfigurationError, match=self.ALLOWED):
            ServiceConfig(executor="bus")

    def test_environment_refuses_bus(self, monkeypatch):
        from repro.service import ServiceConfig

        monkeypatch.setenv("REPRO_SERVICE_EXECUTOR", "bus")
        with pytest.raises(ConfigurationError, match=self.ALLOWED):
            ServiceConfig.from_env()
