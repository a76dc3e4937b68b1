"""The documented public API stays importable and consistent."""

import repro


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_matches_metadata(self):
        assert repro.__version__ == "1.0.0"

    def test_error_hierarchy(self):
        assert issubclass(repro.ConfigurationError, repro.ReproError)
        assert issubclass(repro.SimulationError, repro.ReproError)
        assert issubclass(repro.InclusionViolationError, repro.SimulationError)
        assert issubclass(repro.UnknownPolicyError, repro.ConfigurationError)

    def test_hit_level_ordering(self):
        # The timing model and prefetch trigger rely on this ordering.
        assert repro.HIT_L1 < repro.HIT_L2 < repro.HIT_LLC < repro.HIT_MEMORY

    def test_quickstart_snippet_runs(self):
        """The README quickstart must keep working verbatim (small)."""
        from repro import CMPSimulator, SimConfig, baseline_hierarchy, tla_preset
        from repro.workloads import mix_by_name

        mix = mix_by_name("MIX_10")
        config = SimConfig(
            hierarchy=baseline_hierarchy(2, tla=tla_preset("qbs"), scale=0.0625),
            instruction_quota=5_000,
        )
        reference = baseline_hierarchy(2, scale=0.0625)
        result = CMPSimulator(config, mix.traces(reference)).run()
        assert result.throughput > 0
        assert result.total_inclusion_victims == 0  # QBS

    def test_experiment_registry_names(self):
        from repro.experiments import EXPERIMENTS

        expected = {
            "table1", "table2", "figure2", "figure3", "figure5", "figure6",
            "figure7", "figure8", "figure9", "figure10", "figure11",
            "victim-cache", "traffic", "fairness", "snoop",
        }
        assert set(EXPERIMENTS) == expected
