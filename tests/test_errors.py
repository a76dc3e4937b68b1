"""The exception hierarchy contract."""

import pytest

from repro import errors


class TestHierarchyShape:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "SimulationError",
            "InclusionViolationError",
            "TraceError",
            "ExperimentError",
            "UnknownPolicyError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError), name

    def test_violations_are_simulation_errors(self):
        assert issubclass(errors.InclusionViolationError, errors.SimulationError)

    def test_unknown_policy_is_configuration_error(self):
        assert issubclass(errors.UnknownPolicyError, errors.ConfigurationError)

    def test_one_except_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.TraceError("x")
        with pytest.raises(errors.ReproError):
            raise errors.ExperimentError("y")

    def test_library_never_raises_bare_exceptions(self):
        """Representative misuse paths all raise ReproError subclasses."""
        from repro.config import CacheConfig

        with pytest.raises(errors.ReproError):
            CacheConfig(0, 4)
        from repro.cache.replacement import make_policy

        with pytest.raises(errors.ReproError):
            make_policy("psychic", 2, 2)
        from repro.workloads import mix_by_name

        with pytest.raises(errors.ReproError):
            mix_by_name("MIX_404")
