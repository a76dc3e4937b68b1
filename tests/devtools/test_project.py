"""Tests for the shared one-parse project layer.

Covers module naming/zoning, the import and call graphs over the
analyze fixtures, and inline-marker parsing.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.devtools import project

REPRO_PACKAGE = Path(repro.__file__).parent
FIXTURES = Path(__file__).parent / "fixtures" / "analyze"


def test_zone_and_module_name():
    cache_py = REPRO_PACKAGE / "cache" / "cache.py"
    assert project.zone_of(cache_py) == "cache"
    assert project.module_name_of(cache_py) == "repro.cache.cache"
    assert project.zone_of(Path("/tmp/elsewhere.py")) is None


def test_import_graph_resolves_relative_imports():
    index = project.load_project([FIXTURES / "dx1_wall_clock"])
    assert "dx1_wall_clock.clock" in index.imports["dx1_wall_clock.sink"]
    # imports of modules outside the analyzed set are dropped
    assert all(
        name.startswith("dx1_wall_clock")
        for name in index.imports["dx1_wall_clock.sink"]
    )


def test_call_graph_links_cross_function_calls():
    index = project.load_project([FIXTURES / "dx2_rng"])
    caller = "dx2_rng.draws.keyed_config"
    callee = "dx2_rng.draws.fresh_seed"
    assert callee in index.calls[caller]
    assert caller in index.callers[callee]
    assert callee in index.reachable_from([caller])


def test_call_graph_skips_generic_attribute_names():
    assert "get" in project.GENERIC_ATTR_NAMES
    index = project.load_project([FIXTURES / "dx5_set_order"])
    # ``kinds.append(...)`` must not link to arbitrary project methods
    for callees in index.calls.values():
        assert all("append" not in c.rsplit(".", 1)[-1] for c in callees)


def test_marker_parsing(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def hot_one():  # repro: hot\n"
        "    pass\n"
        "\n"
        "\n"
        "def allowed():\n"
        "    x = 1  # repro: allow[DX1, PX2]\n"
        "    return x\n"
    )
    info = project.parse_module(module)
    assert info.is_marked_hot(1)
    assert not info.is_marked_hot(5)
    assert info.allows(6, "DX1")
    assert info.allows(6, "PX2")
    assert not info.allows(6, "HX1")
    # family prefixes: allow[DX] covers DX1
    module2 = tmp_path / "n.py"
    module2.write_text("x = 1  # repro: allow[DX]\n")
    assert project.parse_module(module2).allows(1, "DX1")


def test_enclosing_function_finds_innermost():
    index = project.load_project([FIXTURES / "dx2_rng"])
    module = index.by_name["dx2_rng.draws"]
    info = index.functions["dx2_rng.draws.fresh_seed"]
    line = info.node.body[0].lineno
    assert index.enclosing_function(module, line) == "dx2_rng.draws.fresh_seed"
