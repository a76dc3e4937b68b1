"""CS — file-local simulation-hygiene rules.

The simulator's correctness argument leans on structural conventions
that Python happily lets you break.  This pass walks every module's
AST and enforces them:

``CS1`` *staged-mutator calls*
    ``evict_way`` / ``fill_way`` / ``promote_way`` / ``invalidate`` /
    ``invalidate_all`` may only be called from the ``cache``,
    ``hierarchy`` and ``core`` layers; everything else goes through
    ``BaseHierarchy.access`` so inclusion bookkeeping and the
    directory stay consistent.
``CS2`` *unseeded randomness*
    No ``from random import`` of anything but ``Random``, and no call
    :func:`~repro.devtools.passes.dx.unseeded_draw` flags.  Results
    are claims about the paper, so runs must reproduce.
``CS3`` *wall-clock reads*
    No call :func:`~repro.devtools.passes.dx.wall_clock_read` flags.
    Simulated time is cycle counts; ``time.perf_counter`` is allowed.
``CS4`` *stats-counter mutation*
    Assignments to ``<obj>.stats.<counter>``, to any ``*_stats``
    attribute or name, or through a subscripted stats container are
    only allowed in the ``cache``, ``hierarchy``, ``cpu`` and
    ``metrics`` layers that own those counters.

CS2 and CS3 gate every source DX2 and DX1 trace to a sink.  Unlike
the other families, a CS finding can be excused neither by an inline
``# repro: allow[...]`` escape (this pass never consults one) nor by a
baseline entry (:attr:`repro.devtools.rules.Finding.baselinable`).
"""

from __future__ import annotations

import ast
from typing import List

from ..project import ModuleInfo, ProjectIndex
from ..rules import Finding
from .dx import unseeded_draw, wall_clock_read

#: staged cache-state mutators (CS1) and the layers allowed to call them.
STAGED_MUTATORS = frozenset(
    {"evict_way", "fill_way", "promote_way", "invalidate", "invalidate_all"}
)
STAGED_ZONES = frozenset({"cache", "hierarchy", "core"})

#: layers that own stats counters (CS4).
STATS_ZONES = frozenset({"cache", "hierarchy", "cpu", "metrics"})


class _Visitor(ast.NodeVisitor):
    def __init__(self, index: ProjectIndex, module: ModuleInfo) -> None:
        self.index = index
        self.module = module
        self.findings: List[Finding] = []

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        symbol = self.index.enclosing_function(self.module, node.lineno)
        self.findings.append(
            Finding(
                self.module.rel, node.lineno, node.col_offset, rule, message,
                symbol=symbol or self.module.name,
            )
        )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and node.level == 0:
            bad = [a.name for a in node.names if a.name != "Random"]
            if bad:
                self._report(
                    node,
                    "CS2",
                    f"from random import {', '.join(bad)}: use an explicitly "
                    "seeded random.Random(seed) generator instead",
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in STAGED_MUTATORS and self.module.zone not in STAGED_ZONES:
                self._report(
                    node,
                    "CS1",
                    f".{func.attr}() mutates cache state and may only be called "
                    f"from the {'/'.join(sorted(STAGED_ZONES))} layers; go "
                    "through the hierarchy API",
                )
            draw = unseeded_draw(node)
            if draw is not None:
                self._report(
                    node,
                    "CS2",
                    f"{draw} is unseeded randomness; construct a generator "
                    "from an explicit seed (random.Random(seed), numpy "
                    "default_rng(seed))",
                )
            clock = wall_clock_read(node)
            if clock is not None:
                self._report(
                    node,
                    "CS3",
                    f"{clock} reads the host wall clock; simulated time is "
                    "cycle counts (time.perf_counter is allowed for progress "
                    "reporting)",
                )
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_stats_target(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_stats_target(node, node.target)
        self.generic_visit(node)

    def _check_stats_target(self, node: ast.AST, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Attribute)
            and _is_stats_owner(target.value)
            and self.module.zone not in STATS_ZONES
        ):
            self._report(
                node,
                "CS4",
                f"stats.{target.attr} mutated outside the "
                f"{'/'.join(sorted(STATS_ZONES))} layers that own the "
                "counters; read through snapshots instead",
            )


def _is_stats_owner(owner: ast.expr) -> bool:
    """Does ``owner`` denote a stats-counter object (CS4)?

    ``<obj>.stats`` and local ``stats`` aliases, any ``*_stats``
    attribute or name (the hierarchy's ``core_stats`` / ``llc_stats``
    and their aliases), and subscripted containers of stats objects
    (``hierarchy.core_stats[i]``).
    """
    if isinstance(owner, ast.Attribute):
        return owner.attr == "stats" or owner.attr.endswith("_stats")
    if isinstance(owner, ast.Name):
        return owner.id == "stats" or owner.id.endswith("_stats")
    if isinstance(owner, ast.Subscript):
        return _is_stats_owner(owner.value)
    return False


def run_cs_pass(index: ProjectIndex) -> List[Finding]:
    """Run the hygiene rules over every parsed module of the index."""
    findings: List[Finding] = []
    for module in index.modules:
        if module.tree is not None:
            visitor = _Visitor(index, module)
            visitor.visit(module.tree)
            findings += visitor.findings
    return findings


__all__ = ["STAGED_MUTATORS", "STAGED_ZONES", "STATS_ZONES", "run_cs_pass"]
