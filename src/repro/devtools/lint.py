"""Custom AST lint: simulation-hygiene rules generic linters can't see.

The simulator's correctness argument leans on structural conventions
that Python happily lets you break: cache state must only be mutated
through the owning layers, randomness must be seeded (results are
claims about the paper, so runs must reproduce), simulated time must
never read the host clock, and stats counters are owned by the layer
that defines them.  This module walks the AST of every file under
``src/repro`` and enforces:

``CS1`` *staged-mutator calls*
    ``evict_way`` / ``fill_way`` / ``promote_way`` / ``invalidate`` /
    ``invalidate_all`` may only be called from the ``cache``,
    ``hierarchy`` and ``core`` layers.  Everything else must go
    through ``BaseHierarchy.access`` so inclusion bookkeeping and the
    directory stay consistent (CacheSan verifies the state; this rule
    keeps new call sites from appearing at all).

``CS2`` *unseeded randomness*
    No module-level ``random.<fn>()`` calls, no ``from random
    import`` of anything but ``Random``, and no
    ``<module>.random.<fn>()`` numpy calls except seeded
    ``RandomState(seed)`` / ``default_rng(seed)`` / ``Generator(...)``
    constructions.
    Seeded generator objects (``rng = random.Random(seed)``) are the
    sanctioned idiom.

``CS3`` *wall-clock reads*
    No ``time.time`` / ``time.time_ns`` / ``datetime.now`` /
    ``datetime.today`` / ``datetime.utcnow`` / ``date.today``.
    Simulated time is cycle counts; host-time reads make runs
    irreproducible.  ``time.perf_counter`` (pure elapsed-time
    measurement for progress reporting) is allowed.  CS2 and CS3 read
    the determinism analyzer's source tables
    (:mod:`repro.devtools.passes.dx`), so lint and DX1/DX2 agree.

``CS4`` *stats-counter mutation*
    Assignments to ``<obj>.stats.<counter>`` (or a local ``stats``
    alias), to any ``*_stats`` attribute/name (``core_stats``,
    ``llc_stats``, ...) and to subscripted stats containers
    (``hierarchy.core_stats[i].<counter>``) are only allowed in the
    ``cache``, ``hierarchy``, ``cpu`` and ``metrics`` layers that own
    those counters.  Other layers read counters through snapshots.

Run as ``python -m repro.devtools.lint [paths...]`` (exit 1 on
violations) or through :func:`run_lint` from tests.

File parsing goes through the shared one-parse cache in
:mod:`repro.devtools.project`, so running this lint and
``repro.devtools.analyze`` in one process parses each file exactly
once.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence

from .passes.dx import SEEDED_NUMPY, WALL_CLOCK_SOURCES
from .project import dotted_parts as _dotted_parts
from .project import iter_python_files, parse_module

#: staged cache-state mutators (CS1) and the layers allowed to call them.
STAGED_MUTATORS = frozenset(
    {"evict_way", "fill_way", "promote_way", "invalidate", "invalidate_all"}
)
STAGED_ZONES = frozenset({"cache", "hierarchy", "core"})

#: layers that own stats counters (CS4).
STATS_ZONES = frozenset({"cache", "hierarchy", "cpu", "metrics"})


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at an exact source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, zone: Optional[str]) -> None:
        self.path = path
        self.zone = zone
        self.violations: List[LintViolation] = []

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            LintViolation(self.path, node.lineno, node.col_offset, rule, message)
        )

    # -- CS2: from random import ... -----------------------------------------
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

    # -- call-based rules ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_staged_mutator(node, func)
            self._check_random(node, func)
            self._check_wall_clock(node, func)
        self.generic_visit(node)

    def _check_staged_mutator(self, node: ast.Call, func: ast.Attribute) -> None:
        if func.attr not in STAGED_MUTATORS:
            return
        if self.zone in STAGED_ZONES:
            return
        self._report(
            node,
            "CS1",
            f".{func.attr}() mutates cache state and may only be called "
            f"from the {'/'.join(sorted(STAGED_ZONES))} layers; go through "
            "the hierarchy API",
        )

    def _check_random(self, node: ast.Call, func: ast.Attribute) -> None:
        # module-level random.<fn>() — only seeded random.Random(seed) is fine.
        if isinstance(func.value, ast.Name) and func.value.id == "random":
            if func.attr == "Random" and node.args:
                return
            self._report(
                node,
                "CS2",
                f"random.{func.attr}(...) draws from the unseeded global "
                "generator; construct random.Random(seed) instead"
                if func.attr != "Random"
                else "random.Random() without a seed is irreproducible",
            )
            return
        # numpy-style <module>.random.<fn>() — only seeded constructors.
        if isinstance(func.value, ast.Attribute) and func.value.attr == "random":
            if func.attr in SEEDED_NUMPY and node.args:
                return
            self._report(
                node,
                "CS2",
                f".random.{func.attr}(...) must be a seeded "
                f"{' / '.join(sorted(SEEDED_NUMPY))} construction",
            )

    def _check_wall_clock(self, node: ast.Call, func: ast.Attribute) -> None:
        parts = _dotted_parts(func)
        if len(parts) < 2:
            return
        suffix = (parts[-2], parts[-1])
        if suffix in WALL_CLOCK_SOURCES:
            self._report(
                node,
                "CS3",
                f"{'.'.join(suffix)}() reads the host wall clock; simulated "
                "time is cycle counts (time.perf_counter is allowed for "
                "progress reporting)",
            )

    # -- CS4: stats-counter mutation -------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_stats_target(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_stats_target(node, node.target)
        self.generic_visit(node)

    def _check_stats_target(self, node: ast.AST, target: ast.expr) -> None:
        if not isinstance(target, ast.Attribute):
            return
        if not _is_stats_owner(target.value):
            return
        if self.zone in STATS_ZONES:
            return
        self._report(
            node,
            "CS4",
            f"stats.{target.attr} mutated outside the "
            f"{'/'.join(sorted(STATS_ZONES))} layers that own the "
            "counters; read through snapshots instead",
        )


def _is_stats_owner(owner: ast.expr) -> bool:
    """Does ``owner`` denote a stats-counter object (CS4)?

    Covers the packed cache-module layout's full counter surface:
    ``<obj>.stats.<counter>`` and local ``stats`` aliases (the
    original forms), any ``*_stats`` attribute or name (the
    hierarchy's ``core_stats`` / ``llc_stats`` objects and their
    aliases), and subscripted containers of stats objects
    (``hierarchy.core_stats[i].<counter>``).
    """
    if isinstance(owner, ast.Attribute):
        return owner.attr == "stats" or owner.attr.endswith("_stats")
    if isinstance(owner, ast.Name):
        return owner.id == "stats" or owner.id.endswith("_stats")
    if isinstance(owner, ast.Subscript):
        return _is_stats_owner(owner.value)
    return False


def check_file(path: Path) -> List[LintViolation]:
    """Lint one Python file; returns its violations.

    Parsing is delegated to the shared (cached) one-parse project
    layer, so a file already parsed by the analyzer in this process
    is not parsed again.
    """
    module = parse_module(Path(path))
    if module.error is not None:
        exc = module.error
        return [
            LintViolation(
                str(path), exc.lineno or 0, exc.offset or 0, "CS0",
                f"syntax error: {exc.msg}",
            )
        ]
    visitor = _Visitor(str(path), module.zone)
    visitor.visit(module.tree)
    return visitor.violations


def run_lint(paths: Optional[Sequence[Path]] = None) -> List[LintViolation]:
    """Lint ``paths`` (default: the installed ``repro`` package tree)."""
    if paths is None:
        paths = [Path(__file__).resolve().parents[1]]
    violations: List[LintViolation] = []
    for file, _rel in iter_python_files(Path(p) for p in paths):
        violations.extend(check_file(file))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    paths = [Path(arg) for arg in argv] or None
    missing = [str(p) for p in paths or [] if not p.exists()]
    if missing:
        print(f"no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    violations = run_lint(paths)
    for violation in violations:
        print(violation)
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
