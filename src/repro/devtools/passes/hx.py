"""HX — hot-path checks over functions registered as hot.

The simulator's remaining cost is the per-access Python loop; these
rules keep the handful of functions on that path from silently
regressing while the vectorized epoch kernel is built on top of them.
Only *registered* hot functions are checked — everything else may
trade speed for clarity freely.

Registration is either membership in :data:`DEFAULT_HOT_SUFFIXES`
(matched against the function qualname) or an inline ``# repro: hot``
marker on the ``def`` line.

Inside a hot function, every ``for``/``while`` loop body — and the
entire body of a *closure* defined in a hot function, since such
closures run once per access — is checked for:

``HX1`` per-iteration allocations: container displays and
    comprehensions, and bare ``list()``/``dict()``/``set()`` calls
    (allocations inside ``return``/``raise`` run at most once per
    call and are exempt; tuple packing is left alone — it is how
    multi-value returns work);
``HX2`` repeated lookups: an attribute chain of three or more names
    (``a.b.c``) loaded in the loop, or the same ``obj.attr`` loaded
    :data:`REPEAT_THRESHOLD` or more times in one loop body — both
    hoistable to locals;
``HX3`` ``try``/``except`` inside the loop body (move the handler
    outside the loop or restructure; even zero-cost exception tables
    cost icache and block some CPython specializations).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Tuple

from ..project import FunctionInfo, ProjectIndex, dotted_parts
from ..rules import Finding

#: qualname suffixes registered as hot by default: the packed
#: tag-store access, fill, raw fill and NRU promote closures, the
#: hierarchy's per-core L1-miss closure and its LLC leg, the core's two
#: loops (the ``_bare_loop`` and ``_probed_loop`` generators), the TLH
#: hint closure's builder, the vectorised trace generator and its batch
#: body, and the trace-batch memo's replay loop with the list
#: conversion every feed runs (see ROADMAP "vectorized epoch kernel").
DEFAULT_HOT_SUFFIXES = (
    "Cache.access",
    "Cache._make_lru_access",
    "Cache._make_lru_fill",
    "Cache._make_lru_fill_raw",
    "Cache._make_nru_promote",
    "BaseHierarchy._make_miss_path",
    "BaseHierarchy._make_llc_demand",
    "SimulatedCore._bare_loop",
    "SimulatedCore._probed_loop",
    "TemporalLocalityHints.hit_hook",
    "_mixture_trace_numpy",
    "_mixture_batches_numpy",
    "_numpy_batch_maker",
    "_batch_lists",
    "_BatchMemo.replay",
)

#: same-attribute loads per loop body that trigger HX2.
REPEAT_THRESHOLD = 3

ALLOCATING_CALLS = frozenset({"list", "dict", "set", "bytearray"})


def is_hot(info: FunctionInfo) -> bool:
    """Is this function registered for hot-path checking?"""
    if info.is_hot_marked():
        return True
    qualname = info.qualname
    return any(qualname.endswith(suffix) for suffix in DEFAULT_HOT_SUFFIXES)


def _loop_bodies(info: FunctionInfo) -> Iterator[Tuple[List[ast.stmt], str]]:
    """Yield (statements, label) regions checked as per-iteration code.

    Loops belong to the function that syntactically contains them; a
    closure nested in a hot function contributes its whole body (it
    runs per call), which the driver reaches by treating the closure
    as hot itself.
    """
    own_loops: List[ast.stmt] = []

    def walk(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested defs are their own (possibly hot) scope
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                own_loops.append(child)
            walk(child)

    walk(info.node)
    for loop in own_loops:
        label = f"loop at line {loop.lineno}"
        yield list(loop.body) + list(loop.orelse), label


def _closure_body(info: FunctionInfo) -> List[ast.stmt]:
    return list(info.node.body)


def _iter_region(statements: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk a region, skipping nested defs and return/raise subtrees."""
    stack: List[ast.AST] = list(statements)
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.Return, ast.Raise)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _attr_chain(node: ast.Attribute) -> Tuple[List[str], bool]:
    """(name parts, pure) for an attribute load; pure means Name base."""
    parts = dotted_parts(node)
    return parts, parts[0] != "?"


class _RegionChecker:
    """Run HX1/HX2/HX3 over one per-iteration region."""

    def __init__(self, info: FunctionInfo, label: str) -> None:
        self.info = info
        self.label = label
        self.findings: List[Finding] = []

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        module = self.info.module
        if module.allows(node.lineno, rule):
            return
        self.findings.append(
            Finding(
                path=module.rel,
                line=node.lineno,
                col=node.col_offset,
                rule=rule,
                message=f"{message} ({self.label} of hot {self.info.name})",
                symbol=self.info.qualname,
            )
        )

    def check(self, statements: List[ast.stmt]) -> List[Finding]:
        attr_loads: Dict[str, List[ast.Attribute]] = {}
        covered: set = set()
        for node in _iter_region(statements):
            if isinstance(
                node,
                (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
            ):
                self._report(
                    "HX1",
                    node,
                    "per-iteration container allocation; hoist or reuse a "
                    "preallocated buffer",
                )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ALLOCATING_CALLS:
                    self._report(
                        "HX1",
                        node,
                        f"per-iteration {node.func.id}() allocation; hoist "
                        "or reuse a preallocated buffer",
                    )
            elif isinstance(node, ast.Try):
                self._report(
                    "HX3",
                    node,
                    "try/except inside the loop body; hoist the handler "
                    "out of the per-iteration path",
                )
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                if id(node) in covered:
                    continue
                parts, pure = _attr_chain(node)
                # mark sub-attributes of this chain as seen so a.b.c
                # counts once, not once per link
                inner = node.value
                while isinstance(inner, ast.Attribute):
                    covered.add(id(inner))
                    inner = inner.value
                if not pure:
                    continue
                key = ".".join(parts)
                if len(parts) >= 3:
                    self._report(
                        "HX2",
                        node,
                        f"attribute chain {key} loaded per iteration; "
                        "hoist to a local before the loop",
                    )
                else:
                    attr_loads.setdefault(key, []).append(node)
        for key, nodes in sorted(attr_loads.items()):
            if len(nodes) >= REPEAT_THRESHOLD:
                first = min(nodes, key=lambda n: (n.lineno, n.col_offset))
                self._report(
                    "HX2",
                    first,
                    f"{key} loaded {len(nodes)}x per iteration; hoist to "
                    "a local before the loop",
                )
        return self.findings


def run_hx_pass(index: ProjectIndex) -> List[Finding]:
    """Run the hot-path pass over an indexed project."""
    raw: List[Finding] = []
    for _, info in sorted(index.functions.items()):
        parent_hot = (
            info.parent is not None
            and info.parent in index.functions
            and is_hot(index.functions[info.parent])
        )
        if is_hot(info):
            for statements, label in _loop_bodies(info):
                raw.extend(_RegionChecker(info, label).check(statements))
        if parent_hot:
            # A closure inside a hot function runs per access: its
            # whole body is per-iteration code.
            checker = _RegionChecker(info, "closure body")
            raw.extend(checker.check(_closure_body(info)))
    # Nested loops are both their own region and part of the enclosing
    # loop's region; keep one finding per exact site.
    findings: List[Finding] = []
    seen = set()
    for finding in raw:
        key = (finding.rule, finding.path, finding.line, finding.col)
        if key not in seen:
            seen.add(key)
            findings.append(finding)
    return findings


__all__ = ["DEFAULT_HOT_SUFFIXES", "REPEAT_THRESHOLD", "is_hot", "run_hx_pass"]
