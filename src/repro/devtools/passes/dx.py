"""DX — determinism taint dataflow.

The orchestrator's memoization story requires results keyed by
``job_key`` to be bit-deterministic.  This pass marks *nondeterminism
sources* and reports any that can reach a *determinism sink* through
the approximate call graph:

sources (taint kinds)
    ``wallclock`` — host clock reads beyond ``time.perf_counter`` /
    ``time.process_time`` (:func:`wall_clock_read`, which CS3 also
    uses);
    ``rng`` — draws from unseeded generators (:func:`unseeded_draw`,
    which CS2 also uses);
    ``id`` — ``id()`` values (process-dependent);
    ``setorder`` — iteration over set/frozenset expressions, whose
    order depends on ``PYTHONHASHSEED`` for str keys.

sinks
    ``SimJob`` / ``RunSummary`` construction, ``job_key`` calls,
    ``ResultCache``-style ``.store`` writes, and the telemetry
    exporter payload builders.

Taint is function-granular: a function is tainted if it contains a
source or (transitively) calls a tainted function; a finding fires at
each sink site inside a tainted function, carrying the call chain
from the originating source.  This over-approximates value flow (any
call to a tainted function taints the whole caller) — precise enough
in practice because the simulator tree is expected to be clean — and
under-approximates flows through stored callables and generic method
names (see the call-graph notes in DESIGN.md).

``DX3`` (environment reads outside a config module) is a *direct*
rule, not flow-gated: configuration must be resolved at the CLI
boundary and travel inside job descriptions, never be re-read at use
sites where it would bypass the job key.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..project import FunctionInfo, ProjectIndex, dotted_parts
from ..rules import Finding

#: dotted-suffix wall-clock sources.
WALL_CLOCK_SOURCES = (
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "today"),
    ("datetime", "utcnow"),
    ("date", "today"),
)

#: seeded numpy constructors that are not RNG sources when given a seed.
SEEDED_NUMPY = frozenset({"RandomState", "default_rng", "Generator"})

#: constructors whose arguments become cached/exported payloads.
SINK_CONSTRUCTORS = {
    "SimJob": "job identity (SimJob)",
    "RunSummary": "simulated result (RunSummary)",
    "SimResult": "simulated result (SimResult)",
}

#: module-level functions that derive or persist result identity.
SINK_FUNCTIONS = {
    "job_key": "job identity (job_key)",
    "write_events_jsonl": "exporter payload (events JSONL)",
    "spans_to_chrome_trace": "exporter payload (Chrome trace)",
}

#: ``<receiver>.store(...)`` writes where the receiver looks like a
#: result cache; the receiver filter keeps generic ``.store`` calls out.
SINK_STORE_METHOD = "store"

#: modules whose last dotted component is in this set may read the
#: environment: they *are* the configuration boundary.
ENV_ALLOWED_MODULE_TAILS = frozenset({"config"})

TAINT_RULES = {
    "wallclock": "DX1",
    "rng": "DX2",
    "id": "DX4",
    "setorder": "DX5",
}

TAINT_LABELS = {
    "wallclock": "host wall-clock read",
    "rng": "unseeded randomness",
    "id": "id() value",
    "setorder": "set iteration order",
}


def wall_clock_read(call: ast.Call) -> Optional[str]:
    """``"time.time()"``-style description if ``call`` reads the host
    wall clock (a :data:`WALL_CLOCK_SOURCES` suffix), else None.

    The one wall-clock predicate: DX1's taint source and rule CS3.
    """
    if not isinstance(call.func, ast.Attribute):
        return None
    suffix = tuple(dotted_parts(call.func)[-2:])
    if suffix not in WALL_CLOCK_SOURCES:
        return None
    return f"{suffix[0]}.{suffix[1]}()"


def unseeded_draw(call: ast.Call) -> Optional[str]:
    """Description if ``call`` draws unseeded randomness, else None.

    Flags ``random.<fn>(...)`` except a seeded ``random.Random(seed)``,
    and numpy-style ``<module>.random.<fn>(...)`` except a seeded
    :data:`SEEDED_NUMPY` construction.  The one RNG predicate: DX2's
    taint source and rule CS2.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if isinstance(func.value, ast.Name) and func.value.id == "random":
        if func.attr == "Random" and call.args:
            return None
        return f"random.{func.attr}(...)"
    if isinstance(func.value, ast.Attribute) and func.value.attr == "random":
        if func.attr in SEEDED_NUMPY and call.args:
            return None
        return f".random.{func.attr}(...)"
    return None


@dataclass(frozen=True)
class SourceHit:
    kind: str
    line: int
    desc: str


@dataclass(frozen=True)
class SinkHit:
    desc: str
    line: int
    col: int


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


class _FunctionScanner(ast.NodeVisitor):
    """Collect source and sink hits inside one function body.

    Nested defs are scanned as their own functions by the driver; the
    call-graph edge enclosing -> nested carries their taint up.
    """

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.sources: List[SourceHit] = []
        self.sinks: List[SinkHit] = []

    def _visit_nested(self, node) -> None:  # skip nested def bodies
        if node is self.info.node:
            self.generic_visit(node)

    visit_FunctionDef = _visit_nested
    visit_AsyncFunctionDef = _visit_nested

    def _source(self, kind: str, node: ast.AST, desc: str) -> None:
        if not self.info.module.allows(node.lineno, TAINT_RULES[kind]):
            self.sources.append(SourceHit(kind, node.lineno, desc))

    def _sink(self, node: ast.AST, desc: str) -> None:
        self.sinks.append(SinkHit(desc, node.lineno, node.col_offset))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "id" and len(node.args) == 1:
                self._source("id", node, "id(...)")
            elif func.id in SINK_CONSTRUCTORS:
                self._sink(node, SINK_CONSTRUCTORS[func.id])
            elif func.id in SINK_FUNCTIONS:
                self._sink(node, SINK_FUNCTIONS[func.id])
            elif func.id in {"list", "tuple", "enumerate", "iter"}:
                if node.args and _is_set_expr(node.args[0]):
                    self._source(
                        "setorder", node, f"{func.id}() over a set expression"
                    )
        elif isinstance(func, ast.Attribute):
            clock = wall_clock_read(node)
            if clock is not None:
                self._source("wallclock", node, clock)
            draw = unseeded_draw(node)
            if draw is not None:
                self._source("rng", node, draw)
            if func.attr == SINK_STORE_METHOD:
                receiver = ".".join(dotted_parts(func.value)).lower()
                if "cache" in receiver:
                    self._sink(node, f"result-cache write ({receiver}.store)")
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._source("setorder", node, "for-loop over a set expression")
        self.generic_visit(node)


def _env_read_findings(index: ProjectIndex) -> List[Finding]:
    """DX3: direct os.environ / os.getenv reads outside config modules."""
    findings: List[Finding] = []
    for module in index.modules:
        if module.tree is None:
            continue
        if module.name.rsplit(".", 1)[-1] in ENV_ALLOWED_MODULE_TAILS:
            continue
        for node in ast.walk(module.tree):
            desc = None
            if isinstance(node, ast.Attribute):
                parts = dotted_parts(node)
                if parts[-2:] == ["os", "environ"]:
                    desc = "os.environ"
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if dotted_parts(node.func)[-2:] == ["os", "getenv"]:
                    desc = "os.getenv(...)"
            if desc is None or module.allows(node.lineno, "DX3"):
                continue
            symbol = (
                index.enclosing_function(module, node.lineno) or module.name
            )
            findings.append(
                Finding(
                    path=module.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="DX3",
                    message=(
                        f"{desc} read outside a config module; resolve "
                        "environment at the CLI boundary and pass values "
                        "through the job description (or they bypass job_key)"
                    ),
                    symbol=symbol,
                )
            )
    return findings


def _propagate(
    index: ProjectIndex,
    direct: Dict[str, List[SourceHit]],
    kind: str,
) -> Dict[str, Tuple[str, Optional[str], SourceHit]]:
    """BFS taint of ``kind`` from source functions up through callers.

    Returns ``tainted[fn] = (origin_fn, predecessor_fn, source_hit)``;
    following predecessors reconstructs the origin -> fn call chain.
    """
    tainted: Dict[str, Tuple[str, Optional[str], SourceHit]] = {}
    frontier: List[str] = []
    for qualname, hits in direct.items():
        kind_hits = [h for h in hits if h.kind == kind]
        if kind_hits:
            tainted[qualname] = (qualname, None, kind_hits[0])
            frontier.append(qualname)
    while frontier:
        current = frontier.pop()
        origin, _, hit = tainted[current]
        for caller in index.callers.get(current, ()):
            if caller not in tainted:
                tainted[caller] = (origin, current, hit)
                frontier.append(caller)
    return tainted


def _chain(
    tainted: Dict[str, Tuple[str, Optional[str], SourceHit]], fn: str
) -> List[str]:
    """origin -> ... -> fn call chain (bare names for readability)."""
    chain = [fn]
    seen = {fn}
    current = fn
    while True:
        _, pred, _ = tainted[current]
        if pred is None or pred in seen:
            break
        chain.append(pred)
        seen.add(pred)
        current = pred
    chain.reverse()
    return [q.rsplit(".", 1)[-1] for q in chain]


def run_dx_pass(index: ProjectIndex) -> List[Finding]:
    """Run the determinism pass over an indexed project."""
    findings = _env_read_findings(index)
    direct: Dict[str, List[SourceHit]] = {}
    sinks: Dict[str, List[SinkHit]] = {}
    for qualname, info in index.functions.items():
        scanner = _FunctionScanner(info)
        scanner.visit(info.node)
        if scanner.sources:
            direct[qualname] = scanner.sources
        if scanner.sinks:
            sinks[qualname] = scanner.sinks
    for kind, rule in TAINT_RULES.items():
        tainted = _propagate(index, direct, kind)
        for qualname, sink_hits in sinks.items():
            if qualname not in tainted:
                continue
            info = index.functions[qualname]
            origin, _, hit = tainted[qualname]
            chain = " -> ".join(_chain(tainted, qualname))
            for sink in sink_hits:
                if info.module.allows(sink.line, rule):
                    continue
                findings.append(
                    Finding(
                        path=info.module.rel,
                        line=sink.line,
                        col=sink.col,
                        rule=rule,
                        message=(
                            f"{TAINT_LABELS[kind]} ({hit.desc}, "
                            f"{origin.rsplit('.', 1)[-1]}:{hit.line}) can "
                            f"flow into {sink.desc}"
                        ),
                        symbol=qualname,
                        detail=f"flow: {chain}",
                    )
                )
    return findings


__all__ = [
    "ENV_ALLOWED_MODULE_TAILS",
    "SEEDED_NUMPY",
    "SINK_CONSTRUCTORS",
    "SINK_FUNCTIONS",
    "WALL_CLOCK_SOURCES",
    "run_dx_pass",
    "unseeded_draw",
    "wall_clock_read",
]
