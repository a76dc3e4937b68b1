"""PX — process-safety: picklable payloads, no post-import global writes.

Everything crossing a worker boundary must survive a pickle round
trip, and nothing the orchestrator runs may depend on shared mutable
module state — the two properties that make the worker pool (and
the shared ``ResultCache`` memoization tier) safe.

``PX1`` *unpicklable object in a worker payload position*
    Lambdas, functions/classes defined locally inside the enclosing
    function, and generator expressions may not appear in *payload
    positions*: arguments of ``SimJob(...)`` / ``RunSummary(...)``
    construction, ``.submit(...)`` / ``.apply_async(...)`` /
    ``.send(...)`` calls, or the ``target=`` of ``Process(...)``.
    These are exactly the values that end up on a worker pipe.

``PX2`` *module-level mutable global written after import*
    A module-level name bound to a mutable container may only be
    populated by module-level (import-time) code.  Writes from inside
    any function — rebinding via ``global``, item assignment, or
    mutating method calls — are flagged: they are invisible shared
    state between jobs in one process and silently *diverge* between
    processes, the classic source of serial-vs-parallel drift.

``PX3`` *open handle or lock in shared/payload position*
    ``open(...)`` / ``threading``/``multiprocessing`` lock objects /
    ``socket(...)`` assigned at module level (inherited ambiguously
    across ``fork``, absent under ``spawn``) or placed in a payload
    position (never picklable).

Known false negatives, by design: payloads built dynamically
(``setattr``, ``**kwargs`` dicts assembled elsewhere), unpicklable
types hidden behind attribute aliases, and ``__main__``-module types
(a runtime property).  The pickling regression tests cover the
dynamic cases at runtime.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from ..project import ModuleInfo, ProjectIndex, dotted_parts
from ..rules import Finding

#: constructors whose arguments become worker payloads.
PAYLOAD_CONSTRUCTORS = frozenset({"SimJob", "RunSummary"})

#: methods that move their arguments onto a worker pipe.
SUBMIT_METHODS = frozenset({"submit", "apply_async", "send", "map_async"})

#: callables producing OS handles / locks (PX3).
HANDLE_FACTORIES = frozenset(
    {
        "open", "Lock", "RLock", "Condition", "Semaphore",
        "BoundedSemaphore", "Event", "socket",
    }
)

#: constructor names treated as mutable-container factories (PX2).
MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)

#: method names that mutate their receiver in place (PX2).
MUTATING_METHODS = frozenset(
    {
        "append", "add", "update", "pop", "popitem", "setdefault", "clear",
        "extend", "remove", "insert", "discard", "appendleft",
    }
)


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        return name in MUTABLE_FACTORIES
    return False


def _is_handle_factory(node: ast.expr) -> Optional[str]:
    if not isinstance(node, ast.Call):
        return None
    name = None
    if isinstance(node.func, ast.Name):
        name = node.func.id
    elif isinstance(node.func, ast.Attribute):
        name = node.func.attr
    return name if name in HANDLE_FACTORIES else None


def _mutable_globals(module: ModuleInfo) -> Set[str]:
    """Module-level names bound to mutable containers."""
    names: Set[str] = set()
    if module.tree is None:
        return names
    for node in module.tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not _is_mutable_literal(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


class _PayloadScanner(ast.NodeVisitor):
    """PX1/PX3 payload-position checks inside one module."""

    def __init__(self, module: ModuleInfo, index: ProjectIndex) -> None:
        self.module = module
        self.index = index
        self.findings: List[Finding] = []
        self._local_defs: List[Set[str]] = []

    # track names defined locally inside each function scope
    def _visit_function(self, node) -> None:
        self._local_defs.append(
            {
                child.name
                for child in ast.walk(node)
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                and child is not node
            }
        )
        self.generic_visit(node)
        self._local_defs.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        if self.module.allows(node.lineno, rule):
            return
        symbol = (
            self.index.enclosing_function(self.module, node.lineno)
            or self.module.name
        )
        self.findings.append(
            Finding(
                path=self.module.rel,
                line=node.lineno,
                col=node.col_offset,
                rule=rule,
                message=message,
                symbol=symbol,
            )
        )

    def _scan_payload_args(self, call: ast.Call, where: str) -> None:
        locals_here = self._local_defs[-1] if self._local_defs else set()
        values = list(call.args) + [kw.value for kw in call.keywords]
        for value in values:
            for node in ast.walk(value):
                if isinstance(node, (ast.Lambda, ast.GeneratorExp)):
                    kind = (
                        "lambda"
                        if isinstance(node, ast.Lambda)
                        else "generator expression"
                    )
                    self._report(
                        "PX1",
                        node,
                        f"{kind} in {where}: not picklable, cannot cross "
                        "a worker boundary",
                    )
                elif isinstance(node, ast.Name) and node.id in locals_here:
                    self._report(
                        "PX1",
                        node,
                        f"locally-defined {node.id!r} in {where}: local "
                        "functions/classes are not picklable",
                    )
                else:
                    handle = _is_handle_factory(node)
                    if handle is not None:
                        self._report(
                            "PX3",
                            node,
                            f"{handle}(...) handle in {where}: OS handles "
                            "and locks are not picklable",
                        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in PAYLOAD_CONSTRUCTORS:
                self._scan_payload_args(node, f"{func.id}(...) payload")
            elif func.id == "Process":
                for kw in node.keywords:
                    if kw.arg == "target" and isinstance(kw.value, ast.Lambda):
                        self._report(
                            "PX1",
                            kw.value,
                            "lambda as Process target: not picklable under "
                            "the spawn/forkserver start methods",
                        )
        elif isinstance(func, ast.Attribute) and func.attr in SUBMIT_METHODS:
            receiver = ".".join(dotted_parts(func.value))
            self._scan_payload_args(
                node, f"{receiver}.{func.attr}(...) payload"
            )
        self.generic_visit(node)


class _GlobalWriteScanner(ast.NodeVisitor):
    """PX2: function-scope writes to module-level mutable globals."""

    def __init__(
        self, module: ModuleInfo, index: ProjectIndex, mutable: Set[str]
    ) -> None:
        self.module = module
        self.index = index
        self.mutable = mutable
        self.findings: List[Finding] = []
        self._function_depth = 0
        self._global_decls: List[Set[str]] = []

    def _visit_function(self, node) -> None:
        self._function_depth += 1
        self._global_decls.append(set())
        self.generic_visit(node)
        self._global_decls.pop()
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Global(self, node: ast.Global) -> None:
        if self._global_decls:
            self._global_decls[-1].update(node.names)

    def _report(self, node: ast.AST, name: str, how: str) -> None:
        if self.module.allows(node.lineno, "PX2"):
            return
        symbol = (
            self.index.enclosing_function(self.module, node.lineno)
            or self.module.name
        )
        self.findings.append(
            Finding(
                path=self.module.rel,
                line=node.lineno,
                col=node.col_offset,
                rule="PX2",
                message=(
                    f"module-level mutable global {name!r} {how} after "
                    "import: shared state between jobs in-process and "
                    "divergent state across worker processes"
                ),
                symbol=symbol,
            )
        )

    def _target_global(self, target: ast.expr) -> Optional[str]:
        """Module-global name a subscript/attribute write lands on."""
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            if target.value.id in self.mutable:
                return target.value.id
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._function_depth:
            declared = set().union(*self._global_decls) if self._global_decls else set()
            for target in node.targets:
                name = self._target_global(target)
                if name is not None:
                    self._report(node, name, "item-assigned")
                elif (
                    isinstance(target, ast.Name)
                    and target.id in declared
                    and target.id in self.mutable
                ):
                    self._report(node, target.id, "rebound via 'global'")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._function_depth:
            name = self._target_global(node.target)
            if name is not None:
                self._report(node, name, "item-augmented")
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        if self._function_depth:
            for target in node.targets:
                name = self._target_global(target)
                if name is not None:
                    self._report(node, name, "item-deleted")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if (
            self._function_depth
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self.mutable
        ):
            self._report(
                node, node.func.value.id, f"mutated via .{node.func.attr}()"
            )
        self.generic_visit(node)


def _module_level_handles(
    module: ModuleInfo, index: ProjectIndex
) -> List[Finding]:
    """PX3: handles/locks bound at module scope."""
    findings: List[Finding] = []
    if module.tree is None:
        return findings
    for node in module.tree.body:
        value = None
        if isinstance(node, ast.Assign):
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            value = node.value
        if value is None:
            continue
        handle = _is_handle_factory(value)
        if handle is None or module.allows(node.lineno, "PX3"):
            continue
        findings.append(
            Finding(
                path=module.rel,
                line=node.lineno,
                col=node.col_offset,
                rule="PX3",
                message=(
                    f"module-level {handle}(...) assignment: handles/locks "
                    "bound at import are duplicated by fork and missing "
                    "under spawn; create them per-process inside functions"
                ),
                symbol=module.name,
            )
        )
    return findings


def run_px_pass(index: ProjectIndex) -> List[Finding]:
    """Run the process-safety pass over an indexed project."""
    findings: List[Finding] = []
    for module in index.modules:
        if module.tree is None:
            continue
        payload = _PayloadScanner(module, index)
        payload.visit(module.tree)
        findings.extend(payload.findings)
        mutable = _mutable_globals(module)
        if mutable:
            writes = _GlobalWriteScanner(module, index, mutable)
            writes.visit(module.tree)
            findings.extend(writes.findings)
        findings.extend(_module_level_handles(module, index))
    return findings


__all__ = [
    "HANDLE_FACTORIES",
    "MUTABLE_FACTORIES",
    "MUTATING_METHODS",
    "PAYLOAD_CONSTRUCTORS",
    "SUBMIT_METHODS",
    "run_px_pass",
]
