"""One-parse project index shared by every pass of the static checker.

:func:`load_project` parses each file under the analyzed paths exactly
once per run; every pass of :mod:`repro.devtools.analyze` (CS, DX, PX,
HX) reads the same ASTs.

On top of the raw per-file parse (:func:`parse_module` /
:class:`ModuleInfo`) sits :class:`ProjectIndex`, the whole-program
view the interprocedural passes consume:

* a *function index* — every ``def`` (module-level, method, nested)
  under a stable dotted qualname;
* a *project import graph* — which project modules each module can
  name (``import``/``from`` targets resolved against the index,
  relative imports included), plus its transitive closure;
* an *approximate call graph* — name-based resolution of call sites
  to project functions, restricted to the caller's import closure.

The call graph is deliberately an over-approximation (any project
function with a matching name in an importable module is a candidate
callee) with one documented under-approximation: calls through very
generic method names (``.get()``, ``.update()``, ...) and through
values passed as parameters are not resolved.  See DESIGN.md for the
full soundness discussion.

Inline escapes: a line (or the line above it) carrying
``# repro: allow[RULE]`` suppresses findings of ``RULE`` (or of a
whole family, e.g. ``allow[HX]``) at that location; ``# repro: hot``
on a ``def`` line registers the function for the hot-path (HX) pass.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

_MARKER_RE = re.compile(r"#\s*repro:\s*(allow\[(?P<rules>[A-Z0-9,\s]+)\]|(?P<hot>hot)\b)")

#: attribute names too generic to resolve call edges through — doing
#: so would wire every ``d.get(...)`` to every project method called
#: ``get``.  A documented false-negative tradeoff.
GENERIC_ATTR_NAMES = frozenset(
    {
        "get", "items", "keys", "values", "append", "add", "pop", "clear",
        "copy", "close", "join", "split", "strip", "format", "encode",
        "decode", "read", "readline", "write", "flush", "send", "recv",
        "sort", "count", "index", "extend", "remove", "setdefault",
        "popitem", "discard", "update",
    }
)


def dotted_parts(node: ast.expr) -> List[str]:
    """Flatten an ``a.b.c`` attribute chain into ``["a", "b", "c"]``.

    Non-name bases (calls, subscripts) flatten to ``"?"`` so suffix
    matching still works on e.g. ``obj().method``.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    else:
        parts.append("?")
    parts.reverse()
    return parts


def zone_of(path: Path) -> Optional[str]:
    """Return the repro sub-package a file belongs to (None if outside).

    The zone is the first path component under the ``repro`` package
    root (e.g. ``.../repro/hierarchy/base.py`` -> ``"hierarchy"``);
    files directly in the root get ``""`` and files outside any
    ``repro`` package get ``None``, which disables every zone
    allowance.
    """
    resolved = path.resolve()
    for parent in resolved.parents:
        if parent.name == "repro" and (parent / "__init__.py").exists():
            relative = resolved.relative_to(parent).parts
            return relative[0] if len(relative) > 1 else ""
    return None


def module_name_of(path: Path) -> str:
    """Dotted module name derived from the package structure on disk.

    Walks up while ``__init__.py`` exists, so
    ``src/repro/cache/cache.py`` -> ``repro.cache.cache`` and a
    package ``__init__.py`` names the package itself.  Files outside
    any package are named by their stem.
    """
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    parts.reverse()
    return ".".join(parts) if parts else resolved.stem


@dataclass
class ModuleInfo:
    """One parsed file plus everything the analyses ask of it."""

    path: Path
    rel: str  # display/baseline path, '/'-separated, root-relative
    name: str  # dotted module name
    zone: Optional[str]
    source: str
    lines: List[str]
    tree: Optional[ast.Module]
    error: Optional[SyntaxError] = None

    def _marker_rules(self, line: int) -> Optional[Set[str]]:
        """allow[...] rule set on ``line`` (1-based), or None."""
        if not 1 <= line <= len(self.lines):
            return None
        match = _MARKER_RE.search(self.lines[line - 1])
        if match is None or match.group("rules") is None:
            return None
        return {r.strip() for r in match.group("rules").split(",") if r.strip()}

    def allows(self, line: int, rule: str) -> bool:
        """Is ``rule`` suppressed at ``line`` (same line or line above)?"""
        for probe in (line, line - 1):
            rules = self._marker_rules(probe)
            if rules and any(rule == r or rule.startswith(r) for r in rules):
                return True
        return False

    def is_marked_hot(self, line: int) -> bool:
        """Does ``line`` (or the line above) carry ``# repro: hot``?"""
        for probe in (line, line - 1):
            if not 1 <= probe <= len(self.lines):
                continue
            match = _MARKER_RE.search(self.lines[probe - 1])
            if match is not None and match.group("hot") is not None:
                return True
        return False


def parse_module(path: Path) -> ModuleInfo:
    """Parse ``path`` into a :class:`ModuleInfo`.

    Syntax errors are captured on :attr:`ModuleInfo.error` (with
    ``tree=None``) rather than raised, so one broken file degrades to
    one finding instead of aborting a whole run.
    """
    resolved = path.resolve()
    source = resolved.read_text(encoding="utf-8")
    tree: Optional[ast.Module] = None
    error: Optional[SyntaxError] = None
    try:
        tree = ast.parse(source, filename=str(resolved))
    except SyntaxError as exc:
        error = exc
    return ModuleInfo(
        path=resolved,
        rel=resolved.name,
        name=module_name_of(resolved),
        zone=zone_of(resolved),
        source=source,
        lines=source.splitlines(),
        tree=tree,
        error=error,
    )


def iter_python_files(paths: Iterable[Path]) -> List[Tuple[Path, str]]:
    """Expand files/directories into ``(path, rel)`` pairs.

    ``rel`` is the stable display/baseline path: for a directory root
    it is relative to the root's *parent* (scanning ``src/repro``
    yields ``repro/cache/cache.py``), for a bare file it is the file
    name.  Deterministically sorted.
    """
    out: List[Tuple[Path, str]] = []
    for path in paths:
        if path.is_dir():
            base = path.resolve().parent
            for file in sorted(path.rglob("*.py")):
                out.append((file, file.resolve().relative_to(base).as_posix()))
        else:
            out.append((path, path.name))
    return out


@dataclass
class FunctionInfo:
    """One ``def`` (module-level, method or nested) in the index."""

    qualname: str
    name: str
    module: ModuleInfo
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None  # owning class name, if a method
    parent: Optional[str] = None  # enclosing function qualname, if nested

    @property
    def line(self) -> int:
        return self.node.lineno

    def is_hot_marked(self) -> bool:
        return self.module.is_marked_hot(self.node.lineno)


class _FunctionCollector(ast.NodeVisitor):
    """Index every def under its dotted qualname."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.stack: List[str] = [module.name]
        self.cls_stack: List[str] = []
        self.functions: List[FunctionInfo] = []
        self.parent_stack: List[Optional[str]] = [None]

    def _visit_def(self, node) -> None:
        qualname = ".".join(self.stack + [node.name])
        self.functions.append(
            FunctionInfo(
                qualname=qualname,
                name=node.name,
                module=self.module,
                node=node,
                cls=self.cls_stack[-1] if self.cls_stack else None,
                parent=self.parent_stack[-1],
            )
        )
        self.stack.append(node.name)
        self.parent_stack.append(qualname)
        self.generic_visit(node)
        self.parent_stack.pop()
        self.stack.pop()

    visit_FunctionDef = _visit_def
    visit_AsyncFunctionDef = _visit_def

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.stack.append(node.name)
        self.cls_stack.append(node.name)
        self.generic_visit(node)
        self.cls_stack.pop()
        self.stack.pop()


def _module_imports(module: ModuleInfo) -> Set[str]:
    """Dotted names this module imports (absolute, relatives resolved)."""
    if module.tree is None:
        return set()
    imports: Set[str] = set()
    package_parts = module.name.split(".")
    if module.path.name != "__init__.py":
        package_parts = package_parts[:-1]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[: len(package_parts) - node.level + 1]
            else:
                base = []
            target = ".".join(base + ([node.module] if node.module else []))
            if target:
                imports.add(target)
            # ``from pkg import sub`` may name submodules directly.
            for alias in node.names:
                if target:
                    imports.add(f"{target}.{alias.name}")
                else:
                    imports.add(alias.name)
    return imports


class ProjectIndex:
    """Whole-program view: modules, functions, imports, call graph."""

    def __init__(self, modules: List[ModuleInfo]) -> None:
        self.modules = modules
        self.by_name: Dict[str, ModuleInfo] = {m.name: m for m in modules}
        self.functions: Dict[str, FunctionInfo] = {}
        #: module name -> module-level defs/classes by bare name.
        self._module_defs: Dict[str, Dict[str, str]] = {}
        #: bare method name -> [method qualnames] across all classes.
        self._methods: Dict[str, List[str]] = {}
        self.imports: Dict[str, Set[str]] = {}
        self._closures: Dict[str, Set[str]] = {}
        self.calls: Dict[str, Set[str]] = {}
        self.callers: Dict[str, Set[str]] = {}
        self._build()

    # -- construction ---------------------------------------------------------
    def _build(self) -> None:
        for module in self.modules:
            defs: Dict[str, str] = {}
            if module.tree is not None:
                collector = _FunctionCollector(module)
                collector.visit(module.tree)
                for info in collector.functions:
                    self.functions[info.qualname] = info
                    if info.cls is not None and info.parent is None:
                        self._methods.setdefault(info.name, []).append(
                            info.qualname
                        )
                    elif info.cls is None and info.parent is None:
                        defs[info.name] = info.qualname
                for node in module.tree.body:
                    if isinstance(node, ast.ClassDef):
                        init = f"{module.name}.{node.name}.__init__"
                        defs[node.name] = (
                            init
                            if init in self.functions
                            else f"{module.name}.{node.name}"
                        )
            self._module_defs[module.name] = defs
            self.imports[module.name] = {
                name
                for name in _module_imports(module)
                if self._project_module(name) is not None
            }
        for module in self.modules:
            self._closures[module.name] = self._import_closure(module.name)
        for info in self.functions.values():
            self.calls[info.qualname] = self._resolve_calls(info)
        for caller, callees in self.calls.items():
            for callee in callees:
                self.callers.setdefault(callee, set()).add(caller)

    def _project_module(self, name: str) -> Optional[str]:
        """Map an import target onto a known project module, if any."""
        if name in self.by_name:
            return name
        # ``from repro.orchestrate import job`` style prefixes.
        head = name.rsplit(".", 1)[0]
        return head if head in self.by_name else None

    def _import_closure(self, name: str) -> Set[str]:
        closure: Set[str] = set()
        stack = [name]
        while stack:
            current = stack.pop()
            if current in closure:
                continue
            closure.add(current)
            for target in self.imports.get(current, ()):
                resolved = self._project_module(target)
                if resolved is not None and resolved not in closure:
                    stack.append(resolved)
        return closure

    def _resolve_calls(self, info: FunctionInfo) -> Set[str]:
        """Name-based callee resolution for one function.

        Calls inside *nested* defs belong to the nested function; an
        unconditional edge enclosing -> nested over-approximates the
        closure actually being invoked.
        """
        callees: Set[str] = set()
        closure = self._closures.get(info.module.name, {info.module.name})
        own_defs = self._module_defs.get(info.module.name, {})

        def resolve_name(name: str) -> None:
            target = own_defs.get(name)
            if target is not None:
                callees.add(target)
                return
            for mod in closure:
                target = self._module_defs.get(mod, {}).get(name)
                if target is not None:
                    callees.add(target)

        def resolve_attr(name: str) -> None:
            if name in GENERIC_ATTR_NAMES or name.startswith("__"):
                return
            for qualname in self._methods.get(name, ()):
                owner = self.functions[qualname].module.name
                if owner in closure:
                    callees.add(qualname)

        for node in ast.walk(info.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not info.node:
                    callees.add(f"{info.qualname}.{node.name}")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    resolve_name(func.id)
                elif isinstance(func, ast.Attribute):
                    resolve_attr(func.attr)
        callees.discard(info.qualname)
        return callees

    # -- queries ---------------------------------------------------------------
    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Transitive closure over the call graph from ``roots``."""
        seen: Set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.calls.get(current, ()))
        return seen

    def enclosing_function(self, module: ModuleInfo, line: int) -> Optional[str]:
        """Qualname of the innermost function spanning ``line``."""
        best: Optional[FunctionInfo] = None
        for info in self.functions.values():
            if info.module is not module:
                continue
            end = getattr(info.node, "end_lineno", info.node.lineno)
            if info.node.lineno <= line <= (end or info.node.lineno):
                if best is None or info.node.lineno >= best.node.lineno:
                    best = info
        return best.qualname if best else None


def load_project(paths: Sequence[Path]) -> ProjectIndex:
    """Parse every file under ``paths`` once and index the project."""
    modules = [
        replace(parse_module(path), rel=rel)
        for path, rel in iter_python_files(paths)
    ]
    return ProjectIndex(modules)


__all__ = [
    "FunctionInfo",
    "GENERIC_ATTR_NAMES",
    "ModuleInfo",
    "ProjectIndex",
    "dotted_parts",
    "iter_python_files",
    "load_project",
    "module_name_of",
    "parse_module",
    "zone_of",
]
