"""Project-wide call graph for interprocedural rules.

The PR 5 rules see one file at a time, so a handler that calls a helper
which calls ``time.sleep`` slips through. This module turns the
:class:`~repro.analysis.context.Project` file set into a best-effort call
graph over *project-local* calls, which the transitive rules (REP002,
REP004) walk.

Resolution is deliberately conservative — a call that cannot be pinned to
a project function adds **no** edge (under-approximation). The resolved
forms are the ones that dominate this tree:

- ``f(...)`` — a module-level function, an imported project function
  (``from repro.x import f``), or a project class (→ ``Class.__init__``);
- ``self.m(...)`` — a method on the enclosing class or a project-resolved
  base class;
- ``mod.f(...)`` — through an ``import repro.x as mod`` alias;
- ``x.m(...)`` — when ``x`` is a parameter or local whose project class is
  known from an annotation or a ``x = Class(...)`` assignment, or a
  ``self.attr.m(...)`` whose attribute type was recorded in ``__init__``
  (assignment or annotation).

Entry points — the roots the transitive rules report at — are every
function defined under ``repro/services/`` plus every ``on_*`` /
``handle_*`` (and underscore-prefixed) method anywhere on the sim path:
those are the functions the container invokes on the dispatch thread.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.context import Project, SourceFile

#: Method-name prefixes the container/runtime invokes as dispatch callbacks.
HANDLER_PREFIXES: Tuple[str, ...] = ("on_", "_on_", "handle_", "_handle_")

#: Modules whose functions are entry points wholesale: service code runs
#: only when the container dispatches into it.
SERVICE_PREFIX = "repro/services/"


def module_name(rel: str) -> str:
    """``repro/container/gossip.py`` → ``repro.container.gossip``."""
    name = rel[:-3] if rel.endswith(".py") else rel
    if name.endswith("/__init__"):
        name = name[: -len("/__init__")]
    return name.replace("/", ".")


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str  # module.Class.method or module.function
    rel: str  # file, relative to the scan root
    lineno: int
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None  # enclosing class, unqualified

    @property
    def short(self) -> str:
        """``Class.method`` / ``function`` — the display form."""
        parts = self.qualname.split(".")
        if self.class_name is not None:
            return ".".join(parts[-2:])
        return parts[-1]


@dataclass
class CallSite:
    """One resolved project-local call."""

    caller: str  # qualname
    callee: str  # qualname
    rel: str
    lineno: int


@dataclass
class ClassInfo:
    qualname: str
    rel: str
    bases: List[str] = field(default_factory=list)  # qualnames, best effort
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    attr_types: Dict[str, str] = field(default_factory=dict)  # self.x -> class qualname


class _ModuleScope:
    """Name-resolution context of one module."""

    def __init__(self, module: str) -> None:
        self.module = module
        #: local alias -> fully qualified target ("repro.x" or "repro.x.f")
        self.imports: Dict[str, str] = {}
        #: names defined at module level (functions/classes) -> qualname
        self.defs: Dict[str, str] = {}


class CallGraph:
    """Functions, classes, and resolved project-local call edges."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: List[CallSite] = []
        #: caller qualname -> list of CallSite
        self.out_edges: Dict[str, List[CallSite]] = {}

    # -- queries -----------------------------------------------------------
    def callees(self, qualname: str) -> List[CallSite]:
        return self.out_edges.get(qualname, [])

    def functions_in(self, rel: str) -> List[FunctionInfo]:
        return sorted(
            (f for f in self.functions.values() if f.rel == rel),
            key=lambda f: f.lineno,
        )

    def entry_points(self) -> List[FunctionInfo]:
        """Dispatch-path roots: service functions + handler-named methods."""
        out = []
        for info in self.functions.values():
            bare = info.qualname.rsplit(".", 1)[-1]
            if info.rel.startswith(SERVICE_PREFIX):
                if not bare.startswith("__"):
                    out.append(info)
            elif info.class_name is not None and bare.startswith(HANDLER_PREFIXES):
                out.append(info)
        return sorted(out, key=lambda f: (f.rel, f.lineno))

    # -- construction ------------------------------------------------------
    @classmethod
    def build(cls, project: Project) -> "CallGraph":
        graph = cls()
        scopes: Dict[str, _ModuleScope] = {}
        project_modules: Set[str] = {module_name(f.rel) for f in project.files}
        # Pass 1: index every function/class and the import table per module.
        for file in project.files:
            scopes[file.rel] = _index_module(graph, file, project_modules)
        _resolve_bases(graph)
        # Pass 2: record self-attribute types, then resolve calls.
        for file in project.files:
            _collect_attr_types(graph, file, scopes[file.rel])
        for file in project.files:
            _resolve_calls(graph, file, scopes[file.rel])
        for site in graph.calls:
            graph.out_edges.setdefault(site.caller, []).append(site)
        return graph


def build_callgraph(project: Project) -> CallGraph:
    return CallGraph.build(project)


# -- pass 1: indexing ---------------------------------------------------------


def _index_module(
    graph: CallGraph, file: SourceFile, project_modules: Set[str]
) -> _ModuleScope:
    module = module_name(file.rel)
    scope = _ModuleScope(module)
    for node in file.tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            _record_import(scope, node, project_modules)
    # Imports can also appear inside functions (late imports); honor them.
    for node in ast.walk(file.tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in file.tree.body:
            _record_import(scope, node, project_modules)
    for node in file.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{module}.{node.name}"
            scope.defs[node.name] = qual
            graph.functions[qual] = FunctionInfo(
                qualname=qual, rel=file.rel, lineno=node.lineno, node=node
            )
        elif isinstance(node, ast.ClassDef):
            qual = f"{module}.{node.name}"
            scope.defs[node.name] = qual
            info = ClassInfo(qualname=qual, rel=file.rel)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method_qual = f"{qual}.{item.name}"
                    info.methods[item.name] = method_qual
                    graph.functions[method_qual] = FunctionInfo(
                        qualname=method_qual,
                        rel=file.rel,
                        lineno=item.lineno,
                        node=item,
                        class_name=node.name,
                    )
            info.bases = [
                b for b in (_base_name(base) for base in node.bases) if b
            ]
            graph.classes[qual] = info
    return scope


def _record_import(
    scope: _ModuleScope, node: ast.stmt, project_modules: Set[str]
) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "repro":
                scope.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    scope.imports[alias.asname] = alias.name
    elif isinstance(node, ast.ImportFrom) and node.module:
        base = node.module
        if node.level:  # relative import: resolve against this module
            parts = scope.module.split(".")
            base = ".".join(parts[: len(parts) - node.level] + [node.module])
        if base.split(".")[0] != "repro" and not base.startswith("repro"):
            if base not in project_modules:
                return
        for alias in node.names:
            scope.imports[alias.asname or alias.name] = f"{base}.{alias.name}"


def _base_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        value = _base_name(node.value)
        return f"{value}.{node.attr}" if value else None
    return None


def _resolve_bases(graph: CallGraph) -> None:
    """Rewrite base-name strings into class qualnames where possible."""
    by_short: Dict[str, List[str]] = {}
    for qual in graph.classes:
        by_short.setdefault(qual.rsplit(".", 1)[-1], []).append(qual)
    for info in graph.classes.values():
        resolved = []
        for base in info.bases:
            short = base.rsplit(".", 1)[-1]
            candidates = by_short.get(short, [])
            if len(candidates) == 1:
                resolved.append(candidates[0])
        info.bases = resolved


def _mro_method(graph: CallGraph, class_qual: str, method: str) -> Optional[str]:
    """Find ``method`` on ``class_qual`` or its project-resolved bases."""
    seen: Set[str] = set()
    stack = [class_qual]
    while stack:
        qual = stack.pop(0)
        if qual in seen:
            continue
        seen.add(qual)
        info = graph.classes.get(qual)
        if info is None:
            continue
        if method in info.methods:
            return info.methods[method]
        stack.extend(info.bases)
    return None


# -- pass 2: type hints and call resolution -----------------------------------


def _annotation_class(
    graph: CallGraph, scope: _ModuleScope, node: Optional[ast.expr]
) -> Optional[str]:
    """Resolve an annotation expression to a project class qualname."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.strip().strip('"')
    else:
        name = _base_name(node) or ""
    if not name:
        return None
    # Optional[X] / "X" — take the bare trailing identifier chain.
    name = name.rsplit("[", 1)[-1].rstrip("]")
    return _lookup_class(graph, scope, name)


def _lookup_class(
    graph: CallGraph, scope: _ModuleScope, name: str
) -> Optional[str]:
    if not name:
        return None
    head = name.split(".")[0]
    target = scope.defs.get(name) or scope.imports.get(name)
    if target is None and head in scope.imports:
        target = scope.imports[head] + name[len(head):]
    if target is None:
        target = name if name in graph.classes else None
    if target is not None and target in graph.classes:
        return target
    return None


def _constructed_class(
    graph: CallGraph, scope: _ModuleScope, node: ast.expr
) -> Optional[str]:
    """``Class(...)`` / ``mod.Class(...)`` → class qualname, else None."""
    if not isinstance(node, ast.Call):
        return None
    name = _base_name(node.func)
    if name is None:
        return None
    return _lookup_class(graph, scope, name)


def _collect_attr_types(
    graph: CallGraph, file: SourceFile, scope: _ModuleScope
) -> None:
    """Record ``self.attr`` project-class types from assignments and
    annotations in every method body."""
    for node in file.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        info = graph.classes.get(f"{scope.module}.{node.name}")
        if info is None:
            continue
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(method):
                target = None
                value_class = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    value_class = _constructed_class(graph, scope, stmt.value)
                elif isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                    value_class = _annotation_class(graph, scope, stmt.annotation)
                    if value_class is None and stmt.value is not None:
                        value_class = _constructed_class(graph, scope, stmt.value)
                if (
                    target is not None
                    and value_class is not None
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.attr_types.setdefault(target.attr, value_class)


class _FunctionResolver(ast.NodeVisitor):
    """Resolve the calls inside one function body."""

    def __init__(
        self,
        graph: CallGraph,
        scope: _ModuleScope,
        info: FunctionInfo,
        class_qual: Optional[str],
    ) -> None:
        self.graph = graph
        self.scope = scope
        self.info = info
        self.class_qual = class_qual
        #: local variable -> project class qualname
        self.local_types: Dict[str, str] = {}
        args = info.node.args  # type: ignore[attr-defined]
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            cls = _annotation_class(graph, scope, arg.annotation)
            if cls is not None:
                self.local_types[arg.arg] = cls

    def visit_Assign(self, node: ast.Assign) -> None:
        cls = _constructed_class(self.graph, self.scope, node.value)
        if cls is not None and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self.local_types[target.id] = cls
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        cls = _annotation_class(self.graph, self.scope, node.annotation)
        if cls is not None and isinstance(node.target, ast.Name):
            self.local_types[node.target.id] = cls
        self.generic_visit(node)

    # Nested defs get their own FunctionInfo pass? They are not indexed as
    # project functions; treat their bodies as part of the enclosing
    # function (closures run when called, but edges still flow through the
    # enclosing function in practice for this tree).

    def visit_Call(self, node: ast.Call) -> None:
        callee = self.resolve(node.func)
        if callee is not None:
            self.graph.calls.append(
                CallSite(
                    caller=self.info.qualname,
                    callee=callee,
                    rel=self.info.rel,
                    lineno=node.lineno,
                )
            )
        self.generic_visit(node)

    def resolve(self, func: ast.expr) -> Optional[str]:
        graph, scope = self.graph, self.scope
        if isinstance(func, ast.Name):
            target = scope.defs.get(func.id) or scope.imports.get(func.id)
            if target is None:
                return None
            if target in graph.functions:
                return target
            if target in graph.classes:
                return _mro_method(graph, target, "__init__")
            return None
        if not isinstance(func, ast.Attribute):
            return None
        receiver = func.value
        method = func.attr
        # self.m(...)
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            if self.class_qual is not None:
                return _mro_method(graph, self.class_qual, method)
            return None
        # mod.f(...) / mod.Class(...) via import alias, incl. dotted chains.
        dotted = _base_name(receiver)
        if dotted is not None:
            head = dotted.split(".")[0]
            if head in scope.imports:
                prefix = scope.imports[head] + dotted[len(head):]
                target = f"{prefix}.{method}"
                if target in graph.functions:
                    return target
                if target in graph.classes:
                    return _mro_method(graph, target, "__init__")
        # x.m(...) for a typed local/parameter.
        if isinstance(receiver, ast.Name):
            cls = self.local_types.get(receiver.id)
            if cls is not None:
                return _mro_method(graph, cls, method)
        # self.attr.m(...) through the recorded attribute types.
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and self.class_qual is not None
        ):
            seen: Set[str] = set()
            stack = [self.class_qual]
            while stack:
                qual = stack.pop(0)
                if qual in seen:
                    continue
                seen.add(qual)
                info = graph.classes.get(qual)
                if info is None:
                    continue
                cls = info.attr_types.get(receiver.attr)
                if cls is not None:
                    return _mro_method(graph, cls, method)
                stack.extend(info.bases)
        return None


def _resolve_calls(graph: CallGraph, file: SourceFile, scope: _ModuleScope) -> None:
    for qual, info in list(graph.functions.items()):
        if info.rel != file.rel:
            continue
        class_qual = (
            qual.rsplit(".", 2)[0] + "." + info.class_name
            if info.class_name is not None
            else None
        )
        resolver = _FunctionResolver(graph, scope, info, class_qual)
        for stmt in info.node.body:  # type: ignore[attr-defined]
            resolver.visit(stmt)


__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "build_callgraph",
    "module_name",
    "HANDLER_PREFIXES",
    "SERVICE_PREFIX",
]
