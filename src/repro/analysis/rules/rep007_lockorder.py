"""REP007 — static lock-order analysis over the project call graph.

The runtime :class:`~repro.analysis.sanitizers.lockorder.LockOrderRecorder`
catches lock-order inversions Eraser-style, but only on the interleavings
a particular run happens to exercise. This rule computes the acquisition
graph *statically*:

1. **Lock identities.** Every ``threading.Lock()`` / ``RLock()`` /
   ``Condition()`` (or ``recorder.wrap(...)``) assigned to a ``self``
   attribute or module-level name becomes a lock identity —
   ``Class.attr`` or ``module:NAME``. A ``Condition(lock)`` built over an
   identified lock *aliases* that lock (they share one mutex), so
   ``with self._cv`` and ``with self._lock`` are the same acquisition.
2. **Acquire sites.** ``with <lock>:`` blocks and bare ``<lock>.acquire()``
   calls inside every function, where ``<lock>`` resolves to an identity
   (``self._lock``, a module-level name, or a typed local).
3. **Held-set propagation.** Within a ``with A:`` body, every direct
   acquisition of ``B`` adds the edge ``A → B``; every *call* adds
   ``A → x`` for each ``x`` the callee may transitively acquire (a
   union-over-callees fixpoint from :mod:`repro.analysis.dataflow`).
4. **Cycle detection.** A cycle in the resulting edge graph is a
   potential deadlock: two threads taking the cycle from different entry
   edges can block each other forever. Each cycle is reported once, at
   the source site of its lexicographically-first edge, with the full
   cycle and the witness call chains in the finding.

The runtime recorder cross-checks against this graph: every edge the
recorder observes in a live run must appear here (see
``static_lock_graph().covers`` and the replay test) — if a dynamic edge
is missing, the static analysis lost track of a lock and the rule needs
a resolution fix, not the code a waiver.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.context import Project, SourceFile
from repro.analysis.dataflow import propagate
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register

#: threading constructors that create a mutex of their own.
_LOCK_CONSTRUCTORS = {"Lock", "RLock", "Semaphore", "BoundedSemaphore"}
#: Condition shares the mutex passed to it (aliases); bare Condition()
#: owns a fresh RLock.
_CONDITION = "Condition"


@dataclass
class LockSite:
    """One static acquisition of an identified lock."""

    lock: str  # lock identity
    function: str  # qualname of the acquiring function
    rel: str
    lineno: int


@dataclass
class LockGraph:
    """The static acquisition-order graph plus naming metadata."""

    #: directed edges: held lock -> {acquired-while-held}
    edges: Dict[str, Set[str]] = field(default_factory=dict)
    #: edge -> the (rel, lineno) site that introduced it
    edge_sites: Dict[Tuple[str, str], Tuple[str, int]] = field(default_factory=dict)
    #: lock identity -> regex matching its runtime wrap-name, for the
    #: LockOrderRecorder cross-check (f-string wrap names become ``.*``).
    name_patterns: Dict[str, str] = field(default_factory=dict)
    #: every lock identity seen
    locks: Set[str] = field(default_factory=set)

    def add_edge(self, held: str, acquired: str, rel: str, lineno: int) -> None:
        if held == acquired:
            return  # re-entrant use of one lock is not an ordering
        bucket = self.edges.setdefault(held, set())
        if acquired not in bucket:
            bucket.add(acquired)
            self.edge_sites[(held, acquired)] = (rel, lineno)

    def find_cycles(self) -> List[List[str]]:
        """Every elementary cycle reachable in the edge graph, each
        reported once in canonical rotation (smallest node first)."""
        cycles: Set[Tuple[str, ...]] = set()
        for start in sorted(self.edges):
            stack: List[Tuple[str, List[str]]] = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for succ in sorted(self.edges.get(node, ())):
                    if succ == start and len(path) > 1:
                        pivot = path.index(min(path))
                        canon = tuple(path[pivot:] + path[:pivot])
                        cycles.add(canon)
                    elif succ not in path and len(path) < 16:
                        stack.append((succ, path + [succ]))
        return [list(c) for c in sorted(cycles)]

    # -- runtime cross-check ------------------------------------------------
    def _identities_matching(self, runtime_name: str) -> List[str]:
        out = []
        for lock, pattern in self.name_patterns.items():
            if re.fullmatch(pattern, runtime_name):
                out.append(lock)
        return out

    def covers(self, held_name: str, acquired_name: str) -> bool:
        """Is a runtime-observed edge (by wrap names) present statically?

        Every candidate identity pair is tried; one match suffices.
        """
        held_ids = self._identities_matching(held_name)
        acquired_ids = self._identities_matching(acquired_name)
        for h in held_ids:
            for a in acquired_ids:
                if a in self.edges.get(h, ()):
                    return True
        return False


def _pattern_from_wrap_arg(node: ast.expr) -> Optional[str]:
    """A regex for the wrap-name argument: literal strings match exactly,
    f-string fields become ``.*``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.escape(node.value)
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(re.escape(value.value))
            else:
                parts.append(".*")
        return "".join(parts)
    return None


def _lock_constructor(node: ast.expr) -> Optional[Tuple[str, Optional[str]]]:
    """Classify an expression as a lock creation.

    Returns ``(kind, wrap_pattern)`` where kind is "lock" or "condition",
    or None. ``recorder.wrap(lock, name)`` yields the wrap-name pattern.
    """
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name in _LOCK_CONSTRUCTORS:
        return "lock", None
    if name == _CONDITION:
        return "condition", None
    if name == "wrap" and len(node.args) >= 2:
        pattern = _pattern_from_wrap_arg(node.args[1])
        inner = _lock_constructor(node.args[0])
        if pattern is not None or inner is not None:
            return "lock", pattern
    return None


class _ModuleLocks:
    """Lock identities declared in one module."""

    def __init__(self, file: SourceFile) -> None:
        self.rel = file.rel
        #: "Class.attr" or "module:NAME" -> wrap pattern (or None)
        self.locks: Dict[str, Optional[str]] = {}
        #: alias pairs: a Condition(lock) shares its lock's mutex
        self.aliases: Dict[str, str] = {}
        self._collect(file.tree)

    def _collect(self, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                made = _lock_constructor(stmt.value)
                if made is not None and isinstance(target, ast.Name):
                    self.locks[f"{self.rel}:{target.id}"] = made[1]
            elif isinstance(stmt, ast.ClassDef):
                self._collect_class(stmt)

    def _collect_class(self, cls: ast.ClassDef) -> None:
        # Statements are processed in source order so the dominant idiom
        # resolves: ``lock = Lock()`` (maybe rewrapped by the sanitizer),
        # ``self._lock = lock``, ``self._wakeup = Condition(lock)`` — the
        # Condition *aliases* self._lock (one shared mutex).
        class_id = f"{self.rel}:{cls.name}"
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            local_locks: Dict[str, Optional[str]] = {}
            local_stored: Dict[str, str] = {}  # local name -> lock identity
            assigns = [n for n in ast.walk(method) if isinstance(n, ast.Assign)]
            # ast.walk is breadth-first; a rewrap nested under ``if`` must
            # still be seen before the later ``self._lock = lock``.
            for stmt in sorted(assigns, key=lambda n: n.lineno):
                if len(stmt.targets) != 1:
                    continue
                target = stmt.targets[0]
                value = stmt.value
                made = _lock_constructor(value)
                if isinstance(target, ast.Name):
                    if made is not None:
                        local_locks[target.id] = made[1]
                    elif (
                        isinstance(value, ast.Attribute)
                        and isinstance(value.value, ast.Name)
                        and value.value.id == "self"
                    ):
                        local_stored[target.id] = f"{class_id}.{value.attr}"
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    identity = f"{class_id}.{target.attr}"
                    if made is not None:
                        kind, pattern = made
                        if (
                            kind == "condition"
                            and isinstance(value, ast.Call)
                            and value.args
                        ):
                            base = self._alias_target(
                                class_id, value.args[0], local_locks, local_stored
                            )
                            if base is not None:
                                self.aliases[identity] = base
                                continue
                        self.locks[identity] = pattern
                    elif isinstance(value, ast.Name) and value.id in local_locks:
                        self.locks[identity] = local_locks[value.id]
                        local_stored[value.id] = identity

    def _alias_target(
        self,
        class_id: str,
        node: ast.expr,
        local_locks: Dict[str, Optional[str]],
        local_stored: Dict[str, str],
    ) -> Optional[str]:
        """The identity a ``Condition(<arg>)`` mutex aliases, if known."""
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return f"{class_id}.{node.attr}"
        if isinstance(node, ast.Name) and node.id in local_stored:
            return local_stored[node.id]
        return None


def build_lock_graph(project: Project) -> LockGraph:
    """The full static analysis: identities, acquire sites, propagation,
    edge construction."""
    graph = project.callgraph()
    lock_graph = LockGraph()
    module_locks: Dict[str, _ModuleLocks] = {}
    for file in project.files:
        if not file.rel.startswith("repro/"):
            continue
        module_locks[file.rel] = _ModuleLocks(file)
        for identity, pattern in module_locks[file.rel].locks.items():
            lock_graph.locks.add(identity)
            lock_graph.name_patterns[identity] = (
                pattern if pattern is not None else re.escape(identity)
            )

    def resolve_alias(identity: str) -> str:
        seen = set()
        for locks in module_locks.values():
            while identity in locks.aliases and identity not in seen:
                seen.add(identity)
                identity = locks.aliases[identity]
        return identity

    # Per-function: direct acquire sites and with-block structure.
    local_acquires: Dict[str, Set[str]] = {}
    function_bodies: List[Tuple[str, SourceFile, ast.AST, Optional[str]]] = []
    for rel, file_locks in module_locks.items():
        file = project.file(rel)
        if file is None:
            continue
        for info in graph.functions_in(rel):
            function_bodies.append((info.qualname, file, info.node, info.class_name))

    def lock_of(node: ast.expr, class_name: Optional[str], rel: str) -> Optional[str]:
        """Resolve an expression to a lock identity, or None."""
        locks = module_locks[rel]
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and class_name is not None
        ):
            identity = f"{rel}:{class_name}.{node.attr}"
        elif isinstance(node, ast.Name):
            identity = f"{rel}:{node.id}"
        else:
            return None
        identity = resolve_alias(identity)
        if identity in locks.locks or identity in lock_graph.locks:
            return identity
        # An attribute that aliases another class's lock (unknown type):
        # unresolved, no edge.
        return None

    # First pass: every lock a function acquires directly (with or acquire).
    def direct_acquires(
        root: ast.AST, class_name: Optional[str], rel: str
    ) -> List[Tuple[str, int]]:
        out = []
        for node in ast.walk(root):
            if isinstance(node, ast.With):
                for item in node.items:
                    lock = lock_of(item.context_expr, class_name, rel)
                    if lock is not None:
                        out.append((lock, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                lock = lock_of(node.func.value, class_name, rel)
                if lock is not None:
                    out.append((lock, node.lineno))
        return out

    for qual, file, node, class_name in function_bodies:
        acquired = direct_acquires(node, class_name, file.rel)
        if acquired:
            local_acquires[qual] = {lock for lock, _ in acquired}

    summaries = propagate(graph, local_acquires)

    # Second pass: edges from with-block nesting and calls under held locks.
    for qual, file, node, class_name in function_bodies:
        _edges_in_function(
            lock_graph,
            graph,
            summaries,
            qual,
            file.rel,
            node,
            class_name,
            lock_of,
        )
    return lock_graph


def _edges_in_function(
    lock_graph: LockGraph,
    graph: CallGraph,
    summaries: Dict[str, Set[str]],
    qual: str,
    rel: str,
    root: ast.AST,
    class_name: Optional[str],
    lock_of: Callable[[ast.expr, Optional[str], str], Optional[str]],
) -> None:
    """Walk one function tracking the held-lock stack through ``with``
    nesting; record edges for inner acquisitions and for calls whose
    callee may acquire."""

    callee_by_line: Dict[int, List[str]] = {}
    for site in graph.callees(qual):
        callee_by_line.setdefault(site.lineno, []).append(site.callee)

    def walk(node: ast.AST, held: Tuple[str, ...]) -> None:
        if isinstance(node, ast.With):
            added: List[str] = []
            for item in node.items:
                lock = lock_of(item.context_expr, class_name, rel)
                if lock is not None:
                    for prior in held + tuple(added):
                        lock_graph.add_edge(prior, lock, rel, node.lineno)
                    added.append(lock)
            inner = held + tuple(added)
            for child in node.body:
                walk(child, inner)
            return
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                lock = lock_of(node.func.value, class_name, rel)
                if lock is not None:
                    for prior in held:
                        lock_graph.add_edge(prior, lock, rel, node.lineno)
            if held:
                for callee in callee_by_line.get(node.lineno, ()):  # call edges
                    for acquired in summaries.get(callee, ()):
                        for prior in held:
                            lock_graph.add_edge(prior, acquired, rel, node.lineno)
        for child in ast.iter_child_nodes(node):
            # Nested defs start with an empty held set at *call* time; the
            # conservative choice (they often run as callbacks) is to keep
            # the current held set — a with-block around a closure def is
            # rare enough that over-approximating here is acceptable.
            walk(child, held)

    walk(root, ())


def static_lock_graph(project: Project) -> LockGraph:
    """Public entry point for tests and the runtime cross-check."""
    return build_lock_graph(project)


@register
class LockOrderRule(Rule):
    code = "REP007"
    summary = (
        "static lock-order: no acquisition-order cycles across the project "
        "call graph (the compile-time face of the runtime LockOrderRecorder)"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        if not project.interprocedural:
            return
        lock_graph = build_lock_graph(project)
        for cycle in lock_graph.find_cycles():
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            rel, lineno = lock_graph.edge_sites.get(edges[0], ("", 1))
            rendered = " -> ".join(cycle + [cycle[0]])
            sites = ", ".join(
                f"{a}->{b} @ {lock_graph.edge_sites[(a, b)][0]}:"
                f"{lock_graph.edge_sites[(a, b)][1]}"
                for a, b in edges
                if (a, b) in lock_graph.edge_sites
            )
            yield Finding(
                rule=self.code,
                message=(
                    f"potential lock-order inversion: acquisition cycle "
                    f"{rendered} — two threads interleaving across these "
                    f"sites can deadlock ({sites})"
                ),
                file=rel or "repro/",
                line=lineno,
                path=[f"{a} -> {b} [{lock_graph.edge_sites[(a, b)][0]}:{lock_graph.edge_sites[(a, b)][1]}]" for a, b in edges if (a, b) in lock_graph.edge_sites],
            )


__all__ = ["LockOrderRule", "LockGraph", "build_lock_graph", "static_lock_graph"]
