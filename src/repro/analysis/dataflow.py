"""A small fixpoint dataflow framework over the project call graph.

The transitive rules all reduce to the same shape: each function has a set
of locally-established *facts* (an ambient ``time.time`` read, a blocking
``time.sleep``), and a function inherits every fact of every callee.
:func:`propagate` computes the transitive closure with a worklist (facts
only grow, the lattice is finite, so the fixpoint is reached in
O(edges × facts)).

For reporting, :func:`shortest_path` reconstructs the *shortest* call
chain from a root to a function that establishes a fact locally — that
chain is what a finding renders, e.g.::

    call path: CameraService.on_photo -> imaging.store.save_frame ->
    time.sleep (repro/imaging/store.py:88)
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
)

from repro.analysis.callgraph import CallGraph, CallSite

if TYPE_CHECKING:
    import ast

    from repro.analysis.context import Project, SourceFile
    from repro.analysis.findings import Finding

Fact = TypeVar("Fact", bound=Hashable)

#: A per-file site lister: AST subtree -> [(node, label), ...].
SiteLister = Callable[["ast.AST"], List[Tuple["ast.AST", str]]]
#: Per-file scanner builder; None means the file is out of the rule's scope.
ScannerFactory = Callable[["SourceFile"], Optional[SiteLister]]


def propagate(
    graph: CallGraph,
    local_facts: Dict[str, Set[Fact]],
) -> Dict[str, Set[Fact]]:
    """Union-over-callees fixpoint: ``summary(f) = local(f) ∪ ⋃ summary(g)``
    for every resolved callee ``g`` of ``f``.

    ``local_facts`` maps function qualnames to the facts they establish
    directly; functions absent from the map contribute nothing locally.
    Returns the transitive summaries (every function present in the graph
    or the fact map gets an entry).
    """
    summaries: Dict[str, Set[Fact]] = {
        qual: set(facts) for qual, facts in local_facts.items()
    }
    # Reverse edges: whom to revisit when a summary grows.
    callers: Dict[str, List[str]] = {}
    for site in graph.calls:
        callers.setdefault(site.callee, []).append(site.caller)
    worklist = deque(summaries)
    while worklist:
        qual = worklist.popleft()
        facts = summaries.get(qual)
        if not facts:
            continue
        for caller in callers.get(qual, ()):  # propagate up one level
            target = summaries.setdefault(caller, set())
            before = len(target)
            target |= facts
            if len(target) != before:
                worklist.append(caller)
    return summaries


def shortest_path(
    graph: CallGraph,
    root: str,
    fact: Fact,
    local_facts: Dict[str, Set[Fact]],
    summaries: Dict[str, Set[Fact]],
) -> Optional[List[CallSite]]:
    """BFS the call edges from ``root`` to the nearest function that
    establishes ``fact`` locally, moving only through functions whose
    summary carries the fact. Returns the edge list (empty when ``root``
    itself establishes the fact), or None when unreachable."""
    if fact in local_facts.get(root, ()):
        return []
    seen: Set[str] = {root}
    queue: deque = deque([(root, [])])
    while queue:
        qual, path = queue.popleft()
        for site in graph.callees(qual):
            callee = site.callee
            if callee in seen:
                continue
            if fact not in summaries.get(callee, ()):
                continue
            seen.add(callee)
            extended = path + [site]
            if fact in local_facts.get(callee, ()):
                return extended
            queue.append((callee, extended))
    return None


def entrypoint_reach_findings(
    project: "Project",
    rule_code: str,
    scanner_factory: "ScannerFactory",
    reason: str,
) -> Iterator["Finding"]:
    """Shared driver for the transitive REP002/REP004 passes.

    ``scanner_factory(file)`` returns either ``None`` (file out of scope)
    or a callable ``sites(ast_node) -> iterable of (node, label)`` listing
    the rule's local violation sites under one AST node. Sites with a
    matching suppression are dropped from the taint sources (the waiver
    states the site is intentional, so chains through it are too).

    Yields one finding per (handler entry point, reachable site) pair
    where the site lives in a *different* function — same-function sites
    are the local rule's job — with the full call chain rendered into
    ``Finding.path``.
    """
    from repro.analysis.findings import Finding

    graph = project.callgraph()
    local: Dict[str, Set[Tuple[str, int, str]]] = {}
    for file in project.files:
        sites_in = scanner_factory(file)
        if sites_in is None:
            continue
        for info in graph.functions_in(file.rel):
            for node, label in sites_in(info.node):
                if file.suppressions.covers(rule_code, node.lineno):
                    continue
                fact = (file.rel, node.lineno, label)
                local.setdefault(info.qualname, set()).add(fact)
    if not local:
        return
    summaries = propagate(graph, local)
    for entry in graph.entry_points():
        facts = summaries.get(entry.qualname)
        if not facts:
            continue
        own = local.get(entry.qualname, set())
        for fact in sorted(facts - own):
            site_rel, site_line, label = fact
            path = shortest_path(
                graph, entry.qualname, fact, local, summaries
            )
            if not path:
                continue  # unreachable artifact or local-only
            hops = [entry.short]
            for site in path:
                callee = graph.functions.get(site.callee)
                name = callee.short if callee else site.callee
                hops.append(f"{name} [{site.rel}:{site.lineno}]")
            hops.append(f"{label} [{site_rel}:{site_line}]")
            yield Finding(
                rule=rule_code,
                message=(
                    f"handler `{entry.short}` reaches `{label}` "
                    f"({site_rel}:{site_line}) through project-local calls"
                    f" — {reason}"
                ),
                file=entry.rel,
                line=entry.lineno,
                path=hops,
            )


__all__ = [
    "propagate",
    "shortest_path",
    "entrypoint_reach_findings",
]

