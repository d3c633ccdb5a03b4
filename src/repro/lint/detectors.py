"""Interprocedural detectors AN001-AN004 over the call graph + facts.

Each detector composes the per-function summaries of
:mod:`repro.lint.facts` along the edges of
:mod:`repro.lint.callgraph`:

* **AN001 hotpath-closure** — every ``# hotpath`` function and its
  transitive call closure must be set/frozenset-allocation-free; the
  offending allocation is reported with the call chain that reaches it
  (a one-element chain for the marked function's own allocation).
* **AN002 budget-reachability** — every loop in ``core``/``lowerbound``
  code reachable from a ``governed()``-threaded entry point must reach
  a budget checkpoint on some path through its body (directly or via a
  callee whose closure checkpoints), or be waived on its header line
  with ``# reprolint: disable=AN002 -- reason``.  Only loops that call
  into the project or contain nested loops are considered — a bare
  arithmetic loop is bounded by its iterable, and flagging it would
  drown the signal (a documented resolution limit).
* **AN003 lock-order** — builds the lock-acquisition graph across
  ``service``/``kernel`` thread entry points and reports cycles, plus
  instance attributes written from two different thread roots without
  a common guaranteed-held lock (meet-over-paths intersection
  dataflow; ``__init__`` writes are construction-time and exempt).
* **AN004 counter-flow** — counters declared in
  ``observability.schema`` but emitted nowhere (dead schema), and
  semantic counters emitted under only one engine (kernel modules
  vs. the reference ``core`` implementation) — drift the runtime gate
  would only catch once both engines run.

Findings are :class:`~repro.lint.violations.Violation` records whose
``symbol`` names the anchor (function, attribute, or counter); the lint
engine filters them through the same ``# reprolint: disable=`` table as
the per-file rules.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.lint.callgraph import CallGraph
from repro.lint.facts import ProgramFacts
from repro.lint.violations import Violation

#: Edge kinds that transfer control in the caller's execution context.
EXEC_KINDS = frozenset({"call", "nested"})


@dataclass(frozen=True)
class Detector:
    """Catalogue entry: code, short name, summary, and the pass itself."""

    code: str
    name: str
    summary: str
    run: Callable[[CallGraph, ProgramFacts], list[Violation]]


# ---------------------------------------------------------------------------
# Shared graph helpers
# ---------------------------------------------------------------------------

def _short(qualname: str) -> str:
    return qualname.removeprefix("repro.")


def _format_chain(chain: list[str]) -> str:
    return " -> ".join(_short(name) for name in chain)


def _module_parts(graph: CallGraph, qualname: str) -> list[str]:
    info = graph.functions.get(qualname)
    return info.module.split(".") if info is not None else []


# ---------------------------------------------------------------------------
# AN001: hot-path closure is allocation-free
# ---------------------------------------------------------------------------

def detect_hotpath_closure(
    graph: CallGraph, facts: ProgramFacts
) -> list[Violation]:
    findings: list[Violation] = []
    reported: set[tuple[str, int]] = set()
    hot = sorted(
        qualname
        for qualname, summary in facts.functions.items()
        if summary.hotpath
    )
    for root in hot:
        for callee in sorted(graph.reachable([root], EXEC_KINDS)):
            summary = facts.functions.get(callee)
            info = graph.functions.get(callee)
            if summary is None or info is None:
                continue
            for line, kind in summary.set_allocs:
                if (callee, line) in reported:
                    continue
                reported.add((callee, line))
                chain = graph.call_chain(root, callee, EXEC_KINDS) or [
                    root, callee
                ]
                findings.append(
                    Violation(
                        code="AN001",
                        path=info.path,
                        line=line,
                        message=(
                            f"{kind} inside the hot-path closure of "
                            f"{_short(root)} (chain: {_format_chain(chain)}); "
                            "hot kernel code speaks int bitmasks"
                        ),
                        symbol=callee,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# AN002: governed loops reach a budget checkpoint
# ---------------------------------------------------------------------------

def _checkpointing_closure(
    graph: CallGraph, facts: ProgramFacts, memo: dict[str, bool], start: str
) -> bool:
    """Does ``start``'s call closure contain a direct checkpoint call?"""
    if start in memo:
        return memo[start]
    for member in graph.reachable([start], EXEC_KINDS):
        summary = facts.functions.get(member)
        if summary is not None and summary.checkpoint_lines:
            memo[start] = True
            return True
    memo[start] = False
    return False


def detect_budget_reachability(
    graph: CallGraph, facts: ProgramFacts
) -> list[Violation]:
    findings: list[Violation] = []
    entries = sorted(
        qualname
        for qualname, summary in facts.functions.items()
        if summary.calls_governed
    )
    reachable = graph.reachable(entries, EXEC_KINDS)
    memo: dict[str, bool] = {}
    for qualname in sorted(reachable):
        summary = facts.functions.get(qualname)
        info = graph.functions.get(qualname)
        if summary is None or info is None:
            continue
        parts = info.module.split(".")
        if "core" not in parts and "lowerbound" not in parts:
            continue
        for loop in summary.loops:
            if loop.has_direct_checkpoint:
                continue
            nests_a_loop = any(
                other.line > loop.line and other.end_line <= loop.end_line
                for other in summary.loops
                if other is not loop
            )
            edges_in = [
                edge
                for edge in graph.callees(qualname)
                if edge.kind in EXEC_KINDS
                and loop.line <= edge.line <= loop.end_line
            ]
            if (loop.kind != "while" and not nests_a_loop) or not edges_in:
                # Combinatorial blowup lives in while loops (frontier
                # growth, DFS stacks) and nested for loops (products)
                # that call back into the project; a single-level for
                # loop is bounded by its iterable — in governed code
                # itself a budget-checked artifact — and a call-free
                # loop is local arithmetic over its operands.
                # Documented resolution limit.
                continue
            if any(
                _checkpointing_closure(graph, facts, memo, edge.callee)
                for edge in edges_in
            ):
                continue
            entry_chain: list[str] | None = None
            for entry in entries:
                entry_chain = graph.call_chain(entry, qualname, EXEC_KINDS)
                if entry_chain is not None:
                    break
            chain_text = (
                _format_chain(entry_chain) if entry_chain else _short(qualname)
            )
            findings.append(
                Violation(
                    code="AN002",
                    path=info.path,
                    line=loop.line,
                    message=(
                        f"{loop.kind} loop reachable from a governed entry "
                        f"point (chain: {chain_text}) never reaches a budget "
                        "checkpoint; checkpoint inside the body or waive the "
                        "header line with # reprolint: disable=AN002 -- reason"
                    ),
                    symbol=qualname,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# AN003: lock-order cycles and unguarded cross-thread writes
# ---------------------------------------------------------------------------

def _in_lock_scope(parts: list[str]) -> bool:
    return "service" in parts or "kernel" in parts


def _closure_locks(
    graph: CallGraph,
    facts: ProgramFacts,
    memo: dict[str, frozenset[str]],
    start: str,
) -> frozenset[str]:
    """Every lock acquired anywhere in ``start``'s call closure."""
    if start in memo:
        return memo[start]
    acquired: set[str] = set()
    for member in graph.reachable([start], EXEC_KINDS):
        summary = facts.functions.get(member)
        if summary is not None:
            acquired.update(span.lock for span in summary.lock_spans)
    memo[start] = frozenset(acquired)
    return memo[start]


def _lock_cycles(
    order: dict[str, dict[str, tuple[str, int, str]]]
) -> list[list[str]]:
    """Elementary cycles of the lock-order graph (deduplicated)."""
    cycles: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()

    def walk(start: str, current: str, trail: list[str]) -> None:
        for nxt in sorted(order.get(current, {})):
            if nxt == start:
                cycle = trail[:]
                rotation = min(range(len(cycle)), key=lambda i: cycle[i])
                key = tuple(cycle[rotation:] + cycle[:rotation])
                if key not in seen:
                    seen.add(key)
                    cycles.append(cycle)
            elif nxt not in trail and nxt > start:
                walk(start, nxt, trail + [nxt])

    for node in sorted(order):
        walk(node, node, [node])
    return cycles


def detect_lock_order(graph: CallGraph, facts: ProgramFacts) -> list[Violation]:
    findings: list[Violation] = []
    #: held lock -> acquired lock -> (path, line, via-description).
    order: dict[str, dict[str, tuple[str, int, str]]] = {}
    lock_memo: dict[str, frozenset[str]] = {}
    for qualname in sorted(facts.functions):
        summary = facts.functions[qualname]
        info = graph.functions.get(qualname)
        if info is None or not _in_lock_scope(info.module.split(".")):
            continue
        for span in summary.lock_spans:
            for other in summary.lock_spans:
                if (
                    other is not span
                    and span.line <= other.line <= span.end_line
                    and other.lock != span.lock
                ):
                    order.setdefault(span.lock, {}).setdefault(
                        other.lock, (info.path, other.line, _short(qualname))
                    )
            for edge in graph.callees(qualname):
                if edge.kind not in EXEC_KINDS:
                    continue
                if not span.line <= edge.line <= span.end_line:
                    continue
                for lock in sorted(
                    _closure_locks(graph, facts, lock_memo, edge.callee)
                ):
                    if lock != span.lock:
                        order.setdefault(span.lock, {}).setdefault(
                            lock,
                            (
                                info.path,
                                edge.line,
                                f"{_short(qualname)} -> {_short(edge.callee)}",
                            ),
                        )
    for cycle in _lock_cycles(order):
        first, second = cycle[0], cycle[1 % len(cycle)]
        path, line, via = order[first][second]
        ordering = " -> ".join(cycle + [cycle[0]])
        findings.append(
            Violation(
                code="AN003",
                path=path,
                line=line,
                message=(
                    f"lock-order cycle {ordering} (edge via {via}); "
                    "acquire these locks in one global order"
                ),
                symbol=via.split(" -> ")[0],
            )
        )

    # Meet-over-paths: per thread root, the locks *guaranteed* held on
    # every path from the root to each function.
    held: dict[str, dict[str, frozenset[str]]] = {}
    for root in sorted(graph.thread_roots):
        if root not in graph.functions:
            continue
        table: dict[str, frozenset[str]] = {root: frozenset()}
        queue = [root]
        while queue:
            current = queue.pop(0)
            current_facts = facts.functions.get(current)
            if current_facts is None:
                continue
            for edge in graph.callees(current):
                if edge.kind not in EXEC_KINDS:
                    continue
                candidate = table[current] | current_facts.locks_held_at(
                    edge.line
                )
                previous = table.get(edge.callee)
                merged = (
                    candidate if previous is None else previous & candidate
                )
                if previous is None or merged != previous:
                    table[edge.callee] = merged
                    queue.append(edge.callee)
        held[root] = table

    #: class-qualified attribute -> (root, guards, path, line, function).
    writes: dict[str, list[tuple[str, frozenset[str], str, int, str]]] = {}
    for root, table in held.items():
        for qualname, root_guards in table.items():
            summary = facts.functions.get(qualname)
            info = graph.functions.get(qualname)
            if summary is None or info is None or info.cls is None:
                continue
            if info.name == "__init__":
                continue
            if not _in_lock_scope(info.module.split(".")):
                continue
            for attr, line in summary.self_writes:
                guards = root_guards | summary.locks_held_at(line)
                writes.setdefault(f"{info.cls}.{attr}", []).append(
                    (root, guards, info.path, line, qualname)
                )
    for attr_key in sorted(writes):
        occurrences = writes[attr_key]
        flagged = False
        for index, (root_a, guards_a, path, line, writer) in enumerate(
            occurrences
        ):
            if flagged:
                break
            for root_b, guards_b, _, _, other in occurrences[index + 1:]:
                if root_a == root_b or guards_a & guards_b:
                    continue
                findings.append(
                    Violation(
                        code="AN003",
                        path=path,
                        line=line,
                        message=(
                            f"attribute {_short(attr_key)} is written from "
                            f"thread roots {_short(root_a)} (in "
                            f"{_short(writer)}) and {_short(root_b)} (in "
                            f"{_short(other)}) with no common lock held"
                        ),
                        symbol=attr_key,
                    )
                )
                flagged = True
                break
    return findings


# ---------------------------------------------------------------------------
# AN004: counter flow between schema and the two engines
# ---------------------------------------------------------------------------

def detect_counter_flow(graph: CallGraph, facts: ProgramFacts) -> list[Violation]:
    findings: list[Violation] = []
    emissions: dict[str, list[tuple[str, int]]] = {}
    for qualname, summary in facts.functions.items():
        for name, line in summary.counter_adds:
            emissions.setdefault(name, []).append((qualname, line))
    for name in sorted(facts.schema):
        path, line = facts.schema[name]
        sites = emissions.get(name, [])
        if not sites:
            findings.append(
                Violation(
                    code="AN004",
                    path=path,
                    line=line,
                    message=(
                        f"counter '{name}' is declared in the schema but "
                        "emitted nowhere; wire an emission or delete the "
                        "declaration"
                    ),
                    symbol=name,
                )
            )
            continue
        if name not in facts.semantic_counters:
            continue
        # Engine attribution is by module: ``core.kernel.*`` is the
        # kernel engine, ``round_elimination`` is the reference engine,
        # and everything else (self-reduction, lowerbound, service) is
        # engine-neutral shared code that both engines run through.
        kernel_sites = [
            site
            for site in sites
            if "kernel" in _module_parts(graph, site[0])
        ]
        reference_sites = [
            site
            for site in sites
            if "round_elimination" in _module_parts(graph, site[0])
        ]
        if bool(kernel_sites) == bool(reference_sites):
            # Emitted by both engines, or by neither (engine-neutral
            # counters like chain bookkeeping) — no drift risk.
            continue
        emitting = "kernel" if kernel_sites else "reference"
        silent = "reference" if kernel_sites else "kernel"
        site_text = ", ".join(
            f"{_short(site)}:{site_line}"
            for site, site_line in sorted(kernel_sites or reference_sites)
        )
        findings.append(
            Violation(
                code="AN004",
                path=path,
                line=line,
                message=(
                    f"semantic counter '{name}' is emitted only by the "
                    f"{emitting} engine ({site_text}); the {silent} engine "
                    "never emits it, so the differential drift gate cannot "
                    "compare them"
                ),
                symbol=name,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Catalogue and driver
# ---------------------------------------------------------------------------

DETECTORS: tuple[Detector, ...] = (
    Detector(
        code="AN001",
        name="hotpath-closure",
        summary=(
            "every # hotpath function and its transitive call closure "
            "are set/frozenset-allocation-free"
        ),
        run=detect_hotpath_closure,
    ),
    Detector(
        code="AN002",
        name="budget-reachability",
        summary=(
            "every loop in core/lowerbound code reachable from a governed() "
            "entry point reaches a budget checkpoint or is waived on its "
            "header line"
        ),
        run=detect_budget_reachability,
    ),
    Detector(
        code="AN003",
        name="lock-order",
        summary=(
            "no lock-order cycles across service/kernel thread entry "
            "points, and no attribute written from two thread roots "
            "without a common lock"
        ),
        run=detect_lock_order,
    ),
    Detector(
        code="AN004",
        name="counter-flow",
        summary=(
            "no counter declared in observability.schema but emitted "
            "nowhere, and no semantic counter emitted by only one engine"
        ),
        run=detect_counter_flow,
    ),
)


def run_detectors(graph: CallGraph, facts: ProgramFacts) -> list[Violation]:
    """Every detector's findings, unsorted and unfiltered."""
    return [
        finding
        for detector in DETECTORS
        for finding in detector.run(graph, facts)
    ]


__all__ = [
    "DETECTORS",
    "Detector",
    "EXEC_KINDS",
    "detect_budget_reachability",
    "detect_counter_flow",
    "detect_hotpath_closure",
    "detect_lock_order",
    "run_detectors",
]
