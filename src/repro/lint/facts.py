"""Per-function fact summaries feeding the interprocedural detectors.

The call graph says *who calls whom*; this module says *what each
function does locally*: set/frozenset allocations (AN001), loops and
direct budget checkpoints (AN002), lock acquisitions and shared-state
writes (AN003), and counter emissions plus the declared schema
(AN004).  Facts are purely lexical — each summary is computed from one
function's own AST nodes (nested ``def`` bodies excluded, exactly as
in the call graph), and the detectors compose them along edges.  The
waiver tables come from the same parse (:mod:`repro.lint.violations`).

A function is on the hot path when ``# hotpath`` appears on its
``def`` line, or when the line directly above its first line of
source — its first decorator, if it has any — is exactly
``# hotpath``.  A trailing ``# hotpath ...`` comment on the previous
statement marks nothing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.lint.callgraph import CallGraph, FunctionInfo, _own_nodes
from repro.lint.rules import _is_setish

#: Budget checkpoint entry points (bare or attribute calls).
CHECKPOINT_FUNCS = (
    "checkpoint",
    "check_alphabet",
    "check_configurations",
    "check_chain_step",
)

#: The comment that marks a function as hot-path (AN001's roots).
HOTPATH_MARKER = "# hotpath"


@dataclass(frozen=True)
class LoopFacts:
    """One ``for``/``while`` loop inside a function body."""

    line: int
    end_line: int
    has_direct_checkpoint: bool
    waiver: str | None
    kind: str


@dataclass(frozen=True)
class LockSpan:
    """One ``with self.<attr>:`` block, alias-resolved to its lock."""

    lock: str
    line: int
    end_line: int


@dataclass
class FunctionFacts:
    """Everything the detectors need to know about one function."""

    qualname: str
    hotpath: bool = False
    set_allocs: list[tuple[int, str]] = field(default_factory=list)
    checkpoint_lines: list[int] = field(default_factory=list)
    calls_governed: bool = False
    loops: list[LoopFacts] = field(default_factory=list)
    lock_spans: list[LockSpan] = field(default_factory=list)
    self_writes: list[tuple[str, int]] = field(default_factory=list)
    counter_adds: list[tuple[str, int]] = field(default_factory=list)

    def locks_held_at(self, line: int) -> frozenset[str]:
        """The locks lexically held at ``line`` inside this function."""
        return frozenset(
            span.lock
            for span in self.lock_spans
            if span.line <= line <= span.end_line
        )


@dataclass
class ProgramFacts:
    """Per-function facts plus the declared counter schema."""

    functions: dict[str, FunctionFacts]
    #: counter name -> (path, declaration line) from observability.schema.
    schema: dict[str, tuple[str, int]]
    semantic_counters: set[str]


# ---------------------------------------------------------------------------
# Local fact extraction
# ---------------------------------------------------------------------------

def _is_checkpoint_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in CHECKPOINT_FUNCS
    if isinstance(func, ast.Attribute):
        return func.attr in CHECKPOINT_FUNCS
    return False


def _is_hotpath(info: FunctionInfo, lines: list[str]) -> bool:
    """Decorator-aware ``# hotpath`` marker detection (module docstring).

    For a decorated function ``lineno`` is the ``def`` line, below the
    decorators, so "the line above" is anchored at the first decorator.
    """
    def_line = lines[info.lineno - 1] if info.lineno <= len(lines) else ""
    anchor = min(
        [info.lineno] + [d.lineno for d in info.node.decorator_list]
    )
    above = lines[anchor - 2] if anchor >= 2 else ""
    return HOTPATH_MARKER in def_line or above.strip() == HOTPATH_MARKER


def _end_line(node: ast.AST) -> int:
    end = getattr(node, "end_lineno", None)
    if end is not None:
        return int(end)
    return int(getattr(node, "lineno", 0))


def _function_facts(
    info: FunctionInfo,
    lines: list[str],
    lock_aliases: dict[str, str],
    cls_name: str | None,
    unbounded: dict[int, str],
) -> FunctionFacts:
    facts = FunctionFacts(qualname=info.qualname)
    facts.hotpath = _is_hotpath(info, lines)
    own = _own_nodes(info.node)
    for node in own:
        kind = _is_setish(node) if isinstance(node, ast.expr) else None
        if kind is not None and isinstance(node, ast.expr):
            facts.set_allocs.append((node.lineno, kind))
        if isinstance(node, ast.Call):
            if _is_checkpoint_call(node):
                facts.checkpoint_lines.append(node.lineno)
            func = node.func
            called = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if called == "governed":
                facts.calls_governed = True
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "add"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                facts.counter_adds.append((node.args[0].value, node.lineno))
        elif isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
            waiver = unbounded.get(node.lineno)
            if waiver is None and node.lineno >= 2:
                waiver = unbounded.get(node.lineno - 1)
            body_nodes: list[ast.AST] = list(node.body)
            inner_stack = list(node.body)
            while inner_stack:
                inner = inner_stack.pop()
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                body_nodes.append(inner)
                inner_stack.extend(ast.iter_child_nodes(inner))
            direct = any(
                isinstance(inner, ast.Call) and _is_checkpoint_call(inner)
                for inner in body_nodes
            )
            facts.loops.append(
                LoopFacts(
                    line=node.lineno,
                    end_line=_end_line(node),
                    has_direct_checkpoint=direct,
                    waiver=waiver,
                    kind="for" if isinstance(node, (ast.For, ast.AsyncFor)) else "while",
                )
            )
        elif isinstance(node, ast.With):
            for item in node.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                    and cls_name is not None
                ):
                    attr = lock_aliases.get(expr.attr, expr.attr)
                    facts.lock_spans.append(
                        LockSpan(
                            lock=f"{cls_name}.{attr}",
                            line=node.lineno,
                            end_line=_end_line(node),
                        )
                    )
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    facts.self_writes.append((target.attr, target.lineno))
    return facts


# ---------------------------------------------------------------------------
# Program-level aggregation
# ---------------------------------------------------------------------------

def _schema_tables(
    graph: CallGraph,
) -> tuple[dict[str, tuple[str, int]], set[str]]:
    """Counter declarations parsed from the scanned tree's schema module.

    Parsed from the AST, never imported, so a fixture tree's schema is
    honored exactly like the real one.
    """
    schema: dict[str, tuple[str, int]] = {}
    semantic: set[str] = set()
    for module in graph.modules.values():
        if not module.name.endswith("observability.schema"):
            continue
        for node in module.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if target.id not in ("SEMANTIC_COUNTERS", "TIMING_COUNTERS"):
                continue
            if not isinstance(node.value, (ast.Tuple, ast.List)):
                continue
            for element in node.value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    schema[element.value] = (module.path, element.lineno)
                    if target.id == "SEMANTIC_COUNTERS":
                        semantic.add(element.value)
    return schema, semantic


def collect_facts(graph: CallGraph) -> ProgramFacts:
    """Summarize every function of an already-built call graph."""
    functions: dict[str, FunctionFacts] = {}
    line_cache = {
        module.path: module.source.splitlines()
        for module in graph.modules.values()
    }
    for info in graph.functions.values():
        module = graph.modules[info.module]
        lock_aliases: dict[str, str] = {}
        cls_name = info.cls
        if cls_name is not None:
            for candidate in module.classes.values():
                if candidate.qualname == cls_name:
                    lock_aliases = candidate.lock_aliases
                    break
        functions[info.qualname] = _function_facts(
            info,
            line_cache[module.path],
            lock_aliases,
            cls_name,
            module.suppressions.unbounded,
        )
    schema, semantic = _schema_tables(graph)
    return ProgramFacts(
        functions=functions, schema=schema, semantic_counters=semantic
    )


__all__ = [
    "CHECKPOINT_FUNCS",
    "HOTPATH_MARKER",
    "FunctionFacts",
    "LockSpan",
    "LoopFacts",
    "ProgramFacts",
    "collect_facts",
]
