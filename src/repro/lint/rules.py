"""The per-file rule catalogue, RL001 through RL009.

Each rule guards one convention the engine's correctness story leans
on but that nothing else checks mechanically:

* RL001 — typed-error discipline (PR 1's :mod:`repro.robustness.errors`).
* RL002 — determinism in engine code: the operator cache and the
  checkpoint byte-identity contract both assume that equal inputs
  produce equal bytes, which wall clocks, ambient RNG, ``id()`` keys,
  and raw set iteration all silently break.
* RL004 — every emitted trace counter is declared (and classified
  semantic vs timing) in :mod:`repro.observability.schema`.
* RL005 — ambient context managers (``governed()``/``tracing()``/
  ``caching()``) restore their ContextVar in ``__exit__``; entering
  them by hand skips the restore on error paths.
* RL006 — observational provenance (cache/trace summaries) lands only
  after the final checkpoint persist, so warm/cold and resumed runs
  stay byte-identical on disk.
* RL007 — no stray ``print`` outside the user-facing script dirs.
* RL008 — public ``core``/``lowerbound`` API is fully annotated (the
  contract ``mypy``'s strict tier then type-checks).
* RL009 — every registered scenario (:mod:`repro.scenarios`) declares
  its test-substrate wiring: a non-empty oracle-corpus entry, a
  non-empty golden trace case, and a ``.scn`` spec filename.  A
  scenario outside the differential and golden gates is an untested
  workload pretending otherwise.

Rules are pure AST passes over one file at a time; scope is decided
from the file's path parts so the same rule set runs identically over
the real tree and over the test fixtures that mirror its layout.
Invariants that cross call edges (the ``# hotpath`` allocation ban
among them) are the whole-program detectors of
:mod:`repro.lint.detectors`.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from repro.lint.violations import Violation

#: Counters every ``.add("name")`` emission must be declared among.
from repro.observability.schema import SEMANTIC_COUNTERS, TIMING_COUNTERS

DECLARED_COUNTERS = frozenset(SEMANTIC_COUNTERS) | frozenset(TIMING_COUNTERS)

#: Directories whose files count as engine code for determinism rules.
_ENGINE_DIRS = ("core", "lowerbound", "sim")

#: Directories where ``print`` is the product, not a leftover.
_PRINT_DIRS = ("tools", "examples", "benchmarks")

_BARE_EXCEPTIONS = ("ValueError", "RuntimeError", "Exception")

_TIME_FUNCTIONS = (
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "thread_time",
)

_OBSERVATIONAL_APPENDERS = ("_append_cache_summary", "_append_trace_summary")
_OBSERVATIONAL_ARG_NAMES = ("cache_notes",)
_OBSERVATIONAL_ARG_CALLS = ("summary_line", "trace_summary_line")
_PERSIST_NAMES = ("persist",)
_PERSIST_ATTRS = ("save",)


@dataclass(frozen=True)
class FileContext:
    """One parsed file, ready for the rule passes and the call graph."""

    path: str
    parts: tuple[str, ...]
    tree: ast.Module
    source: str
    suppressions: dict[int, frozenset[str]]


@dataclass(frozen=True)
class Rule:
    """One catalogue entry: code, scope predicate, and the AST pass."""

    code: str
    name: str
    summary: str
    applies: Callable[[tuple[str, ...]], bool]
    check: Callable[[FileContext], Iterator[Violation]]


# ---------------------------------------------------------------------------
# Path-scope helpers
# ---------------------------------------------------------------------------

def _repro_parts(parts: tuple[str, ...]) -> tuple[str, ...]:
    """The path parts inside the ``repro`` package, or empty."""
    if "repro" not in parts:
        return ()
    return parts[parts.index("repro") + 1:]


def _in_repro(parts: tuple[str, ...]) -> bool:
    return bool(_repro_parts(parts))


def _in_engine_code(parts: tuple[str, ...]) -> bool:
    inner = _repro_parts(parts)
    return bool(inner) and inner[0] in _ENGINE_DIRS


def _in_public_api_dirs(parts: tuple[str, ...]) -> bool:
    inner = _repro_parts(parts)
    return bool(inner) and inner[0] in ("core", "lowerbound")


def _is_errors_module(parts: tuple[str, ...]) -> bool:
    inner = _repro_parts(parts)
    return inner[-2:] == ("robustness", "errors.py")


def _in_scenarios(parts: tuple[str, ...]) -> bool:
    inner = _repro_parts(parts)
    return bool(inner) and inner[0] == "scenarios"


# ---------------------------------------------------------------------------
# Small AST helpers
# ---------------------------------------------------------------------------

def _attach_parents(tree: ast.Module) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._reprolint_parent = parent  # type: ignore[attr-defined]


def _parent(node: ast.AST) -> ast.AST | None:
    return getattr(node, "_reprolint_parent", None)


def _call_name(node: ast.Call) -> str | None:
    """The simple name of a called function, if it has one."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_setish(node: ast.expr) -> str | None:
    """The kind of freshly built, unordered set ``node`` is, if any."""
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return f"{node.func.id}() call"
    return None


def _violation(
    context: FileContext, node: ast.AST, code: str, message: str
) -> Violation:
    return Violation(
        path=context.path,
        line=getattr(node, "lineno", 1),
        code=code,
        message=message,
    )


# ---------------------------------------------------------------------------
# RL001 — typed-error discipline
# ---------------------------------------------------------------------------

def _check_rl001(context: FileContext) -> Iterator[Violation]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        name = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in _BARE_EXCEPTIONS:
            yield _violation(
                context, node, "RL001",
                f"bare `raise {name}` in engine code; raise a typed "
                "error from repro.robustness.errors instead (they "
                "double-inherit the builtin, so callers keep working)",
            )


# ---------------------------------------------------------------------------
# RL002 — determinism in engine code
# ---------------------------------------------------------------------------

def _check_rl002(context: FileContext) -> Iterator[Violation]:
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call):
            yield from _rl002_call(context, node)
        elif isinstance(node, ast.For) and _is_setish(node.iter):
            yield _violation(
                context, node, "RL002",
                "iterating a freshly built set: iteration order is "
                "hash-seed dependent; wrap in sorted(...) before it "
                "can feed output ordering",
            )
        elif isinstance(node, (ast.ListComp, ast.DictComp)):
            for generator in node.generators:
                if _is_setish(generator.iter):
                    yield _violation(
                        context, node, "RL002",
                        "building ordered output by iterating a set: "
                        "wrap the iterable in sorted(...)",
                    )
        elif isinstance(node, ast.Subscript):
            for inner in ast.walk(node.slice):
                if isinstance(inner, ast.Call) and _call_name(inner) == "id":
                    yield _violation(
                        context, node, "RL002",
                        "id()-keyed lookup: object addresses vary run to "
                        "run; key on stable identity instead",
                    )
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if (
                    key is not None
                    and isinstance(key, ast.Call)
                    and _call_name(key) == "id"
                ):
                    yield _violation(
                        context, node, "RL002",
                        "id()-keyed dict: object addresses vary run to "
                        "run; key on stable identity instead",
                    )


def _rl002_call(context: FileContext, node: ast.Call) -> Iterator[Violation]:
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        base, attr = func.value.id, func.attr
        if base == "time" and attr in _TIME_FUNCTIONS:
            yield _violation(
                context, node, "RL002",
                f"wall-clock read time.{attr}() in engine code breaks "
                "reproducible outputs; thread timing through the "
                "robustness budget or the observability layer",
            )
        elif base == "random" and attr != "Random":
            yield _violation(
                context, node, "RL002",
                f"ambient random.{attr}() in engine code; accept an "
                "injected random.Random(seed) instead",
            )
        elif base == "datetime" and attr in ("now", "utcnow", "today"):
            yield _violation(
                context, node, "RL002",
                f"datetime.{attr}() in engine code breaks reproducible "
                "outputs; pass timestamps in explicitly",
            )
    # {list,tuple,enumerate}(set(...)) and "sep".join(set(...)):
    # unordered input materialized into ordered output.
    setish_arg = bool(node.args) and _is_setish(node.args[0]) is not None
    if setish_arg and isinstance(func, ast.Name) and func.id in (
        "list", "tuple", "enumerate"
    ):
        yield _violation(
            context, node, "RL002",
            f"{func.id}(set(...)) materializes hash-seed-dependent "
            "order; use sorted(...)",
        )
    elif (
        setish_arg
        and isinstance(func, ast.Attribute)
        and func.attr == "join"
    ):
        yield _violation(
            context, node, "RL002",
            "str.join over a set renders hash-seed-dependent order; "
            "use sorted(...)",
        )


# ---------------------------------------------------------------------------
# RL004 — emitted counters must be declared in the schema
# ---------------------------------------------------------------------------

def _check_rl004(context: FileContext) -> Iterator[Violation]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        is_add = (
            isinstance(func, ast.Attribute) and func.attr == "add"
        ) or (isinstance(func, ast.Name) and func.id == "add")
        if not is_add:
            continue
        first = node.args[0]
        if not isinstance(first, ast.Constant) or not isinstance(
            first.value, str
        ):
            continue
        counter = first.value
        # Counter names are dotted (``phase.metric``); dot-free string
        # adds are ordinary set.add calls, not metric emissions.
        if "." not in counter:
            continue
        if counter not in DECLARED_COUNTERS:
            yield _violation(
                context, node, "RL004",
                f"counter {counter!r} is not declared in "
                "repro.observability.schema; add it to "
                "SEMANTIC_COUNTERS (engine-equal) or TIMING_COUNTERS "
                "(engine-specific) first",
            )


# ---------------------------------------------------------------------------
# RL005 — ambient context managers enter via ``with``
# ---------------------------------------------------------------------------

def _check_rl005(context: FileContext) -> Iterator[Violation]:
    for node in ast.walk(context.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("__enter__", "__exit__")
        ):
            yield _violation(
                context, node, "RL005",
                f"manual {node.func.attr}() call: ambient context "
                "managers (governed/tracing/caching) must be entered "
                "via `with`, or their ContextVar reset is skipped on "
                "error paths",
            )


# ---------------------------------------------------------------------------
# RL006 — observational provenance only after the final persist
# ---------------------------------------------------------------------------

def _is_persist_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name) and node.func.id in _PERSIST_NAMES:
        return True
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _PERSIST_ATTRS
    )


def _is_observational_append(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    if (
        isinstance(node.func, ast.Name)
        and node.func.id in _OBSERVATIONAL_APPENDERS
    ):
        return True
    if not (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in ("append", "extend")
    ):
        return False
    for argument in node.args:
        for inner in ast.walk(argument):
            if (
                isinstance(inner, ast.Name)
                and inner.id in _OBSERVATIONAL_ARG_NAMES
            ):
                return True
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in _OBSERVATIONAL_ARG_CALLS
            ):
                return True
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Name)
                and inner.func.id in _OBSERVATIONAL_ARG_CALLS
            ):
                return True
    return False


def _enclosing_statement(node: ast.AST) -> ast.stmt | None:
    current: ast.AST | None = node
    while current is not None:
        parent = _parent(current)
        if parent is not None and isinstance(current, ast.stmt):
            for field in ("body", "orelse", "finalbody", "handlers"):
                block = getattr(parent, field, None)
                if isinstance(block, list) and current in block:
                    return current
        current = parent
    return None


def _block_of(statement: ast.stmt) -> list[ast.stmt] | None:
    parent = _parent(statement)
    if parent is None:
        return None
    for field in ("body", "orelse", "finalbody"):
        block = getattr(parent, field, None)
        if isinstance(block, list) and statement in block:
            return block
    return None


def _check_rl006(context: FileContext) -> Iterator[Violation]:
    for function in ast.walk(context.tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        persist_lines = [
            node.lineno
            for node in ast.walk(function)
            if _is_persist_call(node)
        ]
        if not persist_lines:
            continue
        last_persist = max(persist_lines)
        for node in ast.walk(function):
            if not _is_observational_append(node):
                continue
            # Do not re-flag from an enclosing nested function.
            owner = node
            while owner is not None and not isinstance(
                owner, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                owner = _parent(owner)  # type: ignore[assignment]
            if owner is not function:
                continue
            statement = _enclosing_statement(node)
            exempt = False
            decided = False
            if statement is not None:
                block = _block_of(statement)
                if block is not None:
                    index = block.index(statement)
                    for later in block[index + 1:]:
                        if any(
                            _is_persist_call(inner)
                            for inner in ast.walk(later)
                        ):
                            decided = True
                            break
                        if isinstance(later, (ast.Return, ast.Raise)):
                            exempt = True
                            break
            if exempt:
                continue
            if decided or node.lineno < last_persist:
                yield _violation(
                    context, node, "RL006",
                    "observational provenance (cache/trace summary) "
                    "written before a later checkpoint persist: move it "
                    "after the final persist so warm, cold, and resumed "
                    "checkpoints stay byte-identical",
                )


# ---------------------------------------------------------------------------
# RL007 — no print outside the script directories
# ---------------------------------------------------------------------------

def _check_rl007(context: FileContext) -> Iterator[Violation]:
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Call) and _call_name(node) == "print":
            yield _violation(
                context, node, "RL007",
                "print() outside tools/, examples/, benchmarks/: return "
                "or log the value instead (rendered output belongs to "
                "the script layer)",
            )


# ---------------------------------------------------------------------------
# RL008 — complete annotations on the public core/lowerbound API
# ---------------------------------------------------------------------------

def _missing_annotations(
    function: ast.FunctionDef | ast.AsyncFunctionDef, *, method: bool
) -> list[str]:
    arguments = function.args
    ordered: list[ast.arg] = (
        list(arguments.posonlyargs)
        + list(arguments.args)
        + list(arguments.kwonlyargs)
    )
    if arguments.vararg is not None:
        ordered.append(arguments.vararg)
    if arguments.kwarg is not None:
        ordered.append(arguments.kwarg)
    missing = [
        f"parameter {argument.arg!r}"
        for position, argument in enumerate(ordered)
        if argument.annotation is None
        and not (method and position == 0 and argument.arg in ("self", "cls"))
    ]
    if function.returns is None:
        missing.append("return type")
    return missing


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _check_rl008(context: FileContext) -> Iterator[Violation]:
    def flag(
        function: ast.FunctionDef | ast.AsyncFunctionDef, *, method: bool
    ) -> Iterator[Violation]:
        missing = _missing_annotations(function, method=method)
        if missing:
            yield _violation(
                context, function, "RL008",
                f"public function {function.name!r} is missing type "
                f"annotations ({', '.join(missing)}); the strict mypy "
                "tier requires the full signature",
            )

    for node in context.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _public(node.name):
                yield from flag(node, method=False)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and _public(member.name):
                    yield from flag(member, method=True)


# ---------------------------------------------------------------------------
# RL009 — scenario registrations carry their test-substrate wiring
# ---------------------------------------------------------------------------

#: ScenarioDecl's positional field order (mirrors the dataclass).
_SCENARIO_DECL_FIELDS = ("spec", "oracle_corpus", "golden", "quick")


def _check_rl009(context: FileContext) -> Iterator[Violation]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name != "ScenarioDecl":
            continue
        fields: dict[str, ast.expr] = {}
        for position, argument in enumerate(node.args):
            if position < len(_SCENARIO_DECL_FIELDS):
                fields[_SCENARIO_DECL_FIELDS[position]] = argument
        for keyword in node.keywords:
            if keyword.arg is not None:
                fields[keyword.arg] = keyword.value
        spec = fields.get("spec")
        spec_name = (
            spec.value
            if isinstance(spec, ast.Constant) and isinstance(spec.value, str)
            else None
        )
        label = spec_name or "<unknown spec>"
        for field in ("oracle_corpus", "golden"):
            value = fields.get(field)
            if value is None:
                yield _violation(
                    context, node, "RL009",
                    f"scenario {label} does not declare {field!r}: every "
                    "registered scenario must name its oracle-corpus entry "
                    "and its golden trace case (the differential and "
                    "golden gates key on them)",
                )
            elif isinstance(value, ast.Constant) and (
                not isinstance(value.value, str) or not value.value
            ):
                yield _violation(
                    context, node, "RL009",
                    f"scenario {label} declares an empty {field!r}; name "
                    "a real oracle-corpus entry / golden case",
                )
        if spec_name is not None and not spec_name.endswith(".scn"):
            yield _violation(
                context, node, "RL009",
                f"scenario spec filename {spec_name!r} must end in '.scn' "
                "(the declarative spec format under scenarios/)",
            )


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

RULES: Sequence[Rule] = (
    Rule(
        code="RL001",
        name="typed-errors",
        summary=(
            "no bare raise ValueError/RuntimeError/Exception in engine "
            "code outside robustness/errors.py"
        ),
        applies=lambda parts: _in_repro(parts) and not _is_errors_module(parts),
        check=_check_rl001,
    ),
    Rule(
        code="RL002",
        name="determinism",
        summary=(
            "no wall clocks, ambient RNG, id() keys, or raw set "
            "iteration under core/, lowerbound/, sim/"
        ),
        applies=_in_engine_code,
        check=_check_rl002,
    ),
    Rule(
        code="RL004",
        name="declared-counters",
        summary=(
            "every counter emitted via observability must be declared "
            "in schema.py (semantic vs timing)"
        ),
        applies=_in_repro,
        check=_check_rl004,
    ),
    Rule(
        code="RL005",
        name="with-not-enter",
        summary=(
            "ambient context managers are entered via with, never "
            "manually __enter__-ed"
        ),
        applies=lambda parts: True,
        check=_check_rl005,
    ),
    Rule(
        code="RL006",
        name="provenance-after-persist",
        summary=(
            "checkpoint-affecting provenance writes occur only after "
            "the final persist call of the enclosing function"
        ),
        applies=_in_repro,
        check=_check_rl006,
    ),
    Rule(
        code="RL007",
        name="no-stray-print",
        summary="no print() outside tools/, examples/, benchmarks/",
        applies=lambda parts: not any(
            part in _PRINT_DIRS for part in parts
        ),
        check=_check_rl007,
    ),
    Rule(
        code="RL008",
        name="annotated-public-api",
        summary=(
            "public core/ and lowerbound/ functions carry complete "
            "type annotations"
        ),
        applies=_in_public_api_dirs,
        check=_check_rl008,
    ),
    Rule(
        code="RL009",
        name="scenario-substrate",
        summary=(
            "every registered scenario declares a non-empty "
            "oracle-corpus entry, golden trace case, and .scn spec"
        ),
        applies=_in_scenarios,
        check=_check_rl009,
    ),
)


def check_file(context: FileContext) -> list[Violation]:
    """Every violation of every in-scope rule, unsorted and unfiltered."""
    _attach_parents(context.tree)
    findings: list[Violation] = []
    for rule in RULES:
        if rule.applies(context.parts):
            findings.extend(rule.check(context))
    return findings


__all__ = ["Rule", "RULES", "FileContext", "check_file", "DECLARED_COUNTERS"]
