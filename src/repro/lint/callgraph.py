"""Whole-program call-graph construction.

Where the per-file rules of :mod:`repro.lint.rules` look at one module
at a time, this module links every scanned module inside the ``repro``
package — from the same parsed trees the rules ran over — into one
program: every function and method gets a module-qualified node
(``repro.core.kernel.engine._maximization_dfs``), and every call site
that can be resolved statically becomes an edge.  Resolution is
deliberately conservative and documented (DESIGN.md, "Static
analysis & typing"); what it handles:

* plain calls to same-module functions and ``from``-imported names;
* ``module.attr(...)`` through ``import``/``from`` aliases, including
  dotted chains (``a.b.c.f()``);
* ``self.method(...)`` / ``cls.method(...)`` with a base-class walk
  over classes defined in the scanned tree;
* ``Class.method(...)`` and ``Class(...)`` (an ``__init__`` edge);
* local-variable receivers via light type propagation: parameter and
  variable annotations, ``x = ClassName(...)`` constructor results,
  and ``x = f(...)`` where ``f``'s return annotation names a class
  (``Budget | None`` unwraps to ``Budget``);
* ``self.attr.method(...)`` where ``self.attr`` carries a class type
  from an annotated assignment;
* synthetic edges for indirect control flow the detectors must see
  through: functions passed as ``target=`` to ``Thread``/``Process``
  (the target is marked a thread root when it is a ``Thread``), and
  bare references to known functions (registry dicts, callbacks).

Everything else (duck-typed receivers, attributes of call results,
``**kwargs`` dispatch) stays unresolved and is surfaced per function
so ``tools/callgraph_report.py`` can audit detector blind spots.

Module names are derived from the file's path *parts* (everything
after the last ``repro`` path component), exactly like the linter's
scope rules — so a fixture tree mirroring the repository layout
(``tests/lint_fixtures/.../src/repro/core/...``) is analyzed
identically to the real one.
"""

from __future__ import annotations

import ast
import os
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.lint.rules import FileContext

#: Constructors whose ``target=`` argument is a synthetic callee.
_TARGET_CONSTRUCTORS = ("Thread", "Process")


@dataclass
class FunctionInfo:
    """One function or method node of the call graph."""

    qualname: str
    module: str
    name: str
    cls: str | None
    path: str
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Qualnames of ``def``s nested directly inside this one.
    nested: list[str] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class definition: methods, bases, and attribute types."""

    qualname: str
    module: str
    name: str
    bases: list[str]
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> class qualname, from annotated assignments.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: ``self.attr = threading.Condition(self.other)`` aliases.
    lock_aliases: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its name-resolution tables."""

    name: str
    path: str
    tree: ast.Module
    source: str
    #: local alias -> module dotted name (``import a.b as z``).
    import_modules: dict[str, str] = field(default_factory=dict)
    #: local name -> fully qualified value (``from a.b import f``).
    import_values: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level function simple name -> qualname.
    functions: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallEdge:
    """One resolved call: caller, callee, call-site line, edge kind.

    ``kind`` is ``"call"`` for a resolved call expression,
    ``"ref"`` for a bare function reference (may-call), ``"target"``
    for a ``Thread``/``Process`` target, and ``"nested"`` for the
    implicit edge from a function to a ``def`` nested inside it.
    """

    caller: str
    callee: str
    line: int
    kind: str


@dataclass
class CallGraph:
    """The linked program: nodes, edges, and reachability helpers."""

    modules: dict[str, ModuleInfo]
    functions: dict[str, FunctionInfo]
    edges: list[CallEdge]
    #: Functions passed as ``target=`` to ``threading.Thread``.
    thread_roots: set[str]
    #: caller qualname -> unresolved call descriptions (audit surface).
    unresolved: dict[str, list[str]]

    def __post_init__(self) -> None:
        self._out: dict[str, list[CallEdge]] = {}
        for edge in self.edges:
            self._out.setdefault(edge.caller, []).append(edge)

    def callees(self, qualname: str) -> list[CallEdge]:
        """The outgoing edges of one function, in call-site order."""
        return sorted(
            self._out.get(qualname, []), key=lambda e: (e.line, e.callee)
        )

    def reachable(
        self, roots: Iterable[str], kinds: frozenset[str] | None = None
    ) -> set[str]:
        """Every function reachable from ``roots`` (roots included).

        ``kinds`` restricts the walk to edges of those kinds; ``None``
        follows every edge.
        """
        seen: set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self._out.get(current, ()):
                if edge.callee not in seen and (
                    kinds is None or edge.kind in kinds
                ):
                    stack.append(edge.callee)
        return seen

    def call_chain(
        self, start: str, goal: str, kinds: frozenset[str] | None = None
    ) -> list[str] | None:
        """A shortest ``start -> ... -> goal`` chain along ``kinds`` edges."""
        if start == goal:
            return [start]
        parents: dict[str, str] = {start: start}
        queue = [start]
        while queue:
            nxt: list[str] = []
            for current in queue:
                for edge in self.callees(current):
                    if edge.callee in parents or (
                        kinds is not None and edge.kind not in kinds
                    ):
                        continue
                    parents[edge.callee] = current
                    if edge.callee == goal:
                        chain = [goal]
                        while chain[-1] != start:
                            chain.append(parents[chain[-1]])
                        return list(reversed(chain))
                    nxt.append(edge.callee)
            queue = nxt
        return None


# ---------------------------------------------------------------------------
# Module naming
# ---------------------------------------------------------------------------

def module_name_of(path: str) -> str | None:
    """The dotted module name of ``path``, or ``None`` outside ``repro``.

    Derived from path parts after the *last* ``repro`` component, so
    fixture trees that mirror the layout resolve to the same namespace
    as the real tree.
    """
    parts = os.path.normpath(path).replace(os.sep, "/").split("/")
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    inner = parts[index:]
    stem = inner[-1]
    if not stem.endswith(".py"):
        return None
    stem = stem[: -len(".py")]
    packages = inner[:-1]
    if stem == "__init__":
        return ".".join(packages)
    return ".".join(packages + [stem])


# ---------------------------------------------------------------------------
# Pass 1: collect definitions and import tables
# ---------------------------------------------------------------------------

def _annotation_class(annotation: ast.expr | None) -> str | None:
    """The class simple/dotted name an annotation resolves to, if any.

    Unwraps ``X | None``, ``Optional[X]``, and string annotations;
    returns the textual name (resolved against import tables later).
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        left = _annotation_class(annotation.left)
        if left is not None:
            return left
        return _annotation_class(annotation.right)
    if isinstance(annotation, ast.Subscript):
        base = annotation.value
        if isinstance(base, ast.Name) and base.id == "Optional":
            inner = annotation.slice
            return _annotation_class(inner)
        return None
    if isinstance(annotation, ast.Name):
        return None if annotation.id == "None" else annotation.id
    if isinstance(annotation, ast.Attribute):
        chain = _attribute_chain(annotation)
        return ".".join(chain) if chain else None
    return None


def _attribute_chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``, or ``None`` for other shapes."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return list(reversed(parts))
    return None


def _collect_module(context: FileContext, name: str) -> ModuleInfo:
    """Import tables of one already-parsed module."""
    path = context.path
    module = ModuleInfo(
        name=name,
        path=path,
        tree=context.tree,
        source=context.source,
    )
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.import_modules[bound] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # ``from . import x`` resolves against the enclosing
                # package: a plain module drops ``level`` trailing parts,
                # an ``__init__`` module drops one fewer (the package
                # itself is level 1).
                parts = name.split(".")
                keep = len(parts) - node.level + (1 if _is_package(path) else 0)
                package = parts[: max(keep, 0)]
                base = ".".join(package + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                module.import_values[bound] = f"{base}.{alias.name}" if base else alias.name
    return module


def _is_package(path: str) -> bool:
    return os.path.basename(path) == "__init__.py"


def _collect_functions(
    module: ModuleInfo,
    functions: dict[str, FunctionInfo],
    classes: dict[str, ClassInfo],
) -> None:
    """Register every function/method/nested def of one module."""

    def visit_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        owner: str,
        cls: str | None,
    ) -> str:
        qualname = f"{owner}.{node.name}"
        info = FunctionInfo(
            qualname=qualname,
            module=module.name,
            name=node.name,
            cls=cls,
            path=module.path,
            lineno=node.lineno,
            node=node,
        )
        functions[qualname] = info
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.nested.append(visit_function(child, qualname, cls))
        return qualname

    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[node.name] = visit_function(
                node, module.name, None
            )
        elif isinstance(node, ast.ClassDef):
            cls_qualname = f"{module.name}.{node.name}"
            info = ClassInfo(
                qualname=cls_qualname,
                module=module.name,
                name=node.name,
                bases=[
                    ".".join(chain)
                    for base in node.bases
                    if (chain := _attribute_chain(base)) is not None
                ],
            )
            module.classes[node.name] = info
            classes[cls_qualname] = info
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[member.name] = visit_function(
                        member, cls_qualname, cls_qualname
                    )
                elif isinstance(member, ast.AnnAssign) and isinstance(
                    member.target, ast.Name
                ):
                    annotated = _annotation_class(member.annotation)
                    if annotated is not None:
                        info.attr_types[member.target.id] = annotated


# ---------------------------------------------------------------------------
# Pass 2: resolution
# ---------------------------------------------------------------------------

class _Resolver:
    """Shared name-resolution over the collected program."""

    def __init__(
        self,
        modules: dict[str, ModuleInfo],
        functions: dict[str, FunctionInfo],
        classes: dict[str, ClassInfo],
    ) -> None:
        self.modules = modules
        self.functions = functions
        self.classes = classes

    # -- class lookups ---------------------------------------------------

    def resolve_class(self, module: ModuleInfo, name: str) -> ClassInfo | None:
        """A class named ``name`` as seen from ``module``."""
        if name in module.classes:
            return module.classes[name]
        value = module.import_values.get(name)
        if value is not None and value in self.classes:
            return self.classes[value]
        if "." in name:
            # Dotted annotation (``module.Class``) — try the suffix.
            head, _, tail = name.rpartition(".")
            target = module.import_modules.get(head.split(".")[0])
            if target is not None:
                candidate = f"{name.replace(head.split('.')[0], target, 1)}"
                if candidate in self.classes:
                    return self.classes[candidate]
            if name in self.classes:
                return self.classes[name]
        return None

    def method_of(self, cls: ClassInfo, name: str) -> str | None:
        """``cls``'s method ``name``, walking tree-local base classes."""
        seen: set[str] = set()
        queue: list[ClassInfo] = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            module = self.modules.get(current.module)
            if module is None:
                continue
            for base in current.bases:
                resolved = self.resolve_class(module, base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def lookup_value(self, module: ModuleInfo, name: str) -> str | None:
        """A module-level function/class value named ``name``."""
        if name in module.functions:
            return module.functions[name]
        value = module.import_values.get(name)
        if value is not None:
            if value in self.functions or value in self.classes:
                return value
            # ``from a.b import c`` where a.b.c is itself a module.
            if value in self.modules:
                return None
        return None

    def module_for_alias(self, module: ModuleInfo, name: str) -> ModuleInfo | None:
        """The module an alias binds, through either import form."""
        target = module.import_modules.get(name)
        if target is not None and target in self.modules:
            return self.modules[target]
        value = module.import_values.get(name)
        if value is not None and value in self.modules:
            return self.modules[value]
        return None

    def resolve_dotted(
        self, module: ModuleInfo, chain: list[str]
    ) -> str | None:
        """Resolve ``a.b.c.f`` to a function/class qualname, if possible."""
        if len(chain) < 2:
            return None
        head, rest = chain[0], chain[1:]
        # Longest module-prefix match through a plain ``import a.b.c``.
        target = module.import_modules.get(head)
        if target is not None:
            for cut in range(len(rest) - 1, -1, -1):
                candidate = ".".join([target] + rest[:cut])
                if candidate not in self.modules:
                    continue
                return self._member_of(self.modules[candidate], rest[cut:])
        inner_module = self.module_for_alias(module, head)
        if inner_module is not None:
            return self._member_of(inner_module, rest)
        return None

    def _member_of(self, module: ModuleInfo, rest: list[str]) -> str | None:
        """``module``'s member named by ``rest`` (value or Class.method)."""
        if len(rest) == 1:
            value = self.lookup_value(module, rest[0])
            if value is not None:
                return value
            if rest[0] in module.classes:
                return module.classes[rest[0]].qualname
            return None
        if len(rest) == 2 and rest[0] in module.classes:
            return self.method_of(module.classes[rest[0]], rest[1])
        return None


def _class_of_value(
    resolver: _Resolver, module: ModuleInfo, node: ast.expr,
    local_types: dict[str, str],
    cls: ClassInfo | None,
) -> ClassInfo | None:
    """The class a value expression evaluates to, best effort."""
    if isinstance(node, ast.Call):
        # Constructor result, or a call whose return annotation names a
        # class.
        target = _resolve_callable(resolver, module, node.func, local_types, cls)
        if target is None:
            return None
        if target in resolver.classes:
            return resolver.classes[target]
        info = resolver.functions.get(target)
        if info is not None:
            annotated = _annotation_class(info.node.returns)
            if annotated is not None:
                owner = resolver.modules.get(info.module)
                if owner is not None:
                    return resolver.resolve_class(owner, annotated)
        return None
    if isinstance(node, ast.Name):
        annotated = local_types.get(node.id)
        if annotated is not None:
            return resolver.resolve_class(module, annotated)
        return None
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self" and cls is not None:
            annotated = cls.attr_types.get(node.attr)
            if annotated is not None:
                return resolver.resolve_class(module, annotated)
    return None


def _resolve_callable(
    resolver: _Resolver,
    module: ModuleInfo,
    func: ast.expr,
    local_types: dict[str, str],
    cls: ClassInfo | None,
) -> str | None:
    """The qualname a call's ``func`` expression resolves to, if any."""
    if isinstance(func, ast.Name):
        value = resolver.lookup_value(module, func.id)
        if value is not None:
            return value
        if func.id in module.classes:
            return module.classes[func.id].qualname
        imported = module.import_values.get(func.id)
        if imported is not None and imported in resolver.classes:
            return imported
        return None
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in ("self", "cls") and cls is not None:
                return resolver.method_of(cls, func.attr)
            receiver = resolver.resolve_class(module, base.id)
            if receiver is not None:
                return resolver.method_of(receiver, func.attr)
            inner = resolver.module_for_alias(module, base.id)
            if inner is not None:
                return resolver.lookup_value(inner, func.attr) or (
                    inner.classes[func.attr].qualname
                    if func.attr in inner.classes
                    else None
                )
            annotated = local_types.get(base.id)
            if annotated is not None:
                typed = resolver.resolve_class(module, annotated)
                if typed is not None:
                    return resolver.method_of(typed, func.attr)
            return None
        if isinstance(base, ast.Attribute):
            chain = _attribute_chain(func)
            if chain is not None:
                dotted = resolver.resolve_dotted(module, chain)
                if dotted is not None:
                    return dotted
            # ``self.attr.method()`` via the attribute's declared type.
            if (
                isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and cls is not None
            ):
                annotated = cls.attr_types.get(base.attr)
                if annotated is not None:
                    typed = resolver.resolve_class(module, annotated)
                    if typed is not None:
                        return resolver.method_of(typed, func.attr)
            return None
    return None


def _describe_call(func: ast.expr) -> str:
    chain = _attribute_chain(func)
    if chain is not None:
        return ".".join(chain)
    if isinstance(func, ast.Name):
        return func.id
    return type(func).__name__


def _local_types_of(
    resolver: _Resolver,
    module: ModuleInfo,
    info: FunctionInfo,
    cls: ClassInfo | None,
) -> dict[str, str]:
    """Parameter/local annotation table for one function body."""
    types: dict[str, str] = {}
    arguments = info.node.args
    ordered = (
        list(arguments.posonlyargs)
        + list(arguments.args)
        + list(arguments.kwonlyargs)
    )
    for argument in ordered:
        annotated = _annotation_class(argument.annotation)
        if annotated is not None:
            types[argument.arg] = annotated
    for node in _own_nodes(info.node):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotated = _annotation_class(node.annotation)
            if annotated is not None:
                types[node.target.id] = annotated
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                value_cls = _class_of_value(
                    resolver, module, node.value, types, cls
                )
                if value_cls is not None:
                    types[target.id] = value_cls.name
    return types


def _own_nodes(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.AST]:
    """Every AST node of ``function`` excluding nested ``def`` bodies.

    Nested functions are separate graph nodes (linked by a ``nested``
    edge), so their bodies must not contribute facts or edges to the
    enclosing function.  Lambda bodies stay included — they execute in
    the enclosing frame often enough that excluding them would blind
    the detectors.
    """
    nodes: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return nodes


def _harvest_class_attributes(
    resolver: _Resolver, module: ModuleInfo, info: ClassInfo
) -> None:
    """Fill ``attr_types`` and ``lock_aliases`` from method bodies."""
    for method_qualname in info.methods.values():
        method = resolver.functions.get(method_qualname)
        if method is None:
            continue
        for node in _own_nodes(method.node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            if annotation is not None:
                annotated = _annotation_class(annotation)
                if annotated is not None:
                    info.attr_types.setdefault(target.attr, annotated)
            if isinstance(value, ast.Call):
                chain = _attribute_chain(value.func)
                called = chain[-1] if chain else None
                if called == "Condition" and value.args:
                    first = value.args[0]
                    if (
                        isinstance(first, ast.Attribute)
                        and isinstance(first.value, ast.Name)
                        and first.value.id == "self"
                    ):
                        info.lock_aliases[target.attr] = first.attr


def build_call_graph(files: Iterable[FileContext]) -> CallGraph:
    """Link the program formed by the parsed ``files`` inside ``repro``.

    Files outside the package (``module_name_of`` is ``None``) are
    skipped; nothing is read or parsed here.
    """
    modules: dict[str, ModuleInfo] = {}
    functions: dict[str, FunctionInfo] = {}
    classes: dict[str, ClassInfo] = {}
    for context in files:
        name = module_name_of(context.path)
        if name is not None:
            modules[name] = _collect_module(context, name)
    for module in modules.values():
        _collect_functions(module, functions, classes)
    resolver = _Resolver(modules, functions, classes)
    for module in modules.values():
        for info in module.classes.values():
            _harvest_class_attributes(resolver, module, info)

    edges: list[CallEdge] = []
    thread_roots: set[str] = set()
    unresolved: dict[str, list[str]] = {}

    for info in functions.values():
        module = modules[info.module]
        cls = classes.get(info.cls) if info.cls else None
        local_types = _local_types_of(resolver, module, info, cls)
        for nested in info.nested:
            edges.append(
                CallEdge(info.qualname, nested, functions[nested].lineno, "nested")
            )
        for node in _own_nodes(info.node):
            if isinstance(node, ast.Call):
                _link_call(
                    resolver, module, info, cls, local_types, node,
                    edges, thread_roots, unresolved,
                )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                _link_reference(
                    resolver, module, info, node, edges
                )
    graph = CallGraph(
        modules=modules,
        functions=functions,
        edges=edges,
        thread_roots=thread_roots,
        unresolved=unresolved,
    )
    _mark_handler_roots(graph, resolver)
    return graph


#: Base-class names whose ``do_*`` methods run on server threads.
_HANDLER_BASES = ("BaseHTTPRequestHandler",)


def _mark_handler_roots(graph: CallGraph, resolver: _Resolver) -> None:
    """HTTP handler ``do_*`` methods are thread entry points too."""
    for cls in resolver.classes.values():
        if not any(base.split(".")[-1] in _HANDLER_BASES for base in cls.bases):
            continue
        for name, qualname in cls.methods.items():
            if name.startswith("do_"):
                graph.thread_roots.add(qualname)


def _link_call(
    resolver: _Resolver,
    module: ModuleInfo,
    info: FunctionInfo,
    cls: ClassInfo | None,
    local_types: dict[str, str],
    node: ast.Call,
    edges: list[CallEdge],
    thread_roots: set[str],
    unresolved: dict[str, list[str]],
) -> None:
    target = _resolve_callable(resolver, module, node.func, local_types, cls)
    callee_name = _describe_call(node.func)
    simple = callee_name.split(".")[-1]
    if target is not None:
        if target in resolver.classes:
            init = resolver.method_of(resolver.classes[target], "__init__")
            if init is not None:
                edges.append(CallEdge(info.qualname, init, node.lineno, "call"))
        elif target in resolver.functions:
            edges.append(CallEdge(info.qualname, target, node.lineno, "call"))
    elif isinstance(node.func, ast.Attribute) or isinstance(node.func, ast.Name):
        unresolved.setdefault(info.qualname, []).append(
            f"{callee_name} (line {node.lineno})"
        )
    # Thread/Process targets: the passed function runs concurrently.
    if simple in _TARGET_CONSTRUCTORS:
        for keyword in node.keywords:
            if keyword.arg != "target":
                continue
            resolved = _resolve_callable(
                resolver, module, keyword.value, local_types, cls
            )
            if resolved is not None and resolved in resolver.functions:
                edges.append(
                    CallEdge(info.qualname, resolved, node.lineno, "target")
                )
                if simple == "Thread":
                    thread_roots.add(resolved)


def _link_reference(
    resolver: _Resolver,
    module: ModuleInfo,
    info: FunctionInfo,
    node: ast.Name,
    edges: list[CallEdge],
) -> None:
    """A bare reference to a known function is a may-call edge."""
    value = resolver.lookup_value(module, node.id)
    if value is not None and value in resolver.functions:
        edges.append(CallEdge(info.qualname, value, node.lineno, "ref"))


__all__ = [
    "CallEdge",
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "build_call_graph",
    "module_name_of",
]
