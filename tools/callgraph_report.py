"""Dump the analyzer's whole-program call graph as text or DOT.

Run:  PYTHONPATH=src python tools/callgraph_report.py [options] [PATH ...]

Renders the same module-qualified call graph the AN001-AN004 detectors
of ``python -m repro.lint`` run over (:mod:`repro.lint.callgraph`), so
a finding's call chain can be audited visually and the resolver's
blind spots inspected.
With no PATH the installed ``repro`` package tree is scanned.

Options:
    --format text|dot   output format (default: text edge list)
    --root NAME         restrict to the call closure of one function;
                        NAME matches a qualname suffix
                        (``KernelChain.run`` or a full dotted path)
    --hotpath           restrict to the closures of ``# hotpath``
                        functions — the AN001 audit surface
    --threads           restrict to the closures of thread roots
                        (``Thread(target=...)`` and ``do_*`` handlers)
                        — the AN003 audit surface
    --unresolved        list unresolved call sites instead of edges
                        (duck-typed receivers the resolver cannot link)
    --stats             print one summary line and exit

Exit status (unified across repro tooling):
    0  success
    1  (unused; reports never gate)
    2  usage error, unknown root, or unreadable/unparseable input
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro
from repro.lint.callgraph import CallGraph, build_call_graph
from repro.lint.engine import AnalysisError, discover, parse_file
from repro.lint.facts import ProgramFacts, collect_facts

USAGE = (
    "usage: callgraph_report.py [--format text|dot] [--root NAME] "
    "[--hotpath] [--threads]\n"
    "                           [--unresolved] [--stats] [PATH ...]\n"
    "\n"
    "Exit status (unified across repro tooling):\n"
    "    0  success\n"
    "    1  (unused; reports never gate)\n"
    "    2  usage error, unknown root, or unreadable/unparseable input"
)


def _fail(message: str) -> SystemExit:
    """One-line ``error:`` diagnostic on stderr, exit status 2."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _match_root(graph: CallGraph, name: str) -> str:
    """The unique function qualname ``name`` suffix-matches.

    Ambiguity and no-match are both usage errors; the candidates are
    listed so the caller can qualify the name further.
    """
    if name in graph.functions:
        return name
    matches = sorted(
        qualname
        for qualname in graph.functions
        if qualname.endswith(f".{name}")
    )
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise _fail(
            f"--root {name!r} is ambiguous; candidates: " + ", ".join(matches)
        )
    raise _fail(f"--root {name!r} matches no function")


def _selected_roots(
    graph: CallGraph,
    facts: ProgramFacts,
    root: str | None,
    hotpath: bool,
    threads: bool,
) -> list[str] | None:
    """The closure roots the flags select, or ``None`` for everything."""
    roots: list[str] = []
    if root is not None:
        roots.append(_match_root(graph, root))
    if hotpath:
        roots.extend(
            qualname
            for qualname, summary in sorted(facts.functions.items())
            if summary.hotpath
        )
    if threads:
        roots.extend(sorted(graph.thread_roots))
    if not (root or hotpath or threads):
        return None
    return roots


def _visible_functions(graph: CallGraph, roots: list[str] | None) -> set[str]:
    if roots is None:
        return set(graph.functions)
    return graph.reachable(roots)


def render_text(graph: CallGraph, visible: set[str]) -> list[str]:
    """One ``caller -> callee  [kind] line N`` row per edge."""
    rows = []
    for caller in sorted(visible):
        for edge in graph.callees(caller):
            if edge.callee in visible:
                rows.append(
                    f"{edge.caller} -> {edge.callee}  "
                    f"[{edge.kind}] line {edge.line}"
                )
    return rows


def render_dot(graph: CallGraph, visible: set[str]) -> list[str]:
    """A Graphviz digraph; edge style encodes the edge kind."""
    styles = {
        "call": "solid",
        "nested": "dotted",
        "ref": "dashed",
        "target": "bold",
        "dispatch": "bold",
    }
    lines = ["digraph callgraph {", "  rankdir=LR;", "  node [shape=box];"]
    for qualname in sorted(visible):
        label = qualname.removeprefix("repro.")
        lines.append(f'  "{qualname}" [label="{label}"];')
    for caller in sorted(visible):
        for edge in graph.callees(caller):
            if edge.callee in visible:
                style = styles.get(edge.kind, "solid")
                lines.append(
                    f'  "{edge.caller}" -> "{edge.callee}" '
                    f'[style={style}, label="{edge.kind}"];'
                )
    lines.append("}")
    return lines


def render_unresolved(graph: CallGraph, visible: set[str]) -> list[str]:
    rows = []
    for caller in sorted(visible):
        for description in graph.unresolved.get(caller, []):
            rows.append(f"{caller}: {description}")
    return rows


def main(argv: list[str]) -> int:
    paths: list[str] = []
    output_format = "text"
    root: str | None = None
    hotpath = False
    threads = False
    unresolved = False
    stats = False
    arguments = list(argv)
    while arguments:
        argument = arguments.pop(0)
        if argument in ("-h", "--help"):
            print(__doc__)
            return 0
        if argument in ("--format", "--root"):
            if not arguments:
                raise _fail(f"{argument} needs a value")
            value = arguments.pop(0)
            if argument == "--format":
                if value not in ("text", "dot"):
                    raise _fail(f"--format must be text or dot, not {value!r}")
                output_format = value
            else:
                root = value
            continue
        if argument == "--hotpath":
            hotpath = True
            continue
        if argument == "--threads":
            threads = True
            continue
        if argument == "--unresolved":
            unresolved = True
            continue
        if argument == "--stats":
            stats = True
            continue
        if argument.startswith("-"):
            raise _fail(f"unknown option {argument}\n{USAGE}")
        paths.append(argument)
    if not paths:
        paths = [os.path.dirname(os.path.abspath(repro.__file__))]

    files, missing = discover(paths)
    if missing:
        raise _fail(f"no such path: {', '.join(missing)}")
    try:
        graph = build_call_graph([parse_file(path) for path in files])
    except AnalysisError as error:
        raise _fail(str(error)) from error
    facts = collect_facts(graph)
    roots = _selected_roots(graph, facts, root, hotpath, threads)
    visible = _visible_functions(graph, roots)

    if stats:
        unresolved_count = sum(
            len(items) for items in graph.unresolved.values()
        )
        print(
            f"callgraph: {len(graph.modules)} modules, "
            f"{len(graph.functions)} functions, {len(graph.edges)} edges, "
            f"{len(graph.thread_roots)} thread roots, "
            f"{unresolved_count} unresolved call sites, "
            f"{len(visible)} selected"
        )
        return 0
    if unresolved:
        lines = render_unresolved(graph, visible)
    elif output_format == "dot":
        lines = render_dot(graph, visible)
    else:
        lines = render_text(graph, visible)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # Piping into `head` is the expected way to browse a dump.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(0)
