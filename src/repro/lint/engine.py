"""File discovery, the single parse, and both analysis passes.

The engine walks the requested paths and reads, parses and tokenizes
every ``*.py`` file exactly once.  Each parsed file then feeds two
passes:

* the per-file rules RL001-RL009 of :mod:`repro.lint.rules`, scoped by
  the file's path *parts*;
* the whole-program detectors AN001-AN004 of
  :mod:`repro.lint.detectors`, over the call graph linked from the
  files inside the ``repro`` package (:func:`module_name_of`).

Findings of both passes are filtered through the file's
``# reprolint:`` waiver table.  Because scope and module names come
from path parts, fixture trees that mirror the repository layout
(``.../src/repro/core/...``) are analyzed exactly like the real one.

Three directory names are skipped during discovery, along with every
hidden directory:

* ``lint_fixtures`` — the test corpus of deliberately violating files;
* ``golden`` — generated golden artifacts;
* ``__pycache__`` — bytecode caches.

Files inside them can still be analyzed by naming the file, or a
directory below the skipped one, explicitly; that is how the fixture
tests drive the engine.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass

from repro.lint.callgraph import build_call_graph
from repro.lint.detectors import run_detectors
from repro.lint.facts import collect_facts
from repro.lint.rules import FileContext, check_file
from repro.lint.violations import Violation, is_suppressed, parse_suppressions
from repro.robustness.errors import ReproError

#: Directory names never descended into: the fixture tree carries
#: deliberate violations, goldens are generated artifacts.
_SKIPPED_DIRS = ("lint_fixtures", "golden", "__pycache__")


class AnalysisError(ReproError):
    """A source file that cannot be analyzed (I/O or syntax failure)."""


@dataclass(frozen=True)
class FileReport:
    """The outcome of analyzing one file."""

    path: str
    violations: tuple[Violation, ...]
    error: str | None = None


def discover(paths: list[str]) -> tuple[list[str], list[str]]:
    """Expand files and directories into the python files to analyze.

    Returns ``(files, missing)`` where ``missing`` lists requested
    paths that do not exist.  Directories are walked recursively in
    sorted order (deterministic output); skipped-directory names and
    hidden directories are pruned.
    """
    files: list[str] = []
    missing: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, directories, names in os.walk(path):
                directories[:] = sorted(
                    name
                    for name in directories
                    if name not in _SKIPPED_DIRS and not name.startswith(".")
                )
                files.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(".py")
                )
        else:
            missing.append(path)
    return files, missing


def parse_file(path: str) -> FileContext:
    """Read, parse and tokenize one file: its only parse of the run.

    Raises :class:`AnalysisError` on unreadable or unparseable input.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as error:
        raise AnalysisError(
            "cannot read source file", cause=str(error)
        ) from error
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        raise AnalysisError(
            f"syntax error: {error.msg}", line=error.lineno
        ) from error
    parts = tuple(os.path.normpath(path).replace(os.sep, "/").split("/"))
    return FileContext(
        path=path,
        parts=parts,
        tree=tree,
        source=source,
        suppressions=parse_suppressions(source),
    )


def lint_paths(paths: list[str]) -> tuple[list[FileReport], list[str]]:
    """Run every rule and detector over the python files under ``paths``.

    Returns ``(reports, missing_paths)``; reports come back in
    discovery order, violation-free files included (their report
    simply carries an empty tuple), each sorted by line.  The
    whole-program pass needs the whole program, so it is skipped when
    any file fails to parse (that file's report carries the error).
    """
    files, missing = discover(paths)
    contexts: dict[str, FileContext] = {}
    errors: dict[str, str] = {}
    for path in files:
        try:
            contexts[path] = parse_file(path)
        except AnalysisError as error:
            errors[path] = str(error)
    findings = {
        path: check_file(context) for path, context in contexts.items()
    }
    if not errors:
        graph = build_call_graph(contexts.values())
        for violation in run_detectors(graph, collect_facts(graph)):
            findings[violation.path].append(violation)
    reports: list[FileReport] = []
    for path in files:
        if path in errors:
            reports.append(
                FileReport(path=path, violations=(), error=errors[path])
            )
            continue
        waivers = contexts[path].suppressions
        kept = sorted(
            (
                violation
                for violation in findings[path]
                if not is_suppressed(waivers, violation.line, violation.code)
            ),
            key=lambda v: (v.line, v.code, v.message),
        )
        reports.append(FileReport(path=path, violations=tuple(kept)))
    return reports, missing


__all__ = [
    "AnalysisError",
    "FileReport",
    "discover",
    "lint_paths",
    "parse_file",
]
