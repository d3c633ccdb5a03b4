"""Violation records and ``# reprolint:`` waiver comments.

A violation pins one rule code to one physical line of one file.  One
comment grammar waives per-file rules (RL) and whole-program detectors
(AN) alike: a trailing comment on the flagged line (for an AN finding,
its anchor line; for AN002, the loop's header line)::

    risky_call()  # reprolint: disable=RL002 -- seeded, ordering-free
    while True:  # reprolint: disable=AN002 -- at most len(labels) rounds

Several codes may be disabled at once (``disable=RL001,AN003``).  The
``-- reason`` after the codes is part of the grammar: a comment without
a non-empty reason matches nothing, so the finding it sits on stands.
"""

from __future__ import annotations

import re
import tokenize
from dataclasses import dataclass
from io import StringIO

#: Matches one waiver comment: codes, then a mandatory ``-- reason``.
_SUPPRESSION = re.compile(
    r"#\s*reprolint:\s*disable=(?P<codes>[A-Za-z0-9, ]+?)\s*--\s*\S.*$"
)


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule or detector, and how to fix it.

    ``symbol`` is the qualified anchor of a whole-program finding (the
    function, attribute, or counter it is about); per-file rules leave
    it unset.
    """

    path: str
    line: int
    code: str
    message: str
    symbol: str | None = None

    def render(self) -> str:
        """The canonical one-line diagnostic: ``path:line: CODE message``."""
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """The waiver table of one file: line -> the codes disabled there.

    Tokenizes rather than regex-scanning raw lines so that ``#``
    characters inside string literals never read as comments.
    """
    disabled: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        comments = [
            token for token in tokens if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):  # unparseable tail
        comments = []
    for token in comments:
        match = _SUPPRESSION.search(token.string)
        if match is None:
            continue
        codes = frozenset(
            code.strip().upper()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        if codes:
            line = token.start[0]
            disabled[line] = disabled.get(line, frozenset()) | codes
    return disabled


def is_suppressed(
    suppressions: dict[int, frozenset[str]], line: int, code: str
) -> bool:
    """Whether ``code`` is disabled on physical line ``line``."""
    return code in suppressions.get(line, ())


__all__ = ["Violation", "is_suppressed", "parse_suppressions"]
