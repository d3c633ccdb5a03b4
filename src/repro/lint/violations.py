"""Violation records and ``# reprolint:`` waiver comments.

A violation pins one rule code to one physical line of one file.  One
comment grammar waives per-file rules (RL) and whole-program detectors
(AN) alike.  The suppression form is a trailing comment on the flagged
line (for an AN finding, its anchor line)::

    risky_call()  # reprolint: disable=RL002 -- seeded, ordering-free

Several codes may be disabled at once (``disable=RL001,AN003``) and
``disable=all`` silences every code for that line.  Everything after a
``--`` separator is a free-form justification; the project convention
(enforced by review, not by the tool) is that real-tree suppressions
always carry one.

AN002's per-loop waiver sits on a loop's header line or the line above
it, and its reason is mandatory (an empty one is itself a finding)::

    # reprolint: unbounded-ok(one pass over a checked alphabet)
"""

from __future__ import annotations

import re
import tokenize
from dataclasses import dataclass
from io import StringIO

#: Matches one suppression comment anywhere in a physical line's comment.
_SUPPRESSION = re.compile(
    r"#\s*reprolint:\s*disable=(?P<codes>[A-Za-z0-9, ]+?)(?:\s*--.*)?$"
)
#: AN002's loop waiver; the (possibly empty) reason is captured.
_UNBOUNDED = re.compile(r"#\s*reprolint:\s*unbounded-ok\((?P<reason>[^)]*)\)")


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


@dataclass(frozen=True)
class Suppressions:
    """The waiver comments of one file.

    ``disabled`` maps a line to its disabled codes (``"all"`` disables
    every code); ``unbounded`` maps a line to the reason text of its
    ``unbounded-ok(...)`` waiver.
    """

    disabled: dict[int, frozenset[str]]
    unbounded: dict[int, str]


def parse_suppressions(source: str) -> Suppressions:
    """Both waiver tables of one file, from a single tokenize pass.

    Tokenizes rather than regex-scanning raw lines so that ``#``
    characters inside string literals never read as comments.
    """
    disabled: dict[int, frozenset[str]] = {}
    unbounded: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        comments = [
            token for token in tokens if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError):  # unparseable tail
        comments = []
    for token in comments:
        line = token.start[0]
        match = _SUPPRESSION.search(token.string)
        if match is not None:
            codes = frozenset(
                code.strip().upper() if code.strip().lower() != "all" else "all"
                for code in match.group("codes").split(",")
                if code.strip()
            )
            if codes:
                disabled[line] = disabled.get(line, frozenset()) | codes
        match = _UNBOUNDED.search(token.string)
        if match is not None:
            unbounded[line] = match.group("reason").strip()
    return Suppressions(disabled=disabled, unbounded=unbounded)


def is_suppressed(suppressions: Suppressions, line: int, code: str) -> bool:
    """Whether ``code`` is disabled on physical line ``line``."""
    codes = suppressions.disabled.get(line)
    return codes is not None and (code in codes or "all" in codes)


__all__ = ["Suppressions", "Violation", "is_suppressed", "parse_suppressions"]
