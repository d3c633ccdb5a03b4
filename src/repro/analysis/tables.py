"""Minimal fixed-width table rendering for the example scripts.

The examples print paper-shaped tables (chain lengths, round counts,
dominating-set sizes); this helper keeps their formatting in one place
and dependency-free.
"""

from __future__ import annotations

from collections.abc import Sequence
from repro.robustness.errors import EngineMisuse


class Table:
    """A fixed-width text table with a title and typed cells."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: list[list[str]] = []

    def add_row(self, *cells: object) -> None:
        """Append a row; cells are formatted (floats to 2 decimals)."""
        if len(cells) != len(self.columns):
            raise EngineMisuse(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([_format(cell) for cell in cells])

    def render(self) -> str:
        """The table as aligned text."""
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title]
        header = "  ".join(
            column.ljust(widths[index]) for index, column in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
            )
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table, framed by blank lines."""
        print()  # reprolint: disable=RL007 -- explicit console renderer for the experiment scripts
        print(self.render())  # reprolint: disable=RL007 -- explicit console renderer for the experiment scripts
        print()  # reprolint: disable=RL007 -- explicit console renderer for the experiment scripts


def _format(cell: object) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
