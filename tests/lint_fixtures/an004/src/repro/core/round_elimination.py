"""AN004 fixture: the reference engine's emission sites."""

from __future__ import annotations


def eliminate(span: object, labels: int) -> int:
    span.add("labels.in")
    return labels
