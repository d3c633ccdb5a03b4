"""AN004 fixture: one dead counter, one single-engine semantic counter."""

from __future__ import annotations

SEMANTIC_COUNTERS = (
    "labels.in",
    "node.configs.out",
)

TIMING_COUNTERS = (
    "cache.hit",
    "cache.ghost",
    "cache.legacy",  # reprolint: disable=AN004 -- retired in schema v2, kept for replay decoding
)
