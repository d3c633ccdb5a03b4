"""AN004 fixture: the kernel engine's emission sites.

``node.configs.out`` is the seeded violation — a *semantic* counter the
reference engine never emits, so the drift gate can't compare engines.
"""

from __future__ import annotations


def kernel_pass(span: object, configs: int) -> int:
    span.add("labels.in")
    span.add("node.configs.out")
    span.add("cache.hit")
    return configs
