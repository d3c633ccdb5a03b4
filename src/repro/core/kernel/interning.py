"""Label interning: dense integer ids per problem.

The reference engine manipulates hashable labels directly — strings at
the bottom of a speedup chain, ``frozenset``-of-``frozenset`` towers
after a few steps — and pays hashing plus ``render_label`` sorting on
every operation.  The kernel instead assigns each label of a problem a
dense id in ``range(n)`` once, in the deterministic order of
``render_label``, and works with ids and bitmasks from then on.  The
interner is the single place where the two worlds meet: everything the
kernel returns is converted back through it, so kernel results are
bit-for-bit the same :class:`~repro.core.problem.Problem` objects the
reference engine produces.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.core.kernel.bitops import iter_bits
from repro.core.labels import render_label
from repro.robustness.errors import InvalidProblem


class LabelInterner:
    """A bijection between an alphabet and ``range(n)``.

    Ids are assigned in ``render_label`` order, so two interners built
    from the same label set are identical — this is what makes kernel
    output (and the golden files derived from it) deterministic.
    """

    __slots__ = ("_labels", "_ids")

    def __init__(self, labels: Iterable[Hashable]) -> None:
        ordered = sorted(set(labels), key=render_label)
        self._labels: tuple[Hashable, ...] = tuple(ordered)
        self._ids: dict[Hashable, int] = {
            label: index for index, label in enumerate(ordered)
        }

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._ids

    @property
    def labels(self) -> tuple[Hashable, ...]:
        """All interned labels, in id order."""
        return self._labels

    def id_of(self, label: Hashable) -> int:
        """The dense id of ``label``; raises on unknown labels."""
        try:
            return self._ids[label]
        except KeyError:
            raise InvalidProblem(
                f"label {render_label(label)} is not interned",
                label=render_label(label),
                alphabet_size=len(self._labels),
            ) from None

    def label_of(self, index: int) -> Hashable:
        """The label with id ``index``."""
        return self._labels[index]

    def ids_of(self, labels: Iterable[Hashable]) -> tuple[int, ...]:
        """Ids of a label multiset, as a canonical sorted tuple."""
        return tuple(sorted(self.id_of(label) for label in labels))

    def mask_of(self, labels: Iterable[Hashable]) -> int:
        """The bitmask of a label set."""
        mask = 0
        for label in labels:
            mask |= 1 << self.id_of(label)
        return mask

    def labels_of_mask(self, mask: int) -> frozenset:
        """The label set denoted by ``mask``."""
        return frozenset(self._labels[index] for index in iter_bits(mask))


class _RetiredRegistry:
    """The stateless stand-in returned by :func:`transport_registry`."""

    __slots__ = ()

    def clear(self) -> None:
        """Do nothing: there is no recorded state to drop."""


def transport_registry() -> _RetiredRegistry:
    """A no-op handle whose ``clear()`` does nothing.

    The kernel keeps no process-global cache: :meth:`KernelProblem.of
    <repro.core.kernel.engine.KernelProblem.of>` memoizes on the problem
    instance only, and reuse across isomorphic problems lives in the
    operator cache (:mod:`repro.core.cache`).  The handle remains
    because the benchmark's ``mis-chain-cold`` workload
    (``perfbench/workloads.py``) clears it before every operation.
    """
    return _RetiredRegistry()


__all__ = ["LabelInterner", "transport_registry"]
