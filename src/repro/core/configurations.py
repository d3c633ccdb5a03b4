"""Configurations: words over a label alphabet, and condensed forms.

A *configuration* is a word over the alphabet whose order does not
matter (paper, Section 2.2); we therefore represent it canonically as a
sorted tuple (a multiset).  Node configurations have length Delta, edge
configurations length 2.

A *condensed configuration* uses disjunctions ``[AB]`` and exponents to
describe a collection of configurations compactly, exactly as the paper
writes them (e.g. ``M[PO]`` denotes both ``MP`` and ``MO``, and
``A^a X^(Delta-a)`` is written here with concrete exponents).  The
parser accepts the syntax used throughout the paper:

* single-character labels: ``M``;
* multi-character labels in parentheses: ``(MX)``;
* disjunctions in brackets: ``[PO]``, ``[M(MX)]``;
* exponents after any atom: ``O^3``, ``[PO]^2``;
* whitespace between atoms is optional.
"""

from __future__ import annotations

import bisect
import itertools
from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from typing import TypeVar

from repro.core.labels import render_label, render_label_set
from repro.robustness import budget as _budget
from repro.robustness.errors import InvalidProblem

LeftT = TypeVar("LeftT")
RightT = TypeVar("RightT")


def render_map(groups: Iterable[Iterable[Hashable]]) -> dict[Hashable, str]:
    """``render_label`` of every label in ``groups``, computed once.

    Canonical order is the stable sort by ``render_label``; sorting by
    lookups in this map gives the same order without re-rendering nested
    labels on every comparison.  Build one per call, keyed by that
    call's own labels: a process-wide memo would be keyed by equality,
    and equal labels can render differently (``1`` and ``True``).
    A label occurring many times is rendered at its first occurrence.
    """
    order: dict[Hashable, str] = {}
    for label in itertools.chain.from_iterable(groups):
        if label not in order:
            order[label] = render_label(label)
    return order


def insert_canonical(
    items: tuple[Hashable, ...], label: Hashable, order: dict[Hashable, str]
) -> tuple[Hashable, ...]:
    """Add ``label`` to the canonically ordered ``items``.

    Equals ``tuple(sorted(items + (label,), key=render_label))``:
    ``order`` (a :func:`render_map`) covers every label involved, and
    the stable sort places ``label`` after each item rendering equal to
    it, which is exactly ``bisect_right``.
    """
    index = bisect.bisect_right(items, order[label], key=order.__getitem__)
    return items[:index] + (label,) + items[index:]


class Configuration:
    """A multiset of labels of fixed arity, stored canonically.

    Two configurations compare equal iff they contain the same labels
    with the same multiplicities, regardless of construction order.
    """

    __slots__ = ("_items",)

    def __init__(self, labels: Iterable[Hashable]) -> None:
        self._items: tuple[Hashable, ...] = tuple(sorted(labels, key=render_label))
        if not self._items:
            raise InvalidProblem("a configuration must contain at least one label")

    @classmethod
    def _presorted(cls, items: tuple[Hashable, ...]) -> "Configuration":
        """Trusted constructor: ``items`` is non-empty and already in
        canonical (``render_label``, stable) order."""
        configuration = cls.__new__(cls)
        configuration._items = items
        return configuration

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._items

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return f"Configuration({self.render()})"

    def __lt__(self, other: "Configuration") -> bool:
        return self._items < other._items

    @property
    def items(self) -> tuple[Hashable, ...]:
        """The labels in canonical (sorted) order."""
        return self._items

    @property
    def arity(self) -> int:
        """Number of labels in the configuration (with multiplicity)."""
        return len(self._items)

    def counts(self) -> Counter:
        """Multiplicity of each label."""
        return Counter(self._items)

    def support(self) -> frozenset:
        """The set of distinct labels appearing in the configuration."""
        return frozenset(self._items)

    def count(self, label: Hashable) -> int:
        """Multiplicity of ``label`` in the configuration."""
        return self._items.count(label)

    def replace_one(self, old: Hashable, new: Hashable) -> "Configuration":
        """Replace one occurrence of ``old`` by ``new``.

        This is the operation underlying the label-strength relation of
        Section 2.3 ("replacing one occurrence of B in C by A").
        """
        items = list(self._items)
        items.remove(old)  # raises ValueError if absent, which is intended
        items.append(new)
        return Configuration(items)

    def replace_all(self, mapping: dict) -> "Configuration":
        """Apply a label renaming to every position."""
        return Configuration(mapping.get(label, label) for label in self._items)

    def with_counts(self, adjustments: dict) -> "Configuration":
        """Return a configuration with label multiplicities adjusted.

        ``adjustments`` maps labels to signed deltas; the result must
        remain a valid multiset (non-negative multiplicities, same
        arity is *not* required).
        """
        counts = self.counts()
        for label, delta in adjustments.items():
            counts[label] += delta
            if counts[label] < 0:
                raise InvalidProblem(f"multiplicity of {label!r} would become negative")
        return Configuration(counts.elements())

    def render(self) -> str:
        """Human-readable form with exponents, e.g. ``M^3 X``.

        One pass over the canonically ordered items: a label's first
        occurrence fixes its place, and each distinct label is rendered
        once.
        """
        counts: dict[Hashable, int] = {}
        for label in self._items:
            counts[label] = counts.get(label, 0) + 1
        parts = []
        for label, multiplicity in counts.items():
            text = render_label(label)
            parts.append(text if multiplicity == 1 else f"{text}^{multiplicity}")
        return " ".join(parts)


class Disjunction:
    """A choice between labels, rendered ``[AB]`` (paper, Section 2.2)."""

    __slots__ = ("_labels",)

    def __init__(self, labels: Iterable[Hashable]) -> None:
        self._labels = frozenset(labels)
        if not self._labels:
            raise InvalidProblem("a disjunction must offer at least one label")

    def __iter__(self) -> Iterator[Hashable]:
        return iter(sorted(self._labels, key=render_label))

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._labels

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Disjunction):
            return NotImplemented
        return self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        return f"Disjunction({self.render()})"

    @property
    def labels(self) -> frozenset:
        """The alternatives offered by this disjunction."""
        return self._labels

    def render(self) -> str:
        """``[AB]`` for a genuine choice, bare label otherwise."""
        if len(self._labels) == 1:
            (label,) = self._labels
            return render_label(label)
        return render_label_set(self._labels)


class CondensedConfiguration:
    """A configuration template with disjunctions and exponents.

    Stored as a multiset of disjunctions; :meth:`expand` yields every
    concrete :class:`Configuration` obtainable by picking one label per
    disjunction (deduplicated as multisets), matching the paper's
    notion of configurations *contained in* a condensed configuration.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[tuple[Disjunction, int]]) -> None:
        normalized: Counter = Counter()
        for disjunction, exponent in parts:
            if exponent < 0:
                raise InvalidProblem("exponents must be non-negative")
            if exponent:
                normalized[disjunction] += exponent
        if not normalized:
            raise InvalidProblem("a condensed configuration must be non-empty")
        self._parts: tuple[tuple[Disjunction, int], ...] = tuple(
            sorted(normalized.items(), key=lambda item: item[0].render())
        )

    @classmethod
    def from_groups(cls, *groups: tuple[Iterable[Hashable], int]) -> "CondensedConfiguration":
        """Build from ``(labels, exponent)`` pairs.

        Example: ``CondensedConfiguration.from_groups((("M",), 3), (("P", "O"), 1))``
        is the paper's ``M^3 [PO]``.
        """
        return cls((Disjunction(labels), exponent) for labels, exponent in groups)

    @classmethod
    def of(cls, configuration: Configuration) -> "CondensedConfiguration":
        """The line denoting exactly ``configuration``: one single-label
        group per distinct label, with its multiplicity as exponent."""
        return cls(
            (Disjunction([label]), multiplicity)
            for label, multiplicity in configuration.counts().items()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CondensedConfiguration):
            return NotImplemented
        return self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"CondensedConfiguration({self.render()})"

    @property
    def parts(self) -> tuple[tuple[Disjunction, int], ...]:
        """The ``(disjunction, exponent)`` pairs in canonical order."""
        return self._parts

    @property
    def arity(self) -> int:
        """Length of every configuration this condensed form denotes."""
        return sum(exponent for _, exponent in self._parts)

    def expand(self) -> set[Configuration]:
        """All concrete configurations contained in this condensed form.

        Enumerates *multisets* per disjunction group (not the raw label
        product, which blows up combinatorially for repeated groups):
        a group ``[ABPQ]^9`` contributes C(12, 3) = 220 multisets, not
        4^9 tuples.
        """
        order = render_map(disjunction.labels for disjunction, _ in self._parts)
        group_options: list[list[tuple]] = []
        for disjunction, exponent in self._parts:
            members = sorted(disjunction.labels, key=order.__getitem__)
            group_options.append(
                list(itertools.combinations_with_replacement(members, exponent))
            )
        results: set[Configuration] = set()
        checked = 0
        for combo in itertools.product(*group_options):
            # Stride the probe: one-line expansions stay silent, a
            # runaway product is caught within 64 configurations.
            if len(results) - checked >= 64:
                checked = len(results)
                _budget.check_configurations(
                    len(results), phase="condensed-expansion"
                )
            labels: list = []
            for part in combo:
                labels.extend(part)
            labels.sort(key=order.__getitem__)
            results.add(Configuration._presorted(tuple(labels)))
        return results

    def rename(self, mapping: dict) -> "CondensedConfiguration":
        """Apply a label renaming to every disjunction.

        A group's image is the set of its renamed labels, which is exact
        even for a non-injective ``mapping``: picking labels from a group
        and renaming them gives every multiset the image group offers,
        and groups whose images coincide merge their exponents.
        """
        return CondensedConfiguration(
            (Disjunction(mapping.get(label, label) for label in disjunction.labels), exponent)
            for disjunction, exponent in self._parts
        )

    def contains(self, configuration: Configuration) -> bool:
        """Whether ``configuration`` is contained in this condensed form.

        Uses a matching argument instead of expansion so that wide
        disjunctions stay cheap.
        """
        if configuration.arity != self.arity:
            return False
        slots = [
            disjunction for disjunction, exponent in self._parts for _ in range(exponent)
        ]
        matched = saturating_matching(
            configuration.items, slots, lambda label, slot: label in slot
        )
        return matched is not None

    def render(self) -> str:
        """Paper-style rendering, e.g. ``[MX]^2 [PO]``."""
        parts = []
        for disjunction, exponent in self._parts:
            text = disjunction.render()
            parts.append(text if exponent == 1 else f"{text}^{exponent}")
        return " ".join(parts)


def saturating_matching(
    left: Sequence[LeftT],
    right: Sequence[RightT],
    admits: Callable[[LeftT, RightT], bool],
) -> list[int] | None:
    """Match every ``left`` item to its own ``right`` item, or ``None``.

    Kuhn's augmenting paths over the bipartite graph whose edges are
    the pairs with ``admits(left_item, right_item)``.  Returns ``rho``
    with ``left[i]`` matched to ``right[rho[i]]``.  Right items may stay
    unmatched: a caller that needs a perfect matching checks
    ``len(left) == len(right)`` itself.
    """
    owner: dict[int, int] = {}  # right index -> left index

    def augment(left_index: int, visited: set[int]) -> bool:
        for right_index, right_item in enumerate(right):
            if right_index in visited or not admits(left[left_index], right_item):
                continue
            visited.add(right_index)
            if right_index not in owner or augment(owner[right_index], visited):
                owner[right_index] = left_index
                return True
        return False

    for left_index in range(len(left)):
        if not augment(left_index, set()):
            return None
    rho = [0] * len(left)
    for right_index, left_index in owner.items():
        rho[left_index] = right_index
    return rho


def parse_condensed(text: str) -> CondensedConfiguration:
    """Parse the paper's condensed-configuration syntax.

    See the module docstring for the grammar.  Raises ``ValueError`` on
    malformed input.
    """
    parts: list[tuple[Disjunction, int]] = []
    position = 0
    length = len(text)

    def skip_spaces() -> None:
        nonlocal position
        while position < length and text[position].isspace():
            position += 1

    def parse_label() -> str:
        nonlocal position
        if text[position] == "(":
            end = text.find(")", position)
            if end < 0:
                raise InvalidProblem(f"unclosed '(' at offset {position} in {text!r}")
            label = text[position + 1 : end]
            if not label:
                raise InvalidProblem(f"empty label at offset {position} in {text!r}")
            position = end + 1
            return label
        label = text[position]
        position += 1
        return label

    while True:  # reprolint: disable=AN002 -- single left-to-right scan of one constraint line
        skip_spaces()
        if position >= length:
            break
        character = text[position]
        if character == "[":
            position += 1
            members: list[str] = []
            while True:  # reprolint: disable=AN002 -- consumes at least one character per iteration
                skip_spaces()
                if position >= length:
                    raise InvalidProblem(f"unclosed '[' in {text!r}")
                if text[position] == "]":
                    position += 1
                    break
                members.append(parse_label())
            if not members:
                raise InvalidProblem(f"empty disjunction in {text!r}")
            disjunction = Disjunction(members)
        elif character in ")]^":
            raise InvalidProblem(f"unexpected {character!r} at offset {position} in {text!r}")
        else:
            disjunction = Disjunction([parse_label()])
        exponent = 1
        skip_spaces()
        if position < length and text[position] == "^":
            position += 1
            skip_spaces()
            start = position
            while position < length and text[position].isdigit():
                position += 1
            if start == position:
                raise InvalidProblem(f"missing exponent at offset {position} in {text!r}")
            exponent = int(text[start:position])
        parts.append((disjunction, exponent))
    if not parts:
        raise InvalidProblem("empty configuration string")
    return CondensedConfiguration(parts)
