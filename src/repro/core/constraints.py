"""Node and edge constraints: collections of configurations.

A constraint is a finite set of :class:`~repro.core.configurations.Configuration`
objects that all share one arity (Delta for node constraints, 2 for edge
constraints).  Constraints can be built from the paper's condensed
syntax, queried for containment, restricted, renamed, and rendered back
in a compact condensed-ish form.

A constraint built from condensed lines keeps them (:attr:`Constraint.lines`)
and expands its configurations only on first use by something that
needs them: iteration, ``len``, ``in``, hashing, rendering, or
:attr:`Constraint.configurations` itself.  Renaming maps the lines, and
two constraints with equal line sets compare equal without expanding.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

from repro.core.configurations import (
    CondensedConfiguration,
    Configuration,
    parse_condensed,
    render_map,
)
from repro.robustness.errors import InvalidProblem


def _arity_of(arities: set[int]) -> int:
    if not arities:
        raise InvalidProblem("a constraint must allow at least one configuration")
    if len(arities) != 1:
        raise InvalidProblem(f"mixed arities in constraint: {sorted(arities)}")
    (arity,) = arities
    return arity


class Constraint:
    """An arity-homogeneous set of configurations."""

    __slots__ = ("_configurations", "_lines", "_arity")

    def __init__(self, configurations: Iterable[Configuration]) -> None:
        expanded = frozenset(configurations)
        self._configurations: frozenset[Configuration] | None = expanded
        self._lines: frozenset[CondensedConfiguration] | None = None
        self._arity = _arity_of({configuration.arity for configuration in expanded})

    @classmethod
    def from_condensed(
        cls, condensed: Iterable[CondensedConfiguration | str]
    ) -> "Constraint":
        """Build a constraint from condensed configurations or strings.

        The lines are kept and expanded on first use.  Example::

            Constraint.from_condensed(["M^3", "P O^2"])   # MIS with Delta=3
        """
        lines = frozenset(
            parse_condensed(item) if isinstance(item, str) else item
            for item in condensed
        )
        constraint = cls.__new__(cls)
        constraint._configurations = None
        constraint._lines = lines
        constraint._arity = _arity_of({line.arity for line in lines})
        return constraint

    def __iter__(self) -> Iterator[Configuration]:
        return iter(sorted(self.configurations, key=lambda c: c.render()))

    def __len__(self) -> int:
        return len(self.configurations)

    def __contains__(self, configuration: Configuration) -> bool:
        return configuration in self.configurations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        if self._arity != other._arity:
            return False
        if self._lines is not None and self._lines == other._lines:
            return True
        return self.configurations == other.configurations

    def __hash__(self) -> int:
        return hash(self.configurations)

    def __repr__(self) -> str:
        body = "; ".join(configuration.render() for configuration in self)
        return f"Constraint(arity={self._arity}: {body})"

    @property
    def arity(self) -> int:
        """Common arity of all configurations."""
        return self._arity

    @property
    def lines(self) -> frozenset[CondensedConfiguration] | None:
        """The condensed lines this constraint denotes, or ``None`` when
        it was built from configurations."""
        return self._lines

    @property
    def configurations(self) -> frozenset[Configuration]:
        """The allowed configurations (expanded from the lines on first use)."""
        if self._configurations is None:
            expanded: set[Configuration] = set()
            for line in self._lines or ():
                expanded |= line.expand()
            self._configurations = frozenset(expanded)
        return self._configurations

    def labels_used(self) -> frozenset:
        """All labels appearing in at least one configuration.

        Read from the lines when there are any: every label of a group
        occurs in some configuration the line denotes.
        """
        used: set[Hashable] = set()
        if self._lines is not None:
            for line in self._lines:
                for disjunction, _ in line.parts:
                    used |= disjunction.labels
            return frozenset(used)
        for configuration in self.configurations:
            used |= configuration.support()
        return frozenset(used)

    def allows(self, labels: Iterable[Hashable]) -> bool:
        """Whether the multiset of ``labels`` forms an allowed configuration."""
        return Configuration(labels) in self.configurations

    def configurations_containing(self, label: Hashable) -> frozenset[Configuration]:
        """The allowed configurations in which ``label`` occurs."""
        return frozenset(
            configuration
            for configuration in self.configurations
            if label in configuration
        )

    def restrict_to(self, labels: Iterable[Hashable]) -> "Constraint":
        """Keep only configurations whose labels all lie in ``labels``."""
        allowed = frozenset(labels)
        kept = [
            configuration
            for configuration in self.configurations
            if configuration.support() <= allowed
        ]
        return Constraint(kept)

    def rename(self, mapping: dict) -> "Constraint":
        """Apply a label renaming to every configuration.

        A constraint with lines renames its lines
        (:meth:`CondensedConfiguration.rename`, exact for any mapping).
        Otherwise this equals ``configuration.replace_all(mapping)`` per
        configuration, with each renamed label rendered once per call
        instead of on every sort.
        """
        if self._lines is not None:
            return Constraint.from_condensed(line.rename(mapping) for line in self._lines)
        renamed = [
            [mapping.get(label, label) for label in configuration.items]
            for configuration in self.configurations
        ]
        order = render_map(renamed)
        return Constraint(
            Configuration._presorted(tuple(sorted(labels, key=order.__getitem__)))
            for labels in renamed
        )

    def union(self, other: "Constraint") -> "Constraint":
        """Constraint allowing the configurations of either operand."""
        if other.arity != self._arity:
            raise InvalidProblem("cannot union constraints of different arities")
        return Constraint(self.configurations | other.configurations)

    def is_subset_of(self, other: "Constraint") -> bool:
        """Whether every configuration allowed here is allowed in ``other``."""
        return self.configurations <= other.configurations

    def render(self) -> str:
        """One configuration per line, in canonical order."""
        return "\n".join(sorted(c.render() for c in self.configurations))
