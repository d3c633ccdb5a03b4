"""Node and edge constraints: collections of configurations.

A constraint is a finite set of :class:`~repro.core.configurations.Configuration`
objects that all share one arity (Delta for node constraints, 2 for edge
constraints).  Constraints can be built from the paper's condensed
syntax, queried for containment, restricted, renamed, and rendered back
in a compact condensed-ish form.
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


class Constraint:
    """An arity-homogeneous set of configurations."""

    __slots__ = ("_configurations", "_arity")

    def __init__(self, configurations: Iterable[Configuration]) -> None:
        self._configurations: frozenset[Configuration] = frozenset(configurations)
        if not self._configurations:
            raise InvalidProblem("a constraint must allow at least one configuration")
        arities = {configuration.arity for configuration in self._configurations}
        if len(arities) != 1:
            raise InvalidProblem(f"mixed arities in constraint: {sorted(arities)}")
        (self._arity,) = arities

    @classmethod
    def from_condensed(
        cls, condensed: Iterable[CondensedConfiguration | str]
    ) -> "Constraint":
        """Build a constraint from condensed configurations or strings.

        Example::

            Constraint.from_condensed(["M^3", "P O^2"])   # MIS with Delta=3
        """
        configurations: set[Configuration] = set()
        for item in condensed:
            if isinstance(item, str):
                item = parse_condensed(item)
            configurations |= item.expand()
        return cls(configurations)

    def __iter__(self) -> Iterator[Configuration]:
        return iter(sorted(self._configurations, key=lambda c: c.render()))

    def __len__(self) -> int:
        return len(self._configurations)

    def __contains__(self, configuration: Configuration) -> bool:
        return configuration in self._configurations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Constraint):
            return NotImplemented
        return self._configurations == other._configurations

    def __hash__(self) -> int:
        return hash(self._configurations)

    def __repr__(self) -> str:
        body = "; ".join(configuration.render() for configuration in self)
        return f"Constraint(arity={self._arity}: {body})"

    @property
    def arity(self) -> int:
        """Common arity of all configurations."""
        return self._arity

    @property
    def configurations(self) -> frozenset[Configuration]:
        """The allowed configurations."""
        return self._configurations

    def labels_used(self) -> frozenset:
        """All labels appearing in at least one configuration."""
        used: set[Hashable] = set()
        for configuration in self._configurations:
            used |= configuration.support()
        return frozenset(used)

    def allows(self, labels: Iterable[Hashable]) -> bool:
        """Whether the multiset of ``labels`` forms an allowed configuration."""
        return Configuration(labels) in self._configurations

    def configurations_containing(self, label: Hashable) -> frozenset[Configuration]:
        """The allowed configurations in which ``label`` occurs."""
        return frozenset(
            configuration
            for configuration in self._configurations
            if label in configuration
        )

    def restrict_to(self, labels: Iterable[Hashable]) -> "Constraint":
        """Keep only configurations whose labels all lie in ``labels``."""
        allowed = frozenset(labels)
        kept = [
            configuration
            for configuration in self._configurations
            if configuration.support() <= allowed
        ]
        return Constraint(kept)

    def rename(self, mapping: dict) -> "Constraint":
        """Apply a label renaming to every configuration.

        Equals ``configuration.replace_all(mapping)`` per configuration,
        with each renamed label rendered once per call instead of on
        every sort.
        """
        renamed = [
            [mapping.get(label, label) for label in configuration.items]
            for configuration in self._configurations
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
        return Constraint(self._configurations | other._configurations)

    def is_subset_of(self, other: "Constraint") -> bool:
        """Whether every configuration allowed here is allowed in ``other``."""
        return self._configurations <= other._configurations

    def render(self) -> str:
        """One configuration per line, in canonical order."""
        return "\n".join(configuration.render() for configuration in self)
