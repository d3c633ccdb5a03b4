"""The scenario spec format: a deliberately tiny YAML subset.

A spec is a flat document of ``key: value`` lines with exactly two
nested sections (``params`` and ``chain``), two-space indentation, and
scalars limited to integers, booleans, and bare strings.  Comments
(``#`` lines) and blank lines are accepted on input and never emitted,
so the canonical renderer :func:`render_spec` is a byte-identical
round-trip for files written in canonical form — which all committed
``scenarios/*.scn`` files are, and a seeded property test enforces.

Example::

    name: maximal-matching2-selfreduce
    family: maximal_matching
    params:
      delta: 2
    chain:
      operator: self-reduce
      steps: 2
      expect: bounded
      certified: 3
    policy: pn
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.self_reduction import CHAIN_STEPS
from repro.core.solvability import POLICIES
from repro.robustness.errors import InvalidScenario

#: Chain operators a spec may name: the problem chains of
#: :data:`repro.core.self_reduction.CHAIN_STEPS`, then Lemma 13's.
OPERATORS = (*CHAIN_STEPS, "lemma13")

#: Expected chain shapes.
EXPECTATIONS = ("bounded", "fixed-point")


@dataclass(frozen=True)
class ScenarioSpec:
    """One resolved scenario spec."""

    name: str
    family: str
    params: dict[str, int]
    operator: str                  #: one of :data:`OPERATORS`
    steps: int                     #: chain steps to run
    expect: str                    #: one of :data:`EXPECTATIONS`
    certified: int                 #: exact certified round count
    policy: str                    #: one of :data:`POLICIES`


def _parse_scalar(value: str, line_number: int, source: str) -> int | bool | str:
    if value in ("true", "false"):
        return value == "true"
    try:
        return int(value)
    except ValueError:
        pass
    if not value:
        raise InvalidScenario(
            "empty scalar value", source=source, line=line_number
        )
    return value


def parse_spec(text: str, source: str = "<string>") -> ScenarioSpec:
    """Parse a spec document; raises :class:`InvalidScenario` on any flaw."""
    top: dict[str, object] = {}
    section: dict[str, object] | None = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise InvalidScenario(
                f"expected 'key: value', got {stripped!r}",
                source=source,
                line=line_number,
            )
        key, _, value = stripped.partition(":")
        key = key.strip()
        value = value.strip()
        if raw.startswith("  "):
            if section is None:
                raise InvalidScenario(
                    f"indented line {key!r} outside a section",
                    source=source,
                    line=line_number,
                )
            if key in section:
                raise InvalidScenario(
                    f"duplicate key {key!r}", source=source, line=line_number
                )
            section[key] = _parse_scalar(value, line_number, source)
        else:
            if key in top:
                raise InvalidScenario(
                    f"duplicate key {key!r}", source=source, line=line_number
                )
            if value:
                top[key] = _parse_scalar(value, line_number, source)
                section = None
            else:
                nested: dict[str, object] = {}
                top[key] = nested
                section = nested
    return _resolve(top, source)


def _require(
    mapping: dict[str, Any], key: str, kind: type, source: str
) -> Any:
    if key not in mapping:
        raise InvalidScenario(f"missing key {key!r}", source=source)
    value = mapping[key]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise InvalidScenario(
            f"key {key!r} must be {kind.__name__}, got {value!r}",
            source=source,
        )
    return value


def _resolve(top: dict[str, object], source: str) -> ScenarioSpec:
    known = {"name", "family", "params", "chain", "policy"}
    unknown = sorted(set(top) - known)
    if unknown:
        raise InvalidScenario(
            f"unknown top-level keys: {unknown}", source=source
        )
    name = _require(top, "name", str, source)
    family = _require(top, "family", str, source)
    params_raw = _require(top, "params", dict, source)
    chain = _require(top, "chain", dict, source)
    policy = _require(top, "policy", str, source)
    params: dict[str, int] = {}
    for key in sorted(params_raw):
        value = params_raw[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidScenario(
                f"param {key!r} must be an integer, got {value!r}",
                source=source,
            )
        params[key] = value
    unknown_chain = sorted(
        set(chain) - {"operator", "steps", "expect", "certified"}
    )
    if unknown_chain:
        raise InvalidScenario(
            f"unknown chain keys: {unknown_chain}", source=source
        )
    operator = _require(chain, "operator", str, source)
    steps = _require(chain, "steps", int, source)
    expect = _require(chain, "expect", str, source)
    certified = _require(chain, "certified", int, source)
    if operator not in OPERATORS:
        raise InvalidScenario(
            f"unknown operator {operator!r} (known: {', '.join(OPERATORS)})",
            source=source,
        )
    if expect not in EXPECTATIONS:
        raise InvalidScenario(
            f"unknown expectation {expect!r} "
            f"(known: {', '.join(EXPECTATIONS)})",
            source=source,
        )
    if policy not in POLICIES:
        raise InvalidScenario(
            f"unknown policy {policy!r} (known: {', '.join(POLICIES)})",
            source=source,
        )
    if steps < 0 or certified < 0:
        raise InvalidScenario(
            "steps and certified must be non-negative",
            source=source,
            steps=steps,
            certified=certified,
        )
    if operator == "lemma13" and expect == "fixed-point":
        raise InvalidScenario(
            "the lemma13 chain is finite by construction and cannot "
            "expect a fixed point",
            source=source,
        )
    return ScenarioSpec(
        name=str(name),
        family=str(family),
        params=params,
        operator=str(operator),
        steps=int(steps),
        expect=str(expect),
        certified=int(certified),
        policy=str(policy),
    )


def render_spec(spec: ScenarioSpec) -> str:
    """The canonical serialization (the byte-identical round-trip form)."""
    lines = [
        f"name: {spec.name}",
        f"family: {spec.family}",
        "params:",
    ]
    lines.extend(f"  {key}: {spec.params[key]}" for key in sorted(spec.params))
    lines.extend(
        [
            "chain:",
            f"  operator: {spec.operator}",
            f"  steps: {spec.steps}",
            f"  expect: {spec.expect}",
            f"  certified: {spec.certified}",
            f"policy: {spec.policy}",
        ]
    )
    return "\n".join(lines) + "\n"


__all__ = [
    "OPERATORS",
    "EXPECTATIONS",
    "POLICIES",
    "ScenarioSpec",
    "parse_spec",
    "render_spec",
]
