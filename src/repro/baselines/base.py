"""Shared infrastructure for NPN classifiers: result type, base class, registry."""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass, field

from repro.core.truth_table import TruthTable

__all__ = ["GroupingResult", "KeyedClassifier", "register_classifier", "get_classifier"]


@dataclass
class GroupingResult:
    """Functions grouped into (claimed) NPN classes by some method."""

    method: str
    groups: dict[Hashable, list[TruthTable]] = field(default_factory=dict)

    @property
    def num_classes(self) -> int:
        return len(self.groups)

    @property
    def num_functions(self) -> int:
        return sum(len(members) for members in self.groups.values())

    def representatives(self) -> list[TruthTable]:
        return [members[0] for members in self.groups.values()]

    def class_sizes(self) -> list[int]:
        return sorted((len(m) for m in self.groups.values()), reverse=True)

    def add(self, key: Hashable, tt: TruthTable) -> None:
        self.groups.setdefault(key, []).append(tt)


class KeyedClassifier:
    """Base class for classifiers that map each function to a hashable key.

    Subclasses implement :meth:`key`; two functions land in the same class
    iff their keys are equal.  Canonical-form methods return ``(n, bits)``
    of the canonical truth table, so equal bits of different arities
    (n=3 ``0x80`` and n=4 ``0x0080``) stay apart.
    """

    #: short identifier used by benches and the CLI
    name = "keyed"

    def key(self, tt: TruthTable) -> Hashable:
        raise NotImplementedError

    def classify(self, tables: Iterable[TruthTable]) -> GroupingResult:
        result = GroupingResult(self.name)
        for tt in tables:
            result.add(self.key(tt), tt)
        return result

    def count_classes(self, tables: Iterable[TruthTable]) -> int:
        return len({self.key(tt) for tt in tables})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


_REGISTRY: dict[str, type] = {}


def register_classifier(cls: type) -> type:
    """Class decorator registering a classifier under its ``name``."""
    _REGISTRY[cls.name] = cls
    return cls


def get_classifier(name: str, **kwargs):
    """Instantiate a registered classifier by name (for CLI and benches)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown classifier {name!r}; known: {known}") from None
    return cls(**kwargs)


def registered_classifiers() -> tuple[str, ...]:
    """Names of all registered classifiers."""
    return tuple(sorted(_REGISTRY))
