"""The one name → definition registry behind every definition registry.

Workloads, slack policies, fault schedules and experiments are all looked up
by name from a process-wide registry that remembers registration order and
answers an unknown name with a :class:`KeyError` listing the known ones.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Generic, Iterator, List, TypeVar

T = TypeVar("T")


class Registry(Generic[T]):
    """Maps names to definitions (objects with a ``name``), in registration order.

    Args:
        noun: What one definition is called in the unknown-name error
            (``"workload"`` → ``unknown workload 'x'; known: ...``).
        hint: Optional trailer for that error, e.g. where to list the names.
    """

    def __init__(self, noun: str, hint: str = "") -> None:
        self.noun = noun
        self.hint = hint
        self._definitions: Dict[str, T] = {}

    def register(self, definition: T) -> T:
        """Add (or replace) a definition; returns it for chaining."""
        self._definitions[definition.name] = definition
        return definition

    def get(self, name: str) -> T:
        """The definition for ``name`` (KeyError listing known names if absent)."""
        try:
            return self._definitions[name]
        except KeyError:
            known = ", ".join(sorted(self._definitions))
            trailer = f" {self.hint}" if self.hint else ""
            raise KeyError(
                f"unknown {self.noun} {name!r}; known: {known}{trailer}"
            ) from None

    def names(self) -> List[str]:
        """All registered names, in registration order."""
        return list(self._definitions)

    def __contains__(self, name: str) -> bool:
        return name in self._definitions

    def __len__(self) -> int:
        return len(self._definitions)

    def __iter__(self) -> Iterator[T]:
        return iter(self._definitions.values())


def spec_dict(definition) -> dict:
    """``kind`` plus every dataclass field of ``definition``, tuples as lists.

    The JSON form of a fault or a workload perturbation, written into cache
    keys and schedule headers and never parsed back.  It names every field,
    so two definitions that differ anywhere never share a key.
    """
    payload: Dict[str, object] = {"kind": definition.kind}
    for spec in fields(definition):
        value = getattr(definition, spec.name)
        payload[spec.name] = list(value) if isinstance(value, tuple) else value
    return payload
