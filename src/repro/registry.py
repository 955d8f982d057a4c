"""One registry class for every plugin kind.

Each swappable part of a run — the algorithm, the dataset, the partition
strategy, the participation sampler, the fleet shape, the round policy,
the update codec and the dataset's model — is one :class:`Registry`
instance, keyed by the name a config or CLI flag selects it with.  So is
each fixed name table: the execution backends, the scale presets, the
sweep executors and the device profiles.  The
instance is a read-only mapping in registration order, so ``name in
SAMPLERS``, ``SAMPLERS[name]`` and ``tuple(SAMPLERS)`` are the whole
lookup API.

A leaf module: it imports nothing from :mod:`repro`, so the ``systems``,
``data``, ``models`` and ``federated`` layers can all use it without an
import cycle.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator


def first_doc_line(obj) -> str:
    """First line of ``obj``'s docstring, or ``""`` when it has none."""
    doc = (obj.__doc__ or "").strip()
    return doc.splitlines()[0].strip() if doc else ""


@dataclass(frozen=True)
class Plugin:
    """A factory-style entry: the factory plus its one-line description."""

    name: str
    factory: Callable
    summary: str = ""


class Registry(Mapping):
    """Read-only ``name -> entry`` mapping, in registration order.

    ``kind`` names the plugin kind in every error: a duplicate name raises
    ``ValueError``, an unknown name raises ``KeyError`` listing the
    choices, and so does :meth:`unregister` of a name never added.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Any] = {}

    def add(self, name: str, entry: Any) -> Any:
        """Add ``entry`` under ``name`` and return it."""
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = entry
        return entry

    def register(self, name: str, *, summary: str = "") -> Callable:
        """Decorator adding a :class:`Plugin` for the decorated factory.

        ``summary`` defaults to the first line of the factory's docstring;
        the factory is returned unchanged so it stays directly callable.
        """

        def decorator(factory: Callable) -> Callable:
            self.add(name, Plugin(name, factory, summary or first_doc_line(factory)))
            return factory

        return decorator

    def unregister(self, name: str) -> Any:
        """Remove one entry (plugin teardown / test isolation); returns it."""
        try:
            return self._entries.pop(name)
        except KeyError:
            raise KeyError(f"{self.kind} {name!r} is not registered") from None

    def __getitem__(self, name: str) -> Any:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; choose from {tuple(self._entries)}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {tuple(self._entries)})"
