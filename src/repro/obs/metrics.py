"""Metric counters and the process-wide registry.

A :class:`Counter` is a monotonically increasing count (cache hits,
solver invocations).  Counters are plain objects owned by whichever
component needs them (an allocator, a result store, a placement
service), each with its own per-instance count (the pre-existing
``.stats`` properties are thin views over the owner's instruments).
Several instruments may share a name — a sweep that opens three result
stores has three ``repro.store.hits`` counters — and the process-wide
:class:`MetricsRegistry` keeps one running total per name, which every
increment of every same-named instrument also adds to.  The total
outlives the instruments: a snapshot after an allocator was collected
still holds its ``repro.alloc.*`` counts, and constructing an instrument
adds nothing to the registry but, on a name's first use, its total.

Increments deliberately take no lock — ``+=`` on a float is atomic
enough under the GIL for statistics, and these sit on hot paths where a
lock would show up in every event of the fluid loop.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "Counter",
    "MetricsRegistry",
    "registry",
]


class _Total:
    """The running count of every instrument of one name."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class Counter:
    """Monotonic count that also adds to its name's process-wide total.
    ``inc()`` is the only mutator."""

    def __init__(self, name: str) -> None:
        if name.split() != [name]:  # empty, or holds whitespace
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.value = 0.0
        self._total = registry.total(name)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount
        self._total.value += amount

    @property
    def count(self) -> int:
        return int(self.value)


class MetricsRegistry:
    """One running total per metric name, for the life of the process."""

    def __init__(self) -> None:
        self._totals: Dict[str, _Total] = {}

    def total(self, name: str) -> _Total:
        """The total the instruments called ``name`` add to."""
        total = self._totals.get(name)
        if total is None:
            total = self._totals.setdefault(name, _Total())
        return total

    def snapshot(self) -> Dict[str, float]:
        """Every metric's total so far.

        Keys are the dotted metric names, sorted, so the snapshot diff-s
        cleanly.
        """
        out: Dict[str, float] = {}
        for name, total in sorted(self._totals.items()):
            value = total.value
            out[name] = int(value) if float(value).is_integer() else value
        return out


#: The process-wide registry every instrument adds to.
registry = MetricsRegistry()
