"""Metric counters and the process-wide registry.

A :class:`Counter` is a monotonically increasing count (cache hits,
solver invocations).  Counters are plain objects owned by whichever
component needs them (an allocator, a result store, a placement
service); constructing one registers it with the process-wide :class:`MetricsRegistry` under its
dotted name.  Several live instruments may share a name — a sweep that
opens three result stores has three ``repro.store.hits`` counters — and
the registry *sums* them at snapshot time, so the global view aggregates
while each owner keeps its per-instance numbers (the pre-existing
``.stats`` properties are thin views over the owner's instruments).

Registration holds weak references: when an owner is garbage collected
its instruments leave the registry, keeping long-lived processes (the
placement service) from accumulating dead stores.

Increments deliberately take no lock — ``+=`` on a float is atomic
enough under the GIL for statistics, and these sit on hot paths where a
lock would show up in every event of the fluid loop.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List

__all__ = [
    "Counter",
    "MetricsRegistry",
    "registry",
]


class Counter:
    """Monotonic count auto-registered with the global registry.
    ``inc()`` is the only mutator."""

    def __init__(self, name: str) -> None:
        if name.split() != [name]:  # empty, or holds whitespace
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.value = 0.0
        registry.register(self)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    @property
    def count(self) -> int:
        return int(self.value)


class MetricsRegistry:
    """Weak collection of every live instrument, summed on demand."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> list of weakrefs to instruments sharing that name.
        self._by_name: Dict[str, List[weakref.ref]] = {}

    # ------------------------------------------------------------ registration
    def register(self, instrument: Counter) -> None:
        with self._lock:
            self._by_name.setdefault(instrument.name, []).append(
                weakref.ref(instrument)
            )

    def _live(self) -> Dict[str, List[Counter]]:
        """Live instruments by name; prunes dead weakrefs as a side effect."""
        with self._lock:
            out: Dict[str, List[Counter]] = {}
            for name, refs in list(self._by_name.items()):
                live = [inst for inst in (ref() for ref in refs) if inst is not None]
                if live:
                    self._by_name[name] = [weakref.ref(i) for i in live]
                    out[name] = live
                else:
                    del self._by_name[name]
            return out

    # --------------------------------------------------------------- snapshots
    def snapshot(self) -> Dict[str, float]:
        """All metrics, each the sum of its same-named instruments.

        Keys are the dotted metric names, sorted, so the snapshot diff-s
        cleanly.
        """
        out: Dict[str, float] = {}
        for name, instruments in sorted(self._live().items()):
            total = sum(inst.value for inst in instruments)
            out[name] = int(total) if float(total).is_integer() else total
        return out


#: The process-wide registry every instrument self-registers with.
registry = MetricsRegistry()
