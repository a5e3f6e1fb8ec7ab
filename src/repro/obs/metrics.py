"""Typed metric instruments and the process-wide registry.

Two instrument kinds, modelled on the Prometheus data model:

* :class:`Counter` — a monotonically increasing count (cache hits,
  leases granted, solver invocations);
* :class:`Gauge` — a value that is set (the idle fraction of the slowest
  worker).

Instruments are plain objects owned by whichever component needs them
(an allocator, a result store, a lease scheduler); constructing one
registers it with the process-wide :class:`MetricsRegistry` under its
dotted name.  Several live instruments may share a name — a sweep that
opens three result stores has three ``repro.store.hits`` counters — and
the registry *sums* them at snapshot time, so the global view aggregates
while each owner keeps its per-instance numbers (the pre-existing
``.stats`` properties are thin views over the owner's instruments).

Registration holds weak references: when an owner is garbage collected
its instruments leave the registry, keeping long-lived processes (the
placement service, sweep workers) from accumulating dead stores.

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
    "Gauge",
    "MetricsRegistry",
    "registry",
]


class _Instrument:
    """Base: a named instrument auto-registered with the global registry."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",  # noqa: A002 - mirrors prometheus client naming
        register: bool = True,
    ) -> None:
        if name.split() != [name]:  # empty, or holds whitespace
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.value = 0.0
        if register:
            registry.register(self)


class Counter(_Instrument):
    """Monotonic count.  ``inc()`` is the only mutator."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    @property
    def count(self) -> int:
        return int(self.value)


class Gauge(_Instrument):
    """A value that moves both ways.  ``set()`` is the only mutator."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)


class MetricsRegistry:
    """Weak collection of every live instrument, summed on demand."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> list of weakrefs to instruments sharing that name.
        self._by_name: Dict[str, List[weakref.ref]] = {}

    # ------------------------------------------------------------ registration
    def register(self, instrument: _Instrument) -> None:
        with self._lock:
            self._by_name.setdefault(instrument.name, []).append(
                weakref.ref(instrument)
            )

    def _live(self) -> Dict[str, List[_Instrument]]:
        """Live instruments by name; prunes dead weakrefs as a side effect."""
        with self._lock:
            out: Dict[str, List[_Instrument]] = {}
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

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Dotted names become underscore names (``repro.store.hits`` →
        ``repro_store_hits``); counters gain the conventional ``_total``
        suffix.  Same-named instruments are summed into one sample.
        """
        lines: List[str] = []
        for name, instruments in sorted(self._live().items()):
            flat = name.replace(".", "_").replace("-", "_")
            kind = instruments[0].kind
            if instruments[0].help:
                lines.append(f"# HELP {flat} {instruments[0].help}")
            lines.append(f"# TYPE {flat} {kind}")
            total = sum(inst.value for inst in instruments)
            metric = flat + ("_total" if kind == "counter" else "")
            lines.append(f"{metric} {_fmt(total)}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


#: The process-wide registry every instrument self-registers with.
registry = MetricsRegistry()
