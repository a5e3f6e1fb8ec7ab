"""Typed metric instruments and the process-wide registry.

Three instrument kinds, modelled on the Prometheus data model:

* :class:`Counter` — a monotonically increasing count (cache hits,
  leases granted, solver invocations);
* :class:`Gauge` — a value that goes up and down (active leases, the
  idle fraction of the slowest worker);
* :class:`Histogram` — a distribution of observations (span durations,
  batch sizes) bucketed on a fixed boundary ladder.

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
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_DURATION_BUCKETS",
    "registry",
]

#: Bucket ladder for duration histograms: 10 µs to ~2 minutes, roughly
#: half-decade steps.  Wide enough for a single allocator partial solve
#: and for a whole ILP placement phase.
DEFAULT_DURATION_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 120.0,
)


def _label_key(labels: Optional[Mapping[str, str]]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


class _Instrument:
    """Base: a named instrument auto-registered with the global registry."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",  # noqa: A002 - mirrors prometheus client naming
        labels: Optional[Mapping[str, str]] = None,
        register: bool = True,
    ) -> None:
        if name.split() != [name]:  # empty, or holds whitespace
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labels = _label_key(labels)
        if register:
            registry.register(self)

    # Subclasses fill this in.
    def value_dict(self) -> Dict[str, float]:  # pragma: no cover - abstract
        raise NotImplementedError


class Counter(_Instrument):
    """Monotonic count.  ``inc()`` is the only mutator."""

    kind = "counter"

    def __init__(self, name, help="", labels=None, register=True):  # noqa: A002
        super().__init__(name, help, labels, register)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    @property
    def count(self) -> int:
        return int(self.value)

    def value_dict(self) -> Dict[str, float]:
        return {"total": self.value}


class Gauge(_Instrument):
    """A value that can move both ways (``set``/``inc``/``dec``)."""

    kind = "gauge"

    def __init__(self, name, help="", labels=None, register=True):  # noqa: A002
        super().__init__(name, help, labels, register)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def value_dict(self) -> Dict[str, float]:
        return {"value": self.value}


class Histogram(_Instrument):
    """Bucketed distribution with count/sum/min/max.

    Buckets are cumulative-upper-bound style (`le`), like Prometheus;
    observations above the last bound land only in the implicit
    ``+Inf`` bucket (tracked via ``count``).
    """

    kind = "histogram"

    def __init__(
        self,
        name,
        help="",  # noqa: A002
        labels=None,
        buckets: Sequence[float] = DEFAULT_DURATION_BUCKETS,
        register=True,
    ) -> None:
        super().__init__(name, help, labels, register)
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        self.bucket_counts: List[int] = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1

    def value_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {"count": float(self.count), "sum": self.sum}
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            out[f"le_{bound:g}"] = float(bucket)
        return out

    def summary(self) -> Dict[str, float]:
        """Flat summary (no buckets) for human-facing snapshots."""
        out: Dict[str, float] = {"count": float(self.count), "sum": self.sum}
        if self.count:
            out["mean"] = self.sum / self.count
            out["min"] = float(self.min)
            out["max"] = float(self.max)
        return out


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

    def reset(self) -> None:
        """Forget every registered instrument (tests / fresh runs)."""
        with self._lock:
            self._by_name.clear()

    # --------------------------------------------------------------- snapshots
    def snapshot(self) -> Dict[str, object]:
        """All metrics, aggregated across same-named instruments.

        Counters and gauges collapse to a number; histograms to a
        ``{count, sum, mean, min, max}`` summary dict.  Keys are the
        dotted metric names, sorted, so the snapshot diff-s cleanly.
        """
        out: Dict[str, object] = {}
        for name, instruments in sorted(self._live().items()):
            first = instruments[0]
            if first.kind in ("counter", "gauge"):
                total = sum(inst.value for inst in instruments)
                out[name] = int(total) if float(total).is_integer() else total
            else:
                counts = sum(inst.count for inst in instruments)
                sums = sum(inst.sum for inst in instruments)
                mins = [inst.min for inst in instruments if inst.min is not None]
                maxs = [inst.max for inst in instruments if inst.max is not None]
                summary: Dict[str, float] = {"count": counts, "sum": sums}
                if counts:
                    summary["mean"] = sums / counts
                    summary["min"] = min(mins)
                    summary["max"] = max(maxs)
                out[name] = summary
        return out

    def prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Dotted names become underscore names (``repro.store.hits`` →
        ``repro_store_hits``); counters gain the conventional ``_total``
        suffix; labels render as ``{k="v"}``.  Same-named instruments
        with identical labels are summed, distinct label sets emit one
        sample each.
        """
        lines: List[str] = []
        for name, instruments in sorted(self._live().items()):
            flat = name.replace(".", "_").replace("-", "_")
            kind = instruments[0].kind
            if instruments[0].help:
                lines.append(f"# HELP {flat} {instruments[0].help}")
            lines.append(f"# TYPE {flat} {kind}")
            by_labels: Dict[Tuple[Tuple[str, str], ...], List[_Instrument]] = {}
            for inst in instruments:
                by_labels.setdefault(inst.labels, []).append(inst)
            for labels, group in sorted(by_labels.items()):
                suffix = _render_labels(labels)
                if kind in ("counter", "gauge"):
                    total = sum(inst.value for inst in group)
                    metric = flat + ("_total" if kind == "counter" else "")
                    lines.append(f"{metric}{suffix} {_fmt(total)}")
                else:
                    counts = sum(inst.count for inst in group)
                    sums = sum(inst.sum for inst in group)
                    bounds = group[0].bounds
                    cumulative = [0] * len(bounds)
                    for inst in group:
                        if inst.bounds != bounds:
                            continue
                        for i, c in enumerate(inst.bucket_counts):
                            cumulative[i] += c
                    for bound, c in zip(bounds, cumulative):
                        bl = _render_labels(labels + (("le", f"{bound:g}"),))
                        lines.append(f"{flat}_bucket{bl} {c}")
                    bl = _render_labels(labels + (("le", "+Inf"),))
                    lines.append(f"{flat}_bucket{bl} {counts}")
                    lines.append(f"{flat}_sum{suffix} {_fmt(sums)}")
                    lines.append(f"{flat}_count{suffix} {counts}")
        return "\n".join(lines) + "\n"


def _render_labels(labels: Iterable[Tuple[str, str]]) -> str:
    pairs = list(labels)
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


#: The process-wide registry every instrument self-registers with.
registry = MetricsRegistry()
