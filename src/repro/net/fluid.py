"""Event-driven flow-level ("fluid") network simulator.

This simulator stands in for the real EC2/Rackspace networks the paper
measured and for the ns-2 simulations it used to validate the cross-traffic
estimator.  Flows are fluid: at every instant the set of active flows shares
the network according to max-min fairness (see :mod:`repro.net.fairness`),
which matches the paper's working assumption that TCP splits a bottleneck
equally among backlogged connections.

Between consecutive events (a flow starting, a finite flow completing, an
unbounded flow being switched off) every flow's rate is constant, so the
simulation advances event-to-event, recording a piece-wise constant rate
timeline for every flow.  Those timelines power:

* completion-time computation for placed applications (§6),
* the 10 ms throughput samples used by the cross-traffic estimator (§3.2),
* bulk-TCP ("netperf") throughput measurements (§2.2).

A flow lives in **one columnar table** from registration to result.
:meth:`FluidSimulation.add_flows` routes a whole batch with
:meth:`~repro.net.topology.Topology.path_links_matrix` and stores each
flow's path as a row of link indices; the vector event loop hands those
rows to the allocator, and takes them back, one batch per event
(:meth:`~repro.net.alloc.IncrementalAllocator.add_flows` /
``remove_flows``); every rate segment it closes goes to a flat
``(flow, start, end, rate)`` log; and :attr:`FluidResult.timelines` is a
read-only mapping over that log, reduced by :meth:`RateTimeline.append`'s
own rules, that builds a flow's :class:`RateTimeline` when it is asked
for.  The scalar loop registers the same rows with the same call.

Which event loop runs, and which solve the allocator takes, follows from
the input size alone (``_LOOP_MIN_FLOWS`` here, ``_VECTOR_MIN_FLOWS`` /
``_VECTOR_MIN_LINKS`` in :mod:`repro.net.alloc`); every path gives
bit-identical results, so there is nothing for a caller to choose.

A simulation is **resumable**.  A run that stops at ``until`` leaves a
pause behind — the clock, the allocator with the active flows in it, and
each active flow's remaining bytes — and the next :meth:`FluidSimulation.run`
continues from it, on whichever loop its flow count picks.  Between runs
a caller may register flows that start at or after the pause, withdraw
live ones (:meth:`~FluidSimulation.withdraw_flows`) and change extra-link
capacities (:meth:`~FluidSimulation.update_extra_capacities`).  Flows a
run finished leave the simulation with it: a run's :class:`FluidResult`
covers the flows that were live in that run, which is exactly what a
fresh simulation of those flows, restarted at the pause with the bytes
they had left, would report — to the last bit.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import itertools
import math
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.net.alloc import IncrementalAllocator, csr_gather
from repro.net.flows import Flow, FlowState
from repro.net.topology import Topology
from repro.units import BITS_PER_BYTE

# Numerical tolerances: bytes below _BYTE_EPS are "done"; time differences
# below _TIME_EPS are simultaneous.
_BYTE_EPS = 1e-6
_TIME_EPS = 1e-12

# Flow states as the vector loop's int8 codes.
_STATES = (
    FlowState.PENDING, FlowState.ACTIVE, FlowState.COMPLETED, FlowState.STOPPED
)
_PENDING, _ACTIVE, _COMPLETED, _STOPPED = range(4)


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Suspend the cyclic garbage collector; restore the caller's setting."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _grow(arr: np.ndarray, size: int) -> np.ndarray:
    """Copy of ``arr`` zero-padded to ``size`` entries."""
    grown = np.zeros(size, dtype=arr.dtype)
    grown[: arr.shape[0]] = arr
    return grown


@dataclass
class RateSegment:
    """A constant-rate interval of a flow's lifetime."""

    start: float
    end: float
    rate_bps: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def bytes_moved(self) -> float:
        if math.isinf(self.rate_bps):
            return math.inf
        return self.rate_bps * self.duration / BITS_PER_BYTE


class RateTimeline:
    """Piece-wise constant history of a single flow's rate.

    Segments are appended in chronological order (the fluid simulator emits
    them event by event), so lookups bisect on segment start times instead
    of scanning — timelines grow long in bursty scenarios.
    """

    def __init__(self) -> None:
        self.segments: List[RateSegment] = []
        self._starts: List[float] = []

    def append(self, start: float, end: float, rate_bps: float) -> None:
        """Record one constant-rate interval (zero-length intervals ignored).

        Raises:
            SimulationError: if ``start`` precedes the last recorded segment
                (segments must arrive in chronological order).
        """
        if end - start <= _TIME_EPS:
            return
        if self._starts and start < self._starts[-1] - _TIME_EPS:
            raise SimulationError(
                "rate segments must be appended in chronological order"
            )
        # Merge with the previous segment if the rate did not change.
        if (
            self.segments
            and abs(self.segments[-1].end - start) <= _TIME_EPS
            and self.segments[-1].rate_bps == rate_bps
        ):
            self.segments[-1].end = end
            return
        self.segments.append(RateSegment(start, end, rate_bps))
        self._starts.append(start)

    @property
    def start_time(self) -> Optional[float]:
        return self.segments[0].start if self.segments else None

    @property
    def end_time(self) -> Optional[float]:
        return self.segments[-1].end if self.segments else None

    def rate_at(self, t: float) -> float:
        """Rate at time ``t`` (0 outside the flow's active intervals)."""
        i = bisect.bisect_right(self._starts, t) - 1
        if i >= 0:
            segment = self.segments[i]
            if segment.start <= t < segment.end:
                return segment.rate_bps
        return 0.0

    def average_rate(self, start: float, end: float) -> float:
        """Time-average rate over ``[start, end]`` (gaps count as zero)."""
        if end <= start:
            raise SimulationError("average_rate needs end > start")
        moved_bits = 0.0
        # First segment that can overlap [start, end): the one covering
        # ``start``, or the first one starting after it.
        i = max(0, bisect.bisect_right(self._starts, start) - 1)
        for segment in self.segments[i:]:
            if segment.start >= end:
                break
            lo = max(start, segment.start)
            hi = min(end, segment.end)
            if hi > lo:
                moved_bits += segment.rate_bps * (hi - lo)
        return moved_bits / (end - start)

    def sample(self, interval: float, start: Optional[float] = None,
               end: Optional[float] = None) -> List[Tuple[float, float]]:
        """Average-rate samples of width ``interval`` (e.g. 10 ms probes).

        Returns a list of ``(sample_end_time, average_rate)`` tuples covering
        ``[start, end)``.  Defaults to the flow's own active span.
        """
        if interval <= 0:
            raise SimulationError("sample interval must be positive")
        if not self.segments:
            return []
        lo = self.start_time if start is None else start
        hi = self.end_time if end is None else end
        samples: List[Tuple[float, float]] = []
        t = lo
        while t + interval <= hi + _TIME_EPS:
            samples.append((t + interval, self.average_rate(t, t + interval)))
            t += interval
        return samples

    def total_bytes(self) -> float:
        """Total bytes moved over the flow's recorded lifetime."""
        return sum(segment.bytes_moved for segment in self.segments)


class _TimelineTable(MappingABC):
    """Read-only ``flow id -> RateTimeline`` over a columnar segment log.

    The log is the raw stream of ``(flow, start, end, rate)`` intervals an
    event loop closed, each flow's in the order they were closed.  It is
    reduced once, by :meth:`RateTimeline.append`'s own rules: an interval
    no longer than ``_TIME_EPS`` is dropped; one that starts where its
    flow's previous interval ended, at an equal rate, extends it (the
    comparison is between raw neighbours, which is what sequential appends
    compare: a merge only moves the last segment's end, and every interval
    merged into a segment has its rate); a start before the flow's last
    segment's raises.  Keys iterate in registration order, as the scalar
    loop's dict does; ``table[flow_id]`` builds that flow's
    :class:`RateTimeline` anew on every call.
    """

    def __init__(
        self,
        flow_ids: List[str],
        flow: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        rate: np.ndarray,
    ) -> None:
        self._flow_ids = flow_ids
        self._index: Optional[Dict[str, int]] = None
        keep = ~(end - start <= _TIME_EPS)
        flow, start, end, rate = flow[keep], start[keep], end[keep], rate[keep]
        by_flow = np.argsort(flow, kind="stable")
        flow, start, end, rate = (
            flow[by_flow], start[by_flow], end[by_flow], rate[by_flow]
        )
        n = flow.shape[0]
        same_flow = flow[1:] == flow[:-1]
        head = np.ones(n, dtype=bool)  # opens a segment (is not merged)
        head[1:] = ~(
            same_flow
            & (np.abs(end[:-1] - start[1:]) <= _TIME_EPS)
            & (rate[:-1] == rate[1:])
        )
        heads = np.flatnonzero(head)
        segment_of = np.cumsum(head) - 1
        if np.any(
            same_flow & (start[1:] < start[heads][segment_of[:-1]] - _TIME_EPS)
        ):
            raise SimulationError(
                "rate segments must be appended in chronological order"
            )
        self._start = start[heads]
        self._end = end[np.append(heads[1:], n)[: heads.shape[0]] - 1]
        self._rate = rate[heads]
        self._offsets = np.zeros(len(flow_ids) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(flow[heads], minlength=len(flow_ids)),
            out=self._offsets[1:],
        )

    @property
    def n_segments(self) -> int:
        """Segments over all flows."""
        return self._start.shape[0]

    def _positions(self) -> Dict[str, int]:
        if self._index is None:
            self._index = {fid: i for i, fid in enumerate(self._flow_ids)}
        return self._index

    def __getitem__(self, flow_id: str) -> RateTimeline:
        i = self._positions()[flow_id]
        lo, hi = self._offsets[i], self._offsets[i + 1]
        timeline = RateTimeline()
        timeline._starts = self._start[lo:hi].tolist()
        timeline.segments = [
            RateSegment(*row)
            for row in zip(
                timeline._starts,
                self._end[lo:hi].tolist(),
                self._rate[lo:hi].tolist(),
            )
        ]
        return timeline

    def __contains__(self, flow_id: object) -> bool:
        return flow_id in self._positions()

    def __iter__(self) -> Iterator[str]:
        return iter(self._flow_ids)

    def __len__(self) -> int:
        return len(self._flow_ids)


@dataclass
class FluidResult:
    """Outcome of a fluid simulation run.

    ``timelines`` is read-only.  The vector event loop returns a mapping
    that builds a flow's :class:`RateTimeline` when it is looked up (and
    again on the next lookup: keep the object if you read it twice).
    """

    completion_times: Dict[str, float]
    timelines: Mapping[str, RateTimeline]
    remaining_bytes: Dict[str, float]
    end_time: float
    states: Dict[str, FlowState]

    def completion_time(self, flow_id: str) -> float:
        """Absolute completion time of a finite flow.

        Raises:
            SimulationError: if the flow did not complete during the run.
        """
        if flow_id not in self.completion_times:
            raise SimulationError(f"flow {flow_id!r} did not complete")
        return self.completion_times[flow_id]

    def makespan(self, flow_ids: Optional[Iterable[str]] = None) -> float:
        """Latest completion time among the given flows (default: all)."""
        ids = list(flow_ids) if flow_ids is not None else list(self.completion_times)
        if not ids:
            return 0.0
        return max(self.completion_time(fid) for fid in ids)


#: Process-wide fluid-engine counters (``obs.metrics.snapshot()``):
#: simulation runs and event-loop batches (one batch per allocate →
#: advance → retire pass; batch counts accumulate locally and post once
#: per run so the hot loop pays one integer add per batch).
_FLUID_RUNS = obs.Counter("repro.fluid.runs")
_FLUID_BATCHES = obs.Counter("repro.fluid.batches")

# Flow count below which the vectorised event loop is not worth its NumPy
# dispatch overhead.
_LOOP_MIN_FLOWS = 512


def _check_capacities(capacities: Mapping[str, float]) -> None:
    """Reject a non-positive (or NaN) extra-link capacity, by link name."""
    for link_id, cap in capacities.items():
        if not cap > 0:
            raise SimulationError(
                f"extra capacity for {link_id!r} must be positive, got {cap!r}"
            )


class FluidSimulation:
    """Max-min fair, event-driven flow-level simulator.

    Args:
        topology: the network to simulate on.
        extra_capacities: additional *virtual* links (e.g. the provider's
            per-VM hose links); flows traverse them via the ``extra_links``
            argument of :meth:`add_flows`, and their capacities may change
            between runs (:meth:`update_extra_capacities`).

    Rates come from :class:`~repro.net.alloc.IncrementalAllocator`, which
    picks its own solve from the problem size.  Below ``_LOOP_MIN_FLOWS``
    live flows the per-flow Python event loop runs; at or above it the
    vector loop holds flow state (remaining bytes, current rate, open rate
    segment) in parallel NumPy arrays, picks the next event with an
    ``argmin`` over the finish-time vector, activates, drains and retires
    flows a batch per event, and logs a rate segment (to a columnar log,
    see :class:`FluidResult`) only when a flow's rate actually changes.
    Both loops produce bit-identical :class:`FluidResult` contents, and
    either resumes from the pause the other left (see the module
    docstring).
    """

    def __init__(
        self,
        topology: Topology,
        extra_capacities: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.topology = topology
        self._capacities: Dict[str, float] = dict(topology.capacities())
        self._n_topology_links = len(self._capacities)
        if extra_capacities:
            _check_capacities(extra_capacities)
            self._capacities.update(extra_capacities)
        # The link universe: the topology's links (path_links_matrix's
        # index order), then extra links.
        self._link_ids: List[str] = list(self._capacities)
        self._link_index: Optional[Dict[str, int]] = None
        # The live flows (registered, not withdrawn, not finished by a run)
        # in registration order.
        self._flows: Dict[str, Flow] = {}
        # The flow table: per add_flows call, the batch's link-index rows
        # laid end to end and their lengths, in registration order.
        self._row_chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        # The pause the last run left: its end time, the allocator holding
        # the active flows, and each active flow's remaining bytes (inf when
        # unbounded) in activation order.  ``_survivors`` are the positions
        # of the flows that run left live, until the next edit drops the
        # rest (_compact).
        self._now: Optional[float] = None
        self._allocator: Optional[IncrementalAllocator] = None
        self._active: Dict[str, float] = {}
        self._survivors: Optional[List[int]] = None
        # Edits since the last run: flows added, withdrawn, capacities changed.
        self._edits = [0, 0, 0]

    def _index(self) -> Dict[str, int]:
        """Link id -> position in the link universe."""
        if self._link_index is None:
            self._link_index = dict(zip(self._link_ids, range(len(self._link_ids))))
        return self._link_index

    # ------------------------------------------------------------------ setup
    @property
    def capacities(self) -> Dict[str, float]:
        """The link capacity map the next run allocates with."""
        return dict(self._capacities)

    def add_flow(self, flow: Flow, extra_links: Sequence[str] = ()) -> None:
        """Register one flow (a batch of one)."""
        self.add_flows([flow], [extra_links])

    @_collector_paused()
    def add_flows(
        self,
        flows: Iterable[Flow],
        extra_links: Optional[Sequence[Sequence[str]]] = None,
    ) -> None:
        """Register a batch of flows: before the first run, or at a pause
        for flows that start at or after it.

        The batch is validated, routed with one
        :meth:`~repro.net.topology.Topology.path_links_matrix` call, and
        only then stored — as rows of link indices, each row ``extra links
        + path`` — so a batch that fails leaves the simulation as it was.
        The cyclic collector is paused meanwhile: the batch dict and the
        pair list hold one entry per flow and nothing cyclic, and whether a
        40-55 ms generation-2 pass lands inside a 100 000-flow batch would
        otherwise depend on how many objects the process happened to import
        beforehand.

        Args:
            flows: the flows; ``src``/``dst`` are host names.
            extra_links: per flow, the additional (virtual) link ids it
                traverses, declared via ``extra_capacities``.

        Raises:
            SimulationError: a flow id is repeated in the batch or already
                live, a flow names an undeclared extra link, or a flow
                starts before the pause.
            TopologyError, RoutingError: a flow could not be routed.
        """
        self._compact()
        flows = list(flows)
        n = len(flows)
        if extra_links is not None and len(extra_links) != n:
            raise SimulationError("extra_links must name one sequence per flow")
        batch: Dict[str, Flow] = {}
        for flow in flows:
            if flow.flow_id in self._flows or flow.flow_id in batch:
                raise SimulationError(f"duplicate flow id {flow.flow_id!r}")
            batch[flow.flow_id] = flow
        if self._now is not None:
            for flow in flows:
                if flow.start_time < self._now:
                    raise SimulationError(
                        f"flow {flow.flow_id!r} starts at {flow.start_time!r}, "
                        f"before the pause at {self._now!r}"
                    )
        # Links ahead of each flow's path: its declared extras.
        lead: Optional[List[List[int]]] = None
        if extra_links is not None:
            index = self._index()
            lead = [[] for _ in flows]
            for flow, links, extra in zip(flows, lead, extra_links):
                for link_id in extra:
                    if link_id not in index:
                        raise SimulationError(
                            f"flow {flow.flow_id!r} uses undeclared extra "
                            f"link {link_id!r}"
                        )
                    links.append(index[link_id])
        rows, path_len, link_ids = self.topology.path_links_matrix(
            [(flow.src, flow.dst) for flow in flows]
        )
        if link_ids != self._link_ids[: len(link_ids)]:
            raise SimulationError(
                "the topology's links changed after the simulation was built"
            )
        if lead is None:
            data = rows[rows >= 0].astype(np.intp)
            lengths = path_len.astype(np.int64)
        else:
            # Extra links exist per VM, not per datacenter: these batches
            # are small enough to splice in Python.
            for links, path, k in zip(lead, rows.tolist(), path_len.tolist()):
                links.extend(path[:k])
            lengths = np.fromiter(map(len, lead), dtype=np.int64, count=n)
            data = np.fromiter(
                itertools.chain.from_iterable(lead),
                dtype=np.intp,
                count=int(lengths.sum()),
            )
        self._flows.update(batch)
        self._row_chunks.append((data, lengths))
        self._edits[0] += n

    def withdraw_flows(self, flow_ids: Iterable[str]) -> Dict[str, float]:
        """Take live flows out of the simulation; the bytes each had left.

        A withdrawn flow is forgotten — its id may be registered again —
        and an unbounded one reports 0.0 left, as
        :attr:`FluidResult.remaining_bytes` does.

        Raises:
            SimulationError: an id is repeated, or is not a live flow (never
                registered, withdrawn, or finished by a run); nothing is
                withdrawn in that case.
        """
        self._compact()
        flow_ids = list(flow_ids)
        gone = set(flow_ids)
        if len(gone) != len(flow_ids):
            raise SimulationError("a flow id is repeated in the batch")
        for flow_id in flow_ids:
            if flow_id not in self._flows:
                raise SimulationError(f"unknown flow {flow_id!r}")
        active = [flow_id for flow_id in flow_ids if flow_id in self._active]
        if active:
            self._allocator.remove_flows(active)
        left = {}
        for flow_id in flow_ids:
            remaining = self._active.pop(flow_id, None)
            if remaining is None:
                remaining = self._flows[flow_id].remaining_or_inf()
            left[flow_id] = 0.0 if math.isinf(remaining) else remaining
        self._retain(
            [i for i, flow_id in enumerate(self._flows) if flow_id not in gone]
        )
        self._edits[1] += len(flow_ids)
        return left

    def update_extra_capacities(self, capacities: Mapping[str, float]) -> None:
        """Change the capacity of extra links (declared via
        ``extra_capacities``), from the next run on.

        Raises:
            SimulationError: a link is not an extra link, or a capacity is
                not positive; nothing is changed in that case.
        """
        index = self._index()
        for link_id in capacities:
            if index.get(link_id, -1) < self._n_topology_links:
                raise SimulationError(f"{link_id!r} is not an extra link")
        _check_capacities(capacities)
        self._capacities.update(capacities)
        if self._allocator is not None:
            self._allocator.update_capacities(capacities)
        self._edits[2] += len(capacities)

    @property
    def idle(self) -> bool:
        """True when no flow is left to start or to finish."""
        live = self._flows if self._survivors is None else self._survivors
        return not live

    def _compact(self) -> None:
        """Drop the flows the last run finished (completed or stopped)."""
        keep, self._survivors = self._survivors, None
        if keep is not None and len(keep) != len(self._flows):
            self._retain(keep)

    def _retain(self, keep: List[int]) -> None:
        """Keep only the flows at registration positions ``keep``
        (ascending): the registry and the table."""
        flows = list(self._flows.items())
        self._flows = dict([flows[i] for i in keep])
        if keep:
            data, starts, lengths = self._table()
            at = np.array(keep, dtype=np.intp)
            lengths = lengths[at]
            self._row_chunks = [(data[csr_gather(starts[at], lengths)], lengths)]
        else:
            self._row_chunks = []

    def _table(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flow table as one CSR: ``(data, starts, lengths)``; flow
        ``i`` (registration order) crosses
        ``data[starts[i] : starts[i] + lengths[i]]``."""
        chunks = self._row_chunks
        if len(chunks) != 1:
            data = [chunk[0] for chunk in chunks] or [np.zeros(0, dtype=np.intp)]
            lens = [chunk[1] for chunk in chunks] or [np.zeros(0, dtype=np.int64)]
            chunks[:] = [(np.concatenate(data), np.concatenate(lens))]
        data, lengths = chunks[0]
        return data, np.cumsum(lengths) - lengths, lengths

    def flow(self, flow_id: str) -> Flow:
        """Look up a registered flow."""
        try:
            return self._flows[flow_id]
        except KeyError as exc:
            raise SimulationError(f"unknown flow {flow_id!r}") from exc

    # -------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> FluidResult:
        """Run the simulation until all finite flows complete (or ``until``).

        Unbounded flows stop at their ``end_time``.  If ``until`` is given,
        the simulation stops there and the per-flow ``remaining_bytes`` in
        the result reflect partially transferred finite flows; a later call
        resumes from that pause (``until`` may not precede it).  The result
        covers the flows live in this run.

        The scalar and vector event loops produce bit-identical results;
        the vector loop runs from ``_LOOP_MIN_FLOWS`` live flows up.
        """
        self._compact()
        if until is not None and self._now is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until!r}: the simulation paused at {self._now!r}"
            )
        use_vector = len(self._flows) >= _LOOP_MIN_FLOWS
        added, withdrawn, changed = self._edits
        self._edits = [0, 0, 0]
        _FLUID_RUNS.inc()
        with obs.span(
            "fluid.run",
            loop="vector" if use_vector else "scalar",
            flows=len(self._flows),
            resumed=self._now is not None,
            added=added,
            withdrawn=withdrawn,
            capacities_changed=changed,
        ) as span:
            if use_vector:
                return self._run_vector(until, span)
            return self._run_scalar(until, span)

    def _resume(self, until: Optional[float]) -> Tuple[IncrementalAllocator, float]:
        """The allocator and the clock a run starts from: the pause's, or —
        when no flow is active — the earliest start time (``until``, if
        earlier: nothing starts in a run that ends before it)."""
        if self._allocator is None:
            self._allocator = IncrementalAllocator(self._capacities)
        now = self._now
        if not self._active:
            first = min((f.start_time for f in self._flows.values()), default=0.0)
            now = first if now is None else max(now, first)
            if until is not None and until < now:
                now = until
        return self._allocator, now

    def _pause(
        self, end_time: float, active: Dict[str, float], survivors: List[int]
    ) -> None:
        """Record where a run stopped (see ``__init__``)."""
        self._now = end_time
        self._active = active
        self._survivors = survivors

    def _run_scalar(self, until: Optional[float], span) -> FluidResult:
        """The original per-flow Python event loop."""
        flows = self._flows
        flow_list = list(flows.values())
        # The flow table as lists: a flow's row goes to the allocator with
        # the row API the vector loop uses (a handful of flows per event,
        # where list slices beat a NumPy gather).
        data, row_start, row_len = (a.tolist() for a in self._table())
        timelines: Dict[str, RateTimeline] = {fid: RateTimeline() for fid in flows}
        completion: Dict[str, float] = {}
        states: Dict[str, FlowState] = {fid: FlowState.PENDING for fid in flows}
        remaining: Dict[str, float] = {
            fid: flow.remaining_or_inf() for fid, flow in flows.items()
        }
        # Finite and unbounded flows take different paths through every scan
        # below, so keep them apart (unbounded flows always carry an
        # end_time — Flow validates that — which is all the loop needs).
        # Flows the pause left active are in the allocator already.
        active_finite: Dict[str, Flow] = {}
        active_unbounded: Dict[str, float] = {}
        resumed = self._active
        for fid, left in resumed.items():
            flow = flows[fid]
            states[fid] = FlowState.ACTIVE
            remaining[fid] = left
            if flow.is_unbounded:
                active_unbounded[fid] = flow.end_time
            else:
                active_finite[fid] = flow

        # By (start_time, flow_id), with their registration positions.
        order = sorted(
            (i for i, fid in enumerate(flows) if fid not in resumed),
            key=lambda i: (flow_list[i].start_time, flow_list[i].flow_id),
        )
        pending = [flow_list[i] for i in order]
        pending_idx = 0
        n_pending = len(pending)
        # Zero-byte flows complete instantly at their start time.
        incremental, now = self._resume(until)
        inf = math.inf
        end_time = now
        batches = 0

        while True:
            # Activate flows whose start time has arrived, as one batch.
            arrived: List[Flow] = []
            rows: List[int] = []
            lengths: List[int] = []
            while pending_idx < n_pending and pending[pending_idx].start_time <= now + _TIME_EPS:
                flow, i = pending[pending_idx], order[pending_idx]
                pending_idx += 1
                fid = flow.flow_id
                if flow.is_unbounded:
                    if flow.end_time <= flow.start_time + _TIME_EPS:
                        states[fid] = FlowState.STOPPED
                        continue
                    active_unbounded[fid] = flow.end_time
                else:
                    if remaining[fid] <= _BYTE_EPS:
                        completion[fid] = flow.start_time
                        states[fid] = FlowState.COMPLETED
                        continue
                    active_finite[fid] = flow
                states[fid] = FlowState.ACTIVE
                arrived.append(flow)
                rows.extend(data[row_start[i] : row_start[i] + row_len[i]])
                lengths.append(row_len[i])
            if arrived:
                incremental.add_flows(
                    [flow.flow_id for flow in arrived],
                    rows,
                    lengths,
                    [flow.max_rate_bps for flow in arrived],
                )

            if not active_finite and not active_unbounded and pending_idx >= n_pending:
                end_time = now
                break
            if until is not None and now >= until - _TIME_EPS:
                end_time = until
                break

            batches += 1
            # Allocate rates for the active flows (the allocator only
            # re-solves when the active set changed since the last call).
            rates = incremental.solve()

            # Time of the next event.
            next_time = inf
            finish_at: Dict[str, float] = {}
            if pending_idx < n_pending:
                next_time = pending[pending_idx].start_time
            if active_unbounded:
                next_time = min(next_time, min(active_unbounded.values()))
            for fid in active_finite:
                rate = rates[fid]
                if rate == inf:
                    next_time = now  # completes immediately
                    finish_at[fid] = now
                elif rate > 0:
                    finish = now + remaining[fid] * BITS_PER_BYTE / rate
                    finish_at[fid] = finish
                    if finish < next_time:
                        next_time = finish
            if until is not None and until < next_time:
                next_time = until

            if next_time == inf:
                raise SimulationError(
                    "simulation stalled: active flows receive zero rate and "
                    "no further events are scheduled"
                )
            if next_time < now:
                next_time = now

            # Advance to next_time, recording rate segments and draining bytes.
            dt = next_time - now
            for fid in active_unbounded:
                timelines[fid].append(now, next_time, rates[fid])
            for fid in active_finite:
                rate = rates[fid]
                timelines[fid].append(now, next_time, rate)
                if rate == inf:
                    remaining[fid] = 0.0
                elif rate > 0:
                    drained = remaining[fid] - rate * dt / BITS_PER_BYTE
                    remaining[fid] = drained if drained > 0.0 else 0.0

            # A flow whose projected finish coincides with this event has
            # drained: force its residue to zero.  Without this, rounding in
            # ``remaining -= rate * dt`` can leave a few bytes' residue whose
            # refill step is below the ulp of ``now``, so ``dt`` collapses to
            # zero and the loop livelocks (Zeno steps) on long simulations.
            for fid, finish in finish_at.items():
                if finish <= next_time + _TIME_EPS and fid in active_finite:
                    remaining[fid] = 0.0

            now = next_time
            end_time = now

            # Retire flows that completed or were switched off at ``now``.
            completed = [
                fid for fid in active_finite if remaining[fid] <= _BYTE_EPS
            ]
            for fid in completed:
                completion[fid] = now
                states[fid] = FlowState.COMPLETED
                del active_finite[fid]
                incremental.remove_flow(fid)
            stopped = [
                fid
                for fid, stop_at in active_unbounded.items()
                if stop_at <= now + _TIME_EPS
            ]
            for fid in stopped:
                states[fid] = FlowState.STOPPED
                del active_unbounded[fid]
                incremental.remove_flow(fid)

            if until is not None and now >= until - _TIME_EPS:
                end_time = until
                break

        _FLUID_BATCHES.inc(batches)
        span.set(
            batches=batches,
            segments=sum(len(t.segments) for t in timelines.values()),
        )
        self._pause(
            end_time,
            {
                **{fid: remaining[fid] for fid in active_finite},
                **dict.fromkeys(active_unbounded, inf),
            },
            [
                i
                for i, state in enumerate(states.values())
                if state is FlowState.PENDING or state is FlowState.ACTIVE
            ],
        )
        # Flows still active when the run stops are reported stopped;
        # pending ones keep their state.
        for fid in flows:
            if states[fid] is FlowState.ACTIVE:
                states[fid] = FlowState.STOPPED
        return FluidResult(
            completion_times=completion,
            timelines=timelines,
            remaining_bytes={
                fid: (0.0 if math.isinf(rem) else rem) for fid, rem in remaining.items()
            },
            end_time=end_time,
            states=states,
        )

    def _run_vector(self, until: Optional[float], span) -> FluidResult:
        """Array-backed event loop; bit-identical to :meth:`_run_scalar`.

        Flows are rows of the flow table, known by their index in it.  Live
        flow state lives in slot-indexed NumPy arrays (the slots are the
        allocator's own flow slots, so rate vectors from
        :meth:`~repro.net.alloc.IncrementalAllocator.solve_slots` gather
        directly; ``flow_of`` maps a slot back to its flow).  Every event
        is a few array steps: the flows whose start time has arrived are
        handed to the allocator as one batch of table rows; the next event
        time is a min over the finish-time vector; bytes drain in one
        vector step; the flows that finished are taken back from the
        allocator as one batch.  A flow's rate segment is held open in
        ``seg_start``/``seg_rate`` and goes to the columnar segment log
        only when its rate changes, it retires, or the run stops; the log
        is reduced by :meth:`RateTimeline.append`'s rules when the run ends
        (:class:`_TimelineTable`), so the segments are exactly the merged
        segments the scalar loop records.  Every floating-point operation
        (finish projection, drain, Zeno residue reset) applies the same ops
        to the same values as the scalar loop, batches keep the scalar
        loop's order (activation by ``(start_time, flow_id)``, retirement
        in activation order — which fixes the allocator's slot numbers and
        the insertion order of ``completion_times``), so results match bit
        for bit.
        """
        flows = list(self._flows.values())
        flow_ids = list(self._flows)
        n_flows = len(flows)
        data, row_start, row_len = self._table()
        start = np.fromiter((f.start_time for f in flows), np.float64, count=n_flows)
        size = np.fromiter(
            (f.remaining_or_inf() for f in flows), np.float64, count=n_flows
        )
        unbounded = np.fromiter(
            (f.size_bytes is None for f in flows), bool, count=n_flows
        )
        # Unbounded flows always carry an end_time (Flow validates that).
        stop = np.fromiter(
            (f.end_time if f.size_bytes is None else 0.0 for f in flows),
            np.float64,
            count=n_flows,
        )
        caps = [f.max_rate_bps for f in flows]
        # Flows that never become active: unbounded flows that stop as they
        # start, and zero-byte flows — which complete at their start time.
        never = unbounded & (stop <= start + _TIME_EPS)
        empty = ~unbounded & (size <= _BYTE_EPS)
        inert = never | empty

        completion: Dict[str, float] = {}
        state = np.full(n_flows, _PENDING, dtype=np.int8)
        rem_out = size.copy()
        incremental, now = self._resume(until)
        inf = math.inf

        # Slot-indexed flow state (slots are allocator slots; a retired
        # flow's slot may be reused, by which time its segment was logged).
        rem = np.zeros(0, dtype=np.float64)
        stop_arr = np.zeros(0, dtype=np.float64)
        seg_start = np.zeros(0, dtype=np.float64)
        # -1.0 marks "no open rate segment" (real rates are never negative).
        seg_rate = np.zeros(0, dtype=np.float64)
        flow_of = np.zeros(0, dtype=np.intp)
        # Active finite / unbounded slots, in activation order (the order
        # the scalar loop's dicts iterate in, which retirement must match).
        af_buf = np.empty(n_flows, dtype=np.intp)
        naf = 0
        au_buf = np.empty(n_flows, dtype=np.intp)
        nau = 0
        resumed = self._active
        if resumed:
            # The flows the pause left active, in the allocator already.
            position = dict(zip(flow_ids, range(n_flows)))
            which = np.array([position[fid] for fid in resumed], dtype=np.intp)
            slots = incremental.slots_of(list(resumed))
            n_slots = max(16, int(slots.max()) + 1)
            rem, stop_arr, seg_start, seg_rate = (
                np.zeros(n_slots, dtype=np.float64) for _ in range(4)
            )
            flow_of = np.zeros(n_slots, dtype=np.intp)
            flow_of[slots] = which
            seg_rate[slots] = -1.0
            rem[slots] = np.fromiter(
                resumed.values(), dtype=np.float64, count=len(resumed)
            )
            stop_arr[slots] = stop[which]
            state[which] = _ACTIVE
            endless = unbounded[which]
            nau = int(endless.sum())
            au_buf[:nau] = slots[endless]
            naf = which.shape[0] - nau
            af_buf[:naf] = slots[~endless]
        # Activation order: by (start_time, flow_id), as the scalar loop's.
        by_id = np.array(
            sorted(range(n_flows), key=flow_ids.__getitem__), dtype=np.intp
        )
        if resumed:
            by_id = by_id[state[by_id] == _PENDING]
        pending = by_id[np.argsort(start[by_id], kind="stable")]
        pending_start = start[pending]
        n_pending = pending.shape[0]
        pending_idx = 0
        # The segment log, in columns: flow, start, end, rate.
        log: Tuple[List[np.ndarray], ...] = (
            [np.zeros(0, dtype=np.intp)], [np.zeros(0)], [np.zeros(0)], [np.zeros(0)]
        )

        def close_segments(slots: np.ndarray) -> None:
            """Log the open segment of each of ``slots``, ending now."""
            slots = slots[seg_rate[slots] != -1.0]
            if slots.shape[0]:
                log[0].append(flow_of[slots])
                log[1].append(seg_start[slots])
                log[2].append(np.full(slots.shape[0], now))
                log[3].append(seg_rate[slots])

        end_time = now
        batches = 0

        while True:
            # Activate the flows whose start time has arrived, as one batch.
            if pending_idx < n_pending and pending_start[pending_idx] <= now + _TIME_EPS:
                arrived = pending[
                    pending_idx : np.searchsorted(
                        pending_start, now + _TIME_EPS, side="right"
                    )
                ]
                pending_idx += arrived.shape[0]
                if inert[arrived].any():
                    state[arrived[never[arrived]]] = _STOPPED
                    instant = arrived[empty[arrived]]
                    for i in instant.tolist():
                        completion[flow_ids[i]] = flows[i].start_time
                    state[instant] = _COMPLETED
                    arrived = arrived[~inert[arrived]]
                if arrived.shape[0]:
                    state[arrived] = _ACTIVE
                    lengths = row_len[arrived]
                    picked = arrived.tolist()
                    slots = incremental.add_flows(
                        [flow_ids[i] for i in picked],
                        data[csr_gather(row_start[arrived], lengths)],
                        lengths,
                        [caps[i] for i in picked],
                    )
                    n_slots = int(slots.max()) + 1
                    if n_slots > rem.shape[0]:
                        new_size = max(16, 2 * rem.shape[0], n_slots)
                        rem = _grow(rem, new_size)
                        stop_arr = _grow(stop_arr, new_size)
                        seg_start = _grow(seg_start, new_size)
                        seg_rate = _grow(seg_rate, new_size)
                        flow_of = _grow(flow_of, new_size)
                    flow_of[slots] = arrived
                    seg_rate[slots] = -1.0
                    rem[slots] = size[arrived]
                    stop_arr[slots] = stop[arrived]
                    endless = unbounded[arrived]
                    n_new = int(endless.sum())
                    au_buf[nau : nau + n_new] = slots[endless]
                    nau += n_new
                    n_new = arrived.shape[0] - n_new
                    af_buf[naf : naf + n_new] = slots[~endless]
                    naf += n_new

            if naf == 0 and nau == 0 and pending_idx >= n_pending:
                end_time = now
                break
            if until is not None and now >= until - _TIME_EPS:
                end_time = until
                break

            batches += 1
            # Allocate rates and project the next event time.
            rate_vec = incremental.solve_slots()
            af = af_buf[:naf]
            au = au_buf[:nau]
            next_time = inf
            if pending_idx < n_pending:
                next_time = pending_start[pending_idx]
            if nau:
                stop_u = stop_arr[au]
                stop_min = stop_u.min()
                if stop_min < next_time:
                    next_time = stop_min
            if naf:
                rates_f = rate_vec[af]
                rem_f = rem[af]
                # rate 0 -> finish inf (no event); rate inf -> finish now,
                # exactly the scalar loop's explicit ``next_time = now``.
                with np.errstate(divide="ignore"):
                    ft = now + rem_f * BITS_PER_BYTE / rates_f
                ft_min = ft.min()
                if ft_min < next_time:
                    next_time = ft_min
            if until is not None and until < next_time:
                next_time = until
            if next_time == inf:
                raise SimulationError(
                    "simulation stalled: active flows receive zero rate and "
                    "no further events are scheduled"
                )
            if next_time < now:
                next_time = now
            next_time = float(next_time)
            dt = next_time - now

            # Close the segment of every flow whose rate changed and open
            # its next one, then drain finite flows in one vector step.
            if nau:
                rates_u = rate_vec[au]
                changed_u = rates_u != seg_rate[au]
                if changed_u.any():
                    changed = au[changed_u]
                    close_segments(changed)
                    seg_start[changed] = now
                    seg_rate[changed] = rates_u[changed_u]
            if naf:
                changed_f = rates_f != seg_rate[af]
                if changed_f.any():
                    changed = af[changed_f]
                    close_segments(changed)
                    seg_start[changed] = now
                    seg_rate[changed] = rates_f[changed_f]
                drained = rem_f - rates_f * dt / BITS_PER_BYTE
                new_rem = np.where(drained > 0.0, drained, 0.0)
                new_rem[np.isinf(rates_f)] = 0.0
                # Zeno residue reset: a flow whose projected finish
                # coincides with this event has drained (see _run_scalar).
                new_rem[ft <= next_time + _TIME_EPS] = 0.0
                rem[af] = new_rem

            now = next_time
            end_time = now

            # Retire the flows that completed or were switched off at
            # ``now``, a batch each, in activation order (the scalar loop's
            # dict order; it keeps the allocator's free list identical).
            if naf:
                done = new_rem <= _BYTE_EPS
                if done.any():
                    retired = af[done]
                    close_segments(retired)
                    which = flow_of[retired]
                    names = [flow_ids[i] for i in which.tolist()]
                    completion.update(zip(names, itertools.repeat(now)))
                    state[which] = _COMPLETED
                    rem_out[which] = new_rem[done]
                    incremental.remove_flows(names)
                    kept = af[~done]
                    naf = kept.shape[0]
                    af_buf[:naf] = kept
            if nau:
                off = stop_u <= now + _TIME_EPS
                if off.any():
                    retired = au[off]
                    close_segments(retired)
                    which = flow_of[retired]
                    state[which] = _STOPPED
                    incremental.remove_flows([flow_ids[i] for i in which.tolist()])
                    kept = au[~off]
                    nau = kept.shape[0]
                    au_buf[:nau] = kept

            if until is not None and now >= until - _TIME_EPS:
                end_time = until
                break

        _FLUID_BATCHES.inc(batches)
        # Close the segments still open at the stop time and record the
        # remaining bytes of flows the run left active.
        af, au = af_buf[:naf], au_buf[:nau]
        for slots in (af, au):
            close_segments(slots)
            rem_out[flow_of[slots]] = rem[slots]
        self._pause(
            end_time,
            {
                **dict(zip([flow_ids[i] for i in flow_of[af].tolist()], rem[af].tolist())),
                **dict.fromkeys([flow_ids[i] for i in flow_of[au].tolist()], inf),
            },
            np.flatnonzero(state <= _ACTIVE).tolist(),
        )
        # Flows still active when the run stops are reported stopped;
        # pending ones keep their state.
        state[state == _ACTIVE] = _STOPPED
        timelines = _TimelineTable(
            flow_ids, *(np.concatenate(column) for column in log)
        )
        span.set(batches=batches, segments=timelines.n_segments)
        return FluidResult(
            completion_times=completion,
            timelines=timelines,
            remaining_bytes=dict(
                zip(flow_ids, np.where(np.isinf(rem_out), 0.0, rem_out).tolist())
            ),
            end_time=end_time,
            states=dict(zip(flow_ids, map(_STATES.__getitem__, state.tolist()))),
        )
