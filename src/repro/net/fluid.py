"""Event-driven flow-level ("fluid") network simulator.

This simulator stands in for the real EC2/Rackspace networks the paper
measured.  Flows are fluid: at every instant the set of active flows shares
the network according to max-min fairness (see :mod:`repro.net.fairness`),
which matches the paper's working assumption that TCP splits a bottleneck
equally among backlogged connections.

Every flow is a number of bytes.  Between consecutive events (a flow
starting, a flow completing, the run's ``until``) every flow's rate is
constant, so the simulation advances event-to-event, recording a
piece-wise constant rate timeline for every flow.  Those timelines power:

* completion-time computation for placed applications (§6),
* bulk-TCP ("netperf") throughput measurements (§2.2): a flow too big to
  finish, cut off at ``until``.

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
the input size alone (``_LOOP_MIN_FLOWS`` here, ``_VECTOR_MIN_FLOWS`` in
:mod:`repro.net.alloc`); every path gives
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
    vector loop holds flow state in NumPy arrays in activation order,
    picks the next event with a ``min`` over the finish-time vector,
    activates, drains and retires flows a batch per event, re-reads only the
    rates the allocator rewrote, and logs a rate segment (to a columnar log,
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
        # the active flows, and each active flow's remaining bytes in
        # activation order.  ``_survivors`` are the positions of the flows
        # that run left live, until the next edit drops the rest (_compact).
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

        A withdrawn flow is forgotten: its id may be registered again.

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
        left = {
            flow_id: self._active.pop(flow_id, float(self._flows[flow_id].size_bytes))
            for flow_id in flow_ids
        }
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

    # -------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> FluidResult:
        """Run the simulation until all flows complete (or ``until``).

        If ``until`` is given, the simulation stops there and the per-flow
        ``remaining_bytes`` in the result reflect partially transferred
        flows, which are reported stopped; a later call
        resumes from that pause (``until`` may not precede it).
        ``until=math.inf`` means no limit, as None does.  The result covers
        the flows live in this run.

        The scalar and vector event loops produce bit-identical results;
        the vector loop runs from ``_LOOP_MIN_FLOWS`` live flows up.

        Raises:
            SimulationError: ``until`` is NaN or ``-inf``, or precedes the
                pause.
        """
        if until is not None and not until > -math.inf:
            raise SimulationError(f"cannot run until {until!r}: not a time")
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
            fid: float(flow.size_bytes) for fid, flow in flows.items()
        }
        # Flows the pause left active are in the allocator already.
        active: Dict[str, Flow] = {}
        resumed = self._active
        for fid, left in resumed.items():
            states[fid] = FlowState.ACTIVE
            remaining[fid] = left
            active[fid] = flows[fid]

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
                if remaining[fid] <= _BYTE_EPS:
                    completion[fid] = flow.start_time
                    states[fid] = FlowState.COMPLETED
                    continue
                active[fid] = flow
                states[fid] = FlowState.ACTIVE
                arrived.append(flow)
                rows.extend(data[row_start[i] : row_start[i] + row_len[i]])
                lengths.append(row_len[i])
            if arrived:
                incremental.add_flows(
                    [flow.flow_id for flow in arrived], rows, lengths
                )

            if not active and pending_idx >= n_pending:
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
            for fid in active:
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
            for fid in active:
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
                if finish <= next_time + _TIME_EPS:
                    remaining[fid] = 0.0

            now = next_time
            end_time = now

            # Retire flows that completed at ``now``.
            completed = [fid for fid in active if remaining[fid] <= _BYTE_EPS]
            for fid in completed:
                completion[fid] = now
                states[fid] = FlowState.COMPLETED
                del active[fid]
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
            {fid: remaining[fid] for fid in active},
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
            remaining_bytes=remaining,
            end_time=end_time,
            states=states,
        )

    def _run_vector(self, until: Optional[float], span) -> FluidResult:
        """Array-backed event loop; bit-identical to :meth:`_run_scalar`.

        Flows are rows of the flow table.  Live flow state lives in NumPy
        arrays indexed by *activation position* (the scalar loop's dict
        order): remaining bytes ``left``, the open segment's ``rate`` (-1.0
        before the first) and start, the flow, its allocator slot (``pos_of``
        maps back).  Per event each live flow is touched only by a fixed run
        of contiguous in-place passes — finish ``now + left*8/rate`` and its
        ``min``, drain ``left - (rate*dt)/8`` and its clamp, the Zeno reset,
        the ``done`` test: the scalar loop's operations on the same values in
        the same order.  Everything else touches only the flows it concerns:
        arrivals and retirements (one batch each to and from the allocator),
        and the slots the solve rewrote
        (:meth:`~repro.net.alloc.IncrementalAllocator.written_slots`; on a
        run's first event all live flows, as resumed ones open segments).
        Segments are logged in columns (:class:`_TimelineTable`) when a rate
        changes, a flow retires or the run stops.

        A retired flow leaves a tombstone (``left = inf``, ``rate = 0``),
        inert in every pass: its finish is ``inf``, its drain leaves
        ``inf``, it is never reset nor done.  Positions are compacted, in
        order, once tombstones outnumber live flows.  Retiring in ascending
        position fixes the allocator's free list (hence slot numbers) and
        the order of ``completion_times`` as the scalar loop does.

        One clamp, ``maximum(left, 0)``, stands for ``drained if drained >
        0.0 else 0.0``: a live flow has ``left > _BYTE_EPS`` and a finite
        rate, so its drain is finite and never ``-0.0`` (``x - x`` is
        ``+0.0``) — or rate ``inf`` (no link limits it), whose drain is
        ``-inf`` or, at ``dt == 0``, NaN, and whose finish is ``now``, so the
        Zeno reset zeroes it as the scalar loop's ``rate == inf`` branch does.
        """
        flows = list(self._flows.values())
        flow_ids = list(self._flows)
        n_flows = len(flows)
        data, row_start, row_len = self._table()
        start = np.fromiter((f.start_time for f in flows), np.float64, count=n_flows)
        size = np.fromiter((f.size_bytes for f in flows), np.float64, count=n_flows)
        # Zero-byte flows never become active: they complete at their start.
        empty = size <= _BYTE_EPS

        completion: Dict[str, float] = {}
        state = np.full(n_flows, _PENDING, dtype=np.int8)
        rem_out = size.copy()
        incremental, now = self._resume(until)
        inf = math.inf

        # Position-indexed state and per-event buffers (a flow takes one
        # position per run, so ``n_flows`` positions always suffice).
        left, rate, seg_start, finish, step = (np.empty(n_flows) for _ in range(5))
        flow_at, slot_at = (np.empty(n_flows, dtype=np.intp) for _ in range(2))
        mask = np.empty(n_flows, dtype=bool)
        pos_of = np.zeros(0, dtype=np.intp)
        n_pos = n_live = 0

        def place(which: np.ndarray, slots: np.ndarray, bytes_left) -> None:
            """Give flows ``which``, at allocator ``slots``, the next positions."""
            nonlocal pos_of, n_pos, n_live
            if slots.max() >= pos_of.shape[0]:
                pos_of = _grow(pos_of, max(16, 2 * pos_of.shape[0], int(slots.max()) + 1))
            new = slice(n_pos, n_pos + which.shape[0])
            flow_at[new], slot_at[new], left[new] = which, slots, bytes_left
            rate[new] = -1.0  # -1.0 marks "no open rate segment"
            pos_of[slots] = np.arange(new.start, new.stop)
            n_live += new.stop - n_pos
            n_pos = new.stop

        resumed = self._active
        if resumed:
            # The flows the pause left active, in the allocator already.
            position = dict(zip(flow_ids, range(n_flows)))
            which = np.array([position[fid] for fid in resumed], dtype=np.intp)
            state[which] = _ACTIVE
            bytes_left = np.fromiter(resumed.values(), np.float64, count=len(resumed))
            place(which, incremental.slots_of(list(resumed)), bytes_left)
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

        def close_segments(at: np.ndarray) -> None:
            """Log the open segments at positions ``at``, ending now."""
            at = at[rate[at] != -1.0]
            if at.shape[0]:
                log[0].append(flow_at[at])
                log[1].append(seg_start[at])
                log[2].append(np.full(at.shape[0], now))
                log[3].append(rate[at])

        end_time = now
        batches = checked = changed = compactions = 0

        while True:
            # Activate the flows whose start time has arrived, as one batch.
            if pending_idx < n_pending and pending_start[pending_idx] <= now + _TIME_EPS:
                arrived = pending[
                    pending_idx : np.searchsorted(
                        pending_start, now + _TIME_EPS, side="right"
                    )
                ]
                pending_idx += arrived.shape[0]
                if empty[arrived].any():
                    instant = arrived[empty[arrived]]
                    for i in instant.tolist():
                        completion[flow_ids[i]] = flows[i].start_time
                    state[instant] = _COMPLETED
                    arrived = arrived[~empty[arrived]]
                if arrived.shape[0]:
                    state[arrived] = _ACTIVE
                    lengths = row_len[arrived]
                    slots = incremental.add_flows(
                        [flow_ids[i] for i in arrived.tolist()],
                        data[csr_gather(row_start[arrived], lengths)],
                        lengths,
                    )
                    place(arrived, slots, size[arrived])

            if n_live == 0 and pending_idx >= n_pending:
                end_time = now
                break
            if until is not None and now >= until - _TIME_EPS:
                end_time = until
                break

            batches += 1
            # Allocate rates; close the segment of every flow whose rate
            # changed and open its next one (all flows on the first event).
            rate_vec = incremental.solve_slots()
            slots = incremental.written_slots()
            if slots is None or batches == 1:
                at = np.flatnonzero(left[:n_pos] != inf)
                slots = slot_at[at]
            else:
                at = pos_of[slots]
            checked += at.shape[0]
            new_rate = rate_vec[slots]
            moved = np.flatnonzero(new_rate != rate[at])
            if moved.shape[0]:
                at = at[moved]
                changed += at.shape[0]
                close_segments(at)
                seg_start[at] = now
                rate[at] = new_rate[moved]

            # Project the next event time.  Rate 0 -> finish inf (no event);
            # rate inf -> finish now, exactly the scalar loop's explicit
            # ``next_time = now``.
            next_time = inf
            if pending_idx < n_pending:
                next_time = pending_start[pending_idx]
            live_left, live_rate, ft = left[:n_pos], rate[:n_pos], finish[:n_pos]
            if n_live:
                np.multiply(live_left, BITS_PER_BYTE, out=ft)
                with np.errstate(divide="ignore"):
                    np.divide(ft, live_rate, out=ft)
                np.add(ft, now, out=ft)
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
            now = end_time = next_time

            # Drain, clamp, reset the Zeno residue (see _run_scalar), and
            # retire the flows that completed at ``now`` as one batch.
            if n_live:
                drain, hit = step[:n_pos], mask[:n_pos]
                with np.errstate(invalid="ignore"):  # inf * 0.0: see above
                    np.multiply(live_rate, dt, out=drain)
                np.divide(drain, BITS_PER_BYTE, out=drain)
                np.subtract(live_left, drain, out=live_left)
                np.maximum(live_left, 0.0, out=live_left)
                np.less_equal(ft, next_time + _TIME_EPS, out=hit)
                np.copyto(live_left, 0.0, where=hit)
                np.less_equal(live_left, _BYTE_EPS, out=hit)
                done = np.flatnonzero(hit)
                if done.shape[0]:
                    close_segments(done)
                    which = flow_at[done]
                    names = [flow_ids[i] for i in which.tolist()]
                    completion.update(zip(names, itertools.repeat(now)))
                    state[which] = _COMPLETED
                    rem_out[which] = left[done]
                    incremental.remove_flows(names)
                    left[done] = inf
                    rate[done] = 0.0
                    n_live -= done.shape[0]
                    if n_pos - n_live > n_live:
                        keep = np.flatnonzero(left[:n_pos] != inf)
                        n_pos = keep.shape[0]
                        for column in (left, rate, seg_start, flow_at, slot_at):
                            column[:n_pos] = column[keep]
                        pos_of[slot_at[:n_pos]] = np.arange(n_pos)
                        compactions += 1

            if until is not None and now >= until - _TIME_EPS:
                end_time = until
                break

        _FLUID_BATCHES.inc(batches)
        # Close the segments still open at the stop time and record the
        # remaining bytes of flows the run left active.
        active = np.flatnonzero(left[:n_pos] != inf)
        close_segments(active)
        which = flow_at[active]
        rem_out[which] = left[active]
        self._pause(
            end_time,
            dict(zip([flow_ids[i] for i in which.tolist()], left[active].tolist())),
            np.flatnonzero(state <= _ACTIVE).tolist(),
        )
        # Flows still active when the run stops are reported stopped;
        # pending ones keep their state.
        state[state == _ACTIVE] = _STOPPED
        timelines = _TimelineTable(
            flow_ids, *(np.concatenate(column) for column in log)
        )
        span.set(
            batches=batches, segments=timelines.n_segments,
            rates_checked=checked, rates_changed=changed, compactions=compactions,
        )
        return FluidResult(
            completion_times=completion,
            timelines=timelines,
            remaining_bytes=dict(zip(flow_ids, rem_out.tolist())),
            end_time=end_time,
            states=dict(zip(flow_ids, map(_STATES.__getitem__, state.tolist()))),
        )
