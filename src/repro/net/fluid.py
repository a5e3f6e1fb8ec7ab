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
:meth:`FluidSimulation.add_flows` stores each flow's path as a row of link
indices: rows the caller routed (a provider's, which lead with the sender's
hose), or a whole batch routed by host name with one
:meth:`~repro.net.topology.Topology.path_links_matrix` call.  The event
loops hand those rows to the allocator, one batch per event
(:meth:`~repro.net.alloc.IncrementalAllocator.add_flows`), keep the slot it
gives each active flow — also across a pause — and hand the slots back as
the flows retire (``remove_flows`` / ``remove_flow``).  Flow ids live here
alone: the allocator knows a flow by its slot, and a row it refuses is
named by its flow here.

Both loops update lazily, as SimGrid's max-min solver does (Donassolo,
Casanova, Legrand and Velho, *Fast and scalable simulation of volunteer
computing systems using SimGrid*, LSAP 2010).  An active flow's open rate
segment holds its start, its rate, the bits the flow had left when it
opened, and its finish, fixed for the life of the segment: when those bits
are down to ``_BYTE_EPS`` bytes (:func:`_finish`).  Bytes are computed only
where a segment closes — the flow's rate changes, or the run stops — and a
flow retires, with no bytes left, at the event its finish comes by.  So an
event costs what changed: the solve, the flows whose rate it moved, and
one ``min`` and one comparison over the finishes — and while the links
that bind set every rate, the vector loop runs them through their
completions in lockstep (see :meth:`FluidSimulation._run_vector`).  Each
closed segment is
logged as a ``(flow, start, end, rate)`` row, and
:attr:`FluidResult.timelines` is a read-only mapping over that log, reduced
when a timeline is first read, that builds a flow's :class:`RateTimeline`
when it is asked for.

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
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

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
_BIT_EPS = _BYTE_EPS * BITS_PER_BYTE

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
    """Piece-wise constant history of a single flow's rate: a read-only
    view of the segments :class:`_TimelineTable` reduced from a run's log,
    in chronological order.  Lookups bisect on segment start times instead
    of scanning — timelines grow long in bursty scenarios.
    """

    def __init__(
        self, starts: List[float], ends: List[float], rates: List[float]
    ) -> None:
        self._starts = starts
        self.segments: Tuple[RateSegment, ...] = tuple(
            map(RateSegment, starts, ends, rates)
        )

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
    event loop closed — ``flow`` a registration position — each flow's in
    the order they were closed.  The table keeps it as written until a
    timeline is first looked up — keys and ``len`` read no segment — and
    then reduces it once (a caller that never reads a timeline never pays
    for the reduction, nor for its copies of the log), by three rules: an
    interval no longer than ``_TIME_EPS`` is dropped; one that starts where
    its flow's previous kept interval ended, at an equal rate, extends it
    into one segment; a start before the start of the flow's last segment
    raises, at that first read and at every one after.  The kept
    intervals, stable by flow, are one index into the log, so each column
    is gathered once; from then on the table keeps the reduced segments
    and per-flow offsets, not the log.  Keys iterate in registration
    order; ``table[flow_id]`` builds that flow's :class:`RateTimeline`
    anew on every call.
    """

    def __init__(self, flow_ids: List[str], flow, start, end, rate) -> None:
        self._flow_ids = flow_ids
        self._index: Optional[Dict[str, int]] = None
        self._log: Optional[Tuple[np.ndarray, ...]] = (
            np.asarray(flow, dtype=np.intp),
            *(np.asarray(column, dtype=np.float64) for column in (start, end, rate)),
        )

    def _reduce(self) -> None:
        """Reduce the log to segments, once (see the class docstring)."""
        if self._log is None:
            return
        flow, start, end, rate = self._log
        self._log = None
        # The kept intervals, stable by flow, as one index: each column is
        # gathered once.
        keep = np.flatnonzero(~(end - start <= _TIME_EPS))
        keep = keep[np.argsort(flow[keep], kind="stable")]
        flow, start, end, rate = flow[keep], start[keep], end[keep], rate[keep]
        del keep
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
            # (The kept log, by flow: reducing it again raises again.)
            self._log = flow, start, end, rate
            raise SimulationError(
                "rate segments must be appended in chronological order"
            )
        self._start = start[heads]
        self._end = end[np.append(heads[1:], n)[: heads.shape[0]] - 1]
        self._rate = rate[heads]
        self._offsets = np.zeros(len(self._flow_ids) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(flow[heads], minlength=len(self._flow_ids)),
            out=self._offsets[1:],
        )

    def _positions(self) -> Dict[str, int]:
        if self._index is None:
            self._index = {fid: i for i, fid in enumerate(self._flow_ids)}
        return self._index

    def __getitem__(self, flow_id: str) -> RateTimeline:
        i = self._positions()[flow_id]
        self._reduce()
        at = slice(self._offsets[i], self._offsets[i + 1])
        return RateTimeline(
            self._start[at].tolist(), self._end[at].tolist(), self._rate[at].tolist()
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self._flow_ids)

    def __len__(self) -> int:
        return len(self._flow_ids)


@dataclass
class FluidResult:
    """Outcome of a fluid simulation run.

    ``timelines`` is read-only: from either event loop, a mapping that
    builds a flow's :class:`RateTimeline` when it is looked up (and again
    on the next lookup: keep the object if you read it twice), over the
    run's raw segment log, which it reduces at its first lookup: a result
    whose timelines are never read never pays for the reduction.  Both
    loops write the same log.

    ``remaining_bytes`` is a flow's bytes at the run's end: 0.0 exactly for
    a flow that retired (its last segment ended at its finish), its size
    for a pending flow or one of at most ``_BYTE_EPS`` bytes (completed as
    it started, moving nothing), and what the rule left a stopped one.
    """

    completion_times: Dict[str, float]
    timelines: Mapping[str, RateTimeline]
    remaining_bytes: Dict[str, float]
    end_time: float
    states: Dict[str, FlowState]


#: Process-wide fluid-engine counters (``obs.metrics.snapshot()``):
#: simulation runs and event-loop batches (one batch per allocate →
#: advance → retire pass; batch counts accumulate locally and post once
#: per run so the hot loop pays one integer add per batch).
_FLUID_RUNS = obs.Counter("repro.fluid.runs")
_FLUID_BATCHES = obs.Counter("repro.fluid.batches")

# Flow count below which the vectorised event loop is not worth its NumPy
# dispatch overhead.
_LOOP_MIN_FLOWS = 512


def _finish(now: float, bits: float, rate: float) -> float:
    """When a segment opened at ``now`` with ``bits`` left at ``rate`` is
    down to ``_BYTE_EPS`` bytes: its flow's finish, fixed for the life of
    the segment (``now`` at rate ``inf``, never at rate 0).  The vector
    loop computes the same, in the same order."""
    over = bits - _BIT_EPS
    return now + (over if over > 0.0 else 0.0) / rate if rate > 0 else math.inf


class _SegmentLog:
    """The vector loop's segment log: four columns (flow, start, end, rate)
    grown by a quarter, one column at a time (the old one goes before the
    next grows), of which the first ``n`` rows are written; a batch of
    closed segments is one slice write per column."""

    def __init__(self) -> None:
        self.columns = [np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0), np.zeros(0)]
        self.n = 0

    def reserve(self, rows: int) -> None:
        """Room for ``rows`` rows in all (for a caller that knows how many
        will come: one growth, not one per quarter)."""
        columns = self.columns
        if rows > columns[0].shape[0]:
            for i in range(len(columns)):
                columns[i] = _grow(columns[i], rows)

    def append(self, flow, start, end, rate) -> None:
        columns = self.columns
        new = slice(self.n, self.n + flow.shape[0])
        if new.stop > columns[0].shape[0]:
            self.reserve(max(16, columns[0].shape[0] * 5 // 4, new.stop))
        for column, values in zip(columns, (flow, start, end, rate)):
            column[new] = values
        self.n = new.stop

    def written(self) -> List[np.ndarray]:
        """The written rows, each column copied out in turn, so that the
        result holds no growth slack and the copy costs one column."""
        columns = self.columns
        for i in range(len(columns)):
            columns[i] = columns[i][: self.n].copy()
        return columns


def _events(times: np.ndarray, links: np.ndarray, stop: np.ndarray) -> Tuple[int, np.ndarray]:
    """Which completions, in time order, the event loop would take as the
    lockstep does: ``times`` ascending, each completion's link, and
    whether its link stopped before it (a hazard of its own).

    The loop dates the soonest finish and retires every member due within
    ``_TIME_EPS`` of it: a run of completions within ``_TIME_EPS`` of each
    other is one event.  When their times are equal and their links
    distinct, each link's own step is that event's, to the bit — same
    instant, same members due — and the run is taken as one event.  Any
    other run (times that differ, a link twice, a stopped link) is a
    hazard.  Returns how many completions come before the first hazard,
    and the event of each of them (0, 1, ...).
    """
    apart = np.append(True, times[1:] > times[:-1] + _TIME_EPS)
    event = np.cumsum(apart) - 1
    bad = stop.copy()
    bad[1:] |= ~apart[1:] & (times[1:] != times[:-1])
    if not apart.all():
        # (A link twice in one run: the loop retires both at the first.)
        by = np.lexsort((links, event))
        bad[by[1:]] |= (event[by][1:] == event[by][:-1]) & (links[by][1:] == links[by][:-1])
    hazard = np.flatnonzero(bad)
    if not hazard.shape[0]:
        return times.shape[0], event
    first = np.flatnonzero(event == event[hazard[0]])[0]
    return int(first), event[:first]


def _lockstep(
    flow, bits0, opened, rate, finish, sizes, capacity, log: _SegmentLog,
    arrival: Optional[float] = None, until: Optional[float] = None,
    limits: Optional[np.ndarray] = None,
):
    """Advance every link of B through its completions at once.

    Members are laid out link by link (``sizes[g]`` of link ``g``, of
    capacity ``capacity[g]``), each with its open segment — ``bits0``,
    ``opened``, ``rate``, ``finish``, updated in place — and ``flow``, its
    row of the segment log.  While B holds, a link's members share
    ``C / n``, so each link is its own processor-sharing queue
    (Bertsekas & Gallager, *Data Networks*, §6.5) and its completions
    depend on its own members alone.  Step ``k`` is every link's ``k``-th
    completion: the link's soonest finish, at which the members due within
    ``_TIME_EPS`` retire and the others close their segments, are re-rated
    at ``C / n`` and reopen — the event loop's expressions, in its order.
    Rows go to ``log`` as they close.

    A link stops before a completion at which the event loop would do
    otherwise: an ``arrival`` would start by then, ``until`` would be
    reached, or another completion would fall within ``_TIME_EPS`` of it
    but not at its instant (:func:`_events`) — or, with ``limits``, once
    it took its ``limits[g]`` completions.  Hazards are looked for at
    steps 1, 2, 4, ... among the completions so far, and no link steps
    past the first found, so one found early stops the stepping near it.

    Returns, per completion in step order, its time, link, members
    retired, survivors and re-rated survivors; the retired members, link
    by link in step order; the times of the completions the links stopped
    before; and the steps taken.
    """
    member = np.arange(bits0.shape[0])
    group = np.arange(sizes.shape[0])
    size = sizes.copy()
    steps, gone_parts, stops = [], [], []
    horizon = math.inf  # the first hazard found so far
    step = 0
    while group.shape[0]:
        first = np.cumsum(size) - size
        soonest = np.minimum.reduceat(finish[member], first)
        stop = soonest == math.inf
        if limits is not None:
            stop |= limits[group] <= step
        else:
            if arrival is not None:
                stop |= arrival <= soonest + _TIME_EPS
            if until is not None:
                stop |= soonest >= until - _TIME_EPS
            stop |= soonest >= horizon
        if stop.any():
            stops.append(soonest[stop & (soonest != math.inf)])
            keep = ~stop
            member = member[keep.repeat(size)]
            group, size, soonest = group[keep], size[keep], soonest[keep]
            if not group.shape[0]:
                break
            first = np.cumsum(size) - size
        now = soonest.repeat(size)
        due = finish[member] <= (soonest + _TIME_EPS).repeat(size)
        gone = member[due]
        log.append(flow[gone], opened[gone], now[due], rate[gone])
        n_gone = np.add.reduceat(due, first, dtype=np.intp)
        left_n = size - n_gone
        stay = ~due
        member, now = member[stay], now[stay]
        new = np.zeros(left_n.shape[0])
        np.divide(capacity[group], left_n, out=new, where=left_n > 0)
        new = new.repeat(left_n)
        old = rate[member]
        moved = new != old
        n_moved = left_n
        at = member
        if not moved.all():
            n_moved = np.bincount(
                np.arange(left_n.shape[0]).repeat(left_n)[moved], minlength=left_n.shape[0]
            )
            at, now, new, old = at[moved], now[moved], new[moved], old[moved]
        start = opened[at]
        log.append(flow[at], start, now, old)
        left = bits0[at] - (now - start) * old
        np.maximum(left, 0.0, out=left)
        over = np.subtract(left, _BIT_EPS)
        np.maximum(over, 0.0, out=over)
        np.divide(over, new, out=over)
        bits0[at] = left
        opened[at] = now
        rate[at] = new
        finish[at] = np.add(over, now, out=over)
        steps.append((soonest, group, n_gone, left_n, n_moved))
        gone_parts.append(gone)
        keep = left_n > 0
        group, size = group[keep], left_n[keep]
        step += 1
        if limits is None and not step & (step - 1):
            times = np.concatenate([s[0] for s in steps] + stops)
            links = np.concatenate([s[1] for s in steps] + [np.full(len(x), -1) for x in stops])
            order = np.argsort(times, kind="stable")
            stopped = order >= times.shape[0] - sum(map(len, stops))
            at, _ = _events(times[order], links[order], stopped)
            if at < times.shape[0]:
                horizon = min(horizon, float(times[order[at]]))
    columns = [
        np.concatenate([s[i] for s in steps]) if steps else np.zeros(0, dtype=np.intp)
        for i in range(5)
    ]
    columns[0] = columns[0].astype(np.float64)
    return (
        columns,
        np.concatenate(gone_parts) if gone_parts else np.zeros(0, dtype=np.intp),
        np.concatenate(stops) if stops else np.zeros(0),
        step,
    )


def _join(incremental: IncrementalAllocator, rows, lengths, flow_id) -> np.ndarray:
    """The allocator's slots for a batch of arrivals' rows; a row it
    refuses (one that repeats a link) is named by its flow, ``flow_id(i)``
    for row ``i`` of the batch."""
    try:
        return incremental.add_flows(rows, lengths)
    except SimulationError as error:
        if not hasattr(error, "row"):
            raise
        raise SimulationError(f"flow {flow_id(error.row)!r}: {error}") from error


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
            per-VM hose links), after the topology's in the link universe;
            flows traverse them via the ``routes`` argument of
            :meth:`add_flows`, and their capacities may change between runs
            (:meth:`update_extra_capacities`).

    Rates come from :class:`~repro.net.alloc.IncrementalAllocator`, which
    picks its own solve from the problem size.  Below ``_LOOP_MIN_FLOWS``
    live flows the per-flow Python event loop runs; at or above it the
    vector loop holds each open segment in NumPy arrays by activation
    position, dates the next event with a ``min`` over the fixed finishes,
    activates and retires flows a batch per event, and closes and reopens
    only the segments whose rate the allocator rewrote.  Both loops follow
    one lazy rule (see the module docstring), log a rate segment only when
    a flow's rate changes, it retires or the run stops, into one segment
    log (see :class:`FluidResult`), produce bit-identical
    :class:`FluidResult` contents, and resume from the pause either left.
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
        # The live flows (registered, not withdrawn, not finished by a run)
        # in registration order.
        self._flows: Dict[str, Flow] = {}
        # The flow table: per add_flows call, the batch's link-index rows
        # laid end to end and their lengths, in registration order.
        self._row_chunks: List[Tuple[np.ndarray, np.ndarray]] = []
        # The pause the last run left: its end time, the allocator holding
        # the active flows, and each active flow's allocator slot and
        # remaining bytes in activation order.  ``_survivors`` are the
        # positions of the flows that run left live, until the next edit
        # drops the rest (_compact).
        self._now: Optional[float] = None
        self._allocator: Optional[IncrementalAllocator] = None
        self._active: Dict[str, Tuple[int, float]] = {}
        self._survivors: Optional[List[int]] = None
        # Edits since the last run: flows added, withdrawn, capacities changed.
        self._edits = [0, 0, 0]

    # ------------------------------------------------------------------ setup
    @property
    def capacities(self) -> Dict[str, float]:
        """The link capacity map the next run allocates with."""
        return dict(self._capacities)

    @property
    def extra_link_ids(self) -> List[str]:
        """The extra links, in ``extra_capacities`` order: link ``i`` of
        them is index ``len(topology.capacities()) + i`` of a row."""
        return self._link_ids[self._n_topology_links :]

    def add_flow(self, flow: Flow) -> None:
        """Register one flow (a batch of one), routed by name."""
        self.add_flows([flow])

    @_collector_paused()
    def add_flows(
        self,
        flows: Iterable[Flow],
        routes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        """Register a batch of flows: before the first run, or at a pause
        for flows that start at or after it.

        The batch is validated, routed — unless ``routes`` gives its rows —
        with one :meth:`~repro.net.topology.Topology.path_links_matrix`
        call, and only then stored, as rows of link indices, so a batch that
        fails leaves the simulation as it was.  The cyclic collector is
        paused meanwhile: the batch dict and the pair list hold one entry
        per flow and nothing cyclic, and whether a 40-55 ms generation-2
        pass lands inside a 100 000-flow batch would otherwise depend on how
        many objects the process happened to import beforehand.

        Args:
            flows: the flows; ``src``/``dst`` are host names, read only when
                the batch is routed here (no ``routes``).
            routes: the flows' rows as ``(data, lengths)``, integer arrays:
                flow ``i`` crosses the next ``lengths[i]`` links of ``data``,
                indices of the topology's links, then the extra links.

        Raises:
            SimulationError: a flow id is repeated in the batch or already
                live, a flow starts before the pause, or ``routes`` is not
                one row per flow within the link universe.
            RoutingError: a flow could not be routed (an endpoint is no host).
        """
        self._compact()
        flows = list(flows)
        n = len(flows)
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
        if routes is None:
            rows, path_len, link_ids = self.topology.path_links_matrix(
                [(flow.src, flow.dst) for flow in flows]
            )
            if link_ids != self._link_ids[: len(link_ids)]:
                raise SimulationError(
                    "the topology's links changed after the simulation was built"
                )
            data = rows[rows >= 0].astype(np.intp)
            lengths = path_len.astype(np.int64)
        else:
            data, lengths = map(np.asarray, routes)
            if not (
                data.ndim == 1 and data.dtype.kind in "iu" and lengths.dtype.kind in "iu"
                and lengths.shape == (n,) and (n == 0 or lengths.min() >= 0)
                and lengths.sum() == data.shape[0]
            ):
                raise SimulationError(
                    f"routes must be (data, lengths): {n} row lengths summing to "
                    f"the data's size, got shapes {data.shape} and {lengths.shape}"
                )
            universe = len(self._link_ids)
            if data.shape[0] and (data.min() < 0 or data.max() >= universe):
                raise SimulationError(
                    f"a route crosses a link outside [0, {universe}): "
                    f"{data.min()}..{data.max()}"
                )
            data = data.astype(np.intp)
            lengths = lengths.astype(np.int64)
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
        active = [self._active[flow_id][0] for flow_id in flow_ids if flow_id in self._active]
        if active:
            self._allocator.remove_flows(active)
        left = {
            flow_id: self._active.pop(flow_id)[1]
            if flow_id in self._active
            else float(self._flows[flow_id].size_bytes)
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
        extra = set(self.extra_link_ids)
        for link_id in capacities:
            if link_id not in extra:
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
        self, end_time: float, active: Dict[str, Tuple[int, float]], survivors: List[int]
    ) -> None:
        """Record where a run stopped (see ``__init__``)."""
        self._now = end_time
        self._active = active
        self._survivors = survivors

    def _run_scalar(self, until: Optional[float], span) -> FluidResult:
        """The per-flow Python event loop, on :meth:`_run_vector`'s lazy
        rule: the same formulas, in the same order, in dicts keyed by flow
        (each active flow's allocator slot among them, whose rate it reads
        off :meth:`~repro.net.alloc.IncrementalAllocator.solve_slots`).

        Each active flow keeps its open segment — start, rate, the bits it
        had left at the start, and its fixed finish (:func:`_finish`).  A
        flow whose rate changes closes its segment into a list of ``(flow,
        start, end, rate)`` rows and opens the next; a flow that retires or
        is stopped closes its last.
        """
        flows = self._flows
        flow_list = list(flows.values())
        # The flow table as lists: a flow's row goes to the allocator with
        # the row API the vector loop uses (a handful of flows per event,
        # where list slices beat a NumPy gather).
        data, row_start, row_len = (a.tolist() for a in self._table())
        completion: Dict[str, float] = {}
        states: Dict[str, FlowState] = {fid: FlowState.PENDING for fid in flows}
        remaining: Dict[str, float] = {
            fid: float(flow.size_bytes) for fid, flow in flows.items()
        }
        # Active flows in activation order, each with its registration
        # position and its allocator slot; those the pause left active are
        # in the allocator already.  Per active flow, the bits left at its
        # open segment's start (at its activation, until its first segment
        # opens).
        active: Dict[str, int] = {}
        slot_of: Dict[str, int] = {}
        bits: Dict[str, float] = {}
        resumed = self._active
        if resumed:
            position = dict(zip(flows, range(len(flow_list))))
            for fid, (slot, left) in resumed.items():
                states[fid] = FlowState.ACTIVE
                active[fid] = position[fid]
                slot_of[fid] = slot
                bits[fid] = left * BITS_PER_BYTE
        # The open segments' starts, rates and finishes, and the closed
        # ones' rows.
        open_start: Dict[str, float] = {}
        open_rate: Dict[str, float] = {}
        finish: Dict[str, float] = {}
        log: List[Tuple[int, float, float, float]] = []

        # By (start_time, flow_id), with their registration positions.
        order = sorted(
            (i for i, fid in enumerate(flows) if fid not in resumed),
            key=lambda i: (flow_list[i].start_time, flow_list[i].flow_id),
        )
        pending = [flow_list[i] for i in order]
        pending_idx = 0
        n_pending = len(pending)
        incremental, now = self._resume(until)
        inf = math.inf
        end_time = now
        batches = checked = changed = 0

        while True:
            # Activate flows whose start time has arrived, as one batch.
            # Zero-byte flows complete instantly at their start time.
            arrived: List[str] = []
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
                active[fid] = i
                bits[fid] = remaining[fid] * BITS_PER_BYTE
                states[fid] = FlowState.ACTIVE
                arrived.append(fid)
                rows.extend(data[row_start[i] : row_start[i] + row_len[i]])
                lengths.append(row_len[i])
            if arrived:
                slots = _join(incremental, rows, lengths, arrived.__getitem__)
                slot_of.update(zip(arrived, slots.tolist()))

            if not active and pending_idx >= n_pending:
                end_time = now
                break
            if until is not None and now >= until - _TIME_EPS:
                end_time = until
                break

            batches += 1
            # Allocate rates for the active flows (the allocator only
            # re-solves when the active set changed since the last call).
            # A flow whose rate changed closes its segment, with the bits
            # it has left now, and opens the next (each flow's first on
            # its first solve).
            # (A memoryview reads an entry as a Python float, in O(1) per
            # solve where a list would copy every slot's rate.)
            rates = memoryview(incremental.solve_slots())
            checked += len(active)
            for fid, slot in slot_of.items():
                rate = rates[slot]
                old = open_rate.get(fid)
                if old != rate:
                    changed += 1
                    left = bits[fid]
                    if old is not None:
                        seg_start = open_start[fid]
                        log.append((active[fid], seg_start, now, old))
                        left = left - (now - seg_start) * old
                        bits[fid] = left = left if left > 0.0 else 0.0
                    open_start[fid] = now
                    open_rate[fid] = rate
                    finish[fid] = _finish(now, left, rate)

            # Time of the next event: the next start or the soonest finish.
            next_time = pending[pending_idx].start_time if pending_idx < n_pending else inf
            soonest = min(finish.values(), default=inf)
            if soonest < next_time:
                next_time = soonest
            if until is not None and until < next_time:
                next_time = until
            if next_time == inf:
                raise SimulationError(
                    "simulation stalled: active flows receive zero rate and "
                    "no further events are scheduled"
                )
            if next_time < now:
                next_time = now
            now = end_time = next_time

            # Retire the flows whose finish has come: none has bytes left.
            due = now + _TIME_EPS
            if soonest <= due:
                for fid in [fid for fid in active if finish[fid] <= due]:
                    completion[fid] = now
                    states[fid] = FlowState.COMPLETED
                    remaining[fid] = 0.0
                    log.append((active.pop(fid), open_start.pop(fid), now, open_rate.pop(fid)))
                    del bits[fid], finish[fid]
                    incremental.remove_flow(slot_of.pop(fid))

            if until is not None and now >= until - _TIME_EPS:
                end_time = until
                break

        _FLUID_BATCHES.inc(batches)
        # Close the segments still open at the stop, with the bits left.
        for fid, rate in open_rate.items():
            seg_start = open_start[fid]
            log.append((active[fid], seg_start, now, rate))
            left = bits[fid] - (now - seg_start) * rate
            bits[fid] = left if left > 0.0 else 0.0
        for fid in active:
            remaining[fid] = bits[fid] / BITS_PER_BYTE
        span.set(
            batches=batches, log_rows=len(log),
            rates_checked=checked, rates_changed=changed, compactions=0,
            lockstep_steps=0,
        )
        self._pause(
            end_time,
            {fid: (slot_of[fid], remaining[fid]) for fid in active},
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
            timelines=_TimelineTable(list(flows), *(zip(*log) if log else [()] * 4)),
            remaining_bytes=remaining,
            end_time=end_time,
            states=states,
        )

    def _run_vector(self, until: Optional[float], span) -> FluidResult:
        """Array-backed event loop; bit-identical to :meth:`_run_scalar`.

        Flows are rows of the flow table.  Live flow state lives in NumPy
        arrays indexed by *activation position* (the scalar loop's dict
        order): the flow, its allocator slot (``pos_of`` maps back), and its
        open segment — the bits left at its start (``bits0``), its start,
        its rate (-1.0 before the first) and its fixed ``finish``.

        An event costs what changed.  Of the slots the solve rewrote
        (:meth:`~repro.net.alloc.IncrementalAllocator.written_slots`; on a
        run's first event every live flow, as resumed ones open segments),
        the positions whose rate moved close their segment — their bits
        left by :func:`_finish`'s rule, the loop's only drain — and open the
        next with its finish.  Every other live flow is read by two
        whole-array passes alone: the ``min`` over ``finish`` that dates the
        next event, and ``finish <= next + _TIME_EPS``, the flows that
        retire then as one batch, with no bytes left.  Each event so
        retires the soonest finish, or reaches a start or the stop: no
        rounding residue can pin the clock at one instant.  Arrivals and
        retirements go to and from the allocator one batch each.
        Segments are logged in columns when a rate changes, a flow retires
        or the run stops: four arrays (flow, start, end, rate) that grow by
        a quarter and take each batch of closed segments as one slice
        write, so the log is held once, with no per-event arrays and no
        final concatenation.  At the end each column's written rows are
        copied out, one column at a time, and :class:`_TimelineTable` keeps
        them until a timeline is read.

        A retired flow leaves a tombstone (``bits0 = finish = inf``): never
        the soonest, never done.  Positions are compacted, in order, once
        tombstones outnumber live flows.  Retiring in ascending position
        fixes the allocator's free list (hence slot numbers) and the order
        of ``completion_times`` as the scalar loop does.  A position opens
        its first segment at the instant it was placed, so its bits left
        then, ``bits0 - 0.0 * -1.0``, are ``bits0`` to the bit: the rule
        needs no case for it, only the log does.

        **The links that bind, in lockstep.**  After a solve, while the
        allocator's B holds (:meth:`~repro.net.alloc.IncrementalAllocator.binds`),
        a link of B changes its members' rates only at its own
        completions, so the loop runs every link of B through its
        completions at once (:func:`_lockstep`) and hands the allocator
        the retirements, in (time, position) order, as one batch
        (:meth:`~repro.net.alloc.IncrementalAllocator.retire_in_lockstep`),
        which re-rates each link after each completion as the binding
        solve would.  It takes the completions before the first hazard —
        an arrival or ``until`` by then, two completions within
        ``_TIME_EPS`` but not at one instant, a solve the binding path
        would refuse — with the same expressions, logs, counts and order
        as this loop (completions of several links at one instant are one
        event, as here), and leaves that completion to the loop; the loop
        tries again after each solve.  There is nothing to choose: the lockstep runs whenever B
        holds, and the per-event path is what it hands back.
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
        incremental, now = self._resume(until)
        inf = math.inf

        # Position-indexed state (a flow takes one position per run, so
        # ``n_flows`` positions always suffice).
        bits0, seg_start, rate, finish = (np.empty(n_flows) for _ in range(4))
        flow_at, slot_at = (np.empty(n_flows, dtype=np.intp) for _ in range(2))
        mask = np.empty(n_flows, dtype=bool)
        pos_of = np.zeros(0, dtype=np.intp)
        n_pos = n_live = 0
        unopened = False  # a position awaits its first segment

        def place(which: np.ndarray, slots: np.ndarray, bytes_left) -> None:
            """Give flows ``which``, at allocator ``slots``, the next positions."""
            nonlocal pos_of, n_pos, n_live, unopened
            if slots.max() >= pos_of.shape[0]:
                pos_of = _grow(pos_of, max(16, 2 * pos_of.shape[0], int(slots.max()) + 1))
            new = slice(n_pos, n_pos + which.shape[0])
            flow_at[new], slot_at[new] = which, slots
            np.multiply(bytes_left, BITS_PER_BYTE, out=bits0[new])
            seg_start[new] = now
            rate[new] = -1.0
            finish[new] = inf
            pos_of[slots] = np.arange(new.start, new.stop)
            n_live += new.stop - n_pos
            n_pos = new.stop
            unopened = True

        resumed = self._active
        if resumed:
            # The flows the pause left active, in the allocator already.
            position = dict(zip(flow_ids, range(n_flows)))
            which = np.array([position[fid] for fid in resumed], dtype=np.intp)
            state[which] = _ACTIVE
            slots, bytes_left = zip(*resumed.values())
            place(
                which, np.array(slots, dtype=np.intp), np.array(bytes_left, dtype=np.float64)
            )
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
        log = _SegmentLog()

        def close(at: np.ndarray, opened: np.ndarray, at_rate: np.ndarray) -> None:
            """Log the segments open at positions ``at`` — since ``opened``,
            at ``at_rate`` — as ending now (a position given no rate yet
            has none)."""
            if unopened:
                some = at_rate != -1.0
                at, opened, at_rate = at[some], opened[some], at_rate[some]
            log.append(flow_at[at], opened, now, at_rate)

        def bits_left(at: np.ndarray, opened: np.ndarray, at_rate: np.ndarray) -> np.ndarray:
            """The bits left now at positions ``at``, by the rule."""
            left = bits0[at] - (now - opened) * at_rate
            return np.maximum(left, 0.0, out=left)

        def compact() -> None:
            """Drop the tombstones, in order, once they outnumber live flows."""
            nonlocal n_pos, compactions
            if n_pos - n_live > n_live:
                keep = np.flatnonzero(bits0[:n_pos] != inf)
                n_pos = keep.shape[0]
                for column in (bits0, seg_start, rate, finish, flow_at, slot_at):
                    column[:n_pos] = column[keep]
                pos_of[slot_at[:n_pos]] = np.arange(n_pos)
                compactions += 1

        def taken(steps, gone, stops, members):
            """Of a lockstep's completions, those before the first hazard
            in time order (:func:`_events`), each one's event, the members
            they retire — event by event, by position, as this loop
            retires them — and how many each event retires."""
            times = np.concatenate((steps[0], stops))
            links = np.concatenate((steps[1], np.full(stops.shape[0], -1)))
            order = np.argsort(times, kind="stable")
            n_taken, event = _events(times[order], links[order], order >= steps[0].shape[0])
            subs = order[:n_taken]
            n_gone = steps[2][subs]
            retired = gone[csr_gather((np.cumsum(steps[2]) - steps[2])[subs], n_gone)]
            per_event = np.bincount(event, weights=n_gone).astype(np.intp)
            if per_event.shape[0] < n_taken:  # (links completing at one instant)
                retired = retired[np.lexsort((members[retired], event.repeat(n_gone)))]
            return subs, event, retired, per_event

        def lockstep(soonest: float) -> bool:
            """Take, in lockstep (:func:`_lockstep`), the completions before
            the first this loop must take itself, with the solve after each
            (the next finish is ``soonest``); whether it took any."""
            nonlocal now, end_time, batches, checked, changed, n_live, lockstep_steps
            arrival = pending_start[pending_idx] if pending_idx < n_pending else None
            if soonest == inf or (arrival is not None and arrival <= soonest + _TIME_EPS) or (
                until is not None and soonest >= until - _TIME_EPS
            ) or not incremental.binds():
                return False
            # A finish near the first but not at it may be a hazard there
            # (:func:`_events`): that completion is this loop's, at once.
            near = finish[:n_pos][finish[:n_pos] <= soonest + _TIME_EPS]
            if (near != soonest).any():
                return False
            live = np.flatnonzero(bits0[:n_pos] != inf)
            plan = incremental.binding_links(slot_at[live])
            if plan is None:
                return False
            # The live positions link by link, ascending within each link.
            links, capacity = plan
            by_link = np.argsort(links, kind="stable")
            members, links = live[by_link], links[by_link]
            heads = np.flatnonzero(np.append(True, links[1:] != links[:-1]))
            sizes = np.diff(np.append(heads, links.shape[0]))
            columns = [column[members] for column in (flow_at, bits0, seg_start, rate, finish)]
            mark = log.n
            # A link of n members logs at most n(n + 1) / 2 rows: one per
            # member retired, one per survivor re-rated.
            log.reserve(mark + int((sizes * (sizes + 1) // 2).sum()))
            capacity = capacity[by_link][heads]
            steps, gone, stops, n_steps = _lockstep(*columns, sizes, capacity, log, arrival, until)
            lockstep_steps += n_steps
            subs, event, retired, per_event = taken(steps, gone, stops, members)
            final = arrival is None and int(per_event.sum()) == n_live
            n_events = per_event.shape[0]
            events = incremental.retire_in_lockstep(
                per_event, slot_at[members[retired]], final
            ) if n_events else 0
            if not events:
                log.n = mark
                return False
            kept = int(np.searchsorted(event, events))  # completions of the events taken
            if kept < steps[0].shape[0]:
                # Step again, from the start, just to the completions of the
                # events taken.
                log.n = mark
                columns = [column[members] for column in (flow_at, bits0, seg_start, rate, finish)]
                limits = np.bincount(steps[1][subs[:kept]], minlength=sizes.shape[0])
                steps, gone, stops, n_steps = _lockstep(
                    *columns, sizes, capacity, log, limits=limits
                )
                lockstep_steps += n_steps
                subs, event, retired, per_event = taken(steps, gone, stops, members)
            for column, values in zip((bits0, seg_start, rate, finish), columns[1:]):
                column[members] = values
            done = members[retired]
            bits0[done] = inf
            finish[done] = inf
            which = flow_at[done]
            names = [flow_ids[i] for i in which.tolist()]
            time = steps[0][subs][np.flatnonzero(np.append(True, event[1:] != event[:-1]))]
            completion.update(zip(names, time.repeat(per_event).tolist()))
            state[which] = _COMPLETED
            n_live -= done.shape[0]
            now = end_time = float(time[-1])
            # One batch per event, as the per-event path counts them; the
            # last, when it leaves nothing, ends the run before its own.
            batches += events - (final and events == n_events)
            checked += int(steps[3][subs].sum())
            changed += int(steps[4][subs].sum())
            compact()
            return True

        end_time = now
        batches = checked = changed = compactions = lockstep_steps = 0

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
                    slots = _join(
                        incremental, data[csr_gather(row_start[arrived], lengths)],
                        lengths, lambda i: flow_ids[arrived[i]],
                    )
                    place(arrived, slots, size[arrived])

            if n_live == 0 and pending_idx >= n_pending:
                end_time = now
                break
            if until is not None and now >= until - _TIME_EPS:
                end_time = until
                break

            batches += 1
            # Allocate rates; a position whose rate moved closes its
            # segment, with its bits left, and opens the next with its
            # finish (every live position on the first event).
            rate_vec = incremental.solve_slots()
            slots = incremental.written_slots()
            if slots is None or batches == 1:
                at = np.flatnonzero(bits0[:n_pos] != inf)
                slots = slot_at[at]
            else:
                at = pos_of[slots]
            checked += at.shape[0]
            new_rate, old_rate = rate_vec[slots], rate[at]
            moved = (new_rate != old_rate).nonzero()[0]
            if moved.shape[0]:
                at, new_rate, old_rate = at[moved], new_rate[moved], old_rate[moved]
                changed += at.shape[0]
                opened = seg_start[at]
                close(at, opened, old_rate)
                left = bits_left(at, opened, old_rate)
                over = np.subtract(left, _BIT_EPS)
                np.maximum(over, 0.0, out=over)
                np.divide(over, new_rate, out=over)
                bits0[at] = left
                seg_start[at] = now
                rate[at] = new_rate
                finish[at] = np.add(over, now, out=over)
            unopened = False
            soonest = np.minimum.reduce(finish[:n_pos]) if n_live else inf
            # While B holds, every link of it runs through its completions
            # at once, up to the first that this loop must take itself.
            if n_live and lockstep(soonest):
                if not n_live and pending_idx >= n_pending:
                    continue  # (the run ends, before a solve of its own)
                soonest = np.minimum.reduce(finish[:n_pos]) if n_live else inf

            # The next event: the next start or the soonest finish.
            next_time = pending_start[pending_idx] if pending_idx < n_pending else inf
            if soonest < next_time:
                next_time = soonest
            if until is not None and until < next_time:
                next_time = until
            if next_time == inf:
                raise SimulationError(
                    "simulation stalled: active flows receive zero rate and "
                    "no further events are scheduled"
                )
            if next_time < now:
                next_time = now
            now = end_time = float(next_time)

            # Retire the flows whose finish has come, as one batch: none
            # has bytes left.
            if soonest <= now + _TIME_EPS:
                due = np.less_equal(finish[:n_pos], now + _TIME_EPS, out=mask[:n_pos])
                done = due.nonzero()[0]
                close(done, seg_start[done], rate[done])
                which = flow_at[done]
                names = [flow_ids[i] for i in which.tolist()]
                completion.update(zip(names, itertools.repeat(now)))
                state[which] = _COMPLETED
                incremental.remove_flows(slot_at[done])
                bits0[done] = inf
                finish[done] = inf
                n_live -= done.shape[0]
                compact()

            if until is not None and now >= until - _TIME_EPS:
                end_time = until
                break

        _FLUID_BATCHES.inc(batches)
        # Close the segments still open at the stop, and record the bytes
        # left of the flows the run left active; a retired flow has none.
        active = np.flatnonzero(bits0[:n_pos] != inf)
        opened, at_rate = seg_start[active], rate[active]
        close(active, opened, at_rate)
        which = flow_at[active]
        left = bits_left(active, opened, at_rate)
        np.divide(left, BITS_PER_BYTE, out=left)
        rem_out = size.copy()
        rem_out[which] = left
        rem_out[(state == _COMPLETED) & ~empty] = 0.0
        self._pause(
            end_time,
            dict(
                zip(
                    [flow_ids[i] for i in which.tolist()],
                    zip(slot_at[active].tolist(), left.tolist()),
                )
            ),
            np.flatnonzero(state <= _ACTIVE).tolist(),
        )
        # Flows still active when the run stops are reported stopped;
        # pending ones keep their state.
        state[state == _ACTIVE] = _STOPPED
        n_logged = log.n
        span.set(
            batches=batches, log_rows=n_logged,
            rates_checked=checked, rates_changed=changed, compactions=compactions,
            lockstep_steps=lockstep_steps,
        )
        return FluidResult(
            completion_times=completion,
            timelines=_TimelineTable(flow_ids, *log.written()),
            remaining_bytes=dict(zip(flow_ids, rem_out.tolist())),
            end_time=end_time,
            states=dict(zip(flow_ids, map(_STATES.__getitem__, state.tolist()))),
        )
