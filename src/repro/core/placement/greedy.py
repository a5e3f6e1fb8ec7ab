"""Greedy network-aware placement — Algorithm 1 of the paper (§5).

The algorithm walks the application's transfers in descending order of
volume and places each pair of tasks on the machine pair whose path offers
the highest rate, given what has already been placed:

* if one endpoint is already placed, only paths touching its machine are
  candidates;
* intra-machine paths have essentially infinite rate, so the heuristic
  naturally colocates heavily communicating tasks when CPU allows;
* the candidate rate accounts for connections already placed in this round,
  which share the source's egress (the hose model) — see
  :mod:`repro.core.rate_model`.

Tasks that never communicate are placed last on the machines with the most
free CPU.  The result is not guaranteed optimal (Figure 9 shows a
counter-example), but §5 reports it within 13% (median) of the optimum
while scaling far better.

**One rate matrix.**  Candidates are not enumerated as tuples: the placer
keeps one :class:`~repro.core.rate_model.EffectiveRateMatrix` over the
machines in *name-sorted* index order and a free-CPU vector, and a
transfer's choice is a masked argmax over (part of) that matrix — one row
when the source is pinned, one column when the destination is, and the
whole matrix with the colocation diagonal otherwise (:meth:`GreedyPlacer._best`).  Only
a transfer that is the first in volume order to name one of its tasks
needs a choice, so the choices are fixed by the matrix
(:attr:`~repro.workloads.application.VolumeOrder.opens`); the run of
transfers between two choices has both tasks placed and only counts its
connections, one array update of the board
(:meth:`~repro.core.rate_model.EffectiveRateMatrix.record_run`), and the
matrix divides a source's row again when a choice reads it.
Algorithm 1's selection key is ``(-rate, -colocated, -egress(src), src
name, dst name)``; because indices follow name order, "the first maximum in
row-major order" *is* the lexicographically smallest ``(src, dst)`` among
the fastest candidates, and the colocation preference only adds "a
colocated candidate tied at the maximum wins".  When several machines could
take a colocated transfer (every one of them ties at the infinite intra-VM
rate), the tie goes to the machine with the fastest measured hose (§4.3):
the median of its single-connection rates to the other machines
(:func:`_egress`).  The tasks placed there are the transfer's endpoints,
and their later transfers leave through that hose; the lowest name would
otherwise win whatever its egress.  Every rate is ``==`` the scalar rate model
(``tests/oracles/effective_rate.py``), so placements — including
the order of ``Placement.assignments`` — are those of the scalar algorithm
(kept as the oracle in ``tests/test_admission_arrays.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import ClusterState, Placement, Placer, validate_placement
from repro.core.rate_model import EffectiveRateMatrix
from repro.errors import MeasurementError, PlacementError
from repro.workloads.application import Application

_EPS = 1e-9


def _egress(single: np.ndarray) -> np.ndarray:
    """Per machine, its measured hose: the lower median of its row of
    single-connection rates to the *other* machines (the ``(k - 1) // 2``-th
    smallest of ``k = n - 1``), an unmeasured pair read as 0.

    One ``partition`` over the matrix with the diagonal parked at ``+inf``
    (it sorts after every off-diagonal rate, so the order statistic is the
    off-diagonal one) — O(n²), once per placement.
    """
    n = single.shape[0]
    rates = np.where(np.isnan(single), 0.0, single)
    np.fill_diagonal(rates, math.inf)
    median = max(n - 2, 0) // 2
    rates.partition(median, axis=1)
    return rates[:, median]


def greedy_incumbent(
    app: Application,
    cluster: ClusterState,
    profile: NetworkProfile,
) -> Optional[Placement]:
    """A greedy placement to seed the exact search with, or ``None``.

    Greedy can dead-end on CPU packing (it commits machines transfer by
    transfer and never backtracks) on instances where a feasible assignment
    exists, so failure here must not be fatal: callers treat ``None`` as
    "proceed cold".
    """
    try:
        return GreedyPlacer().place(app, cluster, profile)
    except PlacementError:
        return None


@dataclass
class _Round:
    """State of one :meth:`GreedyPlacer.place` call (name-order indices)."""

    names: List[str]
    declared: List[str]  # the same names in the cluster's declaration order
    board: EffectiveRateMatrix
    free: np.ndarray  # free CPU per machine
    unmeasured: bool  # the profile lacks some pair among these machines
    everyone: np.ndarray  # arange(len(names))
    diagonal: np.ndarray  # flat positions of the rate matrix's diagonal
    traced: bool  # emit a ``placement.decision`` point per choice
    #: :func:`_egress` of the board, computed at the first colocated tie.
    egress: Optional[np.ndarray] = None
    #: While traced, the last :meth:`GreedyPlacer._best`'s candidate count,
    #: runner-up pair (or None), the chosen and runner-up rates, and — when
    #: a colocated tie among several machines decided it — how many tied.
    decision: Optional[
        Tuple[int, Optional[Tuple[int, int]], float, float, Optional[int]]
    ] = None


def _runner_up(
    scores: np.ndarray, allowed: np.ndarray, at: int, rows: np.ndarray, cols: np.ndarray
) -> Tuple[int, Optional[Tuple[int, int]], float, float]:
    """The first four fields of :attr:`_Round.decision` for a masked argmax
    that chose position ``at``.

    The runner-up is the best-scoring other candidate, found with one
    ``argpartition``; when ties at the top leave ``at`` out of the top two,
    either of them is a runner-up at gap 0 (the first in row-major order is
    named).
    """
    candidates = int(np.count_nonzero(allowed))
    rate = float(scores[at])
    if candidates < 2:
        return candidates, None, rate, rate
    top = np.argpartition(scores, -2)[-2:]
    other = int(top[0] if top[1] == at else top[1] if top[0] == at else top.min())
    r, c = divmod(other, len(cols))
    return candidates, (int(rows[r]), int(cols[c])), rate, float(scores[other])


class GreedyPlacer(Placer):
    """Algorithm 1: greedy network-aware placement.

    Rate ties break in favour of placing both tasks on the same machine
    (intra-machine rates are typically infinite, so every machine with room
    for both tasks ties), and among such machines in favour of the fastest
    measured egress.
    """

    name = "choreo-greedy"

    # ------------------------------------------------------------------ API
    def place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile] = None,
    ) -> Placement:
        with obs.span(
            "place.greedy",
            app=app.name,
            tasks=len(app.task_names),
            machines=len(cluster.machine_names()),
        ) as span:
            return self._place(app, cluster, profile, span)

    def _place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile],
        span,
    ) -> Placement:
        if profile is None:
            raise PlacementError("the greedy placer needs a network profile")
        self.check_feasible(app, cluster)

        machines = cluster.machine_names()
        covered = set(profile.vms)
        if not covered.issuperset(machines):
            machine = next(machine for machine in machines if machine not in covered)
            raise PlacementError(
                f"machine {machine!r} is not covered by the network profile"
            )

        rnd = self._open_round(cluster, machines, profile)
        names, board, free = rnd.names, rnd.board, rnd.free
        cores = {task.name: task.cpu_cores for task in app.tasks}
        assignments: Dict[str, str] = {}
        placed: Dict[str, int] = {}

        def demand(task_name: str) -> float:
            try:
                return cores[task_name]
            except KeyError:  # traffic edited to name a task that is not one
                return app.cpu_demand(task_name)

        def assign(task_name: str, machine: int) -> None:
            assignments[task_name] = names[machine]
            placed[task_name] = machine
            free[machine] -= demand(task_name)

        # Line 2: walk transfers in descending order of volume.  A transfer
        # needs a choice when it is the first to name one of its tasks; the
        # run of transfers up to the next choice has both tasks placed, and
        # only counts its connections — one array update of the board.
        # Nothing reads the board after the last choice.
        volume = app.traffic.volume_order()
        tasks, src, dst = volume.tasks, volume.src, volume.dst
        choices = volume.opens
        machine_of = np.full(len(tasks), -1, dtype=np.intp)
        recorded = runs = 0
        for at in choices:
            if recorded < at:
                board.record_run(
                    machine_of.take(src[recorded:at]), machine_of.take(dst[recorded:at])
                )
                runs += 1
            src_id, dst_id = int(src[at]), int(dst[at])
            src_task, dst_task = tasks[src_id], tasks[dst_id]
            src_at = placed.get(src_task)
            dst_at = placed.get(dst_task)
            best = self._choose(
                rnd, src_at, dst_at, demand(src_task), demand(dst_task)
            )
            if best is None:
                raise PlacementError(
                    f"no CPU-feasible machine pair for transfer "
                    f"{src_task!r} -> {dst_task!r} of application {app.name!r}"
                )
            if rnd.traced:
                self._record_decision(app, rnd, src_task, dst_task, best)
            src_machine, dst_machine = best
            if src_at is None:
                assign(src_task, src_machine)
                machine_of[src_id] = src_machine
            if dst_at is None and dst_task not in placed:
                assign(dst_task, dst_machine)
                machine_of[dst_id] = dst_machine
            board.record(src_machine, dst_machine)
            recorded = at + 1
        runs += recorded < src.shape[0]
        span.set(choices=len(choices), runs=runs)

        # Tasks with no transfers at all: spread over the freest machines
        # (most free CPU; ties to the last name).
        for task in app.task_names:
            if task in placed:
                continue
            fits = demand(task) <= free + _EPS
            if not fits.any():
                raise PlacementError(
                    f"no machine has CPU for task {task!r} of application {app.name!r}"
                )
            roomiest = np.flatnonzero(fits & (free == free[fits].max()))
            assign(task, int(roomiest[-1]))

        placement = Placement(app_name=app.name, assignments=assignments)
        validate_placement(placement, app, cluster)
        return placement

    # ------------------------------------------------------------ internals
    def _record_decision(
        self, app: Application, rnd: _Round, src_task: str, dst_task: str,
        best: Tuple[int, int],
    ) -> None:
        """Emit one transfer's ``placement.decision`` point (see
        docs/observability.md, "Placement decisions")."""
        candidates, runner_up, rate, second, tied = rnd.decision
        names = rnd.names
        obs.point(
            "placement.decision", placer="greedy", app=app.name,
            transfer=[src_task, dst_task],
            candidates=candidates, chosen=[names[best[0]], names[best[1]]],
            runner_up=None if runner_up is None else [names[runner_up[0]], names[runner_up[1]]],
            rate_bps=rate, gap_bps=None if runner_up is None else (
                0.0 if second == rate else rate - second
            ),
            tied=tied,
            egress_bps=None if tied is None else float(rnd.egress[best[0]]),
        )

    def _open_round(
        self,
        cluster: ClusterState,
        machines: List[str],
        profile: NetworkProfile,
    ) -> _Round:
        """Index the machines by name and build the round's arrays."""
        names = sorted(machines)
        n = len(names)
        available = cluster.available_cpus()
        board = EffectiveRateMatrix(profile, names)
        return _Round(
            names=names, declared=machines, board=board,
            free=np.array([available[name] for name in names]),
            unmeasured=bool(np.isnan(board.single).any()),
            everyone=np.arange(n), diagonal=np.arange(n) * (n + 1),
            traced=obs.trace_path() is not None,
        )

    def _choose(
        self,
        rnd: _Round,
        src_at: Optional[int],
        dst_at: Optional[int],
        src_demand: float,
        dst_demand: float,
    ) -> Optional[Tuple[int, int]]:
        """Lines 3-14: the best CPU-feasible machine pair for one transfer.

        An endpoint already placed pins its side to one machine (one row or
        one column of the rate matrix) and needs no CPU; with neither
        placed every ordered pair is a candidate, and a colocated pair must
        fit *both* tasks on the one machine.
        """
        room = rnd.free + _EPS
        board, everyone = rnd.board, rnd.everyone
        if src_at is not None:
            pin = everyone[src_at:src_at + 1]
            return self._best(
                rnd, board.row(src_at), pin, everyone, dst_demand <= room, pin
            )
        if dst_at is not None:
            pin = everyone[dst_at:dst_at + 1]
            return self._best(
                rnd, board.column(dst_at), everyone, pin, src_demand <= room, pin
            )
        # A colocated pair must fit both tasks on its one machine.
        allowed = (src_demand <= room)[:, None] & (dst_demand <= room)[None, :]
        allowed.ravel()[rnd.diagonal] = src_demand + dst_demand <= room
        return self._best(rnd, board.rates, everyone, everyone, allowed, rnd.diagonal)

    def _best(
        self,
        rnd: _Round,
        block: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        allowed: np.ndarray,
        colocated: np.ndarray,
    ) -> Optional[Tuple[int, int]]:
        """Masked argmax over one block of the rate matrix.

        ``block[r, c]`` is the rate from machine ``rows[r]`` to machine
        ``cols[c]`` (both ascending; a pinned choice's one row or column
        comes as a 1-D array), ``allowed`` the CPU mask over it,
        ``colocated`` the flat positions where row and column name the same
        machine.  Returns the machines of the candidate minimising
        Algorithm 1's key ``(-rate, -colocated, -egress(src), src name, dst
        name)``: the first maximum in row-major order, unless a colocated
        candidate is tied at the maximum — then, of those, the first with
        the fastest :func:`_egress`.  ``None`` when nothing is allowed (a
        measured rate is positive, so only a refused candidate scores
        ``-inf``).

        Raises:
            MeasurementError: an allowed candidate's rate is unmeasured —
                the first such pair in the cluster's declaration order, the
                order the scalar algorithm evaluates them in.
        """
        if rnd.unmeasured:
            missing = np.isnan(block) & allowed
            if missing.any():
                position = {name: i for i, name in enumerate(rnd.declared)}
                rank = np.array([position[name] for name in rnd.names])
                r, c = np.nonzero(missing.reshape(len(rows), len(cols)))
                first = np.lexsort((rank[cols[c]], rank[rows[r]]))[0]
                src, dst = rnd.names[rows[r[first]]], rnd.names[cols[c[first]]]
                raise MeasurementError(
                    f"profile has no measurement for ({src!r}, {dst!r})"
                )
        scores = np.where(allowed, block, -math.inf).ravel()
        at = int(scores.argmax())
        if scores[at] == -math.inf:  # every rate is positive: nothing allowed
            return None
        tied = colocated[scores[colocated] == scores[at]]
        if len(tied) > 1:
            if rnd.egress is None:
                rnd.egress = _egress(rnd.board.single)
            at = int(tied[rnd.egress[rows[tied // len(cols)]].argmax()])
        elif len(tied) == 1:
            at = int(tied[0])
        if rnd.traced:
            rnd.decision = (
                *_runner_up(scores, allowed, at, rows, cols),
                len(tied) if len(tied) > 1 else None,
            )
        r, c = divmod(at, len(cols))
        return int(rows[r]), int(cols[c])
