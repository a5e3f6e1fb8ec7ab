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
transfer's choice is a masked argmax over (a block of) that matrix — one
row when the source is pinned, one column when the destination is, the
whole matrix with the colocation diagonal otherwise (:meth:`GreedyPlacer._best`).
Algorithm 1's selection key is ``(-rate, -colocated, src name, dst name)``;
because indices follow name order, "the first maximum in row-major order"
*is* the lexicographically smallest ``(src, dst)`` among the fastest
candidates, and the colocation preference only adds "a colocated candidate
tied at the maximum wins".  Every rate is ``==`` the scalar rate model
(``tests/oracles/effective_rate.py``), so placements — including
the order of ``Placement.assignments`` — are those of the scalar algorithm
(kept as the oracle in ``tests/test_admission_arrays.py``).

At datacenter scale the flat search is quadratic in the machine count per
unpinned transfer, so from ``_CLUSTER_THRESHOLD`` machines up (or the
``cluster_threshold`` argument) the placer goes **hierarchical**:
machines are clustered once per placement by the similarity of their
measured rate profiles (deterministic farthest-point k-center over the
rows of :meth:`~repro.core.network_profile.NetworkProfile.rate_matrix`),
each transfer first ranks *cluster representative* pairs by the flat
selection key (the leaders' sub-matrix), then searches machine pairs only
within the best representative pair's clusters (one block), skipping
representative pairs whose clusters hold no CPU-feasible candidate.  The
union of those per-representative candidate sets is exactly the flat
candidate set, so the hierarchical path fails only when the flat path
would; with one machine per cluster it reduces to the flat selection bit
for bit.
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

# Machine counts below this stay on the flat search, which is exactly
# Algorithm 1; at or above it GreedyPlacer(cluster_threshold=None) clusters.
_CLUSTER_THRESHOLD = 96


def _k_center(matrix: np.ndarray, n_clusters: int) -> Tuple[List[int], np.ndarray]:
    """Farthest-point k-center over the rows of a rate matrix.

    Each machine's feature vector is its row of the matrix (out-rates to
    every other machine; unmeasured and infinite entries contribute 0, the
    diagonal is zeroed), so two machines land in one cluster when the
    network looks alike *from* them — e.g. rack mates behind the same
    oversubscribed uplink.  Distances are squared Euclidean norms via dot
    products, so the clustering is O(k·n²) vector work.

    Returns ``(leaders, owner)``: the row indices picked as leaders (first
    row first, ties to the lowest index) and, per row, the position in
    ``leaders`` of its nearest leader.  Fewer than ``n_clusters`` leaders
    come back when rows are identical (a uniform mesh yields one).
    """
    k = max(1, min(int(n_clusters), matrix.shape[0]))
    features = np.where(np.isfinite(matrix), matrix, 0.0)
    np.fill_diagonal(features, 0.0)
    norms = np.einsum("ij,ij->i", features, features)

    def distance_row(index: int) -> np.ndarray:
        row = norms + norms[index] - 2.0 * (features @ features[index])
        np.maximum(row, 0.0, out=row)
        return row

    leaders = [0]
    rows = [distance_row(0)]
    nearest = rows[0].copy()
    while len(leaders) < k:
        candidate = int(np.argmax(nearest))
        if nearest[candidate] <= 0.0:
            break  # every remaining machine matches an existing leader
        leaders.append(candidate)
        row = distance_row(candidate)
        rows.append(row)
        np.minimum(nearest, row, out=nearest)
    return leaders, np.argmin(np.vstack(rows), axis=0)


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


def _diagonal(n: int) -> np.ndarray:
    """Flat positions of the diagonal of an ``n`` × ``n`` block."""
    return np.arange(n) * (n + 1)


def _pairs_allowed(
    row_ok: np.ndarray,
    col_ok: np.ndarray,
    same_ok: Optional[np.ndarray] = None,
    diagonal: Optional[np.ndarray] = None,
) -> np.ndarray:
    """CPU mask over a block of ordered pairs: the row's task fits its
    machine and the column's fits its own — except on the ``diagonal``
    (one machine for both), where ``same_ok`` says whether both fit."""
    allowed = row_ok[:, None] & col_ok[None, :]
    if diagonal is not None:
        allowed.ravel()[diagonal] = same_ok
    return allowed


@dataclass
class _Hierarchy:
    """One placement's clustering, machines as name-order indices."""

    #: Cluster leaders in ascending index order, and beside each the id of
    #: the cluster it leads (its position in the k-center's leader list).
    leaders: np.ndarray
    led: np.ndarray
    #: ``np.ix_(leaders, leaders)`` and the diagonal of that block.
    grid: Tuple[np.ndarray, np.ndarray]
    diagonal: np.ndarray
    #: Cluster id per machine; member indices (ascending) per cluster id.
    owner: np.ndarray
    members: List[np.ndarray]
    #: Per leader machine, the id of its cluster — which is also the order
    #: the scalar algorithm evaluates leaders in.
    cluster_of: np.ndarray


@dataclass
class _Round:
    """State of one :meth:`GreedyPlacer.place` call (name-order indices)."""

    names: List[str]
    declared: List[str]  # the same names in the cluster's declaration order
    board: EffectiveRateMatrix
    free: np.ndarray  # free CPU per machine
    unmeasured: bool  # the profile lacks some pair among these machines
    everyone: np.ndarray  # arange(len(names))
    diagonal: np.ndarray
    hierarchy: Optional[_Hierarchy]
    traced: bool  # emit a ``placement.decision`` point per choice
    #: While traced, the last :meth:`GreedyPlacer._best`'s candidate count,
    #: runner-up pair (or None), and the chosen and runner-up rates.
    decision: Optional[Tuple[int, Optional[Tuple[int, int]], float, float]] = None


def _runner_up(
    scores: np.ndarray, allowed: np.ndarray, at: int, rows: np.ndarray, cols: np.ndarray
) -> Tuple[int, Optional[Tuple[int, int]], float, float]:
    """:attr:`_Round.decision` of a masked argmax that chose position ``at``.

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
    (intra-machine rates are typically infinite, so this only matters when
    the profile's intra-VM rate is finite).

    Args:
        cluster_threshold: machine count at which placement switches to the
            hierarchical (cluster-representatives-first) candidate search;
            ``None`` uses ``_CLUSTER_THRESHOLD`` (96).  ``1`` always
            clusters.
        n_clusters: how many rate-similarity clusters to form when the
            hierarchical path engages; ``None`` uses ``ceil(sqrt(n))``.
            Setting it to the machine count makes every cluster a
            singleton, which reproduces the flat selection exactly.
    """

    name = "choreo-greedy"

    def __init__(
        self,
        cluster_threshold: Optional[int] = None,
        n_clusters: Optional[int] = None,
    ):
        if cluster_threshold is not None and cluster_threshold < 1:
            raise PlacementError("cluster_threshold must be >= 1")
        if n_clusters is not None and n_clusters < 1:
            raise PlacementError("n_clusters must be >= 1")
        self.cluster_threshold = cluster_threshold
        self.n_clusters = n_clusters
        #: Clustering used by the last :meth:`place` call (None when the
        #: flat path ran): {"n_clusters": ..., "largest": ...}.
        self.last_cluster_stats: Optional[Dict[str, int]] = None

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
        ):
            return self._place(app, cluster, profile)

    def _place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile] = None,
    ) -> Placement:
        if profile is None:
            raise PlacementError("the greedy placer needs a network profile")
        self.check_feasible(app, cluster)

        machines = cluster.machine_names()
        covered = set(profile.vms)
        for machine in machines:
            if machine not in covered:
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

        # Line 2: walk transfers in descending order of volume.
        for src_task, dst_task, _volume in app.transfers():
            src_at = placed.get(src_task)
            dst_at = placed.get(dst_task)

            if src_at is not None and dst_at is not None:
                # Both endpoints already pinned; just account for the
                # connection so later rate estimates see it.
                board.record(src_at, dst_at)
                continue

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
            if dst_at is None and dst_task not in placed:
                assign(dst_task, dst_machine)
            board.record(src_machine, dst_machine)

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
        candidates, runner_up, rate, second = rnd.decision
        names = rnd.names
        obs.point(
            "placement.decision", placer="greedy", app=app.name,
            transfer=[src_task, dst_task],
            path="flat" if rnd.hierarchy is None else "hierarchical",
            candidates=candidates, chosen=[names[best[0]], names[best[1]]],
            runner_up=None if runner_up is None else [names[runner_up[0]], names[runner_up[1]]],
            rate_bps=rate, gap_bps=None if runner_up is None else (
                0.0 if second == rate else rate - second
            ),
        )

    def _open_round(
        self,
        cluster: ClusterState,
        machines: List[str],
        profile: NetworkProfile,
    ) -> _Round:
        """Index the machines by name and build the round's arrays."""
        names = sorted(machines)
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        available = cluster.available_cpus()
        free = np.array([available[name] for name in names])
        board = EffectiveRateMatrix(profile, names)

        threshold = (
            _CLUSTER_THRESHOLD
            if self.cluster_threshold is None
            else self.cluster_threshold
        )
        hierarchy: Optional[_Hierarchy] = None
        self.last_cluster_stats = None
        if n >= threshold:
            k = (
                int(math.ceil(math.sqrt(n)))
                if self.n_clusters is None
                else self.n_clusters
            )
            # Clustered in declaration order (it seeds the k-center).
            declared = np.array([index[name] for name in machines], dtype=np.intp)
            leader_rows, owner_rows = _k_center(
                board.single[np.ix_(declared, declared)], k
            )
            owner = np.empty(n, dtype=np.intp)
            owner[declared] = owner_rows
            in_order = declared[leader_rows]
            cluster_of = np.zeros(n, dtype=np.intp)
            cluster_of[in_order] = np.arange(len(in_order))
            led = np.argsort(in_order)
            leaders = in_order[led]
            members = [np.flatnonzero(owner == c) for c in range(len(leaders))]
            hierarchy = _Hierarchy(
                leaders=leaders, led=led, grid=np.ix_(leaders, leaders),
                diagonal=_diagonal(len(leaders)), owner=owner, members=members,
                cluster_of=cluster_of,
            )
            self.last_cluster_stats = {
                "n_clusters": len(leaders),
                "largest": max(len(group) for group in members),
            }
        return _Round(
            names=names, declared=machines, board=board, free=free,
            unmeasured=bool(np.isnan(board.single).any()),
            everyone=np.arange(n), diagonal=_diagonal(n), hierarchy=hierarchy,
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
        if rnd.hierarchy is not None:
            return self._choose_hierarchical(
                rnd, rnd.hierarchy, src_at, dst_at,
                src_demand <= room, dst_demand <= room,
                src_demand + dst_demand <= room,
            )
        rates, everyone = rnd.board.rates, rnd.everyone
        if src_at is not None:
            pin = everyone[src_at:src_at + 1]
            return self._best(
                rnd, rates[src_at:src_at + 1], pin, everyone,
                (dst_demand <= room)[None, :], pin,
            )
        if dst_at is not None:
            pin = everyone[dst_at:dst_at + 1]
            return self._best(
                rnd, rates[:, dst_at:dst_at + 1], everyone, pin,
                (src_demand <= room)[:, None], pin,
            )
        allowed = _pairs_allowed(
            src_demand <= room, dst_demand <= room,
            src_demand + dst_demand <= room, rnd.diagonal,
        )
        return self._best(rnd, rates, everyone, everyone, allowed, rnd.diagonal)

    def _choose_hierarchical(
        self,
        rnd: _Round,
        h: _Hierarchy,
        src_at: Optional[int],
        dst_at: Optional[int],
        src_ok: np.ndarray,
        dst_ok: np.ndarray,
        both_ok: np.ndarray,
    ) -> Optional[Tuple[int, int]]:
        """Two-stage candidate search: representatives first, then members.

        Stage 1 ranks cluster-leader pairs by the flat selection key, open
        only to clusters that hold a CPU-feasible candidate (the scalar walk
        down the ranking skips the others); stage 2 applies the flat rules
        to the winning pair's cluster members.  Across the clusters the
        reachable candidate set is exactly the flat one — ``None`` comes
        back only when the flat search would find nothing too.
        """
        rates = rnd.board.rates
        k = len(h.members)
        if src_at is not None:
            # Source pinned (line 4): destination clusters by the leader
            # path out of the pinned machine, then the best member.
            pin = rnd.everyone[src_at:src_at + 1]
            sinks = np.bincount(h.owner[dst_ok], minlength=k) > 0
            lead = self._best(
                rnd, rates[src_at, h.leaders][None, :], pin, h.leaders,
                sinks[h.led][None, :], np.flatnonzero(h.leaders == src_at),
                rank=h.cluster_of, probe_all=True,
            )
            if lead is None:
                return None
            members = h.members[h.cluster_of[lead[1]]]
            return self._best(
                rnd, rates[src_at, members][None, :], pin, members,
                dst_ok[members][None, :], np.flatnonzero(members == src_at),
            )
        if dst_at is not None:
            # Destination pinned (line 6), symmetric.
            pin = rnd.everyone[dst_at:dst_at + 1]
            sources = np.bincount(h.owner[src_ok], minlength=k) > 0
            lead = self._best(
                rnd, rates[h.leaders, dst_at][:, None], h.leaders, pin,
                sources[h.led][:, None], np.flatnonzero(h.leaders == dst_at),
                rank=h.cluster_of, probe_all=True,
            )
            if lead is None:
                return None
            members = h.members[h.cluster_of[lead[0]]]
            return self._best(
                rnd, rates[members, dst_at][:, None], members, pin,
                src_ok[members][:, None], np.flatnonzero(members == dst_at),
            )
        # Neither pinned (lines 7-8): ordered leader pairs.  A cluster
        # paired with itself needs two distinct machines, or one machine
        # with room for both tasks (the colocation candidates live there).
        sources = np.bincount(h.owner[src_ok], minlength=k)
        sinks = np.bincount(h.owner[dst_ok], minlength=k)
        either = np.bincount(h.owner[src_ok & dst_ok], minlength=k)
        colocated = np.bincount(h.owner[both_ok], minlength=k)
        within = (sources * sinks - either > 0) | (colocated > 0)
        lead = self._best(
            rnd, rates[h.grid], h.leaders, h.leaders,
            _pairs_allowed(
                (sources > 0)[h.led], (sinks > 0)[h.led], within[h.led], h.diagonal
            ),
            h.diagonal, rank=h.cluster_of, probe_all=True,
        )
        if lead is None:
            return None
        i, j = h.cluster_of[lead[0]], h.cluster_of[lead[1]]
        rows, cols = h.members[i], h.members[j]
        diagonal = _diagonal(len(rows)) if i == j else None
        return self._best(
            rnd, rates[rows[:, None], cols], rows, cols,
            _pairs_allowed(src_ok[rows], dst_ok[cols], both_ok[rows], diagonal),
            diagonal,
        )

    def _best(
        self,
        rnd: _Round,
        block: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        allowed: np.ndarray,
        colocated: Optional[np.ndarray],
        rank: Optional[np.ndarray] = None,
        probe_all: bool = False,
    ) -> Optional[Tuple[int, int]]:
        """Masked argmax over one block of the rate matrix.

        The one candidate selection of the flat search and of both stages
        of the hierarchical search.  ``block[r, c]`` is the rate from
        machine ``rows[r]`` to machine ``cols[c]`` (both ascending),
        ``allowed`` the CPU mask over it, ``colocated`` the flat positions
        where row and column name the same machine.  Returns the machines
        of the candidate minimising Algorithm 1's key ``(-rate, -colocated,
        src name, dst name)``: the first maximum in row-major order, unless
        a colocated candidate is tied at the maximum.  ``None`` when
        nothing is allowed.

        Raises:
            MeasurementError: a candidate's rate is unmeasured — the first
                such pair in the order the scalar algorithm evaluates them
                (``rank``, by default the declaration order; all of the
                block when ``probe_all``, as ranking the leaders reads
                every leader pair).
        """
        if rnd.unmeasured:
            missing = np.isnan(block)
            if not probe_all:
                missing &= allowed
            if missing.any():
                if rank is None:
                    position = {name: i for i, name in enumerate(rnd.declared)}
                    rank = np.array([position[name] for name in rnd.names])
                r, c = np.nonzero(missing)
                first = np.lexsort((rank[cols[c]], rank[rows[r]]))[0]
                src, dst = rnd.names[rows[r[first]]], rnd.names[cols[c[first]]]
                raise MeasurementError(
                    f"profile has no measurement for ({src!r}, {dst!r})"
                )
        if not allowed.any():
            return None
        scores = np.where(allowed, block, -math.inf).ravel()
        at = int(scores.argmax())
        if colocated is not None:
            tied = scores[colocated] == scores[at]
            if tied.any():
                at = int(colocated[tied.argmax()])
        if rnd.traced:
            rnd.decision = _runner_up(scores, allowed, at, rows, cols)
        r, c = divmod(at, len(cols))
        return int(rows[r]), int(cols[c])
