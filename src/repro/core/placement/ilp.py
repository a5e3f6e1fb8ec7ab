"""Optimal task placement (the paper's Appendix), solved exactly by search.

The Appendix minimises the completion time of the slowest bottleneck over
task -> machine assignments ``X``: a quadratic program, because the bytes a
bottleneck carries are products ``X_im * X_jn``.  The paper linearises the
products and hands the result to an ILP solver, and reports that this was
too slow to place with.  It is slow for a structural reason: the
linearisation's LP relaxation is worth nothing — spread every task ``1/M``
over every machine and all product variables vanish, so the bound is 0 and
a MILP solver has to climb by cut rounds.  The objective's own structure
gives a far better bound for free, so :class:`OptimalPlacer` searches the
assignment directly: a depth-first branch-and-bound with six rules, each
exact (``mip_rel_gap`` aside) for the reason given beside it.

1. **State and bound.**  Tasks are assigned in one fixed order (descending
   bytes sent + received, ties by index).  The state is the load of every
   bottleneck, keyed as :func:`~repro.core.estimator.estimate_completion_time`
   keys it: machine ``a``'s egress over ``hose_rate(a)`` and the bytes
   colocated on ``a`` over the intra-VM rate.  Placing a task adds only
   the terms between it and already-placed peers.  *Exact because* every
   term is a non-negative volume over a fixed rate: the maximum over
   decided pairs never decreases along a branch, so it is a lower bound on
   every completion of the partial assignment, with no relaxation.
2. **Hose tightening.**  A machine that holds tasks and has free CPU for at
   most ``k`` of the tasks still to place must send, to its members'
   unplaced peers, everything except the ``k`` largest per-peer totals.
   *Exact because* a peer's bytes leave the machine's egress only if the
   peer joins it, at most ``k`` can, and dropping the ``k`` largest totals
   is the most any ``k`` joiners could save.
3. **Incumbent and pruning.**  :func:`~repro.core.placement.greedy.greedy_incumbent`
   seeds the best known value (a greedy dead-end is tolerated — the search
   starts cold).  A child is explored only if its bound is below
   ``best * (1 - mip_rel_gap)``; children are visited in ascending bound,
   ties by machine index, so the order is deterministic and the first
   pruned child ends its parent's loop.  *Exact because* a pruned subtree
   holds nothing better than the incumbent by more than the gap.
4. **Symmetry by branching rule.**  Machines the objective cannot tell
   apart (equal free CPU and equal hose rate): of those still *empty*, only
   the lowest-indexed is tried.  Tasks it cannot tell apart (equal CPU,
   traffic matrix unchanged by swapping them) take machines in
   non-decreasing index order.  *Exact, also together, because* among the images of an optimal
   assignment under those swaps take the one whose machine-index sequence
   (in task order) is lexicographically smallest: if it broke either rule
   at some depth, the swap of the two machines — both unused before that
   depth — or of the two tasks would leave the earlier entries alone and
   lower that one, a contradiction; so the smallest image obeys both rules
   at every depth and is never cut.
5. **Budget.**  ``time_limit_s`` is read every ``_CLOCK_EVERY`` nodes; on
   expiry the best assignment found so far is returned (``status`` 1).  An
   exhausted tree *is* the optimality proof (``status`` 0).  The stack is
   explicit; its depth is the task count.
6. **Output.**  The winner is re-scored with ``estimate_completion_time``
   and passed through :func:`~repro.core.placement.base.validate_placement`.

One search serves every instance size and finite or infinite intra-VM
rates.  Its one bottleneck model is the estimator's: flows leaving a machine
share its egress cap (the hose model §4.4 finds on EC2/Rackspace; the
Appendix notes it corresponds to ``S_{mi,mj} = 1``).  The Appendix's two
MILP linearisations, solved with HiGHS, live on as the test oracles in
``tests/oracles/appendix_milp.py``; :class:`BruteForcePlacer` enumerates
every assignment and validates both on tiny instances.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from bisect import bisect_right
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.estimator import estimate_completion_time
from repro.core.network_profile import NetworkProfile
from repro.core.placement.base import (
    ClusterState,
    Placement,
    Placer,
    validate_placement,
)
from repro.core.placement.greedy import greedy_incumbent
from repro.errors import PlacementError
from repro.units import BITS_PER_BYTE
from repro.workloads.application import Application

_EPS = 1e-9
#: The wall clock is read once per this many search nodes (rule 5).
_CLOCK_EVERY = 1024


def _swappable(matrix: Sequence[Sequence[float]], i: int, j: int) -> bool:
    """True when exchanging indices ``i`` and ``j`` leaves ``matrix`` as it is."""
    row_i, row_j = matrix[i], matrix[j]
    if row_i[j] != row_j[i] or row_i[i] != row_j[j]:
        return False
    for k, row_k in enumerate(matrix):
        if k != i and k != j and (row_i[k] != row_j[k] or row_k[i] != row_k[j]):
            return False
    return True


def _swap_classes(n: int, same: Callable[[int, int], bool]) -> List[int]:
    """Class id per index, ``same(i, j)`` meaning "swapping i and j changes
    nothing" (exact float equality — anything looser would trade exactness
    for pruning).  Such swaps are closed under conjugation, so the relation
    is transitive and comparing with a class's first member is enough.
    """
    leaders: List[int] = []
    classes: List[int] = []
    for i in range(n):
        for class_id, leader in enumerate(leaders):
            if same(leader, i):
                classes.append(class_id)
                break
        else:
            classes.append(len(leaders))
            leaders.append(i)
    return classes


#: One candidate child: (bound, machine, bottleneck loads, pending rows).
_Child = Tuple[float, int, List[float], List[List[float]]]


class _Search:
    """One instance of the Appendix program, indexed for the search.

    Tasks are renumbered by their position in the branching order and
    machines by their position in ``cluster.machine_names()``; every rule
    number below refers to the module docstring.
    """

    def __init__(
        self,
        app: Application,
        cluster: ClusterState,
        profile: NetworkProfile,
    ):
        tasks = app.task_names
        self.machines = machines = cluster.machine_names()
        n, m = len(tasks), len(machines)
        index = {name: i for i, name in enumerate(tasks)}
        sent = [[0.0] * n for _ in range(n)]
        for src, dst, volume in app.transfers():
            sent[index[src]][index[dst]] += volume
        weight = [sum(sent[i]) + sum(row[i] for row in sent) for i in range(n)]
        order = sorted(range(n), key=lambda i: (-weight[i], i))
        self.tasks = [tasks[i] for i in order]
        vol = [[sent[i][j] for j in order] for i in order]
        cores = {task.name: task.cpu_cores for task in app.tasks}
        self.cpu = cpu = [cores[name] for name in self.tasks]
        available = cluster.available_cpus()
        self.avail = avail = [available[name] for name in machines]

        #: Per task, its peers earlier in the order: (peer, bytes to, bytes from).
        self.before = [
            [(j, vol[d][j], vol[j][d]) for j in range(d) if vol[d][j] or vol[j][d]]
            for d in range(n)
        ]
        self.n_pairs = sum(len(peers) for peers in self.before)

        # Bottleneck ids (rule 1): ``key[a][b]`` is the bottleneck that bytes
        # from machine a to machine b load, ``coef`` its seconds per byte
        # (0.0 at an infinite rate, which the estimator skips).
        intra = BITS_PER_BYTE / profile.intra_vm_rate_bps
        rates = [profile.hose_rate(name) for name in machines]
        self.key = [[a] * m for a in range(m)]
        for a in range(m):
            self.key[a][a] = m + a
        self.coef = [BITS_PER_BYTE / rate for rate in rates] + [intra] * m
        #: Per task, the bytes it sends to each task later in the order,
        #: and the ascending running sums of the later tasks' CPU (rule 2).
        self.later = [vol[d][d + 1:] for d in range(n)]
        self.fits = [
            list(itertools.accumulate(sorted(cpu[d:]))) for d in range(n + 1)
        ]

        # Rule 4: machine classes, and per task the previous task of its class.
        self.machine_class = _swap_classes(
            m, lambda a, b: avail[a] == avail[b] and rates[a] == rates[b]
        )
        task_class = _swap_classes(
            n, lambda i, j: cpu[i] == cpu[j] and _swappable(vol, i, j)
        )
        self.twin: List[int] = []
        latest: Dict[int, int] = {}
        for d, class_id in enumerate(task_class):
            self.twin.append(latest.get(class_id, -1))
            latest[class_id] = d

        # The partial assignment :meth:`run` walks: machine per task (-1 =
        # unplaced), and per machine its free CPU and how many tasks it holds.
        self.where, self.free, self.held = [-1] * n, list(avail), [0] * m

    def _pending_s(
        self, load: float, pending: List[float], room: float, d: int, coef: float
    ) -> float:
        """Rule 2: a machine's egress seconds once the tasks after ``d`` are
        placed, at least — ``load`` bytes already leave it, ``pending`` are
        its per-peer totals to those tasks, ``room`` its free CPU."""
        joiners = bisect_right(self.fits[d + 1], room + _EPS)
        if joiners == 0:
            return (load + sum(pending)) * coef
        return (load + sum(sorted(pending)[:-joiners])) * coef

    def _children(
        self,
        d: int,
        bound: float,
        load: List[float],
        rows: List[List[float]],
    ) -> List[_Child]:
        """Every machine task ``d`` may take, with the state it leads to,
        in the order rule 3 visits them."""
        key, coef, cpu_d = self.key, self.coef, self.cpu[d]
        where, free, held = self.where, self.free, self.held
        # Bytes task d sends to / takes from its placed peers, per host machine.
        sends: Dict[int, float] = {}
        takes: Dict[int, float] = {}
        for j, out, back in self.before[d]:
            b = where[j]
            if out:
                sends[b] = sends.get(b, 0.0) + out
            if back:
                takes[b] = takes.get(b, 0.0) + back
        # Rule 2 for the hosts that must now send to task d for certain,
        # unless it joins them.
        elsewhere = {
            b: self._pending_s(load[b] + back, rows[b][d + 1:], free[b], d, coef[b])
            for b, back in takes.items()
        }

        twin = self.twin[d]
        lowest = where[twin] if twin >= 0 else 0
        opened = set()
        children: List[_Child] = []
        for a in range(lowest, len(free)):
            if cpu_d > free[a] + _EPS:
                continue
            if not held[a]:
                # Rule 4: one empty machine per class (of those the task
                # rule left: a superset of what both rules allow, so exact).
                if self.machine_class[a] in opened:
                    continue
                opened.add(self.machine_class[a])
            child_load = load[:]
            value = bound
            # A bottleneck's last update leaves its final load, and no
            # earlier one reads higher.
            for b, volume in sends.items():
                k = key[a][b]
                child_load[k] += volume
                if child_load[k] * coef[k] > value:
                    value = child_load[k] * coef[k]
            for b, volume in takes.items():
                k = key[b][a]
                child_load[k] += volume
                if child_load[k] * coef[k] > value:
                    value = child_load[k] * coef[k]
            pending = self.later[d]
            if held[a]:
                pending = list(map(operator.add, rows[a][d + 1:], pending))
            value = max(
                value,
                self._pending_s(child_load[a], pending, free[a] - cpu_d, d, coef[a]),
                *[seconds for b, seconds in elsewhere.items() if b != a],
            )
            child_rows = rows[:]
            child_rows[a] = rows[a][:d + 1] + pending
            children.append((value, a, child_load, child_rows))
        children.sort(key=lambda child: child[:2])
        return children

    def run(
        self, best: float, gap: float, time_limit_s: float
    ) -> Tuple[Optional[Dict[str, str]], Dict[str, object]]:
        """Search for an assignment better than ``best`` by more than ``gap``.

        Returns the best one found (task name -> machine name; ``None``
        when nothing beat ``best``) and the counts: ``nodes`` partial
        assignments entered, ``leaves`` complete assignments scored,
        ``improvements`` times the incumbent was beaten, ``proved`` whether
        the tree was exhausted.  Walks ``self.where`` in place: one run per
        instance.
        """
        n, cpu = len(self.tasks), self.cpu
        where, free, held = self.where, self.free, self.held
        saved: List[float] = []  # free[a] before each placement, for an exact undo
        found: Optional[List[int]] = None
        cutoff = best * (1.0 - gap)
        nodes, leaves, improvements, proved = 1, 0, 0, True
        deadline = time.perf_counter() + time_limit_s

        def expand(d, bound, load, rows) -> Iterator[_Child]:
            nonlocal leaves
            children = self._children(d, bound, load, rows)
            if d + 1 == n:
                leaves += len(children)
            return iter(children)

        rows = [[0.0] * n] * len(free)
        frames = [expand(0, 0.0, [0.0] * len(self.coef), rows)]
        while frames:
            d = len(frames) - 1
            child = next(frames[-1], None)
            if child is None or child[0] >= cutoff:
                frames.pop()
                if frames:
                    a = where[d - 1]
                    where[d - 1], free[a] = -1, saved.pop()
                    held[a] -= 1
                continue
            bound, a, load, rows = child
            if d + 1 == n:
                # Rule 3 let it through, so it beats the incumbent.
                improvements += 1
                found = where[:-1] + [a]
                cutoff = bound * (1.0 - gap)
                continue
            nodes += 1
            if nodes % _CLOCK_EVERY == 0 and time.perf_counter() >= deadline:
                proved = False
                break
            where[d] = a
            saved.append(free[a])
            free[a] -= cpu[d]
            held[a] += 1
            frames.append(expand(d + 1, bound, load, rows))
        counts = {
            "nodes": nodes, "leaves": leaves,
            "improvements": improvements, "proved": proved,
        }
        if found is None:
            return None, counts
        return {t: self.machines[a] for t, a in zip(self.tasks, found)}, counts


class OptimalPlacer(Placer):
    """Solve the Appendix's placement program exactly (module docstring).

    Args:
        time_limit_s: search budget; when it runs out the best assignment
            found so far — at worst the greedy one — is returned.
        mip_rel_gap: relative gap at which a branch stops being worth
            exploring: the result is within this share of the optimum.
    """

    name = "choreo-optimal"

    def __init__(
        self,
        time_limit_s: float = 60.0,
        mip_rel_gap: float = 1e-4,
    ):
        if not time_limit_s > 0:
            raise PlacementError("time_limit_s must be positive")
        self.time_limit_s = time_limit_s
        self.mip_rel_gap = mip_rel_gap
        #: Stats of the most recent :meth:`place` call.
        self.last_solve_stats: Optional[Dict[str, object]] = None
        #: ``(app_name, stats)`` per :meth:`place` call on this instance.
        self.stats_history: List[Tuple[str, Dict[str, object]]] = []

    def place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile] = None,
    ) -> Placement:
        if profile is None:
            raise PlacementError("the optimal placer needs a network profile")
        with obs.span(
            "place.ilp", app=app.name, tasks=len(app.tasks),
            machines=len(cluster.machines),
        ):
            self.check_feasible(app, cluster)
            started = time.perf_counter()
            warm_bound: Optional[float] = None
            with obs.span("place.ilp.warm_start", app=app.name):
                incumbent = greedy_incumbent(app, cluster, profile)
                if incumbent is not None:
                    warm_bound = estimate_completion_time(
                        incumbent.assignments, app, profile
                    )
            with obs.span("place.ilp.solve", app=app.name) as solve:
                search = _Search(app, cluster, profile)
                found, counts = search.run(
                    math.inf if warm_bound is None else warm_bound,
                    self.mip_rel_gap, self.time_limit_s,
                )
                solve.set(**counts)
            obs.point("placement.decision", placer="ilp", app=app.name, **counts)
            proved = counts["proved"]
            if found is not None:
                placement = Placement(
                    app_name=app.name,
                    assignments={task: found[task] for task in app.task_names},
                )
            elif incumbent is not None:
                placement = incumbent
            else:
                raise PlacementError(
                    f"optimal placement failed for {app.name!r}: " + (
                        "no CPU-feasible assignment exists" if proved
                        else "time limit reached before any assignment was found"
                    )
                )
            stats: Dict[str, object] = {
                # The persisted schema names the sharing model; it is the hose.
                "model": "hose",
                "n_tasks": len(search.tasks),
                "n_machines": len(search.machines),
                "n_pairs": search.n_pairs,
                "warm_start_accepted": incumbent is not None,
                "warm_bound_s": warm_bound,
                # The budget ran out with greedy's placement still the best.
                "fallback_used": not proved and found is None,
                "status": 0 if proved else 1,
                "mip_gap": 0.0 if proved else None,
                "mip_nodes": counts["nodes"],
                "solve_wall_s": round(time.perf_counter() - started, 6),
                "objective_s": estimate_completion_time(
                    placement.assignments, app, profile
                ),
            }
            self.last_solve_stats = stats
            self.stats_history.append((app.name, stats))
            validate_placement(placement, app, cluster)
            return placement


class BruteForcePlacer(Placer):
    """Enumerate every CPU-feasible assignment and keep the best one.

    Only suitable for tiny instances (``machines ** tasks`` assignments are
    enumerated); the tests hold the search and the MILP oracles to it.
    """

    name = "brute-force"

    def __init__(self, max_assignments: int = 2_000_000):
        self.max_assignments = max_assignments

    def place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile] = None,
    ) -> Placement:
        if profile is None:
            raise PlacementError("the brute-force placer needs a network profile")
        self.check_feasible(app, cluster)
        tasks = app.task_names
        machines = cluster.machine_names()
        total = len(machines) ** len(tasks)
        if total > self.max_assignments:
            raise PlacementError(
                f"brute force would enumerate {total} assignments "
                f"(limit {self.max_assignments})"
            )

        best_assignment: Optional[Dict[str, str]] = None
        best_time = math.inf
        available = {m: cluster.available_cpu(m) for m in machines}
        for combo in itertools.product(machines, repeat=len(tasks)):
            usage: Dict[str, float] = {}
            feasible = True
            for task, machine in zip(tasks, combo):
                usage[machine] = usage.get(machine, 0.0) + app.cpu_demand(task)
                if usage[machine] > available[machine] + _EPS:
                    feasible = False
                    break
            if not feasible:
                continue
            assignment = dict(zip(tasks, combo))
            completion = estimate_completion_time(assignment, app, profile)
            if completion < best_time - _EPS:
                best_time = completion
                best_assignment = assignment
        if best_assignment is None:
            raise PlacementError(
                f"no CPU-feasible assignment exists for application {app.name!r}"
            )
        placement = Placement(app_name=app.name, assignments=best_assignment)
        validate_placement(placement, app, cluster)
        return placement
