"""The Appendix's two MILP linearisations, solved with HiGHS — the oracles.

Until PR 17 this was how ``repro.core.placement.ilp.OptimalPlacer`` solved
the Appendix program; it now searches the assignment directly, and the two
formulations live on here, moved verbatim, as the references
``tests/test_ilp.py`` holds the search to:

* ``"dense"`` — the literal textbook linearisation: every product
  ``X_im * X_jn`` gets a binary variable and the standard three-inequality
  linearisation (``z <= X_im``, ``z <= X_jn``, ``z >= X_im + X_jn - 1``).
* ``"sparse"`` — product columns only for task pairs with traffic and
  machines that are CPU-feasible and carry a finite-rate bottleneck term,
  continuous with a single lower-bounding row each; under the hose model
  one ``w >= X_im - X_jm`` per (pair, machine) replaces the machine-pair
  slab ``z_imjn``; the pipe model's products are collapsed the Glover way.
  ``warm_start`` caps the objective at the greedy placement's value and
  ``symmetry_breaking`` adds lexicographic rows over interchangeable
  machines — both exactness-preserving.

The only thing not carried over is the ``candidate_k`` restriction (a
heuristic, deleted with its options).  ``scipy`` is a test-only dependency:
importing this module skips the calling test when it is missing.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy import optimize, sparse  # noqa: E402

from repro.core.estimator import estimate_completion_time  # noqa: E402
from repro.core.network_profile import NetworkProfile  # noqa: E402
from repro.core.placement.base import (  # noqa: E402
    ClusterState,
    Placement,
    Placer,
    cpu_feasible_machines,
    validate_placement,
)
from repro.core.placement.greedy import greedy_incumbent  # noqa: E402
from repro.errors import PlacementError  # noqa: E402
from repro.units import BITS_PER_BYTE  # noqa: E402
from repro.workloads.application import Application  # noqa: E402

_EPS = 1e-9
#: Slack on the warm-start objective cut: the MILP's bottleneck sums and the
#: estimator accumulate the same terms in different orders, so the incumbent
#: may sit a few ulps above its constraint-side value.
_WARM_SLACK = 1e-6

FORMULATIONS = ("sparse", "dense")


@contextlib.contextmanager
def _silence_native_stdout():
    """Mute the C-level stdout for the duration of a solve.

    Some HiGHS builds print a stray debug line
    (``HighsMipSolverData::transformNewIntegerFeasibleSolution ...``)
    straight to fd 1 even with display off, which corrupts machine-readable
    CLI output.  When stdout has no real file descriptor (e.g. under a
    capturing test harness) this is a no-op.
    """
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError, AttributeError):
        yield
        return
    sys.stdout.flush()
    saved = os.dup(fd)
    try:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), fd)
            yield
    finally:
        os.dup2(saved, fd)
        os.close(saved)


def _communicating_pairs(
    app: Application, task_index: Dict[str, int]
) -> Tuple[List[Tuple[int, int]], Dict[Tuple[int, int], Tuple[float, float]]]:
    """Unordered communicating task pairs and their directed volumes."""
    volumes: Dict[Tuple[int, int], Tuple[float, float]] = {}
    for src, dst, volume in app.transfers():
        i, j = task_index[src], task_index[dst]
        lo, hi = (i, j) if i < j else (j, i)
        fwd, rev = volumes.get((lo, hi), (0.0, 0.0))
        if i < j:
            fwd += volume
        else:
            rev += volume
        volumes[(lo, hi)] = (fwd, rev)
    return sorted(volumes), volumes


class MilpPlacer(Placer):
    """Solve the Appendix's linearised placement program with HiGHS.

    Args:
        model: ``"hose"`` or ``"pipe"`` bottleneck model.
        time_limit_s: solver time limit; the best incumbent (or the greedy
            fallback, when warm-started) is used if the limit is reached.
        mip_rel_gap: relative MIP gap at which the solver may stop.
        formulation: ``"sparse"`` (pruned, default) or ``"dense"`` (the
            original full product grid, kept as the A/B reference).
        warm_start: seed the solve with the greedy placement (objective
            bound + budget-exhaustion fallback).  A greedy failure is
            tolerated: the solve proceeds cold.
        symmetry_breaking: add lexicographic ordering constraints over
            interchangeable machines (sparse formulation only).
    """

    name = "appendix-milp"

    def __init__(
        self,
        model: str = "hose",
        time_limit_s: float = 60.0,
        mip_rel_gap: float = 1e-4,
        formulation: str = "sparse",
        warm_start: bool = True,
        symmetry_breaking: bool = True,
    ):
        if model not in ("hose", "pipe"):
            raise PlacementError(f"unknown rate model {model!r}")
        if time_limit_s <= 0:
            raise PlacementError("time_limit_s must be positive")
        if formulation not in FORMULATIONS:
            raise PlacementError(
                f"unknown formulation {formulation!r}; known: {FORMULATIONS}"
            )
        self.model = model
        self.time_limit_s = time_limit_s
        self.mip_rel_gap = mip_rel_gap
        self.formulation = formulation
        self.warm_start = warm_start
        self.symmetry_breaking = symmetry_breaking
        #: Stats of the most recent :meth:`place` call.
        self.last_solve_stats: Optional[Dict[str, object]] = None
        #: ``(app_name, stats)`` per :meth:`place` call on this instance.
        self.stats_history: List[Tuple[str, Dict[str, object]]] = []

    # -------------------------------------------------------------- solving
    def place(
        self,
        app: Application,
        cluster: ClusterState,
        profile: Optional[NetworkProfile] = None,
    ) -> Placement:
        if profile is None:
            raise PlacementError("the optimal placer needs a network profile")
        self.check_feasible(app, cluster)
        started = time.perf_counter()

        tasks = app.task_names
        machines = cluster.machine_names()
        task_index = {t: i for i, t in enumerate(tasks)}
        pairs, volumes = _communicating_pairs(app, task_index)

        incumbent: Optional[Placement] = None
        warm_bound: Optional[float] = None
        if self.warm_start:
            incumbent = greedy_incumbent(app, cluster, profile, model=self.model)
            if incumbent is not None:
                warm_bound = estimate_completion_time(
                    incumbent.assignments, app, profile, model=self.model
                )

        n_tasks, n_machines = len(tasks), len(machines)
        stats: Dict[str, object] = {
            "formulation": self.formulation,
            "model": self.model,
            "n_tasks": n_tasks,
            "n_machines": n_machines,
            "n_pairs": len(pairs),
            "warm_start_accepted": incumbent is not None,
            "warm_bound_s": warm_bound,
            "fallback_used": False,
            # The size the textbook formulation would have, for comparison.
            "dense_vars": n_tasks * n_machines + len(pairs) * n_machines ** 2 + 1,
            "dense_rows": (
                n_tasks + n_machines + 3 * len(pairs) * n_machines ** 2
            ),
        }

        if self.formulation == "dense":
            placement = self._solve_dense(
                app, cluster, profile, tasks, machines, pairs, volumes,
                warm_bound, incumbent, stats,
            )
        else:
            placement = self._solve_sparse(
                app, cluster, profile, tasks, machines, pairs, volumes,
                warm_bound, incumbent, stats,
            )

        stats["solve_wall_s"] = round(time.perf_counter() - started, 6)
        stats["objective_s"] = estimate_completion_time(
            placement.assignments, app, profile, model=self.model
        )
        self.last_solve_stats = stats
        self.stats_history.append((app.name, stats))
        validate_placement(placement, app, cluster)
        return placement

    # ---------------------------------------------------------- shared bits
    def _run_milp(
        self,
        n_vars: int,
        t_col: int,
        integrality: np.ndarray,
        upper: np.ndarray,
        triplets: Tuple[List[float], List[int], List[int]],
        row_lbs: List[float],
        row_ubs: List[float],
    ):
        data, row_idx, col_idx = triplets
        matrix = sparse.csr_matrix(
            (data, (row_idx, col_idx)), shape=(len(row_lbs), n_vars)
        )
        objective = np.zeros(n_vars)
        objective[t_col] = 1.0
        bounds = optimize.Bounds(lb=np.zeros(n_vars), ub=upper)
        with _silence_native_stdout():
            return optimize.milp(
                c=objective,
                constraints=optimize.LinearConstraint(matrix, row_lbs, row_ubs),
                integrality=integrality,
                bounds=bounds,
                options={
                    "time_limit": self.time_limit_s,
                    "mip_rel_gap": self.mip_rel_gap,
                    "disp": False,
                },
            )

    @staticmethod
    def _record_solver_outcome(stats: Dict[str, object], result) -> None:
        stats["status"] = int(result.status)
        stats["mip_gap"] = (
            float(result.mip_gap) if getattr(result, "mip_gap", None) is not None
            else None
        )
        stats["mip_nodes"] = (
            int(result.mip_node_count)
            if getattr(result, "mip_node_count", None) is not None
            else None
        )

    def _fallback_or_raise(
        self,
        app: Application,
        incumbent: Optional[Placement],
        stats: Dict[str, object],
        message: str,
    ) -> Placement:
        if incumbent is not None:
            stats["fallback_used"] = True
            return incumbent
        raise PlacementError(
            f"optimal placement failed for {app.name!r}: {message}"
        )

    @staticmethod
    def _warm_upper(warm_bound: Optional[float]) -> float:
        if warm_bound is None or math.isinf(warm_bound):
            return np.inf
        return warm_bound * (1.0 + _WARM_SLACK) + _EPS

    # ------------------------------------------------------------ sparse MILP
    def _solve_sparse(
        self,
        app: Application,
        cluster: ClusterState,
        profile: NetworkProfile,
        tasks: List[str],
        machines: List[str],
        pairs: List[Tuple[int, int]],
        volumes: Dict[Tuple[int, int], Tuple[float, float]],
        warm_bound: Optional[float],
        incumbent: Optional[Placement],
        stats: Dict[str, object],
    ) -> Placement:
        avail = [cluster.available_cpu(m) for m in machines]
        mach_index = {m: i for i, m in enumerate(machines)}
        feasible = cpu_feasible_machines(app, cluster)

        candidates = self._candidate_machines(
            app, tasks, mach_index, feasible
        )
        result, placement = self._build_and_solve_sparse(
            app, profile, tasks, machines, pairs, volumes, avail, candidates,
            warm_bound, stats,
        )
        self._record_solver_outcome(stats, result)
        if placement is None:
            return self._fallback_or_raise(app, incumbent, stats, result.message)
        return placement

    def _candidate_machines(
        self,
        app: Application,
        tasks: List[str],
        mach_index: Dict[str, int],
        feasible: Dict[str, List[str]],
    ) -> List[List[int]]:
        """CPU-feasible candidate machine indices per task."""
        candidates: List[List[int]] = []
        for task in tasks:
            allowed = feasible[task]
            if not allowed:
                raise PlacementError(
                    f"task {task!r} of application {app.name!r} fits on no machine"
                )
            candidates.append([mach_index[m] for m in allowed])
        return candidates

    def _build_and_solve_sparse(
        self,
        app: Application,
        profile: NetworkProfile,
        tasks: List[str],
        machines: List[str],
        pairs: List[Tuple[int, int]],
        volumes: Dict[Tuple[int, int], Tuple[float, float]],
        avail: List[float],
        candidates: List[List[int]],
        warm_bound: Optional[float],
        stats: Dict[str, object],
    ) -> Tuple[object, Optional[Placement]]:
        n_tasks = len(tasks)
        cpu = [app.cpu_demand(t) for t in tasks]
        intra = profile.intra_vm_rate_bps

        # ----- x columns: only CPU-feasible (task, machine) assignments.
        x_col: Dict[Tuple[int, int], int] = {}
        for t in range(n_tasks):
            for m in candidates[t]:
                x_col[(t, m)] = len(x_col)
        n_x = len(x_col)

        if self.model == "hose":
            hose = [profile.hose_rate(m) for m in machines]

        # ----- product columns, pruned and continuous.  ``bneck`` accumulates
        # each bottleneck constraint's (column, coefficient) entries keyed by
        # bottleneck id; ``lin_rows`` collects the products' linearisation
        # rows as (cols, coefs, ub).
        #
        # Under the hose model the egress term of machine ``a`` for pair
        # ``(i, j)`` is ``x_ia * (1 - x_ja)`` — it does not depend on *where*
        # the peer sits, only on whether it is colocated — so one variable
        # ``w >= x_ia - x_ja`` per (pair, machine) replaces the M-wide
        # ``z_imjn`` slab, with a tight two-term linearisation.  The pipe
        # model's per-pair products are collapsed the Glover way: one
        # continuous ``g_{s,a,b}`` per (sender task, machine pair) carries
        # the bytes task ``s`` sends over link ``(a, b)``, bounded below by
        # ``sum_t vol(s->t) * x_tb - V * (1 - x_sa)`` — exact at integral
        # assignments, O(T*M^2) columns instead of O(P*M^2).
        n_aux = 0
        aux_upper: List[float] = []
        lin_rows: List[Tuple[List[int], List[float], float]] = []
        agg_rows: List[Tuple[List[int], List[float], float]] = []
        bneck: Dict[Tuple, List[Tuple[int, float]]] = {}

        def bneck_add(key: Tuple, col: int, coef: float) -> None:
            bneck.setdefault(key, []).append((col, coef))

        def new_aux(ub: float = 1.0) -> int:
            nonlocal n_aux
            aux_upper.append(ub)
            n_aux += 1
            return n_x + n_aux - 1

        for i, j in pairs:
            fwd, rev = volumes[(i, j)]
            cand_i, cand_j = set(candidates[i]), set(candidates[j])
            if self.model == "hose":
                # Egress of a: fwd * x_ia * (1 - x_ja)  +  rev * x_ja * (1 - x_ia).
                for sender, peer, volume in ((i, j, fwd), (j, i, rev)):
                    if volume <= 0:
                        continue
                    for a in candidates[sender]:
                        if math.isinf(hose[a]):
                            continue
                        coef = volume * BITS_PER_BYTE / hose[a]
                        if a not in (cand_i if peer == i else cand_j):
                            # Peer can never sit on a: the product is x itself.
                            bneck_add((0, a), x_col[(sender, a)], coef)
                            continue
                        col = new_aux()
                        lin_rows.append(
                            (
                                [x_col[(sender, a)], x_col[(peer, a)], col],
                                [1.0, -1.0, -1.0],
                                0.0,  # x_sender - x_peer - w <= 0
                            )
                        )
                        bneck_add((0, a), col, coef)
            # (Pipe-model inter-machine terms are aggregated per sender
            # below, outside this per-pair loop.)

            # Colocation term, shared by both models (finite intra rate only).
            if not math.isinf(intra):
                for a in cand_i & cand_j:
                    if cpu[i] + cpu[j] > avail[a] + _EPS:
                        continue  # colocation never CPU-feasible
                    col = new_aux()
                    lin_rows.append(
                        (
                            [x_col[(i, a)], x_col[(j, a)], col],
                            [1.0, 1.0, -1.0],
                            1.0,
                        )
                    )
                    bneck_add((2, a), col, (fwd + rev) * BITS_PER_BYTE / intra)

        if self.model == "pipe":
            # Per-sender directed volumes (both orientations of each pair).
            out_vol: List[Dict[int, float]] = [dict() for _ in range(n_tasks)]
            for i, j in pairs:
                fwd, rev = volumes[(i, j)]
                if fwd > 0:
                    out_vol[i][j] = out_vol[i].get(j, 0.0) + fwd
                if rev > 0:
                    out_vol[j][i] = out_vol[j].get(i, 0.0) + rev
            cand_sets = [set(c) for c in candidates]
            for s in range(n_tasks):
                if not out_vol[s]:
                    continue
                recv = sorted(out_vol[s].items())
                for a in candidates[s]:
                    for b in range(len(machines)):
                        if b == a:
                            continue  # colocated peers use the intra block
                        rate_ab = profile.rate(machines[a], machines[b])
                        if math.isinf(rate_ab):
                            continue
                        # g carries *seconds* of transfer on (a, b), not
                        # bytes: volumes ~1e9 against bottleneck coefs
                        # ~1e-8 span a range HiGHS mis-solves.
                        coef_ab = BITS_PER_BYTE / rate_ab
                        terms = [
                            (t, v * coef_ab) for t, v in recv
                            if b in cand_sets[t]
                        ]
                        if not terms:
                            continue
                        big_m = sum(v for _, v in terms)
                        col = new_aux(ub=big_m)
                        # g >= sum_t sec(s->t) * x_tb - big_m * (1 - x_sa),
                        # i.e. sum_t sec * x_tb + big_m * x_sa - g <= big_m.
                        agg_rows.append(
                            (
                                [x_col[(t, b)] for t, _ in terms]
                                + [x_col[(s, a)], col],
                                [v for _, v in terms] + [big_m, -1.0],
                                big_m,
                            )
                        )
                        bneck_add((1, a, b), col, 1.0)

        t_col = n_x + n_aux
        n_vars = t_col + 1

        # ----- rows, assembled as one COO triplet batch.
        data: List[float] = []
        row_idx: List[int] = []
        col_idx: List[int] = []
        row_lbs: List[float] = []
        row_ubs: List[float] = []

        def add_row(cols: List[int], coefs: List[float], lb: float, ub: float):
            r = len(row_lbs)
            row_idx.extend([r] * len(cols))
            col_idx.extend(cols)
            data.extend(coefs)
            row_lbs.append(lb)
            row_ubs.append(ub)

        # Each task on exactly one machine.
        for t in range(n_tasks):
            cols = [x_col[(t, m)] for m in candidates[t]]
            add_row(cols, [1.0] * len(cols), 1.0, 1.0)

        # CPU capacity, only where it can bind.
        for m in range(len(machines)):
            cols = [x_col[(t, m)] for t in range(n_tasks) if (t, m) in x_col]
            demand = [cpu[t] for t in range(n_tasks) if (t, m) in x_col]
            if cols and sum(demand) > avail[m] + _EPS:
                add_row(cols, demand, -np.inf, avail[m])

        # Product linearisation, one row per auxiliary column, appended as a
        # single triplet block (every row has exactly three entries).
        if lin_rows:
            base = len(row_lbs)
            rows_arr = np.arange(base, base + len(lin_rows))
            row_idx.extend(np.repeat(rows_arr, 3).tolist())
            col_idx.extend(
                np.asarray([cols for cols, _, _ in lin_rows]).ravel().tolist()
            )
            data.extend(
                np.asarray([coefs for _, coefs, _ in lin_rows]).ravel().tolist()
            )
            row_lbs.extend([-np.inf] * len(lin_rows))
            row_ubs.extend([ub for _, _, ub in lin_rows])

        # Sender-aggregation rows (pipe model), variable width.
        for cols, coefs, ub in agg_rows:
            add_row(cols, coefs, -np.inf, ub)

        # Bottleneck rows: sum(coef * z) - T <= 0, deterministic order.
        for key in sorted(bneck):
            entries = bneck[key]
            cols = [col for col, _ in entries] + [t_col]
            coefs = [coef for _, coef in entries] + [-1.0]
            add_row(cols, coefs, -np.inf, 0.0)

        # Symmetry breaking over interchangeable machines.
        n_classes = 0
        if self.symmetry_breaking:
            classes = self._interchangeable_classes(
                machines, avail, candidates, profile
            )
            n_classes = len(classes)
            for members in classes:
                class_tasks = sorted(
                    t for t in range(n_tasks) if (t, members[0]) in x_col
                )
                for prev, cur in zip(members, members[1:]):
                    earlier: List[int] = []
                    for t in class_tasks:
                        # Task t may use `cur` only if an earlier task uses
                        # `prev` — the lexicographic representative.
                        cols = [x_col[(t, cur)]] + [x_col[(e, prev)] for e in earlier]
                        coefs = [1.0] + [-1.0] * len(earlier)
                        add_row(cols, coefs, -np.inf, 0.0)
                        earlier.append(t)

        integrality = np.zeros(n_vars)
        integrality[:n_x] = 1.0
        upper = np.ones(n_vars)
        if aux_upper:
            upper[n_x:t_col] = aux_upper
        upper[t_col] = self._warm_upper(warm_bound)

        stats.update(
            {
                "n_vars": n_vars,
                "n_rows": len(row_lbs),
                "n_binaries": n_x,
                "n_products": n_aux,
                "symmetry_classes": n_classes,
            }
        )
        result = self._run_milp(
            n_vars, t_col, integrality, upper,
            (data, row_idx, col_idx), row_lbs, row_ubs,
        )
        if result.x is None:
            return result, None
        assignments: Dict[str, str] = {}
        for t, task in enumerate(tasks):
            values = [result.x[x_col[(t, m)]] for m in candidates[t]]
            assignments[task] = machines[candidates[t][int(np.argmax(values))]]
        return result, Placement(app_name=app.name, assignments=assignments)

    def _interchangeable_classes(
        self,
        machines: List[str],
        avail: List[float],
        candidates: List[List[int]],
        profile: NetworkProfile,
    ) -> List[List[int]]:
        """Maximal groups of machines the objective cannot tell apart.

        Machines are grouped greedily in index order; a machine joins a
        class only if it is pairwise interchangeable with *every* member
        (exact float equality — anything looser would trade exactness for
        pruning).  Classes of one are dropped.
        """
        task_sets: Dict[int, frozenset] = {}
        for m in range(len(machines)):
            task_sets[m] = frozenset(
                t for t, cand in enumerate(candidates) if m in cand
            )
        classes: List[List[int]] = []
        for m in range(len(machines)):
            placed = False
            for members in classes:
                if (
                    avail[m] == avail[members[0]]
                    and task_sets[m] == task_sets[members[0]]
                    and all(
                        self._interchangeable(machines, other, m, profile)
                        for other in members
                    )
                ):
                    members.append(m)
                    placed = True
                    break
            if not placed:
                classes.append([m])
        return [members for members in classes if len(members) > 1]

    def _interchangeable(
        self, machines: List[str], a: int, b: int, profile: NetworkProfile
    ) -> bool:
        ma, mb = machines[a], machines[b]
        if self.model == "hose":
            # The hose objective sees a machine only through its egress cap
            # (intra-VM rate is global), so equal hose rates suffice.
            return profile.hose_rate(ma) == profile.hose_rate(mb)
        if profile.rate(ma, mb) != profile.rate(mb, ma):
            return False
        for other in machines:
            if other in (ma, mb):
                continue
            if profile.rate(ma, other) != profile.rate(mb, other):
                return False
            if profile.rate(other, ma) != profile.rate(other, mb):
                return False
        return True

    # ------------------------------------------------------------- dense MILP
    def _solve_dense(
        self,
        app: Application,
        cluster: ClusterState,
        profile: NetworkProfile,
        tasks: List[str],
        machines: List[str],
        pairs: List[Tuple[int, int]],
        volumes: Dict[Tuple[int, int], Tuple[float, float]],
        warm_bound: Optional[float],
        incumbent: Optional[Placement],
        stats: Dict[str, object],
    ) -> Placement:
        """The original full product grid (the A/B reference formulation)."""
        n_tasks, n_machines = len(tasks), len(machines)
        n_x = n_tasks * n_machines
        n_z = len(pairs) * n_machines * n_machines
        n_vars = n_x + n_z + 1  # + the completion-time variable.
        t_col = n_vars - 1

        def x_col(task: int, machine: int) -> int:
            return task * n_machines + machine

        def pair_col(pair_idx: int, machine_a: int, machine_b: int) -> int:
            return n_x + (pair_idx * n_machines + machine_a) * n_machines + machine_b

        rows: List[Tuple[Dict[int, float], float, float]] = []  # (coeffs, lb, ub)

        # Each task is placed on exactly one machine.
        for t in range(n_tasks):
            rows.append(({x_col(t, m): 1.0 for m in range(n_machines)}, 1.0, 1.0))

        # CPU capacity per machine.
        for m, machine in enumerate(machines):
            coeffs = {x_col(t, m): app.cpu_demand(tasks[t]) for t in range(n_tasks)}
            rows.append((coeffs, -np.inf, cluster.available_cpu(machine)))

        # Product linearisation for every communicating pair.
        for p, (i, j) in enumerate(pairs):
            for a in range(n_machines):
                for b in range(n_machines):
                    zc = pair_col(p, a, b)
                    rows.append(({zc: 1.0, x_col(i, a): -1.0}, -np.inf, 0.0))
                    rows.append(({zc: 1.0, x_col(j, b): -1.0}, -np.inf, 0.0))
                    rows.append(
                        ({x_col(i, a): 1.0, x_col(j, b): 1.0, zc: -1.0}, -np.inf, 1.0)
                    )

        # Completion-time (bottleneck) constraints.
        intra_rate = profile.intra_vm_rate_bps
        if self.model == "hose":
            for a, machine_a in enumerate(machines):
                rate = profile.hose_rate(machine_a)
                if math.isinf(rate):
                    continue
                coeffs: Dict[int, float] = {t_col: -1.0}
                for p, (i, j) in enumerate(pairs):
                    fwd, rev = volumes[(i, j)]
                    for b in range(n_machines):
                        if b == a:
                            continue
                        if fwd > 0:
                            col = pair_col(p, a, b)
                            coeffs[col] = coeffs.get(col, 0.0) + fwd * BITS_PER_BYTE / rate
                        if rev > 0:
                            col = pair_col(p, b, a)
                            coeffs[col] = coeffs.get(col, 0.0) + rev * BITS_PER_BYTE / rate
                rows.append((coeffs, -np.inf, 0.0))
        else:  # pipe
            for a, machine_a in enumerate(machines):
                for b, machine_b in enumerate(machines):
                    if a == b:
                        continue
                    rate = profile.rate(machine_a, machine_b)
                    if math.isinf(rate):
                        continue
                    coeffs = {t_col: -1.0}
                    for p, (i, j) in enumerate(pairs):
                        fwd, rev = volumes[(i, j)]
                        if fwd > 0:
                            col = pair_col(p, a, b)
                            coeffs[col] = coeffs.get(col, 0.0) + fwd * BITS_PER_BYTE / rate
                        if rev > 0:
                            col = pair_col(p, b, a)
                            coeffs[col] = coeffs.get(col, 0.0) + rev * BITS_PER_BYTE / rate
                    rows.append((coeffs, -np.inf, 0.0))

        # Intra-machine transfers (only matter when the intra-VM rate is finite).
        if not math.isinf(intra_rate):
            for a in range(n_machines):
                coeffs = {t_col: -1.0}
                for p, (i, j) in enumerate(pairs):
                    fwd, rev = volumes[(i, j)]
                    col = pair_col(p, a, a)
                    total = (fwd + rev) * BITS_PER_BYTE / intra_rate
                    if total > 0:
                        coeffs[col] = coeffs.get(col, 0.0) + total
                rows.append((coeffs, -np.inf, 0.0))

        data, row_idx, col_idx, lbs, ubs = [], [], [], [], []
        for r, (coeffs, lb, ub) in enumerate(rows):
            for col, value in coeffs.items():
                row_idx.append(r)
                col_idx.append(col)
                data.append(value)
            lbs.append(lb)
            ubs.append(ub)

        integrality = np.ones(n_vars)
        integrality[t_col] = 0
        upper = np.ones(n_vars)
        upper[t_col] = self._warm_upper(warm_bound)
        stats.update(
            {
                "n_vars": n_vars,
                "n_rows": len(rows),
                "n_binaries": n_vars - 1,
                "n_products": n_z,
                "symmetry_classes": 0,
            }
        )
        result = self._run_milp(
            n_vars, t_col, integrality, upper,
            (data, row_idx, col_idx), lbs, ubs,
        )
        self._record_solver_outcome(stats, result)
        if result.x is None:
            return self._fallback_or_raise(app, incumbent, stats, result.message)
        assignments: Dict[str, str] = {}
        for t, task in enumerate(tasks):
            values = [result.x[x_col(t, m)] for m in range(n_machines)]
            assignments[task] = machines[int(np.argmax(values))]
        return Placement(app_name=app.name, assignments=assignments)
