"""The four benchmark workloads.

Each workload builds its inputs from a seed (``setup``), runs one *op* —
one fixed-size unit of the paper's pipeline — through the program's public
API with the default configured engine (``run``), and checks the outputs
against invariants rather than against another run of itself (``check``).
Sizes are fixed; ``--seconds`` only chooses how many ops a run measures.

Module-level functions of the program are always called through their
module (``executor.run_applications``), so the traced run's wrappers see
them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.cloud.ec2 import ec2_params
from repro.cloud.registry import make_provider
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.placement.base import ClusterState, validate_placement
from repro.core.profiler import ApplicationProfiler
from repro.errors import PlacementError
from repro.experiments.placers import resolve_placer
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.net import topology
from repro.net.flows import Flow, FlowState
from repro.net.fluid import FluidSimulation
from repro.net.topology import TreeSpec
from repro.runtime import executor
from repro.service.engine import PlacementService
from repro.service.session import build_churn_session
from repro.units import GBYTE, MBYTE
from repro.workloads.generator import HPCloudWorkloadGenerator
from repro.workloads.patterns import mapreduce

#: Scratch space for result stores: inside the checkout, never ``.sweep-store/``.
TMP_ROOT = Path(__file__).resolve().parent / ".tmp"

Stage = Callable[[str], object]


def no_stage(name: str):
    return nullcontext()


def digest(payload) -> str:
    """SHA-256 of a canonical JSON form (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


class Workload:
    """One named workload; subclasses fill in the five hooks."""

    name = ""
    why = ""

    def __init__(self, quick: bool = False):
        self.quick = quick

    def setup(self, seed: int, k: int, stage: Stage):
        """Inputs of op ``k``: a pure function of ``(seed, k)``."""
        raise NotImplementedError

    def run(self, inputs, stage: Stage) -> dict:
        """The timed section; returns the outputs ``check`` reads."""
        raise NotImplementedError

    def check(self, inputs, out: dict) -> Tuple[int, int, List[str]]:
        """``(attempted, failed, problems)``; problems are broken invariants."""
        raise NotImplementedError

    def metrics(self, out: dict) -> dict:
        """``decision_s`` (host seconds, as timed), ``decision_window`` (the
        ``perf_counter`` interval the decisions were made in) and
        ``sim_completion_s`` of one op."""
        raise NotImplementedError

    def result(self, out: dict):
        """What ``result_digest`` hashes: simulated results only."""
        raise NotImplementedError

    def layer_counts(self, inputs, out: dict) -> Dict[str, float]:
        """Per-layer counts only this workload's inputs and outputs carry."""
        return {}

    def cleanup(self, inputs) -> None:
        pass


# --------------------------------------------------------------------------
class PipelineDC(Workload):
    name = "pipeline_dc"
    why = (
        "the paper's pipeline, whole, at datacenter scale: 256 VMs, 65 280 "
        "probes, one 64x64 MapReduce; measurement, allocator and fluid loop work"
    )

    #: The network and the shuffle's skew pattern are the same on every seed;
    #: the seed scales the shuffle by up to 5 % and draws the flow records.
    #: Hierarchical greedy costs 0.1 s or 3.5 s depending on how the
    #: network's VMs cluster, so a seeded network would make ``decision_s``
    #: a coin toss between two regimes.  A seeded lognormal (sigma = 1)
    #: shuffle completes in 2.7 s to 3.6 s depending on its hottest reducer,
    #: and even +-2 % drawn per transfer reorders greedy's ties and flips the
    #: placement between a 2.7 s and a 3.3 s one.
    NETWORK_SEED = 0

    def setup(self, seed, k, stage):
        n_vms, side, hosts_per_rack, racks_per_pod = (
            (32, 16, 8, 2) if self.quick else (256, 64, 16, 8)
        )
        with stage("setup.provider"):
            base = ec2_params()
            spec = dataclasses.replace(
                base.tree_spec, hosts_per_rack=hosts_per_rack,
                racks_per_pod=racks_per_pod, pods=4, num_cores=4,
            )
            provider = make_provider(
                "ec2", seed=self.NETWORK_SEED + k,
                params=dataclasses.replace(base, tree_spec=spec),
            )
            provider.request_vms(n_vms)
            cluster = ClusterState.from_vms(provider.vms())
        with stage("setup.workload"):
            truth = mapreduce(
                "job", side, side, 8 * GBYTE, skew=1.0,
                rng=np.random.default_rng(self.NETWORK_SEED + k),
            )
            truth.traffic = truth.traffic.scaled(
                1.0 + 0.05 * float(np.random.default_rng(seed + k).random())
            )
            records = HPCloudWorkloadGenerator(seed=seed + k).application_to_records(
                truth, n_records_per_pair=4, duration_s=60.0
            )
        return {
            "seed": seed + k, "provider": provider, "cluster": cluster,
            "truth": truth, "records": records,
        }

    def run(self, inputs, stage):
        provider, cluster, truth = inputs["provider"], inputs["cluster"], inputs["truth"]
        arrived = time.perf_counter()
        with stage("stage.profile"):
            app = ApplicationProfiler().profile_application(
                inputs["records"], "job",
                task_cpu_cores={t.name: t.cpu_cores for t in truth.tasks},
                start_time=0.0,
            )
        with stage("stage.measure"):
            profile = NetworkMeasurer(
                provider, plan=MeasurementPlan(advance_clock=False)
            ).measure(cluster.machine_names())
        with stage("stage.place"):
            placement = resolve_placer("greedy").create(inputs["seed"]).place(
                app, cluster, profile
            )
        decided = time.perf_counter()
        with stage("stage.run"):
            runs = executor.run_applications(provider, {app.name: placement}, [app])
        return {
            "app": app, "profile": profile, "placement": placement,
            "run": runs[app.name], "decision_window": (arrived, decided),
        }

    def check(self, inputs, out):
        problems: List[str] = []
        truth, app, run = inputs["truth"], out["app"], out["run"]
        provider, placement = inputs["provider"], out["placement"]
        try:
            validate_placement(placement, app, inputs["cluster"])
        except PlacementError as exc:
            problems.append(f"placement invalid: {exc}")
        # The profiler saw only flow records; it must recover the matrix.
        profiled = dict(app.traffic.items())
        for pair, volume in truth.traffic.items():
            if not close(profiled.get(pair, 0.0), volume, 1e-9):
                problems.append(f"profiled {pair} != ground truth")
                break
        if len(profiled) != len(truth.traffic):
            problems.append("profiled matrix has extra or missing pairs")
        if not close(run.network_bytes + run.colocated_bytes, truth.total_bytes, 1e-9):
            problems.append("bytes on network + colocated != bytes demanded")
        crossing = [
            (s, d, v) for s, d, v in app.transfers()
            if placement.machine_of(s) != placement.machine_of(d)
        ]
        if len(run.flow_completion_times) != len(crossing):
            problems.append("a cross-VM transfer did not complete")
        n_vms = len(inputs["cluster"].machines)
        if len(out["profile"].rates_bps) != n_vms * (n_vms - 1) or out["profile"].degraded_pairs:
            problems.append("measurement did not cover the full mesh")
        # No VM can push its egress bytes faster than its hose allows.
        egress: Dict[str, float] = {}
        for s, d, v in crossing:
            src, dst = placement.machine_of(s), placement.machine_of(d)
            if provider.vm(src).host != provider.vm(dst).host:
                egress[src] = egress.get(src, 0.0) + v
        floor = max(
            (8.0 * v / provider.hose_rate(vm) for vm, v in egress.items()), default=0.0
        )
        if run.duration < floor * (1 - 1e-9):
            problems.append(
                f"app finished in {run.duration:.4f}s, below its hose floor {floor:.4f}s"
            )
        return 1, int(bool(problems)), problems

    def metrics(self, out):
        arrived, decided = out["decision_window"]
        return {
            "decision_s": decided - arrived, "decision_window": (arrived, decided),
            "sim_completion_s": out["run"].duration,
        }

    def result(self, out):
        return {
            "placement": out["placement"].assignments,
            "completions": out["run"].flow_completion_times,
            "campaign_sim_s": out["profile"].measurement_duration_s,
        }


# --------------------------------------------------------------------------
class SweepPaper(Workload):
    name = "sweep_paper"
    why = (
        "the section-6 grid through ExperimentRunner: thousands of tiny "
        "pipelines, the ILP, and the result store written cold then read warm"
    )

    GRID = (
        "all-to-all", "bursty-mapreduce", "multi-app-sequence",
        "ec2-trace-replay", "rack-hotspot", "cross-traffic",
        "partition-aggregate", "single-app-ec2", "hetero-topology",
    )
    ILP_GRID = (
        "all-to-all", "bursty-mapreduce", "single-app-ec2",
        "partition-aggregate", "rack-hotspot",
    )
    #: The ILP grid is the same on every seed; the seed draws the 540-cell
    #: grid.  Branch-and-bound time is heavy-tailed in the instance (450 to
    #: 1 250 nodes, 3.2 s to 5.9 s over seeds 0-5), so ten seeded instances
    #: would make ``wall_s`` differ by +-15 % from seed to seed on their own.
    ILP_SEED = 0

    def setup(self, seed, k, stage):
        with stage("setup.workload"):
            TMP_ROOT.mkdir(exist_ok=True)
            store = tempfile.mkdtemp(prefix="store-", dir=TMP_ROOT)
        return {"seed": seed + k, "k": k, "store": store}

    def cleanup(self, inputs):
        shutil.rmtree(inputs["store"], ignore_errors=True)

    def _configs(self, inputs):
        trials, ilp_trials = (2, 1) if self.quick else (20, 2)
        common = dict(
            baseline="random", workers=1, backend="inline", cache_dir=inputs["store"],
        )
        grid = ExperimentConfig(
            scenarios=self.GRID, placers=("greedy", "random", "round-robin"),
            trials=trials, base_seed=inputs["seed"], **common,
        )
        # A limit that never binds: every solve must end optimal.
        ilp = ExperimentConfig(
            scenarios=self.ILP_GRID, placers=("ilp", "random"), trials=ilp_trials,
            placer_params={"ilp": {"time_limit_s": 60.0}},
            base_seed=self.ILP_SEED + inputs["k"], **common,
        )
        return grid, ilp

    def run(self, inputs, stage):
        grid, ilp = self._configs(inputs)
        out: dict = {"trials": grid.trials}
        started = time.perf_counter()
        with stage("stage.sweep.cold"):
            runner = ExperimentRunner(grid)
            out["cold"], out["cold_stats"] = runner.run(), runner.last_stats
            out["store_cold"] = dict(runner.store.stats)
        out["cold_window"] = (started, time.perf_counter())
        with stage("stage.sweep.ilp"):
            runner = ExperimentRunner(ilp)
            out["ilp"], out["ilp_stats"] = runner.run(), runner.last_stats
            out["store_ilp"] = dict(runner.store.stats)
        with stage("stage.sweep.warm"):
            warm, warm_ilp = ExperimentRunner(grid), ExperimentRunner(ilp)
            out["warm"], out["warm_ilp"] = warm.run(), warm_ilp.run()
            out["warm_stats"] = (warm.last_stats, warm_ilp.last_stats)
            out["store_warm"] = [dict(warm.store.stats), dict(warm_ilp.store.stats)]
        return out

    def check(self, inputs, out):
        problems: List[str] = []
        records = out["cold"].records + out["ilp"].records
        failed = sum(1 for record in records if not record.ok)
        for record in out["ilp"].records:
            for app_name, stats in (record.solver_stats or {}).items():
                if stats.get("status") != 0 or stats.get("fallback_used"):
                    failed += 1
                    problems.append(
                        f"ILP {record.scenario}/{record.trial}/{app_name} not optimal"
                    )
        if failed and not problems:
            problems.append(f"{failed} error record(s)")
        for cold, warm, stats in zip(
            (out["cold"], out["ilp"]), (out["warm"], out["warm_ilp"]), out["warm_stats"]
        ):
            if stats.executed != 0:
                problems.append(f"warm pass executed {stats.executed} cell(s)")
            if cold.canonical_json_dict() != warm.canonical_json_dict():
                problems.append("warm canonical result != cold canonical result")
        for record in records:
            # (A fully colocated app legitimately runs for 0 s.)
            if record.ok and not record.network_bytes + record.colocated_bytes > 0:
                problems.append(
                    f"{record.scenario}/{record.placer}/{record.trial} moved no bytes"
                )
                break
        attempted = len(records) + len(out["warm"].records) + len(out["warm_ilp"].records)
        return attempted, failed, problems

    def _greedy(self, out):
        return [r for r in out["cold"].records if r.placer == "greedy"]

    def metrics(self, out):
        greedy = self._greedy(out)
        return {
            "decision_s": statistics.fmean(r.placement_wall_s for r in greedy),
            "decision_window": out["cold_window"],
            "sim_completion_s": statistics.fmean(r.total_running_time_s for r in greedy),
        }

    def result(self, out):
        return [out["cold"].canonical_json_dict(), out["ilp"].canonical_json_dict()]

    def layer_counts(self, inputs, out):
        by_cell = {(r.scenario, r.placer, r.trial): r for r in out["cold"].records}
        gains = []
        for scenario in self.GRID:
            for trial in range(out["trials"]):
                random = by_cell[(scenario, "random", trial)].total_running_time_s
                greedy = by_cell[(scenario, "greedy", trial)].total_running_time_s
                if random > 0:
                    gains.append((random - greedy) / random)
        stats = [out["cold_stats"], out["ilp_stats"], *out["warm_stats"]]
        stores = [out["store_cold"], out["store_ilp"], *out["store_warm"]]
        return {
            "experiments.choreo_gain_pct": 100.0 * statistics.fmean(gains),
            "experiments.runner.cells": sum(s.cells for s in stats),
            "experiments.runner.executed": sum(s.executed for s in stats),
            "experiments.runner.cache_hits": sum(s.cache_hits for s in stats),
            "experiments.cache.hits": sum(s["hits"] for s in stores),
            "experiments.cache.misses": sum(s["misses"] for s in stores),
            "experiments.cache.stored": sum(s["stored"] for s in stores),
        }


# --------------------------------------------------------------------------
class ChurnDay(Workload):
    name = "churn_day"
    why = (
        "the online service: two sessions on one seeded shape, one with a rack "
        "outage; TTL cache, forecasts, flat greedy, migration and recovery work"
    )

    FAULTS = ("none", "rack-outage")

    #: The session's shape — network, drift, outage, arrival stream — is the
    #: same on every seed; the seed scales each application's volume by up
    #: to +-10 %.  Fully seeded sessions differ by +-20 % in the work they
    #: contain (heavy-tailed volumes), which no bound could tell from a
    #: regression, and some of them reject applications for lack of CPU.
    SESSION_SEED = 0

    def _shape(self):
        if self.quick:
            return dict(n_vms=32, hours=4, apps_per_hour=4.0)
        return dict(n_vms=40, hours=24, apps_per_hour=8.0)

    def setup(self, seed, k, stage):
        sessions = []
        for faults in self.FAULTS:
            with stage("setup.provider"):
                provider, cluster, apps, _timeline = build_churn_session(
                    self.SESSION_SEED + k, drift="hotspot-flap", max_tasks=6,
                    epoch_s=300.0, faults=faults, **self._shape(),
                )
            with stage("setup.workload"):
                rng = np.random.default_rng(seed + k)  # same draw for A and B
                for app in apps:
                    app.traffic = app.traffic.scaled(float(rng.uniform(0.9, 1.1)))
            sessions.append((faults, provider, cluster, apps))
        return {"seed": seed + k, "sessions": sessions}

    def run(self, inputs, stage):
        reports = []
        started = time.perf_counter()
        for faults, provider, cluster, apps in inputs["sessions"]:
            with stage(f"stage.session.{faults}"):
                service = PlacementService(
                    provider, cluster,
                    resolve_placer("greedy").create(inputs["seed"]),
                    predictor="combined", migrate=True,
                )
                reports.append(service.run_session(apps, hours=self._shape()["hours"]))
        return {"reports": reports, "window": (started, time.perf_counter())}

    def check(self, inputs, out):
        problems: List[str] = []
        attempted = failed = 0
        for (faults, provider, _cluster, apps), report in zip(
            inputs["sessions"], out["reports"]
        ):
            completed = {a.name for a in report.completed()}
            rejected = {a.name for a in report.rejected()}
            attempted += len(apps)
            failed += len(apps) - len(completed)
            if completed & rejected:
                problems.append(f"{faults}: an app is both completed and rejected")
            if len(completed) + len(rejected) != len(apps):
                problems.append(f"{faults}: completed + rejected != offered")
            for outcome in report.completed():
                if outcome.completed_at is None or outcome.completed_at < outcome.arrived_at:
                    problems.append(f"{faults}: {outcome.name} completed before it arrived")
                    break
            # Four quick epochs are too few for the forecast to beat stay-put.
            if not report.migrations and not self.quick:
                problems.append(f"{faults}: no migration fired")
            if faults == "none" and report.recovery:
                problems.append("recovery actions without faults")
            if faults != "none" and not report.recovery:
                problems.append(f"{faults}: no recovery action fired")
        return attempted, failed, problems

    def metrics(self, out):
        done = [a for report in out["reports"] for a in report.completed()]
        admitted = sum(len(r.apps) - len(r.rejected()) for r in out["reports"])
        return {
            "decision_s": sum(r.placement_wall_s for r in out["reports"]) / admitted,
            "decision_window": out["window"],
            "sim_completion_s": statistics.fmean(a.duration for a in done),
        }

    def result(self, out):
        return [report.canonical_json_dict() for report in out["reports"]]

    def layer_counts(self, inputs, out):
        return {
            "faults.events": sum(
                provider.fault_timeline.n_events
                for _f, provider, _c, _a in inputs["sessions"]
                if provider.fault_timeline is not None
            )
        }


# --------------------------------------------------------------------------
class FluidGiant(Workload):
    name = "fluid_giant"
    why = (
        "the fluid engine alone on one giant sharing component (102 080 flows): "
        "full vector solves and structured routing; bypasses every other layer"
    )

    def setup(self, seed, k, stage):
        hosts_per_rack, racks_per_pod = (8, 4) if self.quick else (40, 8)
        spec = TreeSpec(
            pods=4, racks_per_pod=racks_per_pod,
            hosts_per_rack=hosts_per_rack, num_cores=4,
        )
        with stage("setup.provider"):
            topo = topology.build_multi_rooted_tree(spec)
            fresh = topology.build_multi_rooted_tree(spec)
        with stage("setup.workload"):
            # One pod, in coordinate order (hosts() is lexicographic).
            pod = sorted(topo.hosts(), key=lambda h: int(h[4:]))[
                : racks_per_pod * hosts_per_rack
            ]
            # 1/2/4 MB in a cycle: the seed shifts the cycle and scales every
            # size by up to 5 %, which moves the simulated times but not the
            # number of completion batches the run has to process.
            rng = np.random.default_rng(seed + k)
            scale = 1.0 + 0.05 * float(rng.random())
            offset = int(rng.integers(0, 3))
            sizes = tuple(m * MBYTE * scale for m in (1, 2, 4))
            flows = [
                Flow(
                    flow_id=f"f{i}", src=a, dst=b,
                    size_bytes=sizes[(i + offset) % 3], start_time=0.0,
                )
                for i, (a, b) in enumerate(itertools.permutations(pod, 2))
            ]
        return {"topo": topo, "fresh": fresh, "flows": flows}

    def run(self, inputs, stage):
        arrived = time.perf_counter()
        with stage("stage.add_flows"):
            sim = FluidSimulation(inputs["topo"])
            sim.add_flows(inputs["flows"])
        registered = time.perf_counter()
        with stage("stage.run"):
            result = sim.run()
        with stage("stage.route"):
            rows, lengths, link_ids = inputs["fresh"].path_links_matrix(
                [(f.src, f.dst) for f in inputs["flows"]]
            )
        return {
            "result": result, "rows": rows, "lengths": lengths,
            "link_ids": link_ids, "decision_window": (arrived, registered),
        }

    def check(self, inputs, out):
        problems: List[str] = []
        flows, result = inputs["flows"], out["result"]
        failed = sum(
            1 for f in flows if result.states.get(f.flow_id) is not FlowState.COMPLETED
        )
        moved = sum(
            segment.rate_bps * (segment.end - segment.start)
            for timeline in result.timelines.values()
            for segment in timeline.segments
        ) / 8.0
        demanded = sum(f.size_bytes for f in flows)
        if not close(moved, demanded, 1e-6):
            problems.append(f"timelines moved {moved:.0f} B of {demanded:.0f} B demanded")
        # Feasibility at t=0: first-segment rates summed per link <= capacity.
        first = np.array(
            [
                result.timelines[f.flow_id].segments[0].rate_bps
                if result.timelines[f.flow_id].segments else 0.0
                for f in flows
            ]
        )
        rows = out["rows"]
        valid = rows >= 0
        load = np.bincount(
            rows[valid], weights=np.broadcast_to(first[:, None], rows.shape)[valid],
            minlength=len(out["link_ids"]),
        )
        capacities = inputs["fresh"].capacities()
        capacity = np.array([capacities[link] for link in out["link_ids"]])
        if np.any(load > capacity * (1 + 1e-9)):
            problems.append("first-segment rates exceed a link's capacity")
        if not np.any(load > capacity * (1 - 1e-6)):
            problems.append("no link is saturated at t=0: not a max-min allocation")
        if int(out["lengths"].min()) < 2:
            problems.append("a routed pair has a path shorter than two links")
        if failed:
            problems.append(f"{failed} flow(s) not COMPLETED")
        return len(flows), failed, problems

    def metrics(self, out):
        arrived, registered = out["decision_window"]
        return {
            "decision_s": registered - arrived, "decision_window": (arrived, registered),
            "sim_completion_s": out["result"].end_time,
        }

    def result(self, out):
        return {
            "end_time": out["result"].end_time,
            "completions": out["result"].completion_times,
        }


WORKLOADS = {w.name: w for w in (PipelineDC, SweepPaper, ChurnDay, FluidGiant)}
