"""Per-layer attribution for the traced run.

For one traced run only, the public callables listed in :data:`TARGETS` are
replaced by span-recording wrappers (``benchmark/spans.py``); a target
that no longer exists is skipped with a warning and its metrics read 0,
so a refactor of the program cannot break the benchmark.  Functions that
other modules import by name are patched where they are *bound* (e.g.
``repro.service.engine.advance_live_apps``).  Nothing called more than
about 2x10^5 times in a workload is wrapped there.

Metric kinds: ``_s`` is busy seconds per op, ``_self_s`` busy minus what
child spans cover, ``_calls`` and the other counts come from the spans,
from result objects the calls returned, and from deltas of the program's
module-level ``obs.metrics.snapshot()`` counters.  Layers are named after
the modules under ``repro.``.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from typing import Callable, Dict, List, Tuple

from spans import SpanRecorder

#: (span name, module, dotted attribute, workloads on which it is NOT wrapped)
TARGETS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("cloud.provider.simulate", "repro.cloud.provider", "CloudProvider.simulate", ()),
    ("net.topology.build", "repro.net.topology", "build_multi_rooted_tree", ()),
    ("net.topology.build", "repro.cloud.provider", "build_multi_rooted_tree", ()),
    ("net.topology.route_batch", "repro.net.topology", "Topology.path_links_matrix", ()),
    ("net.fluid.add_flows", "repro.net.fluid", "FluidSimulation.add_flows", ()),
    ("net.fluid.run", "repro.net.fluid", "FluidSimulation.run", ()),
    ("net.alloc.solve", "repro.net.alloc", "IncrementalAllocator.solve", ()),
    ("net.alloc.solve", "repro.net.alloc", "IncrementalAllocator.solve_slots", ()),
    # 204 160 add/remove calls on fluid_giant: over the wrapping limit there.
    ("net.alloc.update", "repro.net.alloc", "IncrementalAllocator.add_flow", ("fluid_giant",)),
    ("net.alloc.update", "repro.net.alloc", "IncrementalAllocator.remove_flow", ("fluid_giant",)),
    ("core.measurement.measure", "repro.core.measurement.orchestrator", "NetworkMeasurer.measure", ()),
    ("core.profiler.profile", "repro.core.profiler", "ApplicationProfiler.profile_application", ()),
    ("core.placement.greedy.place", "repro.core.placement.greedy", "GreedyPlacer.place", ()),
    ("core.placement.ilp.place", "repro.core.placement.ilp", "OptimalPlacer.place", ()),
    ("runtime.executor.run", "repro.runtime.executor", "run_applications", ()),
    ("runtime.executor.run", "repro.experiments.trials", "run_applications", ()),
    ("runtime.executor.run", "repro.runtime.sequence", "run_applications", ()),
    ("runtime.sequence.run", "repro.runtime.sequence", "SequentialPlacementRunner.run", ()),
    ("runtime.migration.advance", "repro.service.engine", "advance_live_apps", ()),
    ("runtime.migration.propose", "repro.service.engine", "propose_migration", ()),
    ("experiments.scenarios.build", "repro.experiments.scenarios", "ScenarioSpec.build", ()),
    ("experiments.trials.run_trial", "repro.experiments.trials", "run_trial", ()),
    ("experiments.cache.get", "repro.experiments.cache", "ResultStore.get", ()),
    ("experiments.cache.put", "repro.experiments.cache", "ResultStore.put", ()),
    ("service.engine.session", "repro.service.engine", "PlacementService.run_session", ()),
    ("service.cache.refresh", "repro.service.cache", "MeasurementCache.refresh", ()),
    ("service.forecast.forecast", "repro.service.forecast", "RateForecaster.forecast_profile", ()),
]

#: per-layer metric -> (span name, field of ``SpanRecorder.totals()``)
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "cloud.provider.build_s": ("setup.provider", "busy_s"),
    "cloud.provider.simulate_s": ("cloud.provider.simulate", "busy_s"),
    "cloud.provider.simulate_calls": ("cloud.provider.simulate", "calls"),
    "workloads.generate_s": ("setup.workload", "busy_s"),
    "net.topology.build_s": ("net.topology.build", "busy_s"),
    "net.topology.route_batch_s": ("net.topology.route_batch", "busy_s"),
    "net.fluid.add_flows_s": ("net.fluid.add_flows", "busy_s"),
    "net.fluid.run_s": ("net.fluid.run", "busy_s"),
    "net.fluid.run_self_s": ("net.fluid.run", "self_s"),
    "net.fluid.run_calls": ("net.fluid.run", "calls"),
    "net.alloc.solve_s": ("net.alloc.solve", "busy_s"),
    "net.alloc.solve_calls": ("net.alloc.solve", "calls"),
    "net.alloc.update_s": ("net.alloc.update", "busy_s"),
    "net.alloc.update_calls": ("net.alloc.update", "calls"),
    "core.measurement.measure_s": ("core.measurement.measure", "busy_s"),
    "core.measurement.campaigns": ("core.measurement.measure", "calls"),
    "core.profiler.profile_s": ("core.profiler.profile", "busy_s"),
    "core.placement.greedy.place_s": ("core.placement.greedy.place", "busy_s"),
    "core.placement.greedy.place_calls": ("core.placement.greedy.place", "calls"),
    "core.placement.ilp.place_s": ("core.placement.ilp.place", "busy_s"),
    "core.placement.ilp.place_calls": ("core.placement.ilp.place", "calls"),
    "runtime.executor.run_s": ("runtime.executor.run", "busy_s"),
    "runtime.executor.run_calls": ("runtime.executor.run", "calls"),
    "runtime.sequence.run_s": ("runtime.sequence.run", "busy_s"),
    "runtime.migration.advance_s": ("runtime.migration.advance", "busy_s"),
    "runtime.migration.advance_calls": ("runtime.migration.advance", "calls"),
    "runtime.migration.propose_s": ("runtime.migration.propose", "busy_s"),
    "runtime.migration.propose_calls": ("runtime.migration.propose", "calls"),
    "experiments.runner.cold_s": ("stage.sweep.cold", "busy_s"),
    "experiments.runner.ilp_s": ("stage.sweep.ilp", "busy_s"),
    "experiments.runner.warm_s": ("stage.sweep.warm", "busy_s"),
    "experiments.scenarios.build_s": ("experiments.scenarios.build", "busy_s"),
    "experiments.scenarios.build_calls": ("experiments.scenarios.build", "calls"),
    "experiments.trials.run_trial_s": ("experiments.trials.run_trial", "busy_s"),
    "experiments.trials.trials": ("experiments.trials.run_trial", "calls"),
    "experiments.cache.get_s": ("experiments.cache.get", "busy_s"),
    "experiments.cache.get_calls": ("experiments.cache.get", "calls"),
    "experiments.cache.put_s": ("experiments.cache.put", "busy_s"),
    "experiments.cache.put_calls": ("experiments.cache.put", "calls"),
    "service.engine.session_s": ("service.engine.session", "busy_s"),
    "service.engine.self_s": ("service.engine.session", "self_s"),
    "service.cache.refresh_s": ("service.cache.refresh", "busy_s"),
    "service.cache.refresh_calls": ("service.cache.refresh", "calls"),
    "service.forecast.forecast_s": ("service.forecast.forecast", "busy_s"),
    "service.forecast.forecast_calls": ("service.forecast.forecast", "calls"),
}

#: per-layer metric -> module-level counter of ``obs.metrics.snapshot()``
OBS_METRICS: Dict[str, str] = {
    "net.topology.structured_hits": "repro.routes.structured_hits",
    "net.topology.cache_hits": "repro.routes.cache_hits",
    "net.topology.cache_misses": "repro.routes.cache_misses",
    "net.fluid.batches": "repro.fluid.batches",
    "core.measurement.probes": "repro.measure.probes",
    "core.measurement.probe_retries": "repro.measure.probe_retries",
    "core.measurement.probes_degraded": "repro.measure.probes_degraded",
    "service.engine.admissions": "repro.service.admissions",
    "service.engine.rejections": "repro.service.rejections",
    "service.engine.epoch_ticks": "repro.service.epoch_ticks",
    "service.engine.recoveries": "repro.service.recoveries",
    "runtime.migration.migrations": "repro.service.migrations",
}

#: Counts the wrappers read off arguments and results, or that a workload
#: reads off its own outputs (``Workload.layer_counts``).
COUNT_METRICS = (
    "net.topology.route_pairs",
    "net.fluid.flows",
    "net.fluid.segments",
    "net.alloc.full_solves",
    "net.alloc.partial_solves",
    "net.alloc.partial_slots",
    "core.measurement.campaign_sim_s",
    "core.profiler.records",
    "core.placement.ilp.mip_nodes",
    "core.placement.ilp.nonoptimal",
    "experiments.runner.cells",
    "experiments.runner.executed",
    "experiments.runner.cache_hits",
    "experiments.cache.hits",
    "experiments.cache.misses",
    "experiments.cache.stored",
    "experiments.choreo_gain_pct",
    "service.cache.pairs_measured",
    "service.cache.pairs_reused",
    "service.cache.pairs_degraded",
    "faults.events",
    "faults.recovery_actions",
)

#: Ratios and the runner's own numbers, derived in :func:`layer_metrics`.
DERIVED_METRICS = (
    "net.topology.us_per_pair",
    "net.fluid.ms_per_batch",
    "core.measurement.us_per_probe",
    "experiments.runner.overhead_s",
    "experiments.cache.us_per_hit",
    "service.cache.reuse_ratio",
    "faults.mean_recovery_latency_sim_s",
    "bench.traced_wall_s",
    "bench.host_speed_ratio",
    "bench.trace_overhead_frac",
    "bench.span_coverage_frac",
    "bench.cpu_s",
    "bench.spans",
)

#: Host seconds and simulated seconds are different things: name which.
UNITS = {"_sim_s": "sim_s", "_s": "s", "_frac": "frac", "_ratio": "ratio", "_pct": "%"}


def unit_of(metric: str) -> str:
    leaf = metric.rsplit(".", 1)[-1]
    if leaf.startswith("us_per_"):
        return "us"
    if leaf.startswith("ms_per_"):
        return "ms"
    for suffix, unit in UNITS.items():
        if leaf.endswith(suffix):
            return unit
    return "count"


def metric_names() -> List[str]:
    """Every per-layer metric, in the order ``BENCHMARK.json`` lists them."""
    return sorted([*SPAN_METRICS, *OBS_METRICS, *COUNT_METRICS, *DERIVED_METRICS])


class LayerTracer:
    """Installs the wrappers for one traced run and derives the metrics."""

    def __init__(self, recorder: SpanRecorder, workload: str):
        self.recorder = recorder
        self.workload = workload
        self.counts: Dict[str, float] = {}
        self._undo: List[Tuple[object, str, object]] = []
        self._alloc_seen: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._obs_before: Dict[str, float] = {}

    # -------------------------------------------------------------- install
    def install(self) -> None:
        hooks = self._after_hooks()
        for name, module_name, attr_path, skip in TARGETS:
            if self.workload in skip:
                continue
            try:
                owner = importlib.import_module(module_name)
                *parents, leaf = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                print(
                    f"warning: {module_name}.{attr_path} not found; "
                    f"{name} metrics read 0",
                    file=sys.stderr,
                )
                continue
            setattr(owner, leaf, self.recorder.wrap(name, original, hooks.get(name)))
            self._undo.append((owner, leaf, original))

    def start_ops(self) -> None:
        """Set-up is over: counters and tracing cost start from here."""
        self._obs_before = _obs_counters()
        self.recorder.overhead_s = 0.0

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    def add(self, metric: str, amount: float) -> None:
        self.counts[metric] = self.counts.get(metric, 0.0) + amount

    def _after_hooks(self) -> Dict[str, Callable]:
        def fluid_run(args, kwargs, result):
            self.add("net.fluid.flows", len(result.timelines))
            self.add(
                "net.fluid.segments",
                sum(len(t.segments) for t in result.timelines.values()),
            )

        def route_batch(args, kwargs, result):
            self.add("net.topology.route_pairs", len(result[1]))

        def alloc_solve(args, kwargs, result):
            allocator = args[0]
            stats = allocator.solver_stats()
            seen = self._alloc_seen.get(allocator, {})
            for key, value in stats.items():
                self.add(f"net.alloc.{key}", value - seen.get(key, 0))
            self._alloc_seen[allocator] = stats

        def measure(args, kwargs, result):
            self.add("core.measurement.campaign_sim_s", result.measurement_duration_s)

        def profile(args, kwargs, result):
            records = args[1] if len(args) > 1 else kwargs["records"]
            self.add("core.profiler.records", len(records))

        def ilp_place(args, kwargs, result):
            _, stats = args[0].stats_history[-1]
            self.add("core.placement.ilp.mip_nodes", stats.get("mip_nodes") or 0)
            if stats.get("status") != 0 or stats.get("fallback_used"):
                self.add("core.placement.ilp.nonoptimal", 1)

        def session(args, kwargs, report):
            self.add("faults.recovery_actions", len(report.recovery))
            self.add(
                "faults.recovery_latency_sum_sim_s",
                sum(action.latency_s for action in report.recovery),
            )
            for key in ("pairs_measured", "pairs_reused", "pairs_degraded"):
                self.add(f"service.cache.{key}", report.measurement.get(key, 0))

        return {
            "net.fluid.run": fluid_run,
            "net.topology.route_batch": route_batch,
            "net.alloc.solve": alloc_solve,
            "core.measurement.measure": measure,
            "core.profiler.profile": profile,
            "core.placement.ilp.place": ilp_place,
            "service.engine.session": session,
        }

    # -------------------------------------------------------------- metrics
    def layer_metrics(
        self,
        ops: int,
        setups: int,
        traced_wall_s: float,
        host_speed: float,
        cpu_s: float,
        workload_counts: Dict[str, float],
    ) -> Dict[str, float]:
        """All per-layer metrics of the run: means per op, plus for spans
        that (also) run during set-up their mean per set-up."""
        totals = self.recorder.totals(in_ops=True)
        in_setup = self.recorder.totals(in_ops=False)
        out: Dict[str, float] = {name: 0.0 for name in metric_names()}
        for metric, (span, field) in SPAN_METRICS.items():
            out[metric] = (
                totals.get(span, {}).get(field, 0.0) / ops
                + in_setup.get(span, {}).get(field, 0.0) / setups
            )
        after = _obs_counters()
        for metric, counter in OBS_METRICS.items():
            out[metric] = (after.get(counter, 0) - self._obs_before.get(counter, 0)) / ops
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0.0) / ops
        # A workload's own outputs are already per-op.
        out.update(workload_counts)

        def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
            return scale * numerator / denominator if denominator else 0.0

        out["net.topology.us_per_pair"] = ratio(
            out["net.topology.route_batch_s"], out["net.topology.route_pairs"], 1e6)
        out["net.fluid.ms_per_batch"] = ratio(
            out["net.fluid.run_s"], out["net.fluid.batches"], 1e3)
        out["core.measurement.us_per_probe"] = ratio(
            out["core.measurement.measure_s"], out["core.measurement.probes"], 1e6)
        out["experiments.cache.us_per_hit"] = ratio(
            out["experiments.cache.get_s"], out["experiments.cache.hits"], 1e6)
        out["service.cache.reuse_ratio"] = ratio(
            out["service.cache.pairs_reused"],
            out["service.cache.pairs_reused"] + out["service.cache.pairs_measured"])
        out["faults.mean_recovery_latency_sim_s"] = ratio(
            self.counts.get("faults.recovery_latency_sum_sim_s", 0.0),
            self.counts.get("faults.recovery_actions", 0.0))
        phases = ("stage.sweep.cold", "stage.sweep.ilp", "stage.sweep.warm")
        out["experiments.runner.overhead_s"] = (
            sum(totals.get(p, {}).get("self_s", 0.0) for p in phases) / ops)
        overhead = self.recorder.overhead_s
        op = totals.get("op", {"busy_s": 0.0, "self_s": 0.0})
        # Per-layer seconds are raw host seconds; x host_speed gives the
        # reference-host seconds the end-to-end metrics are reported in.
        out["bench.traced_wall_s"] = traced_wall_s / ops
        out["bench.host_speed_ratio"] = host_speed
        out["bench.trace_overhead_frac"] = ratio(overhead, traced_wall_s - overhead)
        out["bench.span_coverage_frac"] = ratio(op["busy_s"] - op["self_s"], op["busy_s"])
        out["bench.cpu_s"] = cpu_s
        out["bench.spans"] = float(len(self.recorder.spans))
        return out


def _obs_counters() -> Dict[str, float]:
    try:
        from repro import obs

        return {
            name: value
            for name, value in obs.metrics.snapshot().items()
            if isinstance(value, (int, float))
        }
    except (ImportError, AttributeError):
        print("warning: repro.obs.metrics.snapshot missing; counters read 0",
              file=sys.stderr)
        return {}
