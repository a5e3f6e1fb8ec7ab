"""Structured results of experiment runs (the §6 comparison data).

A trial is one (scenario, placer, trial-index) cell of the sweep grid; its
:class:`TrialRecord` carries the timings the paper reports: per-application
running times, the makespan, the measurement campaign overhead, and the wall
clock the placer itself consumed.  :class:`ExperimentResult` aggregates a
full grid, computes the Figure-9-style speedup-over-baseline summaries via
:mod:`repro.runtime.metrics`, and serialises everything to JSON.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.runtime.metrics import relative_speedup, speedup_summary

#: Record fields measuring *host* wall clock — nondeterministic across runs,
#: machines, and backends, unlike the modeled (simulated) quantities.
HOST_TIMING_FIELDS = ("trial_wall_s", "placement_wall_s")

#: solver_stats keys that depend on the solver *run* rather than the
#: instance: wall clock, and anything that varies when a time limit
#: binds earlier on one host than another (search nodes, gap,
#: termination status, fallback).  Stripped from the canonical form.
SOLVER_RUN_STAT_KEYS = (
    "solve_wall_s", "mip_nodes", "mip_gap", "status", "fallback_used",
)


@dataclass
class TrialRecord:
    """Outcome of running one scenario trial under one placer.

    Attributes:
        scenario: registered scenario name.
        placer: placer name from the placer registry.
        trial: trial index within the sweep.
        seed: the derived per-trial seed (identical across placers so every
            placer sees the same ground-truth network and applications).
        status: ``"ok"`` or ``"error"``.
        error: the failure message when ``status == "error"``.
        n_apps, n_vms: scenario size.
        makespan_s: completion time of the last application transfer,
            relative to the earliest application start.
        total_running_time_s: sum of per-application running times (the
            §6.3 comparison metric).
        per_app_duration_s: running time of each application.
        measurement_overhead_s: wall-clock cost of the measurement
            campaign(s) the placer required (0 for network-oblivious ones).
        placement_wall_s: host wall-clock spent inside placement + setup.
        trial_wall_s: host wall-clock for the whole trial.
        network_bytes: bytes that crossed the provider network.
        colocated_bytes: bytes that stayed on a VM thanks to colocation.
        solver_stats: per-application exact-solver statistics (instance
            size, greedy warm bound, objective, search nodes, status) for
            the ``ilp`` placer; ``None`` for everything else.
    """

    scenario: str
    placer: str
    trial: int
    seed: int
    status: str = "ok"
    error: Optional[str] = None
    n_apps: int = 0
    n_vms: int = 0
    makespan_s: float = 0.0
    total_running_time_s: float = 0.0
    per_app_duration_s: Dict[str, float] = field(default_factory=dict)
    measurement_overhead_s: float = 0.0
    placement_wall_s: float = 0.0
    trial_wall_s: float = 0.0
    network_bytes: float = 0.0
    colocated_bytes: float = 0.0
    solver_stats: Optional[Dict[str, dict]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def from_json_dict(cls, data: object) -> "TrialRecord":
        """Parse ``asdict`` output that crossed a wire: every field present,
        of its type, counts non-negative and numbers finite; anything else
        raises :class:`ExperimentError` naming the field."""
        if not isinstance(data, dict) or set(data) != _RECORD_FIELDS:
            raise ExperimentError("malformed trial record: not a record's fields")
        for name in ("scenario", "placer"):
            if not isinstance(data[name], str):
                raise _bad_record_field(name, data[name])
        for name in ("trial", "seed", "n_apps", "n_vms"):
            if not _is_count(data[name]):
                raise _bad_record_field(name, data[name])
        if data["status"] not in ("ok", "error"):
            raise _bad_record_field("status", data["status"])
        if data["error"] is not None and not isinstance(data["error"], str):
            raise _bad_record_field("error", data["error"])
        for name in _RECORD_REALS:
            if not _is_real(data[name]):
                raise _bad_record_field(name, data[name])
        durations = data["per_app_duration_s"]
        if not isinstance(durations, dict) or not all(
            _is_real(value) for value in durations.values()
        ):
            raise _bad_record_field("per_app_duration_s", durations)
        stats = data["solver_stats"]
        if stats is not None and not (
            isinstance(stats, dict)
            and all(isinstance(value, dict) for value in stats.values())
        ):
            raise _bad_record_field("solver_stats", stats)
        return cls(**data)


_RECORD_FIELDS = frozenset(TrialRecord.__dataclass_fields__)
_RECORD_REALS = (
    "makespan_s", "total_running_time_s", "measurement_overhead_s",
    "placement_wall_s", "trial_wall_s", "network_bytes", "colocated_bytes",
)


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


def _is_real(value: object) -> bool:
    if type(value) is int:  # no float for 10**400: compare, do not convert
        return -1e308 < value < 1e308
    return type(value) is float and math.isfinite(value)


def _bad_record_field(name: str, value: object) -> ExperimentError:
    return ExperimentError(f"malformed trial record: bad {name!r}: {value!r:.80}")


@dataclass
class ExperimentResult:
    """A completed sweep over scenario x placer x trial."""

    scenarios: List[str]
    placers: List[str]
    trials: int
    base_seed: int
    baseline: str
    records: List[TrialRecord] = field(default_factory=list)

    def ok_records(self, scenario: str, placer: str) -> List[TrialRecord]:
        """Successful trials of one (scenario, placer) cell, by trial index."""
        return sorted(
            (
                rec
                for rec in self.records
                if rec.scenario == scenario and rec.placer == placer and rec.ok
            ),
            key=lambda rec: rec.trial,
        )

    def dropped_trials(self) -> List[dict]:
        """Every errored grid cell with its captured exception string.

        The keep-going runner turns raising trials into ``status ==
        "error"`` records instead of aborting the sweep; this surfaces them
        in one place (and at the top level of the result JSON) so a sweep
        that silently lost cells is impossible.
        """
        return [
            {
                "scenario": rec.scenario,
                "placer": rec.placer,
                "trial": rec.trial,
                "error": rec.error or "",
            }
            for rec in self.records
            if not rec.ok
        ]

    def _paired_speedups(self, scenario: str, placer: str) -> Tuple[List[float], int]:
        """Finite per-trial speedups of ``placer`` over the baseline, plus
        the count of ok trials dropped.

        Positive values mean ``placer`` finished faster than the baseline on
        the same trial (same seed, hence the same network and applications).
        A trial is dropped when its baseline pair is missing (the baseline
        errored on that seed), when the two completed different sets of
        applications (a service trial in which one admitted an application
        the other rejected: their sums time different work), or when the
        speedup is non-finite (a zero-duration baseline against a nonzero
        competitor yields ``-inf``), so summaries and their JSON stay
        finite; :meth:`summary` surfaces how many were dropped per cell.
        """
        if self.baseline not in self.placers:
            raise ExperimentError(
                f"baseline placer {self.baseline!r} is not part of the sweep"
            )
        base = {rec.trial: rec for rec in self.ok_records(scenario, self.baseline)}
        speedups: List[float] = []
        dropped = 0
        for rec in self.ok_records(scenario, placer):
            ref = base.get(rec.trial)
            if ref is None or ref.per_app_duration_s.keys() != rec.per_app_duration_s.keys():
                dropped += 1
                continue
            speedup = relative_speedup(
                ref.total_running_time_s, rec.total_running_time_s
            )
            if math.isfinite(speedup):
                speedups.append(speedup)
            else:
                dropped += 1
        return speedups, dropped

    def summary(self) -> dict:
        """Per-(scenario, placer) aggregate timings and speedup summaries."""
        out: dict = {}
        for scenario in self.scenarios:
            per_placer: dict = {}
            for placer in self.placers:
                records = self.ok_records(scenario, placer)
                errors = [
                    rec
                    for rec in self.records
                    if rec.scenario == scenario and rec.placer == placer and not rec.ok
                ]
                cell: dict = {
                    "trials_ok": len(records),
                    "trials_failed": len(errors),
                }
                if records:
                    cell.update(
                        {
                            "mean_total_running_time_s": _mean(
                                [r.total_running_time_s for r in records]
                            ),
                            "mean_makespan_s": _mean([r.makespan_s for r in records]),
                            "mean_measurement_overhead_s": _mean(
                                [r.measurement_overhead_s for r in records]
                            ),
                            "mean_placement_wall_s": _mean(
                                [r.placement_wall_s for r in records]
                            ),
                        }
                    )
                if placer != self.baseline:
                    speedups, dropped = self._paired_speedups(scenario, placer)
                    # A dropped trial silently thins the speedup sample;
                    # surface the count so thinner summaries are visible.
                    cell["dropped_trials"] = dropped
                    if speedups:
                        cell["speedup_vs_" + self.baseline] = speedup_summary(
                            speedups
                        ).as_percentages()
                per_placer[placer] = cell
            out[scenario] = per_placer
        return out

    # ----------------------------------------------------------------- (de)ser
    def to_json_dict(self) -> dict:
        """The full result (grid metadata, records, summary) as plain JSON."""
        return {
            "schema": "repro.experiments/result/v1",
            "scenarios": list(self.scenarios),
            "placers": list(self.placers),
            "trials": self.trials,
            "base_seed": self.base_seed,
            "baseline": self.baseline,
            "records": [asdict(rec) for rec in self.records],
            "dropped_trials": self.dropped_trials(),
            "summary": self.summary(),
        }

    def canonical_json_dict(self) -> dict:
        """:meth:`to_json_dict` with host wall-clock fields zeroed.

        Modeled quantities (running times, makespans, measurement overhead,
        bytes) are deterministic functions of the config, but host timings
        vary run to run.  Backend-equivalence checks compare this form: two
        backends agree iff their canonical dicts are bit-identical.
        """
        clone = copy.deepcopy(self)
        for rec in clone.records:
            for field_name in HOST_TIMING_FIELDS:
                setattr(rec, field_name, 0.0)
            if rec.solver_stats:
                # Formulation sizes and warm-start facts are modeled; keys
                # describing the solver run itself are host-dependent when
                # the time limit binds.  (A binding limit can still change
                # the returned *placement* — per-cell budgets should be
                # generous enough that solves finish when bit-identical
                # cross-backend results matter.)
                for stats in rec.solver_stats.values():
                    for key in SOLVER_RUN_STAT_KEYS:
                        stats.pop(key, None)
        return clone.to_json_dict()

    def save(self, path) -> Path:
        """Write the result to ``path`` as indented JSON."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True))
        return target

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_json_dict` output."""
        try:
            records = [TrialRecord(**rec) for rec in data["records"]]
            return cls(
                scenarios=list(data["scenarios"]),
                placers=list(data["placers"]),
                trials=int(data["trials"]),
                base_seed=int(data["base_seed"]),
                baseline=str(data["baseline"]),
                records=records,
            )
        except (KeyError, TypeError) as exc:
            raise ExperimentError(f"malformed experiment result: {exc}") from exc


def _mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0
