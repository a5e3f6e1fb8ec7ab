"""Tests for the online placement service (repro.service) and its parts."""

import hashlib
import json
import math

import numpy as np
import pytest

from helpers import stale_pairs, write_trace_jsonl
from test_truth_property import Case, check_every_run
from repro.cloud.registry import make_provider
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.placement.base import ClusterState
from repro.errors import ServiceError
from repro.experiments.placers import resolve_placer
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.service.cache import CacheStats, MeasurementCache
from repro.service.engine import PlacementService, report_violations, validate_predictor
from repro.service.session import build_churn_session, run_churn_session
from repro.service.timeline import (
    DRIFT_NAMES,
    TAIL_EPOCHS,
    Timeline,
    attach_timeline,
    generate_timeline,
)
from repro.workloads.trace import FlowRecord, load_trace, read_trace_jsonl


def _fresh_provider(n_vms=4, seed=0):
    provider = make_provider("ec2", seed=seed, colocation_probability=0.0)
    provider.request_vms(n_vms)
    return provider


# ---------------------------------------------------------------------------
# Timeline
# ---------------------------------------------------------------------------
class TestTimeline:
    def test_every_drift_generates_and_validates(self):
        base = {"vm1": 1e9, "vm2": 8e8, "vm3": 9e8}
        for drift in DRIFT_NAMES:
            timeline = generate_timeline(base, 22, drift=drift, seed=1)
            assert timeline.n_epochs == 22 + TAIL_EPOCHS
            assert set(timeline.hose_epochs[0]) == set(base)
            for epoch in timeline.hose_epochs:
                for vm, rate in epoch.items():
                    assert 0.1 * base[vm] <= rate <= 2.0 * base[vm]

    def test_generation_is_deterministic(self):
        base = {"vm1": 1e9, "vm2": 8e8}
        a = generate_timeline(base, 10, drift="random-walk", seed=5)
        b = generate_timeline(base, 10, drift="random-walk", seed=5)
        assert a.hose_epochs == b.hose_epochs

    def test_epoch_lookup_clamps_past_the_end(self):
        timeline = generate_timeline({"vm1": 1e9}, 3, drift="none", epoch_s=60.0)
        assert timeline.epoch_of(0.0) == 0
        assert timeline.epoch_of(119.9) == 1
        assert timeline.epoch_of(1e9) == 2 + TAIL_EPOCHS

    def test_hotspot_flap_collapses_a_subset(self):
        base = {f"vm{i}": 1e9 for i in range(10)}
        timeline = generate_timeline(
            base, 8, drift="hotspot-flap", seed=2, drift_strength=0.4
        )
        collapsed = {
            vm
            for epoch in timeline.hose_epochs
            for vm, rate in epoch.items()
            if rate < 0.5 * base[vm]
        }
        assert collapsed  # someone flapped
        assert len(collapsed) < len(base)  # but not everyone

    def test_save_load_roundtrip(self, tmp_path):
        timeline = generate_timeline(
            {"vm1": 1e9, "vm2": 8e8}, 5, drift="diurnal", seed=3, epoch_s=120.0
        )
        path = tmp_path / "timeline.json"
        timeline.save(path)
        loaded = Timeline.load(path)
        assert loaded.epoch_s == timeline.epoch_s
        assert loaded.drift == "diurnal"
        assert loaded.hose_epochs == timeline.hose_epochs

    def test_load_rejects_non_timeline_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ServiceError):
            Timeline.load(path)

    def test_validation_rejects_mismatched_epochs(self):
        with pytest.raises(ServiceError):
            Timeline(
                epoch_s=60.0,
                hose_epochs=[{"vm1": 1e9}, {"vm2": 1e9}],
            )
        with pytest.raises(ServiceError):
            generate_timeline({"vm1": 1e9}, 3, drift="no-such-drift")

    def test_attached_timeline_drives_provider_ground_truth(self):
        provider = _fresh_provider(n_vms=2)
        names = [vm.name for vm in provider.vms()]
        timeline = Timeline(
            epoch_s=60.0,
            hose_epochs=[
                {names[0]: 4e8, names[1]: 5e8},
                {names[0]: 1e8, names[1]: 5e8},
            ],
            drift="recorded",
        )
        attach_timeline(provider, timeline)
        assert provider.hose_rate(names[0]) == 4e8
        provider.advance_time(60.0)
        assert provider.hose_rate(names[0]) == 1e8
        assert provider.hose_rate(names[1]) == 5e8
        # true path rates flow through the hose.
        assert provider.true_path_rates(names)[0, 1] <= 1e8

    def test_attach_rejects_unknown_vms(self):
        provider = _fresh_provider(n_vms=2)
        timeline = generate_timeline({"ghost": 1e9}, 2)
        with pytest.raises(ServiceError):
            attach_timeline(provider, timeline)


# ---------------------------------------------------------------------------
# Per-pair measurement staleness
# ---------------------------------------------------------------------------
class TestPairwiseMeasurementStaleness:
    def test_ttl_cache_reprobes_only_stale_pairs(self):
        provider = _fresh_provider(n_vms=4)
        names = [vm.name for vm in provider.vms()]
        measurer = NetworkMeasurer(provider, MeasurementPlan(advance_clock=False))
        cache = MeasurementCache(measurer, names, ttl_s=100.0)

        cache.refresh(0.0)
        assert cache.stats.campaigns == 1
        assert cache.stats.pairs_measured == 12  # the full 4x3 mesh

        # Within the TTL nothing is re-probed.
        profile = cache.refresh(50.0)
        assert cache.stats.campaigns == 1
        assert not np.isnan(profile.rate_matrix()).any()

        # Past the TTL the mesh is stale again.
        cache.refresh(200.0)
        assert cache.stats.campaigns == 2
        assert cache.stats.pairs_measured == 24

    def test_ttl_cache_partial_staleness(self):
        provider = _fresh_provider(n_vms=3)
        names = [vm.name for vm in provider.vms()]
        measurer = NetworkMeasurer(provider, MeasurementPlan(advance_clock=False))
        cache = MeasurementCache(measurer, names, ttl_s=10.0)
        cache.refresh(0.0)
        # The serial mesh spreads pair timestamps ~2s apart, so at a time
        # chosen inside the campaign's span only the earliest pairs expired.
        stale = stale_pairs(cache, 11.0)
        assert 0 < len(stale) < 6
        cache.refresh(11.0)
        assert cache.stats.pairs_measured == 6 + len(stale)


# ---------------------------------------------------------------------------
# Churn sessions (engine + session builder)
# ---------------------------------------------------------------------------
_FAST = dict(n_vms=5, hours=3, epoch_s=60.0, apps_per_hour=1.5)


class TestChurnSession:
    def test_builder_is_deterministic(self):
        p1, c1, apps1, t1 = build_churn_session(4, **_FAST)
        p2, c2, apps2, t2 = build_churn_session(4, **_FAST)
        assert t1.hose_epochs == t2.hose_epochs
        assert [a.name for a in apps1] == [a.name for a in apps2]
        assert [a.start_time for a in apps1] == [a.start_time for a in apps2]
        assert c1.machine_names() == c2.machine_names()

    def test_arrivals_fit_the_horizon(self):
        _, _, apps, timeline = build_churn_session(0, **_FAST)
        horizon = _FAST["hours"] * timeline.epoch_s
        assert apps
        assert all(a.start_time < horizon for a in apps)

    def test_session_reports_are_deterministic(self):
        a = run_churn_session(0, predictor="measured", **_FAST)
        b = run_churn_session(0, predictor="measured", **_FAST)
        assert a.canonical_json_dict() == b.canonical_json_dict()

    def test_session_accounts_every_app(self):
        report = run_churn_session(1, predictor="measured", **_FAST)
        _, _, apps, _ = build_churn_session(1, **_FAST)
        assert [a.name for a in report.apps] == [a.name for a in apps]
        for outcome in report.apps:
            assert outcome.status in ("completed", "rejected")
            if outcome.status == "completed":
                assert outcome.duration >= 0.0
                assert math.isfinite(outcome.duration)

    def test_stale_predictor_measures_only_the_bootstrap(self):
        report = run_churn_session(0, predictor="stale", **_FAST)
        assert report.measurement["campaigns"] == 1
        assert report.measurement["pairs_measured"] == 20  # 5x4 mesh once

    def test_oracle_predictor_never_measures(self):
        report = run_churn_session(0, predictor="oracle", **_FAST)
        assert report.measurement["campaigns"] == 0
        assert report.measurement["pairs_measured"] == 0

    @pytest.mark.parametrize(
        "placer, predictor, migrate",
        [("random", "measured", False), ("round-robin", "stale", False),
         ("greedy", "oracle", True), ("random", "oracle", False)],
    )
    def test_a_session_that_measures_through_no_cache_builds_none(
        self, placer, predictor, migrate
    ):
        """A placer that reads no profile, with nothing to migrate, measures
        nothing; the oracle reads the truth.  Neither builds a cache, and
        the report's measurement block is all zero."""
        provider, cluster, apps, _ = build_churn_session(0, **_FAST)
        service = PlacementService(
            provider, cluster, resolve_placer(placer).create(0),
            predictor=predictor, migrate=migrate,
        )
        assert service.cache is None
        report = service.run_session(apps, hours=_FAST["hours"])
        assert report.measurement == CacheStats().to_json_dict() == {
            "campaigns": 0, "pairs_measured": 0, "pairs_reused": 0,
            "pairs_degraded": 0, "measurement_time_s": 0.0,
        }
        assert report.completed()

    def test_ttl_cache_saves_mesh_work(self):
        report = run_churn_session(0, predictor="measured", **_FAST)
        assert report.measurement["campaigns"] >= 2
        assert report.measurement["pairs_reused"] > 0

    def test_unknown_predictor_is_rejected(self):
        with pytest.raises(ServiceError):
            run_churn_session(0, predictor="clairvoyant", **_FAST)

    @pytest.mark.parametrize("name", ["combined", "previous-hour", "time-of-day"])
    def test_a_history_predictor_is_refused_by_name(self, name):
        """The §6.1 predictors forecast an application's bytes; a session
        places on what it measured, so neither the scenario nor the CLI
        takes them."""
        from repro.experiments.scenarios import get_scenario
        from repro.service.__main__ import main

        with pytest.raises(ServiceError) as refused:
            validate_predictor(name)
        message = str(refused.value)
        for known in (f"{name!r}", "'measured'", "'stale'", "'oracle'",
                      "evaluate_predictability"):
            assert known in message
        with pytest.raises(ServiceError, match=f"unknown predictor {name!r}"):
            get_scenario("service-churn").build(seed=0, predictor=name)
        with pytest.raises(SystemExit) as exited:
            main(["run", "--predictor", name, "--no-oracle", "--output", ""])
        assert exited.value.code == 2

    def test_the_benchmark_passes_combined_for_measured(self):
        """``churn_day`` in benchmark/workloads.py constructs its service
        with ``predictor="combined"``: it runs the measured session."""
        provider, cluster, _apps, _ = build_churn_session(0, **_FAST)
        service = PlacementService(
            provider, cluster, resolve_placer("greedy").create(0),
            predictor="combined",
        )
        assert service.predictor == "measured"

    def test_report_json_shape(self):
        report = run_churn_session(0, predictor="measured", **_FAST)
        payload = report.to_json_dict()
        assert payload["schema"] == "repro.service/report/v1"
        assert payload["predictor"] == "measured"
        assert payload["n_completed"] + payload["n_rejected"] == len(
            payload["apps"]
        )
        json.dumps(payload)  # must be serialisable as-is


class TestGoldenDigests:
    """Identity across commits, not only across paths inside one commit.

    SHA-256 of ``ServiceReport.canonical_json_dict()`` for two fixed-seed
    sessions, computed at the commit before the admission path moved onto
    one rate matrix.  Migrations (2 and 3), degraded pairs (23 and 10) and
    recoveries (two re-placements, one removal) all fire.
    A digest changes only when simulated behaviour changes; update it only
    in a PR that means to change behaviour, and say so there.

    Re-pinned once, in PR 23: one application (arrives 541.8 s) migrates at
    the 600 s boundary onto a single VM, which takes its remaining bytes
    off the network.  Its ``completed_at`` was 682.703287 — the arrival of
    the *next* application, the first later segment with a flow in it to
    stamp anything — and is now 600.0, when the placement was set
    (``LiveApp.place``; tests/test_live_books.py).  Nothing else moved.

    Re-pinned again when greedy's colocation ties went to the machine with
    the fastest measured egress instead of the lowest name: greedy places
    applications differently in all four sessions (7, 4, 5 and 6 of 16
    durations move; mean completion 53.06 → 53.92, 56.00 → 53.02,
    50.71 → 49.62 and 57.62 → 52.61 s), and the first two sessions migrate
    once less (1 and 2).  Recoveries, rejections and the measurement
    counters are the same.

    Re-pinned when the session stopped placing on a forecast and placed on
    the cache's measured profile instead: the four sessions migrate 2, 2, 3
    and 3 times (1, 2, 1 and 1 before), mean completion goes 53.92 → 43.37,
    53.02 → 44.22, 49.62 → 40.41 and 52.61 → 40.19 s, and the lossy-probes
    session rejects none of its applications (one before).  Recoveries and
    degraded pairs are the same.
    """

    _SESSION = dict(
        predictor="measured", placer="greedy", migrate=True, n_vms=12,
        hours=8, drift="hotspot-flap", epoch_s=120.0, apps_per_hour=2.0,
    )

    @pytest.mark.parametrize(
        "faults, migrations, recoveries, digest",
        [
            (
                "none", 2, 0,
                "8e944b10945efa785d8acea3b0ba4cd381be1d45c912a779c85d04e7ddddb678",
            ),
            (
                "rack-outage", 2, 3,
                "d2e6129799032df10aba332c0e6351d271de0c99e01b583f30101fefbd7a15b7",
            ),
            # The only generator whose degradations multiply into drifted
            # rates, and the only one that drives the probe-loss hooks.
            (
                "link-flap", 3, 8,
                "8c6d14aa7b86d3212333d63e209ffe9c983dcb171e854ccc2d3c1d0b4e1c0fcb",
            ),
            (
                "lossy-probes", 3, 12,
                "047e066b7229cbb57906374b2f0bb2000752689a8b6bf8ea71c4b349418cb63f",
            ),
        ],
    )
    def test_session_digest_is_pinned(
        self, faults, migrations, recoveries, digest, monkeypatch
    ):
        checked = Case()
        check_every_run(monkeypatch, checked)
        report = run_churn_session(0, faults=faults, **self._SESSION)
        # Every fluid run keeps max-min fairness segment by segment, and
        # every probe filling under the session's own traffic (each of these
        # sessions measures under load) is max-min fair.
        assert checked.runs and checked.loaded_campaigns > 0
        assert checked.problems == []
        assert report_violations(report) == []
        assert len(report.migrations) == migrations
        assert len(report.recovery) == recoveries
        canonical = json.dumps(report.canonical_json_dict(), sort_keys=True)
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest


class TestPredictorComparison:
    """The acceptance claim: under drift, placing on a fresh measurement
    beats a frozen hour-0 profile, and the oracle bounds both (means across
    >= 3 seeds)."""

    @pytest.fixture(scope="class")
    def means(self):
        config = dict(
            n_vms=8, hours=4, drift="hotspot-flap", epoch_s=120.0,
            apps_per_hour=1.5,
        )
        sums = {"stale": 0.0, "measured": 0.0, "oracle": 0.0}
        seeds = (0, 1, 2)
        for seed in seeds:
            for predictor in sums:
                report = run_churn_session(
                    seed, predictor=predictor, placer="greedy", **config
                )
                sums[predictor] += report.mean_completion_time_s
        return {name: total / len(seeds) for name, total in sums.items()}

    def test_measured_strictly_beats_stale(self, means):
        assert means["measured"] < means["stale"]

    def test_oracle_bounds_both(self, means):
        assert means["oracle"] <= means["measured"]
        assert means["oracle"] <= means["stale"]


# ---------------------------------------------------------------------------
# Migration under drift
# ---------------------------------------------------------------------------
class TestServiceMigration:
    def test_flap_triggers_predictor_driven_migration(self):
        """A long transfer placed before a hose collapse must migrate off
        the collapsed VM once a measurement sees the collapse."""
        from repro.service.engine import PlacementService
        from repro.units import GBYTE
        from repro.workloads.application import Application, Task, TrafficMatrix

        provider = _fresh_provider(n_vms=3, seed=11)
        names = [vm.name for vm in provider.vms()]
        # vm0 is clearly fastest while healthy, then collapses from epoch 2.
        healthy = {names[0]: 1.2e9, names[1]: 8e8, names[2]: 7e8}
        collapsed = dict(healthy)
        collapsed[names[0]] = 1e8
        timeline = Timeline(
            epoch_s=60.0,
            hose_epochs=[healthy, healthy] + [collapsed] * 10,
            drift="recorded",
        )
        attach_timeline(provider, timeline)
        cluster = ClusterState.from_vms(provider.vms())

        # One big two-task transfer that drains over many epochs (4-core
        # tasks cannot colocate, so it must cross the network).
        traffic = TrafficMatrix()
        traffic.add("src", "dst", 40 * GBYTE)
        app = Application(
            name="longhaul",
            tasks=[Task("src", 4.0), Task("dst", 4.0)],
            traffic=traffic,
        )
        service = PlacementService(
            provider,
            cluster,
            resolve_placer("greedy").create(0, None),
            predictor="measured",
        )
        report = service.run_session([app], hours=10)
        outcome = report.apps[0]
        assert outcome.status == "completed"
        # Greedy admits onto the (then) fastest vm0; once a measurement sees
        # the collapse, the remaining bytes must migrate off it.
        assert report.migrations
        assert outcome.migrations >= 1
        final_src = service.last_apps["longhaul"].placement.machine_of("src")
        assert final_src != names[0]


def test_a_gain_of_exactly_the_threshold_does_not_migrate():
    """A candidate must beat the current placement by *more than*
    ``IMPROVEMENT_THRESHOLD``: moving ``src`` from ``a`` (hose 0.9 Gbit/s)
    to ``b`` (1 Gbit/s) takes 9e9 bits from 10 s to 9 s, a gain of exactly
    0.1; to ``b`` at 2 Gbit/s it migrates."""
    from repro.core.network_profile import NetworkProfile
    from repro.core.placement.base import Placement, Placer
    from repro.runtime.migration import IMPROVEMENT_THRESHOLD, propose_migration
    from repro.workloads.application import Application, Task, TrafficMatrix

    class Fixed(Placer):
        def place(self, app, cluster, profile=None):
            return Placement(app.name, {"src": "b", "dst": "c"})

    app = Application(
        "one", [Task("src", 1.0), Task("dst", 1.0)],
        TrafficMatrix({("src", "dst"): 9e9 / 8}),
    )
    current = Placement("one", {"src": "a", "dst": "c"})
    cluster = ClusterState.from_vms([])
    for b_rate, migrates in ((1e9, False), (2e9, True)):
        rates = np.array([[0, 9e8, 9e8], [b_rate, 0, b_rate], [1e9, 1e9, 0]])
        profile = NetworkProfile(["a", "b", "c"], rates)
        proposal = propose_migration(Fixed(), app, current, cluster, profile, now=0.0)
        assert (proposal is not None) == migrates, b_rate
    assert IMPROVEMENT_THRESHOLD == (10.0 - 9.0) / 10.0


# ---------------------------------------------------------------------------
# service-churn in the experiment grid
# ---------------------------------------------------------------------------
class TestServiceChurnScenario:
    def test_runs_through_the_experiment_runner(self):
        config = ExperimentConfig(
            scenarios=("service-churn",),
            placers=("greedy",),
            trials=1,
            baseline="random",
            scenario_params={
                "service-churn": {
                    "n_vms": 5, "hours": 2, "epoch_s": 60.0,
                    "apps_per_hour": 1.0,
                }
            },
        )
        result = ExperimentRunner(config).run()
        assert all(rec.ok for rec in result.records), [
            rec.error for rec in result.records if not rec.ok
        ]
        greedy = result.ok_records("service-churn", "greedy")[0]
        assert greedy.total_running_time_s >= 0.0
        assert greedy.measurement_overhead_s > 0.0

    def test_predictor_is_a_scenario_parameter(self):
        from repro.experiments.scenarios import get_scenario

        spec = get_scenario("service-churn")
        instance = spec.build(
            seed=0, predictor="oracle", n_vms=4, hours=2, epoch_s=60.0,
            apps_per_hour=1.0,
        )
        assert instance.service.predictor == "oracle"
        with pytest.raises(ServiceError):
            spec.build(seed=0, predictor="nope")


def _session(hours=1.0, **kwargs):
    """A two-VM session run for ``hours``, the service given ``kwargs``."""
    provider, cluster, apps, _ = build_churn_session(0, n_vms=2, hours=1.0)
    placer = resolve_placer("greedy").create(0, {})
    return PlacementService(provider, cluster, placer, **kwargs).run_session(apps, hours)


#: A setting a NaN used to pass (``<= 0`` is False for NaN), by its field;
#: a NaN TTL left every pair of the mesh stale forever.  The service's
#: epoch is its timeline's, which refuses a non-finite one.
NAN_SETTINGS = {
    "cache.ttl_s": lambda: MeasurementCache(None, ["a", "b"], ttl_s=math.nan),
    "timeline.epoch_s": lambda: build_churn_session(0, epoch_s=math.nan),
    "engine.ttl_s": lambda: _session(ttl_s=math.nan),
    "engine.hours": lambda: _session(hours=math.nan),
    "session.hours": lambda: build_churn_session(0, hours=math.nan),
    "session.apps_per_hour": lambda: build_churn_session(0, apps_per_hour=math.nan),
}


#: The refusals worded otherwise than ``<field> must be positive``.
NAN_REFUSALS = {"timeline.epoch_s": "epoch_s must be finite and positive, got nan"}


@pytest.mark.parametrize("field", NAN_SETTINGS)
def test_a_nan_setting_is_refused_by_name(field):
    refusal = NAN_REFUSALS.get(field, f"{field.split('.')[1]} must be positive")
    with pytest.raises(ServiceError, match=f"^{refusal}$"):
        NAN_SETTINGS[field]()


#: Settings no caller set, gone: the threshold is
#: ``runtime.migration.IMPROVEMENT_THRESHOLD``, the epoch the timeline's,
#: the campaign plan the engine's own and the provider always ``ec2``.
REMOVED_SETTINGS = {
    "improvement_threshold": lambda: _session(improvement_threshold=0.2),
    "epoch_s": lambda: _session(epoch_s=60.0),
    "measurement": lambda: _session(measurement=MeasurementPlan()),
    "provider_name": lambda: build_churn_session(0, provider_name="ec2"),
}


@pytest.mark.parametrize("name", REMOVED_SETTINGS)
def test_a_removed_setting_is_refused(name):
    with pytest.raises(TypeError, match=f"'{name}'"):
        REMOVED_SETTINGS[name]()


def test_report_violations_names_each_broken_rule():
    from repro.runtime.migration import MigrationEvent
    from repro.service.engine import AppOutcome, RecoveryAction, ServiceReport

    def recovery(time_s, event_time_s):
        return RecoveryAction(
            time_s=time_s, event_time_s=event_time_s, epoch=1,
            kind="vm-preemption", target="vm1", action="removed",
        )

    def migration(time_s):
        return MigrationEvent(time_s, "early", ("a",), 0.5)

    report = ServiceReport(
        predictor="measured", placer="greedy", hours=2, epoch_s=60.0,
        ttl_s=30.0, drift="none",
        apps=[
            # One millisecond early is as wrong as any earlier completion.
            AppOutcome("early", "completed", arrived_at=10.0, completed_at=9.999),
            AppOutcome("ghost", "rejected", arrived_at=0.0, recoveries=1),
            AppOutcome("fine", "completed", arrived_at=0.0, completed_at=0.0),
        ],
        migrations=[migration(120.0), migration(60.0)],
        recovery=[recovery(60.0, 30.0), recovery(60.0, 90.0)],
    )
    problems = report_violations(report)
    assert len(problems) == 4, problems
    for name in ("early", "ghost", "a migration at 60.0", "before its fault"):
        assert any(name in problem for problem in problems), (name, problems)
    report.apps, report.migrations, report.recovery = report.apps[2:], [], []
    assert report_violations(report) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestServiceCLI:
    def test_run_writes_report_and_exits_zero(self, tmp_path, capsys):
        from repro.service.__main__ import main

        out = tmp_path / "report.json"
        timeline_out = tmp_path / "timeline.json"
        code = main([
            "run", "--hours", "2", "--n-vms", "4", "--epoch-s", "60",
            "--seed", "0", "--drift", "random-walk",
            "--predictor", "measured",
            "--output", str(out), "--save-timeline", str(timeline_out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["predictor"] == "measured"
        assert "oracle_report" in payload
        assert "mean_regret_vs_oracle" in payload
        Timeline.load(timeline_out)  # must be a valid timeline
        assert "mean completion time" in capsys.readouterr().out

    def test_list_names_drifts_and_predictors(self, capsys):
        from repro.service.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hotspot-flap" in out and "measured" in out

    @pytest.mark.parametrize("faults", ["none", "rack-outage"])
    def test_replay_saved_timeline(self, tmp_path, faults):
        """One file carries drift and faults: the replay needs no
        ``--faults`` to recover the same preemptions."""
        from repro.service.__main__ import main

        timeline_out = tmp_path / "timeline.json"
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = [
            "run", "--hours", "2", "--n-vms", "4", "--epoch-s", "60",
            "--seed", "3", "--no-oracle",
        ]
        assert main(base + ["--faults", faults, "--save-timeline", str(timeline_out),
                            "--output", str(a)]) == 0
        assert main(base + ["--timeline", str(timeline_out),
                            "--output", str(b)]) == 0
        canon_a = json.loads(a.read_text())["report"]
        canon_b = json.loads(b.read_text())["report"]
        for payload in (canon_a, canon_b):
            payload["session_wall_s"] = payload["placement_wall_s"] = 0.0
        assert canon_a == canon_b
        assert bool(canon_a["recovery"]) == (faults != "none")


# ---------------------------------------------------------------------------
# Trace JSONL + recorded replay (satellite)
# ---------------------------------------------------------------------------
class TestTraceJsonl:
    def test_roundtrip(self, tmp_path):
        records = [
            FlowRecord(1.5, "app", "t1", "t2", 1000.0),
            FlowRecord(2.0, "app", "t2", "t3", 500.0),
        ]
        path = tmp_path / "trace.jsonl"
        assert write_trace_jsonl(records, path) == 2
        assert read_trace_jsonl(path) == records
        assert load_trace(path) == records

    def test_malformed_line_reports_location(self, tmp_path):
        from repro.errors import WorkloadError

        path = tmp_path / "bad.jsonl"
        path.write_text('{"timestamp": 1.0}\n')
        with pytest.raises(WorkloadError, match="bad.jsonl:1"):
            read_trace_jsonl(path)

    def test_trace_replay_scenario_from_disk(self, tmp_path):
        from repro.experiments.scenarios import get_scenario

        records = [
            FlowRecord(0.0, "alpha", "a1", "a2", 5e8),
            FlowRecord(30.0, "beta", "b1", "b2", 2e8),
            FlowRecord(31.0, "beta", "b2", "b3", 1e8),
        ]
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(records, path)
        instance = get_scenario("ec2-trace-replay").build(
            seed=0, n_vms=4, trace_path=str(path)
        )
        assert [a.name for a in instance.apps] == ["alpha", "beta"]
        assert instance.apps[0].start_time == 0.0
        assert instance.apps[1].start_time == 30.0
        assert instance.apps[1].total_bytes == pytest.approx(3e8)
