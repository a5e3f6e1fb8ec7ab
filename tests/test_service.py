"""Tests for the online placement service (repro.service) and its parts."""

import hashlib
import json
import math

import pytest

from repro.cloud.registry import make_provider
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.placement.base import ClusterState
from repro.errors import MeasurementError, ServiceError
from repro.experiments.placers import get_placer
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.service.cache import MeasurementCache
from repro.service.forecast import RateForecaster
from repro.service.session import build_churn_session, run_churn_session
from repro.service.timeline import (
    DRIFT_NAMES,
    NetworkTimeline,
    attach_timeline,
    generate_timeline,
)
from repro.workloads.trace import (
    FlowRecord,
    load_trace,
    read_trace_jsonl,
    write_trace_jsonl,
)


def _fresh_provider(n_vms=4, seed=0):
    provider = make_provider("ec2", seed=seed, colocation_probability=0.0)
    provider.request_vms(n_vms)
    return provider


# ---------------------------------------------------------------------------
# NetworkTimeline
# ---------------------------------------------------------------------------
class TestNetworkTimeline:
    def test_every_drift_generates_and_validates(self):
        base = {"vm1": 1e9, "vm2": 8e8, "vm3": 9e8}
        for drift in DRIFT_NAMES:
            timeline = generate_timeline(base, n_epochs=30, drift=drift, seed=1)
            assert timeline.n_epochs == 30
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
        assert timeline.epoch_of(1e9) == 2

    def test_hotspot_flap_collapses_a_subset(self):
        base = {f"vm{i}": 1e9 for i in range(10)}
        timeline = generate_timeline(
            base, 8, drift="hotspot-flap", seed=2, strength=0.4
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
        timeline.pair_epochs = [
            {("vm1", "vm2"): 5e8} for _ in range(timeline.n_epochs)
        ]
        path = tmp_path / "timeline.json"
        timeline.save(path)
        loaded = NetworkTimeline.load(path)
        assert loaded.epoch_s == timeline.epoch_s
        assert loaded.drift == "diurnal"
        assert loaded.hose_epochs == timeline.hose_epochs
        assert loaded.pair_epochs == timeline.pair_epochs
        assert loaded.pair_rate_at("vm1", "vm2", 130.0) == 5e8

    def test_load_rejects_non_timeline_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ServiceError):
            NetworkTimeline.load(path)

    def test_validation_rejects_mismatched_epochs(self):
        with pytest.raises(ServiceError):
            NetworkTimeline(
                epoch_s=60.0,
                hose_epochs=[{"vm1": 1e9}, {"vm2": 1e9}],
            )
        with pytest.raises(ServiceError):
            generate_timeline({"vm1": 1e9}, 3, drift="no-such-drift")

    def test_attached_timeline_drives_provider_ground_truth(self):
        provider = _fresh_provider(n_vms=2)
        names = [vm.name for vm in provider.vms()]
        timeline = NetworkTimeline(
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
        assert provider.true_path_rate(names[0], names[1]) <= 1e8

    def test_attach_rejects_unknown_vms(self):
        provider = _fresh_provider(n_vms=2)
        timeline = generate_timeline({"ghost": 1e9}, 2)
        with pytest.raises(ServiceError):
            attach_timeline(provider, timeline)


# ---------------------------------------------------------------------------
# Per-pair measurement staleness
# ---------------------------------------------------------------------------
class TestPairwiseMeasurementStaleness:
    def test_measure_subset_of_pairs(self):
        provider = _fresh_provider(n_vms=4)
        names = [vm.name for vm in provider.vms()]
        measurer = NetworkMeasurer(provider, MeasurementPlan(advance_clock=False))
        subset = [(names[0], names[1]), (names[2], names[3])]
        profile = measurer.measure(names, pairs=subset)
        assert sorted(profile.rates_bps) == sorted(subset)
        assert set(profile.pair_measured_at) == set(subset)

    def test_full_mesh_pairs_carry_round_timestamps(self):
        provider = _fresh_provider(n_vms=3)
        names = [vm.name for vm in provider.vms()]
        measurer = NetworkMeasurer(provider, MeasurementPlan(advance_clock=False))
        profile = measurer.measure(names)
        times = [profile.measured_at_pair(s, d) for s, d in profile.pairs()]
        # Serial mesh: strictly increasing per-pair timestamps.
        assert times == sorted(times)
        assert len(set(times)) == len(times)
        assert times[0] == profile.measured_at

    def test_schedule_rejects_foreign_pairs(self):
        provider = _fresh_provider(n_vms=2)
        names = [vm.name for vm in provider.vms()]
        measurer = NetworkMeasurer(provider, MeasurementPlan(advance_clock=False))
        with pytest.raises(MeasurementError):
            measurer.schedule_rounds(names, pairs=[(names[0], "ghost")])

    def test_profile_rejects_timestamps_for_unmeasured_pairs(self):
        from repro.core.network_profile import NetworkProfile

        with pytest.raises(MeasurementError):
            NetworkProfile(
                vms=["a", "b"],
                rates_bps={("a", "b"): 1e9},
                pair_measured_at={("b", "a"): 1.0},
            )

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
        assert len(profile.rates_bps) == 12

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
        stale = cache.stale_pairs(11.0)
        assert 0 < len(stale) < 6
        cache.refresh(11.0)
        assert cache.stats.pairs_measured == 6 + len(stale)


# ---------------------------------------------------------------------------
# Forecaster
# ---------------------------------------------------------------------------
def _profile_with(rates):
    from repro.core.network_profile import NetworkProfile

    vms = sorted({vm for pair in rates for vm in pair})
    return NetworkProfile(vms=vms, rates_bps=dict(rates))


class TestRateForecaster:
    def test_previous_hour_tracks_the_last_epoch(self):
        fc = RateForecaster("previous-hour")
        fc.record_epoch(0, _profile_with({("a", "b"): 1e9}))
        fc.record_epoch(1, _profile_with({("a", "b"): 2e8}))
        assert fc.forecast_pair(("a", "b"), 2) == 2e8

    def test_stale_freezes_hour_zero(self):
        fc = RateForecaster("stale")
        fc.record_epoch(0, _profile_with({("a", "b"): 1e9}))
        fc.record_epoch(1, _profile_with({("a", "b"): 2e8}))
        assert fc.forecast_pair(("a", "b"), 2) == 1e9

    def test_no_history_returns_none_and_profile_keeps_measured(self):
        fc = RateForecaster("combined")
        assert fc.forecast_pair(("a", "b"), 0) is None
        current = _profile_with({("a", "b"): 7e8, ("b", "a"): 6e8})
        forecast = fc.forecast_profile(current, 0)
        assert forecast.rates_bps == current.rates_bps

    def test_epochs_must_be_recorded_in_order(self):
        fc = RateForecaster("combined")
        fc.record_epoch(0, _profile_with({("a", "b"): 1e9}))
        with pytest.raises(ServiceError):
            fc.record_epoch(2, _profile_with({("a", "b"): 1e9}))

    def test_oracle_is_not_a_history_predictor(self):
        with pytest.raises(ServiceError):
            RateForecaster("oracle")


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
        a = run_churn_session(0, predictor="combined", **_FAST)
        b = run_churn_session(0, predictor="combined", **_FAST)
        assert a.canonical_json_dict() == b.canonical_json_dict()

    def test_session_accounts_every_app(self):
        report = run_churn_session(1, predictor="previous-hour", **_FAST)
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

    def test_ttl_cache_saves_mesh_work_for_history_predictors(self):
        report = run_churn_session(0, predictor="combined", **_FAST)
        assert report.measurement["campaigns"] >= 2
        assert report.measurement["pairs_reused"] > 0

    def test_unknown_predictor_is_rejected(self):
        with pytest.raises(ServiceError):
            run_churn_session(0, predictor="clairvoyant", **_FAST)

    def test_report_json_shape(self):
        report = run_churn_session(0, predictor="combined", **_FAST)
        payload = report.to_json_dict()
        assert payload["schema"] == "repro.service/report/v1"
        assert payload["predictor"] == "combined"
        assert payload["n_completed"] + payload["n_rejected"] == len(
            payload["apps"]
        )
        json.dumps(payload)  # must be serialisable as-is


class TestGoldenDigests:
    """Identity across commits, not only across paths inside one commit.

    SHA-256 of ``ServiceReport.canonical_json_dict()`` for two fixed-seed
    sessions, computed at the commit before the admission path moved onto
    one rate matrix (PR 15).  Forecasts, migrations (2 and 3), degraded
    pairs (23) and recoveries (two re-placements, one removal) all fire.
    A digest changes only when simulated behaviour changes; update it only
    in a PR that means to change behaviour, and say so there.

    Re-pinned once, in PR 23: one application (arrives 541.8 s) migrates at
    the 600 s boundary onto a single VM, which takes its remaining bytes
    off the network.  Its ``completed_at`` was 682.703287 — the arrival of
    the *next* application, the first later segment with a flow in it to
    stamp anything — and is now 600.0, when the placement was set
    (``LiveApp.place``; tests/test_live_books.py).  Nothing else moved.
    """

    _SESSION = dict(
        predictor="combined", placer="greedy", migrate=True, n_vms=12,
        hours=8, drift="hotspot-flap", epoch_s=120.0, apps_per_hour=2.0,
    )

    @pytest.mark.parametrize(
        "faults, migrations, recoveries, digest",
        [
            (
                "none", 2, 0,
                "5ade4ebd199887a9fbf746ecec2e39899a9e1b1084d72e7ea71319a295bb2e20",
            ),
            (
                "rack-outage", 3, 3,
                "f539e1d5de748f62e7fbe3e1f01867be7f19e3af2fe79af68d9c52e6d756a90f",
            ),
        ],
    )
    def test_session_digest_is_pinned(self, faults, migrations, recoveries, digest):
        report = run_churn_session(0, faults=faults, **self._SESSION)
        assert len(report.migrations) == migrations
        assert len(report.recovery) == recoveries
        canonical = json.dumps(report.canonical_json_dict(), sort_keys=True)
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest


class TestPredictorComparison:
    """The acceptance claim: under drift, combined-predictor placement beats
    a frozen hour-0 profile, and the oracle bounds both (means across >= 3
    seeds)."""

    @pytest.fixture(scope="class")
    def means(self):
        config = dict(
            n_vms=8, hours=4, drift="hotspot-flap", epoch_s=120.0,
            apps_per_hour=1.5,
        )
        sums = {"stale": 0.0, "combined": 0.0, "oracle": 0.0}
        seeds = (0, 1, 2)
        for seed in seeds:
            for predictor in sums:
                report = run_churn_session(
                    seed, predictor=predictor, placer="greedy", **config
                )
                sums[predictor] += report.mean_completion_time_s
        return {name: total / len(seeds) for name, total in sums.items()}

    def test_combined_strictly_beats_stale(self, means):
        assert means["combined"] < means["stale"]

    def test_oracle_bounds_both(self, means):
        assert means["oracle"] <= means["combined"]
        assert means["oracle"] <= means["stale"]


# ---------------------------------------------------------------------------
# Migration under drift
# ---------------------------------------------------------------------------
class TestServiceMigration:
    def test_flap_triggers_predictor_driven_migration(self):
        """A long transfer placed before a hose collapse must migrate off
        the collapsed VM once the forecast sees the collapse."""
        from repro.service.engine import PlacementService
        from repro.units import GBYTE
        from repro.workloads.application import Application, Task, TrafficMatrix

        provider = _fresh_provider(n_vms=3, seed=11)
        names = [vm.name for vm in provider.vms()]
        # vm0 is clearly fastest while healthy, then collapses from epoch 2.
        healthy = {names[0]: 1.2e9, names[1]: 8e8, names[2]: 7e8}
        collapsed = dict(healthy)
        collapsed[names[0]] = 1e8
        timeline = NetworkTimeline(
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
            get_placer("greedy").create(0, None),
            predictor="previous-hour",
            improvement_threshold=0.2,
        )
        report = service.run_session([app], hours=10)
        outcome = report.apps[0]
        assert outcome.status == "completed"
        # Greedy admits onto the (then) fastest vm0; once the forecast sees
        # the collapse, the remaining bytes must migrate off it.
        assert report.migrations
        assert outcome.migrations >= 1
        final_src = service.last_placements["longhaul"].machine_of("src")
        assert final_src != names[0]


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
            "--predictor", "combined",
            "--output", str(out), "--save-timeline", str(timeline_out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["predictor"] == "combined"
        assert "oracle_report" in payload
        assert "mean_regret_vs_oracle" in payload
        NetworkTimeline.load(timeline_out)  # must be a valid timeline
        assert "mean completion time" in capsys.readouterr().out

    def test_list_names_drifts_and_predictors(self, capsys):
        from repro.service.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "hotspot-flap" in out and "combined" in out

    def test_replay_saved_timeline(self, tmp_path):
        from repro.service.__main__ import main

        timeline_out = tmp_path / "timeline.json"
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        base = [
            "run", "--hours", "2", "--n-vms", "4", "--epoch-s", "60",
            "--seed", "3", "--no-oracle",
        ]
        assert main(base + ["--save-timeline", str(timeline_out),
                            "--output", str(a)]) == 0
        assert main(base + ["--timeline", str(timeline_out),
                            "--output", str(b)]) == 0
        canon_a = json.loads(a.read_text())["report"]
        canon_b = json.loads(b.read_text())["report"]
        for payload in (canon_a, canon_b):
            payload["session_wall_s"] = payload["placement_wall_s"] = 0.0
        assert canon_a == canon_b


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
