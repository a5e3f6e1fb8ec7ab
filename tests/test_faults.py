"""Fault injection and the self-healing control loop."""

import json

import numpy as np
import pytest

from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.errors import FaultError, ReproError, ServiceError, WorkloadError
from repro.faults import (
    FAULT_NAMES,
    FaultTimeline,
    LinkDegradation,
    PREEMPTED_RATE_BPS,
    ProbeLoss,
    VmPreemption,
    attach_faults,
    generate_faults,
)
from repro.service.engine import PlacementService
from repro.service.session import _resolve_placer, build_churn_session, run_churn_session

QUICK = dict(n_vms=5, hours=2.0, epoch_s=120.0)


def _canonical(report) -> str:
    return json.dumps(report.canonical_json_dict(), sort_keys=True)


def _run_service(seed=0, fault_timeline=None, predictor="combined", **kwargs):
    params = dict(QUICK, **kwargs)
    provider, cluster, apps, _ = build_churn_session(seed, **params)
    if fault_timeline is not None:
        attach_faults(provider, fault_timeline)
    service = PlacementService(
        provider, cluster, _resolve_placer("greedy", seed, None),
        predictor=predictor,
    )
    return service.run_session(apps, hours=params["hours"])


# ------------------------------------------------------------------ events
def test_event_validation_rejects_nonsense():
    with pytest.raises(FaultError):
        LinkDegradation(vm="vm1", start_s=10.0, end_s=5.0, multiplier=0.5)
    with pytest.raises(FaultError):
        LinkDegradation(vm="vm1", start_s=0.0, end_s=5.0, multiplier=1.5)
    with pytest.raises(FaultError):
        VmPreemption(vm="vm1", time_s=-1.0)
    with pytest.raises(FaultError):
        ProbeLoss(src="vm1", dst="vm1", start_s=0.0, end_s=5.0)
    with pytest.raises(FaultError):
        ProbeLoss(src="vm1", dst="vm2", start_s=0.0, end_s=5.0, mode="nope")


def test_timeline_sorts_events_and_reports_window_membership():
    timeline = FaultTimeline(events=(
        ProbeLoss(src="a", dst="b", start_s=500.0, end_s=600.0),
        VmPreemption(vm="c", time_s=100.0),
        LinkDegradation(vm="a", start_s=300.0, end_s=400.0, multiplier=0.5),
    ))
    assert [e.effect_time_s for e in timeline.events] == [100.0, 300.0, 500.0]
    assert len(timeline.events_between(0.0, 100.0)) == 1  # (t0, t1] window
    assert len(timeline.events_between(100.0, 600.0)) == 2
    assert timeline.pending_after(400.0)
    assert not timeline.pending_after(500.0)


def test_fault_effects_on_rates_and_probes():
    timeline = FaultTimeline(events=(
        VmPreemption(vm="dead", time_s=100.0),
        LinkDegradation(vm="slow", start_s=50.0, end_s=150.0, multiplier=0.25),
        ProbeLoss(src="a", dst="b", start_s=0.0, end_s=10.0, mode="fail"),
    ))
    assert timeline.effective_hose_rate("dead", 99.0, 1e9) == 1e9
    assert timeline.effective_hose_rate("dead", 100.0, 1e9) == PREEMPTED_RATE_BPS
    assert timeline.effective_hose_rate("slow", 100.0, 1e9) == 0.25e9
    assert timeline.effective_hose_rate("slow", 200.0, 1e9) == 1e9
    assert timeline.probe_fault("a", "b", 5.0) == ("fail", 0.0)
    assert timeline.probe_fault("a", "b", 10.0) is None
    # Probes touching a preempted endpoint fail outright.
    assert timeline.probe_fault("dead", "a", 150.0) == ("fail", 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_probe_faults_is_probe_fault_for_every_probe(seed):
    """The vectorised form against the scalar scan, at clocks inside,
    outside and on the edge of windows; overlapping windows on one pair
    (the earliest wins), events naming VMs outside the mesh, an empty
    timeline and an empty schedule."""
    rng = np.random.default_rng(seed)
    vms = [f"vm{i}" for i in range(7)]
    events = [VmPreemption(vm=vms[6], time_s=40.0), VmPreemption(vm="gone", time_s=1.0)]
    for _ in range(25):
        src, dst = rng.choice(vms + ["gone"], size=2, replace=False)
        start = float(rng.integers(0, 80))
        wild = bool(rng.integers(2))
        events.append(
            ProbeLoss(
                src=str(src), dst=str(dst), start_s=start,
                end_s=start + float(rng.integers(1, 40)),
                mode="wild" if wild else "fail",
                factor=float(rng.choice([0.25, 3.0])) if wild else 1.0,
            )
        )
    src = np.repeat(np.arange(7), 7)
    dst = np.tile(np.arange(7), 7)
    src, dst = src[src != dst], dst[src != dst]
    for timeline in (FaultTimeline(events=tuple(events)), FaultTimeline()):
        for t in (0.0, 20.0, 40.0, 41.5, 79.0, 500.0):
            lost, factor = timeline.probe_faults(vms, src, dst, t)
            for i, (a, b) in enumerate(zip(src.tolist(), dst.tolist())):
                fault = timeline.probe_fault(vms[a], vms[b], t)
                assert bool(lost[i]) == (fault is not None and fault[0] == "fail")
                if not lost[i]:
                    assert factor[i] == (1.0 if fault is None else fault[1])
        lost, factor = timeline.probe_faults(vms, src[:0], dst[:0], 20.0)
        assert lost.shape == factor.shape == (0,)


# -------------------------------------------------------------- persistence
def test_save_load_round_trip(tmp_path):
    timeline = generate_faults(
        [f"vm{i}" for i in range(1, 7)], n_epochs=4, faults="link-flap",
        seed=3, epoch_s=300.0,
    )
    assert not timeline.is_empty
    path = tmp_path / "faults.json"
    timeline.save(path)
    loaded = FaultTimeline.load(path)
    assert loaded.events == timeline.events
    assert loaded.generator == timeline.generator


def test_load_errors_name_the_file_and_field(tmp_path):
    with pytest.raises(FaultError, match="missing.json"):
        FaultTimeline.load(tmp_path / "missing.json")

    bad_schema = tmp_path / "bad_schema.json"
    bad_schema.write_text(json.dumps({"schema": "other", "events": []}))
    with pytest.raises(FaultError, match="bad_schema.json"):
        FaultTimeline.load(bad_schema)

    missing_field = tmp_path / "missing_field.json"
    missing_field.write_text(json.dumps({
        "schema": "repro.faults/timeline/v1",
        "generator": "recorded",
        "events": [{"kind": "vm-preemption"}],
    }))
    with pytest.raises(FaultError, match="missing field"):
        FaultTimeline.load(missing_field)


def test_timeline_load_error_names_missing_field(tmp_path):
    from repro.service.timeline import NetworkTimeline

    path = tmp_path / "t.json"
    path.write_text(json.dumps({
        "schema": "repro.service/timeline/v1", "hose_epochs": [],
    }))
    with pytest.raises(ServiceError, match="missing field"):
        NetworkTimeline.load(path)


FAULT_SCHEMA = "repro.faults/timeline/v1"
NETWORK_SCHEMA = "repro.service/timeline/v1"
NOT_A_TIMELINE = {
    "truncated": '{"schema": ',
    "list": "[]",
    "number": "5",
    "null": "null",
    "wrong-schema": '{"schema": "other"}',
}
HOSTILE_FAULT_FILES = {
    **NOT_A_TIMELINE,
    "events-number": json.dumps({"schema": FAULT_SCHEMA, "events": 5}),
    "events-null": json.dumps({"schema": FAULT_SCHEMA, "events": None}),
    "non-numeric-time": json.dumps({
        "schema": FAULT_SCHEMA,
        "events": [{"kind": "vm-preemption", "vm": "a", "time_s": "soon"}],
    }),
}
HOSTILE_TIMELINE_FILES = {
    **NOT_A_TIMELINE,
    **{
        name: json.dumps({"schema": NETWORK_SCHEMA, "epoch_s": 60.0, **fields})
        for name, fields in {
            "hose-epoch-list": {"hose_epochs": [[1, 2]]},
            "hose-epoch-null": {"hose_epochs": [None]},
            "pair-epoch-list": {"hose_epochs": [{"a": 1e9}], "pair_epochs": [[1]]},
            "non-numeric-rate": {"hose_epochs": [{"a": "fast"}]},
        }.items()
    },
}


@pytest.mark.parametrize("case", sorted(HOSTILE_FAULT_FILES))
def test_hostile_fault_file_raises_fault_error_naming_the_file(tmp_path, case):
    path = tmp_path / "hostile_faults.json"
    path.write_text(HOSTILE_FAULT_FILES[case])
    with pytest.raises(FaultError, match="hostile_faults.json") as caught:
        FaultTimeline.load(path)
    assert isinstance(caught.value, ReproError)


@pytest.mark.parametrize("case", sorted(HOSTILE_TIMELINE_FILES))
def test_hostile_timeline_file_raises_service_error_naming_the_file(tmp_path, case):
    from repro.service.timeline import NetworkTimeline

    path = tmp_path / "hostile_timeline.json"
    path.write_text(HOSTILE_TIMELINE_FILES[case])
    with pytest.raises(ServiceError, match="hostile_timeline.json") as caught:
        NetworkTimeline.load(path)
    assert isinstance(caught.value, ReproError)


def test_trace_read_errors_name_the_file(tmp_path):
    from repro.workloads.trace import read_trace, read_trace_jsonl

    with pytest.raises(WorkloadError, match="nope.csv"):
        read_trace(tmp_path / "nope.csv")
    with pytest.raises(WorkloadError, match="nope.jsonl"):
        read_trace_jsonl(tmp_path / "nope.jsonl")


# --------------------------------------------------------------- generators
def test_generators_are_deterministic_and_registered():
    assert set(FAULT_NAMES) == {
        "none", "random-preempt", "rack-outage", "link-flap", "lossy-probes",
    }
    vms = [f"vm{i}" for i in range(1, 9)]
    for name in FAULT_NAMES:
        a = generate_faults(vms, n_epochs=4, faults=name, seed=11)
        b = generate_faults(vms, n_epochs=4, faults=name, seed=11)
        assert a.events == b.events
    assert generate_faults(vms, n_epochs=4, faults="none", seed=0).is_empty
    assert generate_faults(
        vms, n_epochs=4, faults="random-preempt", seed=0, strength=0.0
    ).is_empty


def test_random_preempt_never_kills_below_min_survivors():
    vms = [f"vm{i}" for i in range(1, 6)]
    timeline = generate_faults(
        vms, n_epochs=6, faults="random-preempt", seed=5, strength=1.0
    )
    preempted = {e.vm for e in timeline.events}
    assert len(vms) - len(preempted) >= 3


def test_rack_outage_takes_whole_racks_in_one_epoch_window():
    vms = [f"vm{i}" for i in range(12)]
    racks = {vm: f"rack-{i // 4}" for i, vm in enumerate(vms)}
    timeline = generate_faults(
        vms, n_epochs=6, faults="rack-outage", seed=3, racks=racks,
        epoch_s=100.0,
    )
    assert not timeline.is_empty
    by_rack = {}
    for event in timeline.events:
        assert isinstance(event, VmPreemption)
        by_rack.setdefault(racks[event.vm], []).append(event)
    for rack, events in by_rack.items():
        # Correlated: every VM behind the dying ToR goes, and all inside
        # the same epoch window (per-VM offsets within it).
        assert len(events) == 4, f"{rack} lost only {len(events)} of 4 VMs"
        assert len({int(e.time_s // 100.0) for e in events}) == 1


def test_rack_outage_always_spares_a_rack_and_min_survivors():
    vms = [f"vm{i}" for i in range(12)]
    racks = {vm: f"rack-{i // 4}" for i, vm in enumerate(vms)}
    timeline = generate_faults(
        vms, n_epochs=6, faults="rack-outage", seed=3, strength=10.0,
        racks=racks,
    )
    dead_racks = {racks[e.vm] for e in timeline.events}
    assert len(dead_racks) < len(set(racks.values()))
    assert len(vms) - len({e.vm for e in timeline.events}) >= 3


def test_rack_outage_pseudo_rack_fallback_and_determinism():
    vms = [f"vm{i}" for i in range(8)]
    a = generate_faults(vms, n_epochs=4, faults="rack-outage", seed=9)
    b = generate_faults(vms, n_epochs=4, faults="rack-outage", seed=9)
    assert a.events == b.events and not a.is_empty
    # A single rack (or fewer VMs than one pseudo-rack) is never taken out.
    tiny = generate_faults(vms[:3], n_epochs=4, faults="rack-outage", seed=9)
    assert tiny.is_empty


def test_rack_outage_churn_session_preempts_one_tor():
    provider, _, _, _ = build_churn_session(
        0, n_vms=8, hours=3.0, epoch_s=60.0,
        faults="rack-outage", fault_strength=0.3,
    )
    timeline = provider.fault_timeline
    assert not timeline.is_empty
    racks = {
        vm.name: provider.topology.rack_of(vm.host) for vm in provider.vms()
    }
    dead_racks = {racks[e.vm] for e in timeline.events}
    live_racks = set(racks.values()) - dead_racks
    assert dead_racks and live_racks
    # Whole racks die: every VM sharing a dead ToR is preempted.
    preempted = {e.vm for e in timeline.events}
    for vm, rack in racks.items():
        assert (rack in dead_racks) == (vm in preempted)


def test_rack_outage_fault_churn_scenario_runs():
    from repro.experiments.trials import run_trial

    params = {
        "n_vms": 6, "hours": 2, "epoch_s": 120.0,
        "faults": "rack-outage", "fault_strength": 0.4,
    }
    rec = run_trial("fault-churn", "greedy", 0, 0, params)
    assert rec.status == "ok", rec.error


def test_unknown_generator_and_foreign_vms_fail():
    with pytest.raises(FaultError):
        generate_faults(["a", "b"], n_epochs=2, faults="martian-invasion")
    provider, _, _, _ = build_churn_session(0, **QUICK)
    foreign = FaultTimeline(events=(VmPreemption(vm="not-a-vm", time_s=10.0),))
    with pytest.raises(FaultError):
        attach_faults(provider, foreign)


# ------------------------------------------------------------- bit-identity
def test_empty_fault_timeline_is_bit_identical_to_no_faults():
    baseline = _run_service(seed=3)
    with_empty = _run_service(seed=3, fault_timeline=FaultTimeline())
    assert _canonical(baseline) == _canonical(with_empty)


def test_faults_none_session_kwarg_is_bit_identical():
    plain = run_churn_session(0, predictor="combined", **QUICK)
    explicit = run_churn_session(0, predictor="combined", faults="none", **QUICK)
    assert _canonical(plain) == _canonical(explicit)


def test_faulted_session_is_deterministic():
    kwargs = dict(QUICK, faults="random-preempt")
    a = run_churn_session(2, predictor="combined", **kwargs)
    b = run_churn_session(2, predictor="combined", **kwargs)
    assert _canonical(a) == _canonical(b)


def test_fault_churn_scenario_is_deterministic():
    from repro.experiments.trials import run_trial

    params = {"n_vms": 5, "hours": 2, "epoch_s": 120.0}
    recs = [
        run_trial("fault-churn", "greedy", 0, 0, params) for _ in range(2)
    ]
    assert all(rec.ok for rec in recs)
    assert recs[0].per_app_duration_s == recs[1].per_app_duration_s
    assert recs[0].total_running_time_s == recs[1].total_running_time_s


# ----------------------------------------------------------------- recovery
def test_preemption_mid_session_recovers_or_rejects():
    provider, cluster, apps, _ = build_churn_session(0, **QUICK)
    victims = [vm.name for vm in provider.vms()][:2]
    attach_faults(provider, FaultTimeline(events=tuple(
        VmPreemption(vm=vm, time_s=100.0 + 50.0 * i)
        for i, vm in enumerate(victims)
    )))
    service = PlacementService(
        provider, cluster, _resolve_placer("greedy", 0, None),
        predictor="combined",
    )
    report = service.run_session(apps, hours=QUICK["hours"])
    assert all(o.status in ("completed", "rejected") for o in report.apps)
    preemptions = [a for a in report.recovery if a.kind == "vm-preemption"]
    assert {a.target for a in preemptions} == set(victims)
    for action in preemptions:
        assert action.latency_s >= 0.0
    # The service's cluster no longer contains the preempted VMs.
    survivors = set(service.cluster.machine_names())
    assert survivors.isdisjoint(victims)
    # Recoveries surface in per-app outcomes when tasks were re-placed.
    replaced_apps = [
        name for a in preemptions if a.action == "re-placed" for name in a.apps
    ]
    by_name = {o.name: o for o in report.apps}
    for name in replaced_apps:
        assert by_name[name].recoveries >= 1


def test_probe_loss_burst_degrades_pairs_without_crashing():
    provider, cluster, apps, _ = build_churn_session(
        0, n_vms=5, hours=3.0, epoch_s=120.0
    )
    vms = [vm.name for vm in provider.vms()]
    attach_faults(provider, FaultTimeline(events=(
        ProbeLoss(src=vms[0], dst=vms[1], start_s=121.0, end_s=1e9),
        ProbeLoss(src=vms[1], dst=vms[0], start_s=121.0, end_s=1e9),
    )))
    service = PlacementService(
        provider, cluster, _resolve_placer("greedy", 0, None),
        predictor="combined",
    )
    report = service.run_session(apps, hours=3.0)
    assert all(o.status in ("completed", "rejected") for o in report.apps)
    assert report.measurement.get("pairs_degraded", 0) >= 1


def test_recovery_actions_serialise_into_the_report():
    report = _run_service(seed=0, fault_timeline=FaultTimeline(events=(
        VmPreemption(vm="vm1", time_s=100.0),
    )))
    payload = report.to_json_dict()
    assert "recovery" in payload
    assert payload["recovery"], "expected at least one recovery action"
    entry = payload["recovery"][0]
    assert entry["kind"] == "vm-preemption"
    assert entry["target"] == "vm1"
    assert entry["latency_s"] >= 0.0


# -------------------------------------------------------------- measurement
def test_measurer_retries_then_degrades_and_charges_backoff():
    provider, _, _, _ = build_churn_session(0, **QUICK)
    vms = [vm.name for vm in provider.vms()][:3]
    attach_faults(provider, FaultTimeline(events=(
        ProbeLoss(src=vms[0], dst=vms[1], start_s=0.0, end_s=1e9),
    )))
    plan = MeasurementPlan(
        advance_clock=False, max_retries=2, retry_backoff_s=4.0
    )
    # Baseline with retries disabled: same campaign shape, no backoff cost.
    no_retry_duration = NetworkMeasurer(
        provider, plan=MeasurementPlan(advance_clock=False, max_retries=0)
    ).measure(vms).measurement_duration_s

    profile = NetworkMeasurer(provider, plan=plan).measure(vms)
    assert (vms[0], vms[1]) in profile.degraded_pairs
    assert "3 probe(s) failed" in profile.degraded_pairs[(vms[0], vms[1])]
    assert (vms[0], vms[1]) not in profile.rates_bps
    assert (vms[1], vms[0]) in profile.rates_bps
    # Two retries with doubling backoff cost 4 + 8 seconds plus re-probes.
    assert profile.measurement_duration_s > no_retry_duration + 12.0


def test_probe_budget_caps_retries():
    provider, _, _, _ = build_churn_session(0, **QUICK)
    vms = [vm.name for vm in provider.vms()][:3]
    attach_faults(provider, FaultTimeline(events=(
        ProbeLoss(src=vms[0], dst=vms[1], start_s=0.0, end_s=1e9),
        ProbeLoss(src=vms[1], dst=vms[2], start_s=0.0, end_s=1e9),
    )))
    plan = MeasurementPlan(
        advance_clock=False, max_retries=5, retry_backoff_s=1.0, probe_budget=1
    )
    profile = NetworkMeasurer(provider, plan=plan).measure(vms)
    assert len(profile.degraded_pairs) == 2
    assert any(
        "probe budget exhausted" in why
        for why in profile.degraded_pairs.values()
    )


def test_wild_probe_estimates_skew_the_measured_rate():
    kwargs = dict(QUICK)
    provider, _, _, _ = build_churn_session(0, **kwargs)
    vms = [vm.name for vm in provider.vms()][:2]
    clean = NetworkMeasurer(
        provider, plan=MeasurementPlan(advance_clock=False)
    ).measure(vms)

    provider2, _, _, _ = build_churn_session(0, **kwargs)
    attach_faults(provider2, FaultTimeline(events=(
        ProbeLoss(src=vms[0], dst=vms[1], start_s=0.0, end_s=1e9,
                  mode="wild", factor=4.0),
    )))
    wild = NetworkMeasurer(
        provider2, plan=MeasurementPlan(advance_clock=False)
    ).measure(vms)
    pair = (vms[0], vms[1])
    assert wild.rates_bps[pair] > clean.rates_bps[pair]
    assert not wild.degraded_pairs


def test_cache_ttl_exact_boundary_is_still_fresh():
    provider, _, _, _ = build_churn_session(0, **QUICK)
    from repro.service.cache import MeasurementCache

    vms = [vm.name for vm in provider.vms()][:3]
    measurer = NetworkMeasurer(provider, plan=MeasurementPlan(advance_clock=False))
    cache = MeasurementCache(measurer, vms, ttl_s=60.0)
    cache.refresh(0.0)
    newest = max(
        age for pair in cache.mesh_pairs()
        if (age := cache.age_of(pair, 0.0)) is not None
    )
    # Pairs are stamped with their probe time; exactly ttl_s after the
    # *newest* stamp the oldest pairs are stale but the newest is not.
    boundary = 60.0 - newest  # age of newest pair at t=boundary is ttl
    assert all(
        cache.age_of(pair, boundary) is not None for pair in cache.mesh_pairs()
    )
    stale = cache.stale_pairs(boundary)
    newest_pairs = [
        p for p in cache.mesh_pairs() if cache.age_of(p, boundary) == 60.0
    ]
    assert newest_pairs, "expected a pair aged exactly ttl_s"
    for pair in newest_pairs:
        assert pair not in stale  # strict: goes stale the instant *after*
    epsilon = 1e-6
    assert all(p in cache.stale_pairs(boundary + epsilon) for p in newest_pairs)


def test_cache_remove_vm_and_invalidate_pairs():
    provider, _, _, _ = build_churn_session(0, **QUICK)
    from repro.service.cache import MeasurementCache

    vms = [vm.name for vm in provider.vms()][:4]
    measurer = NetworkMeasurer(provider, plan=MeasurementPlan(advance_clock=False))
    cache = MeasurementCache(measurer, vms, ttl_s=3600.0)
    cache.refresh(0.0)
    cache.remove_vm(vms[0])
    assert vms[0] not in cache.vms
    profile = cache.profile(0.0)
    assert all(vms[0] not in pair for pair in profile.rates_bps)

    touched = [p for p in cache.mesh_pairs() if vms[1] in p]
    assert cache.invalidate_pairs(touched) == len(touched)
    assert set(cache.stale_pairs(1.0)) == set(touched)
    with pytest.raises(ReproError):
        cache.remove_vm("not-covered")
