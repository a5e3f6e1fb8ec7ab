"""Fault injection and the self-healing control loop."""

import dataclasses
import json
import re

import numpy as np
import pytest

from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.errors import ReproError, ServiceError, WorkloadError
from repro.service.cache import DEGRADED_FLOOR_BPS, MeasurementCache
from repro.service.engine import PlacementService
from repro.service.session import _resolve_placer, build_churn_session, run_churn_session
from repro.service.timeline import (
    DRIFT_NAMES,
    FAULT_NAMES,
    LinkDegradation,
    PREEMPTED_RATE_BPS,
    ProbeLoss,
    Timeline,
    VmPreemption,
    attach_timeline,
    generate_timeline,
)

QUICK = dict(n_vms=5, hours=2.0, epoch_s=120.0)


def _canonical(report) -> str:
    return json.dumps(report.canonical_json_dict(), sort_keys=True)


def _add_events(provider, *events):
    """Put hand-built fault events on the provider's drift timeline."""
    attach_timeline(provider, dataclasses.replace(provider.timeline, events=events))


def _faults(vms, hours, faults, seed=0, **kwargs):
    """The fault events ``generate_timeline`` gives ``vms`` (drift frozen)."""
    return generate_timeline(
        dict.fromkeys(vms, 1e9), hours, drift="none", faults=faults, seed=seed,
        **kwargs,
    ).events


def _run_service(seed=0, events=None, predictor="measured", **kwargs):
    params = dict(QUICK, **kwargs)
    provider, cluster, apps, _ = build_churn_session(seed, **params)
    if events is not None:
        _add_events(provider, *events)
    service = PlacementService(
        provider, cluster, _resolve_placer("greedy", seed, None),
        predictor=predictor,
    )
    return service.run_session(apps, hours=params["hours"])


# ------------------------------------------------------------------ events
def test_event_validation_rejects_nonsense():
    with pytest.raises(ServiceError):
        LinkDegradation(vm="vm1", start_s=10.0, end_s=5.0, multiplier=0.5)
    with pytest.raises(ServiceError):
        LinkDegradation(vm="vm1", start_s=0.0, end_s=5.0, multiplier=1.5)
    with pytest.raises(ServiceError):
        VmPreemption(vm="vm1", time_s=-1.0)
    with pytest.raises(ServiceError):
        ProbeLoss(src="vm1", dst="vm1", start_s=0.0, end_s=5.0)
    with pytest.raises(ServiceError):
        ProbeLoss(src="vm1", dst="vm2", start_s=0.0, end_s=5.0, mode="nope")


NAN, INF = float("nan"), float("inf")
#: Each case: how the event is given, and what its ServiceError must name.
#: Every one of them was accepted before: ``<=`` / ``<`` checks let a NaN
#: through, and nothing bounded the factor.
NON_FINITE_EVENTS = {
    "wild-factor-nan": (dict(kind="probe-loss", mode="wild", factor=NAN), "'vm1', 'vm2'"),
    "wild-factor-inf": (dict(kind="probe-loss", mode="wild", factor=INF), "'vm1', 'vm2'"),
    "fail-factor-nan": (dict(kind="probe-loss", mode="fail", factor=NAN), "'vm1', 'vm2'"),
    "probe-start-nan": (dict(kind="probe-loss", start_s=NAN), "'vm1', 'vm2'"),
    "probe-end-nan": (dict(kind="probe-loss", end_s=NAN), "'vm1', 'vm2'"),
    "probe-start-minus-inf": (dict(kind="probe-loss", start_s=-INF), "'vm1', 'vm2'"),
    "degradation-start-nan": (dict(kind="link-degradation", start_s=NAN), "'vm3'"),
    "degradation-end-nan": (dict(kind="link-degradation", end_s=NAN), "'vm3'"),
    "preemption-nan": (dict(kind="vm-preemption", time_s=NAN), "'vm4'"),
    "preemption-inf": (dict(kind="vm-preemption", time_s=INF), "'vm4'"),
}
_EVENT_DEFAULTS = {
    "probe-loss": dict(src="vm1", dst="vm2", start_s=0.0, end_s=100.0),
    "link-degradation": dict(vm="vm3", start_s=0.0, end_s=100.0, multiplier=0.5),
    "vm-preemption": dict(vm="vm4", time_s=10.0),
}
_EVENT_TYPES = {
    "probe-loss": ProbeLoss, "link-degradation": LinkDegradation,
    "vm-preemption": VmPreemption,
}


@pytest.mark.parametrize("via", ["constructor", "load"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_EVENTS))
def test_non_finite_event_fields_are_rejected_by_name(case, via, tmp_path):
    fields, names = NON_FINITE_EVENTS[case]
    record = {**_EVENT_DEFAULTS[fields["kind"]], **fields}
    if via == "constructor":
        kind = record.pop("kind")
        with pytest.raises(ServiceError, match=re.escape(names)):
            _EVENT_TYPES[kind](**record)
        return
    path = tmp_path / "non_finite.json"
    # json writes NaN / Infinity / -Infinity, and reads them back as floats.
    path.write_text(json.dumps({**EMPTY_TIMELINE, "events": [record]}))
    with pytest.raises(ServiceError, match="non_finite.json") as caught:
        Timeline.load(path)
    assert names in str(caught.value)


def test_a_window_may_stay_open_forever():
    window = ProbeLoss(src="a", dst="b", start_s=5.0, end_s=INF, mode="wild", factor=2.0)
    assert Timeline(events=(window,)).probe_fault("a", "b", 1e12) == ("wild", 2.0)
    assert LinkDegradation(vm="a", start_s=0.0, end_s=INF, multiplier=0.5).end_s == INF


def test_timeline_sorts_events_and_reports_window_membership():
    timeline = Timeline(events=(
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
    timeline = Timeline(events=(
        VmPreemption(vm="dead", time_s=100.0),
        LinkDegradation(vm="slow", start_s=50.0, end_s=150.0, multiplier=0.25),
        ProbeLoss(src="a", dst="b", start_s=0.0, end_s=10.0, mode="fail"),
    ))
    vms, own = ["dead", "slow", "a"], np.full(3, 1e9)
    assert timeline.hose_rates(vms, 99.0, own).tolist() == [1e9, 0.25e9, 1e9]
    assert timeline.hose_rates(vms, 100.0, own).tolist() == [
        PREEMPTED_RATE_BPS, 0.25e9, 1e9,
    ]
    assert timeline.hose_rates(vms, 200.0, own).tolist() == [PREEMPTED_RATE_BPS, 1e9, 1e9]
    assert own.tolist() == [1e9] * 3  # a new array: the caller's is left alone
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
    for timeline in (Timeline(events=tuple(events)), Timeline()):
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
    timeline = generate_timeline(
        {f"vm{i}": 1e9 * i for i in range(1, 7)}, 4, drift="diurnal",
        faults="link-flap", seed=3, epoch_s=300.0,
    )
    assert timeline.events and timeline.hose_epochs
    path = tmp_path / "timeline.json"
    timeline.save(path)
    loaded = Timeline.load(path)
    assert loaded == timeline
    assert (loaded.drift, loaded.faults) == ("diurnal", "link-flap")


def test_load_errors_name_the_file_and_field(tmp_path):
    with pytest.raises(ServiceError, match="missing.json"):
        Timeline.load(tmp_path / "missing.json")

    bad_schema = tmp_path / "bad_schema.json"
    bad_schema.write_text(json.dumps({"schema": "other", "events": []}))
    with pytest.raises(ServiceError, match="bad_schema.json"):
        Timeline.load(bad_schema)

    missing_field = tmp_path / "missing_field.json"
    missing_field.write_text(json.dumps({
        **EMPTY_TIMELINE, "events": [{"kind": "vm-preemption"}],
    }))
    with pytest.raises(ServiceError, match="missing field 'vm'"):
        Timeline.load(missing_field)

    missing_epoch = tmp_path / "missing_epoch.json"
    missing_epoch.write_text(json.dumps({"schema": SCHEMA, "hose_epochs": []}))
    with pytest.raises(ServiceError, match="missing field 'epoch_s'"):
        Timeline.load(missing_epoch)


SCHEMA = "repro.service/timeline/v2"
EMPTY_TIMELINE = {"schema": SCHEMA, "epoch_s": 60.0}
NOT_A_TIMELINE = {
    "truncated": '{"schema": ',
    "list": "[]",
    "number": "5",
    "null": "null",
    "wrong-schema": '{"schema": "other"}',
}
HOSTILE_TIMELINE_FILES = {
    **NOT_A_TIMELINE,
    **{
        name: json.dumps({**EMPTY_TIMELINE, **fields})
        for name, fields in {
            "events-number": {"events": 5},
            "events-null": {"events": None},
            "non-numeric-time": {
                "events": [{"kind": "vm-preemption", "vm": "a", "time_s": "soon"}],
            },
            "hose-epoch-list": {"hose_epochs": [[1, 2]]},
            "hose-epoch-null": {"hose_epochs": [None]},
            "non-numeric-rate": {"hose_epochs": [{"a": "fast"}]},
        }.items()
    },
}


@pytest.mark.parametrize("case", sorted(HOSTILE_TIMELINE_FILES))
def test_hostile_timeline_file_raises_service_error_naming_the_file(tmp_path, case):
    path = tmp_path / "hostile_timeline.json"
    path.write_text(HOSTILE_TIMELINE_FILES[case])
    with pytest.raises(ServiceError, match="hostile_timeline.json") as caught:
        Timeline.load(path)
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
        assert _faults(vms, 4, name, seed=11) == _faults(vms, 4, name, seed=11)
    assert not _faults(vms, 4, "none")
    assert not _faults(vms, 4, "random-preempt", fault_strength=0.0)


@pytest.mark.parametrize("strength", [NAN, INF, -1.0])
@pytest.mark.parametrize(
    "kind, name",
    [("drift", name) for name in DRIFT_NAMES]
    + [("faults", name) for name in FAULT_NAMES],
)
def test_a_strength_outside_zero_to_infinity_is_refused_by_name(kind, name, strength):
    """NaN and infinity used to escape as a bare ``ValueError`` or
    ``OverflowError``, or to pass silently: every pair lossy, no VM
    flapping, a clamped diurnal amplitude."""
    knob = "drift_strength" if kind == "drift" else "fault_strength"
    with pytest.raises(ServiceError, match=f"{re.escape(repr(name))}.*{strength!r}"):
        generate_timeline(
            {f"vm{i}": 1e9 for i in range(1, 9)}, 4, **{kind: name, knob: strength}
        )


def test_random_preempt_never_kills_below_min_survivors():
    vms = [f"vm{i}" for i in range(1, 6)]
    events = _faults(vms, 6, "random-preempt", seed=5, fault_strength=1.0)
    preempted = {e.vm for e in events}
    assert len(vms) - len(preempted) >= 3


def test_rack_outage_takes_whole_racks_in_one_epoch_window():
    vms = [f"vm{i}" for i in range(12)]
    racks = {vm: f"rack-{i // 4}" for i, vm in enumerate(vms)}
    events = _faults(vms, 6, "rack-outage", seed=3, racks=racks, epoch_s=100.0)
    assert events
    by_rack = {}
    for event in events:
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
    events = _faults(vms, 6, "rack-outage", seed=3, fault_strength=10.0, racks=racks)
    dead_racks = {racks[e.vm] for e in events}
    assert len(dead_racks) < len(set(racks.values()))
    assert len(vms) - len({e.vm for e in events}) >= 3


def test_rack_outage_pseudo_rack_fallback_and_determinism():
    vms = [f"vm{i}" for i in range(8)]
    a = _faults(vms, 4, "rack-outage", seed=9)
    assert a == _faults(vms, 4, "rack-outage", seed=9) and a
    # A single rack (or fewer VMs than one pseudo-rack) is never taken out.
    assert not _faults(vms[:3], 4, "rack-outage", seed=9)


def test_rack_outage_churn_session_preempts_one_tor():
    provider, _, _, _ = build_churn_session(
        0, n_vms=8, hours=3.0, epoch_s=60.0,
        faults="rack-outage", fault_strength=0.3,
    )
    timeline = provider.timeline
    assert timeline.events
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
    with pytest.raises(ServiceError):
        _faults(["a", "b"], 2, "martian-invasion")
    provider, _, _, _ = build_churn_session(0, **QUICK)
    foreign = Timeline(events=(VmPreemption(vm="not-a-vm", time_s=10.0),))
    with pytest.raises(ServiceError):
        attach_timeline(provider, foreign)


# ------------------------------------------------------------- bit-identity
def test_empty_fault_timeline_is_bit_identical_to_no_faults():
    baseline = _run_service(seed=3)
    with_empty = _run_service(seed=3, events=())
    assert _canonical(baseline) == _canonical(with_empty)


def test_faults_none_session_kwarg_is_bit_identical():
    plain = run_churn_session(0, predictor="measured", **QUICK)
    explicit = run_churn_session(0, predictor="measured", faults="none", **QUICK)
    assert _canonical(plain) == _canonical(explicit)


def test_faulted_session_is_deterministic():
    kwargs = dict(QUICK, faults="random-preempt")
    a = run_churn_session(2, predictor="measured", **kwargs)
    b = run_churn_session(2, predictor="measured", **kwargs)
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
    _add_events(provider, *(
        VmPreemption(vm=vm, time_s=100.0 + 50.0 * i)
        for i, vm in enumerate(victims)
    ))
    service = PlacementService(
        provider, cluster, _resolve_placer("greedy", 0, None),
        predictor="measured",
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


def test_a_link_degradation_re_measures_its_vm_and_nothing_else():
    """The service blanks the degraded VM's row and column of the cache:
    with a TTL no pair outlives, the next refresh probes exactly them."""
    provider, cluster, apps, _ = build_churn_session(0, **QUICK)
    vm = provider.vms()[2].name
    _add_events(provider, LinkDegradation(vm=vm, start_s=10.0, end_s=1e9, multiplier=0.5))
    service = PlacementService(
        provider, cluster, _resolve_placer("greedy", 0, None), ttl_s=1e9,
    )
    asked = []
    measure = service.cache.measurer.measure

    def spy(vm_names, background=(), pairs=None):
        asked.append(
            None if pairs is None
            else {(vm_names[s], vm_names[d]) for s, d in pairs.tolist()}
        )
        return measure(vm_names, background=background, pairs=pairs)

    service.cache.measurer.measure = spy
    report = service.run_session(apps, hours=QUICK["hours"])
    degraded = [a for a in report.recovery if a.kind == "link-degradation"]
    assert [(a.target, a.action) for a in degraded] == [(vm, "re-measured")]
    # The bootstrap's full mesh, then the 8 pairs touching the degraded VM
    # of 5.
    assert asked[0] is None and [len(pairs) for pairs in asked[1:]] == [8]
    assert all(vm in pair for pair in asked[1])


def test_probe_loss_burst_degrades_pairs_without_crashing():
    provider, cluster, apps, _ = build_churn_session(
        0, n_vms=5, hours=3.0, epoch_s=120.0
    )
    vms = [vm.name for vm in provider.vms()]
    _add_events(
        provider,
        ProbeLoss(src=vms[0], dst=vms[1], start_s=121.0, end_s=1e9),
        ProbeLoss(src=vms[1], dst=vms[0], start_s=121.0, end_s=1e9),
    )
    service = PlacementService(
        provider, cluster, _resolve_placer("greedy", 0, None),
        predictor="measured",
    )
    report = service.run_session(apps, hours=3.0)
    assert all(o.status in ("completed", "rejected") for o in report.apps)
    assert report.measurement.get("pairs_degraded", 0) >= 1


@pytest.mark.parametrize("predictor", ["measured", "stale"])
def test_probe_loss_at_bootstrap_floors_the_pair(predictor, monkeypatch):
    """A pair the bootstrap campaign cannot measure has no cached rate to
    coast on: it takes the floor, and stays stale."""
    provider, cluster, apps, _ = build_churn_session(0, **QUICK)
    vms = cluster.machine_names()
    _add_events(provider, ProbeLoss(src=vms[1], dst=vms[3], start_s=0.0, end_s=1.0))
    profiles = []
    refresh = MeasurementCache.refresh

    def kept(cache, now, background=()):
        profiles.append((now, refresh(cache, now, background)))
        return profiles[-1][1]

    monkeypatch.setattr(MeasurementCache, "refresh", kept)
    service = PlacementService(
        provider, cluster, _resolve_placer("greedy", 0, None), predictor=predictor,
    )
    report = service.run_session(apps, hours=QUICK["hours"])
    (now, bootstrap), *_ = profiles
    rates = bootstrap.rate_matrix()
    assert now == 0.0 and rates[1, 3] == DEGRADED_FLOOR_BPS
    assert np.count_nonzero(rates == DEGRADED_FLOOR_BPS) == 1
    assert report.measurement["pairs_degraded"] == 1
    if predictor == "stale":  # never refreshed: the floor is what it places on
        assert len(profiles) == 1
        assert service.cache.profile(0.0).rate_matrix()[1, 3] == DEGRADED_FLOOR_BPS


def test_recovery_actions_serialise_into_the_report():
    report = _run_service(seed=0, events=(VmPreemption(vm="vm1", time_s=100.0),))
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
    _add_events(provider, ProbeLoss(src=vms[0], dst=vms[1], start_s=0.0, end_s=1e9))
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
    rates = profile.rate_matrix()
    assert np.isnan(rates[0, 1]) and not np.isnan(rates[1, 0])
    # Two retries with doubling backoff cost 4 + 8 seconds plus re-probes.
    assert profile.measurement_duration_s > no_retry_duration + 12.0


def test_probe_budget_caps_retries():
    provider, _, _, _ = build_churn_session(0, **QUICK)
    vms = [vm.name for vm in provider.vms()][:3]
    _add_events(
        provider,
        ProbeLoss(src=vms[0], dst=vms[1], start_s=0.0, end_s=1e9),
        ProbeLoss(src=vms[1], dst=vms[2], start_s=0.0, end_s=1e9),
    )
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
    _add_events(
        provider2,
        ProbeLoss(src=vms[0], dst=vms[1], start_s=0.0, end_s=1e9,
                  mode="wild", factor=4.0),
    )
    wild = NetworkMeasurer(
        provider2, plan=MeasurementPlan(advance_clock=False)
    ).measure(vms)
    assert wild.rate_matrix()[0, 1] > clean.rate_matrix()[0, 1]
    assert not wild.degraded_pairs
