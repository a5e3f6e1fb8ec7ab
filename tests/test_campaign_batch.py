"""The campaign as one array program vs. the per-probe loop it replaces.

``NetworkMeasurer.measure`` runs a packet-train campaign as one array
program.  The oracle here is the per-probe loop — the scalar train of
``tests/oracles/scalar_train.py`` once per scheduled pair, retries and
backoff inline — on a fresh same-seed provider: on a lossless provider the
two must agree to the last bit on every field of the profile, on the
``repro.measure.*`` counters, and on the provider RNG's state afterwards.
(``ec2-legacy`` runs here with its loss switched off; its lossy trains
draw their losses after the jitter block instead of between jitter draws,
so ``tests/test_lossy_trains.py`` holds them to the oracle statistically.)
"""

import dataclasses
import math

import numpy as np
import pytest
from oracles import scalar_train
from oracles.graph_search import build_searched_tree

from repro import obs
from repro.cloud.ec2 import ec2_params
from repro.cloud.provider import ProviderParams, VMFlow
from repro.cloud.registry import make_provider
from repro.core.measurement import MeasurementPlan, NetworkMeasurer
from repro.errors import CloudError, MeasurementError
from repro.net import topology
from repro.net.packets import PacketTrainSpec
from repro.net.topology import (
    TreeSpec, build_multi_rooted_tree,
)
from repro.obs.report import load_events
from repro.service.timeline import (
    ProbeLoss, Timeline, VmPreemption, attach_timeline, generate_timeline,
)
from repro.units import BITS_PER_BYTE, GBITPS, MBYTE

EPOCH_S = 300.0
COUNTERS = (
    "repro.measure.campaigns_run",
    "repro.measure.probes",
    "repro.measure.probe_retries",
    "repro.measure.probes_degraded",
)


def build_provider(
    name, n_vms=8, seed=3, faults=None, colocate=None, drift=None, loss_rate=None
):
    overrides = {}
    if colocate is not None:
        overrides["colocation_probability"] = colocate
    if loss_rate is not None:
        overrides["loss_rate"] = loss_rate
    kwargs = {}
    if overrides:
        kwargs["params"] = dataclasses.replace(make_provider(name).params, **overrides)
    provider = make_provider(name, seed=seed, **kwargs)
    provider.request_vms(n_vms)
    names = [vm.name for vm in provider.vms()]
    if drift is not None or faults is not None:
        racks = {
            vm.name: provider.topology.rack_of(vm.host) for vm in provider.vms()
        }
        attach_timeline(
            provider,
            generate_timeline(
                provider.base_hose_rates(), 2, drift=drift or "none",
                faults=faults or "none", seed=seed, fault_strength=0.4,
                epoch_s=EPOCH_S, racks=racks,
            ),
        )
    # Past every fault's onset: windows open at epoch 1, preemptions land
    # before 1.75 epochs.
    provider.advance_time(1.8 * EPOCH_S)
    return provider, names


def background_flows(names, rng, n_flows=12):
    flows = []
    for i in range(n_flows):
        src, dst = rng.choice(len(names), size=2, replace=False)
        flows.append(
            VMFlow(
                flow_id=f"bg{i}", src_vm=names[src], dst_vm=names[dst],
                size_bytes=50 * MBYTE, start_time=0.0,
            )
        )
    return flows


def oracle_campaign(measurer, names, background=(), pairs=None):
    """The campaign, probe by probe: the loop the array program replays.

    Its schedule is the ordered mesh in nested source/destination order, or
    ``pairs`` with each repeat dropped, one probe at a time."""
    plan, provider = measurer.plan, measurer.provider
    started_at = provider.now
    rates, pair_times, degraded = {}, {}, {}
    if pairs is None:
        pairs = [(src, dst) for src in names for dst in names if src != dst]
    schedule = list(dict.fromkeys(tuple(pair) for pair in pairs))
    pair_time = measurer.per_pair_time_s()
    retry_time = 0.0
    retries = 0
    retries_left = plan.probe_budget
    for index, (src, dst) in enumerate(schedule):
        rate = None
        attempt = 0
        while True:
            try:
                rate = scalar_train.measure_pair(
                    provider, src, dst, plan.train_spec, background=background
                )
                break
            except MeasurementError as exc:
                out_of_budget = retries_left is not None and retries_left <= 0
                if attempt >= plan.max_retries or out_of_budget:
                    reason = "probe budget exhausted" if out_of_budget else f"{exc}"
                    degraded[(src, dst)] = f"{attempt + 1} probe(s) failed: {reason}"
                    break
                retry_time += plan.retry_backoff_s * (2.0 ** attempt) + pair_time
                if retries_left is not None:
                    retries_left -= 1
                attempt += 1
                retries += 1
        if rate is None:
            continue
        rates[(src, dst)] = max(rate, 1.0)
        pair_times[(src, dst)] = started_at + index * pair_time
    duration = len(schedule) * pair_time + retry_time
    if plan.advance_clock:
        provider.advance_time(duration)
    return {
        "rates": sorted(rates.items()),
        "pair_times": sorted(pair_times.items()),
        "degraded": list(degraded.items()),
        "duration": duration,
        "counters": [1, len(schedule), retries, len(degraded)],
        "rng": provider._rng.bit_generator.state,
        "clock": provider.now,
    }


def by_pair(vms, matrix):
    """``matrix``'s off-diagonal, non-``NaN`` entries as sorted ``((src, dst), value)``."""
    at = np.argwhere(~np.isnan(matrix) & ~np.eye(len(vms), dtype=bool)).tolist()
    return sorted(((vms[i], vms[j]), matrix[i, j].item()) for i, j in at)


def campaign(measurer, names, background=(), pairs=None):
    before = obs.metrics.snapshot()
    profile = measurer.measure(names, background=background, pairs=pairs)
    after = obs.metrics.snapshot()
    return {
        "rates": by_pair(profile.vms, profile.rate_matrix()),
        "pair_times": by_pair(profile.vms, profile.measured_at_matrix()),
        "degraded": list(profile.degraded_pairs.items()),
        "duration": profile.measurement_duration_s,
        "counters": [after[name] - before.get(name, 0) for name in COUNTERS],
        "rng": measurer.provider._rng.bit_generator.state,
        "clock": measurer.provider.now,
    }


def assert_campaign_matches_oracle(build, plan, background=None, pairs=None):
    """``build()`` twice gives two identical providers: one per path."""
    provider, names = build()
    oracle_provider, _ = build()
    flows = background(names) if background is not None else ()
    chosen = pairs(names) if pairs is not None else None
    got = campaign(NetworkMeasurer(provider, plan), names, flows, chosen)
    want = oracle_campaign(NetworkMeasurer(oracle_provider, plan), names, flows, chosen)
    assert got == want  # floats compared with ==: bit for bit
    return got


@pytest.fixture
def trace_to(tmp_path):
    path = tmp_path / "trace.jsonl"
    obs.configure(str(path), export_env=False)
    try:
        yield path
    finally:
        obs.configure(None, export_env=False)


def campaign_spans(path):
    obs.configure(None, export_env=False)
    return [
        ev["attrs"] for ev in load_events(path)
        if ev["ev"] == "span" and ev["name"] == "measure.campaign"
    ]


# ------------------------------------------------------------ the property
@pytest.mark.parametrize("name", ["ec2", "rackspace", "ec2-legacy"])
def test_full_mesh_is_bit_identical(name):
    got = assert_campaign_matches_oracle(
        lambda: build_provider(name, loss_rate=0.0), MeasurementPlan()
    )
    assert len(got["rates"]) == 8 * 7 and not got["degraded"]


@pytest.mark.parametrize("name", ["ec2", "rackspace"])
def test_colocated_vms(name):
    plan = MeasurementPlan(advance_clock=False)

    def build():
        return build_provider(name, n_vms=10, colocate=0.6)

    provider, _ = build()
    assert len({vm.host for vm in provider.vms()}) < 10  # some VMs do share hosts
    got = assert_campaign_matches_oracle(build, plan)
    assert len(got["rates"]) == 90


def test_pair_subsets_with_duplicates():
    def pairs(names):
        rng = np.random.default_rng(11)
        picks = [
            tuple(names[i] for i in rng.choice(len(names), size=2, replace=False))
            for _ in range(25)
        ]
        return picks + picks[:7]

    got = assert_campaign_matches_oracle(
        lambda: build_provider("ec2"), MeasurementPlan(), pairs=pairs
    )
    assert 0 < len(got["rates"]) <= 25


@pytest.mark.parametrize("name", ["ec2", "rackspace", "ec2-legacy"])
def test_background_flows(name):
    def background(names):
        return background_flows(names, np.random.default_rng(5))

    assert_campaign_matches_oracle(
        lambda: build_provider(name, drift="hotspot-flap", loss_rate=0.0),
        MeasurementPlan(),
        background=background,
    )


@pytest.mark.parametrize("probe_budget", [None, 0, 3])
@pytest.mark.parametrize("faults", ["lossy-probes", "random-preempt", "rack-outage"])
@pytest.mark.parametrize("name", ["ec2", "rackspace"])
def test_fault_timelines(name, faults, probe_budget):
    plan = MeasurementPlan(probe_budget=probe_budget)

    def background(names):
        return background_flows(names, np.random.default_rng(7), n_flows=5)

    got = assert_campaign_matches_oracle(
        lambda: build_provider(name, n_vms=12, faults=faults), plan,
        background=background if faults == "rack-outage" else None,
    )
    assert got["degraded"]  # the timeline did lose probes
    if probe_budget == 0:
        assert got["counters"][2] == 0
        assert all("budget exhausted" in reason for _, reason in got["degraded"])


def test_wild_probes_scale_the_estimate():
    provider, names = build_provider("ec2", n_vms=12, faults="lossy-probes")
    clean, _ = build_provider("ec2", n_vms=12)
    plan = MeasurementPlan(advance_clock=False)
    faulty = NetworkMeasurer(provider, plan).measure(names)
    # Same seed, same clock, no timeline: the stream is shifted by the lost
    # probes, so compare through the timeline's own verdicts instead.
    wild = [
        (e.src, e.dst) for e in provider.timeline.events if e.mode == "wild"
    ]
    rates = faulty.rate_matrix()
    measured = [rates[names.index(src), names.index(dst)] for src, dst in wild]
    assert wild and not np.isnan(measured).any()
    truth = max(clean.hose_rate(vm) for vm in names)
    assert max(measured) > 1.5 * truth


def test_a_nan_estimate_is_an_error_not_an_unmeasured_pair():
    """A train the estimator cannot measure (every span zero: NaN) is a
    failed probe.  Only that train is sent again, with fresh draws, until
    its retries run out; its pair then degrades with the estimator's
    reason — it never reaches the profile as a NaN rate, and it is never
    missing from the profile without a reason."""
    provider, names = build_provider("ec2", n_vms=4)
    broken = provider.vm_positions(names[1:3])
    send = provider.send_packet_trains
    sends = []

    def flattened(pairs, spec, background=()):
        batch = send(pairs, spec, background)
        hit = (pairs[batch.sent] == broken).all(axis=1)
        batch.last_rx_s[:, hit] = batch.first_rx_s[:, hit]
        sends.append((int(hit.sum()), batch.sent.shape[0]))
        return batch

    provider.send_packet_trains = flattened
    state = provider._rng.bit_generator.state
    plan = MeasurementPlan(advance_clock=False)
    profile = NetworkMeasurer(provider, plan).measure(names)
    pair = (names[1], names[2])
    assert profile.degraded_pairs == {
        pair: "3 probe(s) failed: packet train delivered no measurable packets"
    }
    unmeasured = np.isnan(profile.rate_matrix())
    assert np.argwhere(unmeasured).tolist() == [[1, 2]]
    assert sends == [(1, 12), (1, 1), (1, 1)]
    # Three passes drew 12 + 1 + 1 trains' normals (one rate noise and
    # 2 * n_bursts jitter normals each).
    replay = np.random.default_rng()
    replay.bit_generator.state = state
    replay.standard_normal(14 * (1 + 2 * plan.train_spec.n_bursts))
    assert replay.bit_generator.state == provider._rng.bit_generator.state


#: Provider parameters no train can be sent with, each rejected when the
#: parameters are built — by ``dataclasses.replace`` too — rather than after
#: a campaign has drawn its randomness.
UNSENDABLE = [
    ("train_jitter_std_s", -1e-6),
    ("train_jitter_std_s", float("nan")),
    ("train_limiter_depth_bytes", -1.0),
    ("train_limiter_depth_bytes", float("nan")),
    ("intra_host_rate_bps", -1.0),
    ("intra_host_rate_bps", 0.0),
    ("intra_host_rate_bps", float("nan")),
    ("loss_rate", -0.01),
    ("loss_rate", 1.0),
    ("loss_rate", float("nan")),
]


@pytest.mark.parametrize("field,value", UNSENDABLE)
def test_provider_params_reject_a_path_no_train_can_cross(field, value):
    with pytest.raises(CloudError, match=field):
        dataclasses.replace(ec2_params(), **{field: value})
    with pytest.raises(CloudError, match=field):
        ProviderParams(name="unsendable", **{field: value})


#: Times a retried campaign with ``advance_clock=True`` would add to the
#: provider clock: each non-finite one is rejected by name, before the clock
#: (and every hose deviation with it) can become NaN or infinite.
NON_FINITE_TIMES = [
    ("advance_time", float("nan")),
    ("advance_time", float("inf")),
    ("retry_backoff_s", float("nan")),
    ("retry_backoff_s", float("inf")),
    ("inter_burst_gap_s", float("nan")),
    ("inter_burst_gap_s", float("inf")),
]


@pytest.mark.parametrize("field,value", NON_FINITE_TIMES)
def test_a_non_finite_time_never_reaches_the_provider_clock(field, value):
    provider, _ = build_provider("ec2", n_vms=2)
    clock = provider.now
    if field == "advance_time":
        with pytest.raises(CloudError, match="seconds must be finite"):
            provider.advance_time(value)
    elif field == "retry_backoff_s":
        with pytest.raises(MeasurementError, match=field):
            MeasurementPlan(retry_backoff_s=value)
    else:
        with pytest.raises(MeasurementError, match=field):
            PacketTrainSpec(inter_burst_gap_s=value)
    assert provider.now == clock
    assert all(math.isfinite(provider.hose_rate(vm.name)) for vm in provider.vms())


#: A negative time, retry count or budget is rejected by the name of the
#: setting that carries it.
NEGATIVE_SETTINGS = [
    ("seconds", -1.0),
    ("retry_backoff_s", -1.0),
    ("max_retries", -1),
    ("probe_budget", -1),
    ("inter_burst_gap_s", -1e-3),
]


@pytest.mark.parametrize("field,value", NEGATIVE_SETTINGS)
def test_a_negative_campaign_setting_is_rejected_by_name(field, value):
    if field == "seconds":
        provider, _ = build_provider("ec2", n_vms=2)
        with pytest.raises(CloudError, match=field):
            provider.advance_time(value)
        return
    make = PacketTrainSpec if field == "inter_burst_gap_s" else MeasurementPlan
    with pytest.raises(MeasurementError, match=field):
        make(**{field: value})


@pytest.mark.parametrize("name", ["ec2", "rackspace", "ec2-legacy"])
def test_a_ten_vm_mesh_takes_at_most_three_minutes(name):
    """§4.1: packet trains measure a ten-VM topology's 90 pairs in about
    three minutes, counting the overhead of collecting each pair's result.
    A campaign with no failed probe charges one pair time per pair, sends
    probe ``i`` ``i`` pair times after it starts, and moves the clock by
    exactly its duration."""
    provider, names = build_provider(name, n_vms=10, loss_rate=0.0)
    measurer = NetworkMeasurer(provider, MeasurementPlan())
    started_at = provider.now
    profile = measurer.measure(names)
    pair_time = measurer.per_pair_time_s()
    assert not profile.degraded_pairs and not np.isnan(profile.rate_matrix()).any()
    assert profile.measurement_duration_s == 90 * pair_time <= 180.0
    assert provider.now == started_at + profile.measurement_duration_s
    stamps = profile.measured_at_matrix()
    assert stamps[~np.isnan(stamps)].tolist() == [  # row-major: mesh order
        started_at + i * pair_time for i in range(90)
    ]


# ------------------------------------------------------- what the span says
def test_a_campaign_span_says_how_it_went(trace_to):
    provider, names = build_provider("ec2-legacy", n_vms=4)
    NetworkMeasurer(provider, MeasurementPlan()).measure(names)
    (span,) = campaign_spans(trace_to)
    assert span["pairs"] == 12 and span["retries"] == 0 and span["degraded"] == 0
    assert not {"path", "reason", "method"} & set(span)


def test_a_loaded_campaign_says_what_its_background_cost(trace_to):
    """``background=`` / ``snapshot_rounds=`` on the span and the two
    ``repro.measure.snapshot_*`` counters move under load, and only then."""
    names_of = ("repro.measure.snapshot_probes", "repro.measure.snapshot_rounds")
    deltas = []
    for loaded in (False, True):
        provider, names = build_provider("ec2")
        flows = background_flows(names, np.random.default_rng(5)) if loaded else ()
        before = obs.metrics.snapshot()
        NetworkMeasurer(provider).measure(names, background=flows)
        after = obs.metrics.snapshot()
        deltas.append([after[name] - before.get(name, 0) for name in names_of])
    idle, loaded = campaign_spans(trace_to)
    assert "background" not in idle and "snapshot_rounds" not in idle
    assert loaded["background"] == 12 and 1 <= loaded["snapshot_rounds"] <= 12
    # One fill serves the whole mesh (its colocated pairs are not routed).
    assert deltas[0] == [0, 0]
    assert 0 < deltas[1][0] <= 8 * 7 and deltas[1][1] == loaded["snapshot_rounds"]


def test_a_campaign_span_says_whether_it_routed(trace_to):
    """``routed=`` is the route-table rows a campaign built: the cold one
    routes every ordered pair of the tenant's VMs, a warm one reads the
    table and routes nothing, and a changed VM set is routed afresh.  The
    ``repro.routes.table_rows`` counter moves by the same rows."""
    provider, names = build_provider("ec2", n_vms=8)
    measurer = NetworkMeasurer(provider, MeasurementPlan())
    before = obs.metrics.snapshot().get("repro.routes.table_rows", 0)
    measurer.measure(names)
    measurer.measure(names)
    provider.request_vms(2)
    measurer.measure()
    routed = obs.metrics.snapshot()["repro.routes.table_rows"] - before
    assert [span["routed"] for span in campaign_spans(trace_to)] == [64, 0, 100]
    assert routed == 64 + 100


def test_traced_campaign_equals_untraced(trace_to):
    traced = campaign(NetworkMeasurer(*build_provider("ec2")[:1]), None)
    obs.configure(None, export_env=False)
    untraced = campaign(NetworkMeasurer(*build_provider("ec2")[:1]), None)
    assert traced == untraced


# ------------------------------------------------------ the shared snapshot
def simulated_snapshot(provider, src_vm, dst_vm, background, window_s=0.1):
    """A pair's snapshot rate as a fresh fluid simulation (the oracle): the
    probe and the background as bulk flows too big to finish inside the
    window, cut off at its end."""
    sim = provider.build_simulation()
    size = 2 * window_s * max(sim.capacities.values()) / BITS_PER_BYTE
    probe = VMFlow("__snapshot__", src_vm, dst_vm, size, tag="snapshot")
    provider.add_flows(sim, [probe] + [
        dataclasses.replace(flow, size_bytes=size, start_time=0.0)
        for flow in background
    ])
    result = sim.run(until=window_s)
    return result.timelines["__snapshot__"].average_rate(0.0, window_s)


@pytest.mark.parametrize("seed", range(6))
def test_shared_snapshot_equals_one_simulation_per_pair(seed):
    rng = np.random.default_rng(seed)
    provider, names = build_provider(
        "ec2", n_vms=10, seed=seed, colocate=0.3, drift="random-walk"
    )
    flows = background_flows(names, rng, n_flows=int(rng.integers(1, 60)))
    pairs = [(s, d) for s in names for d in names if s != d]
    shared = scalar_train.snapshot_rates(provider, pairs, flows)
    for (src, dst), rate in zip(pairs, shared):
        assert rate == simulated_snapshot(provider, src, dst, flows)
        assert rate > 0
    assert scalar_train.snapshot_rates(provider, [pairs[3]], flows)[0] == shared[3]


@pytest.mark.parametrize("faults", ["random-preempt", "rack-outage", None])
def test_shared_snapshot_at_forty_vms_under_faults(faults):
    """The service's size: 40 VMs on 24 hosts (so many share one), a
    background big enough to be one component, and shares that tie —
    preempted hoses at 1 bit/s each, or (no faults, hoses raised) the
    equal-capacity host links, where the link that wins a tie decides the
    last bit of the levels after it."""
    rng = np.random.default_rng(40)
    provider, names = build_provider("ec2", n_vms=40, seed=4, faults=faults)
    if faults is None:
        # Every VM's cap lifted above its host's link.
        attach_timeline(provider, Timeline(hose_epochs=[dict.fromkeys(names, 100 * GBITPS)]))
    flows = background_flows(names, rng, n_flows=45)
    pairs = [(s, d) for s in names for d in names if s != d]
    shared = scalar_train.snapshot_rates(provider, pairs, flows)
    assert len(shared) == 40 * 39
    for i in rng.choice(len(pairs), size=150, replace=False):
        assert shared[i] == simulated_snapshot(provider, *pairs[i], flows)


# ------------------------------------------------- the campaign speaks indices
def position_pairs(names, pairs):
    index = {name: i for i, name in enumerate(names)}
    return np.array([(index[s], index[d]) for s, d in pairs], dtype=np.intp)


@pytest.mark.parametrize("seed", range(8))
def test_the_index_schedule_is_the_name_schedule(seed):
    """The campaign schedules on positions.  Read back as names, its probes
    are the ordered mesh in nested source/destination order, or the given
    pairs with each repeat dropped where it first appears — whether the
    pairs come by name or by position."""
    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in rng.permutation(int(rng.integers(2, 12)))]

    def as_names(schedule):
        src, dst = schedule
        return [(names[s], names[d]) for s, d in zip(src.tolist(), dst.tolist())]

    mesh = [(src, dst) for src in names for dst in names if src != dst]
    assert as_names(NetworkMeasurer._schedule(names, None)) == mesh
    for _ in range(3):
        picks = [
            tuple(names[i] for i in rng.choice(len(names), size=2, replace=False))
            for _ in range(int(rng.integers(0, 40)))
        ]
        picks += picks[: len(picks) // 3]
        want = list(dict.fromkeys(picks))
        assert as_names(NetworkMeasurer._schedule(names, picks)) == want
        by_position = position_pairs(names, picks).reshape(-1, 2)
        assert as_names(NetworkMeasurer._schedule(names, by_position)) == want
    for bad in ([(names[0], names[0])], [(names[0], "ghost")]):
        with pytest.raises(MeasurementError, match="cannot schedule pair"):
            NetworkMeasurer._schedule(names, bad)


@pytest.mark.parametrize("name", ["ec2", "ec2-legacy"])
def test_pairs_by_position_give_the_profile_pairs_by_name_give(name):
    """An ``(m, 2)`` position array is the same campaign as the name pairs
    it stands for — on a lossless and on a lossy provider."""
    plan = MeasurementPlan()
    rng = np.random.default_rng(23)

    def subset(names):
        return [
            tuple(names[i] for i in rng.choice(len(names), size=2, replace=False))
            for _ in range(30)
        ]

    provider, names = build_provider(name, colocate=0.4)
    twin, _ = build_provider(name, colocate=0.4)
    pairs = subset(names)
    flows = background_flows(names, np.random.default_rng(2), n_flows=6)
    by_name = campaign(NetworkMeasurer(provider, plan), names, flows, pairs)
    by_position = campaign(
        NetworkMeasurer(twin, plan), names, flows, position_pairs(names, pairs)
    )
    assert by_name == by_position
    assert 0 < len(by_name["rates"]) <= 30


def test_a_fail_window_a_wild_window_and_a_preempted_vm_at_once():
    """One hand-built timeline with every kind of probe fault active at the
    campaign's clock, colocated VMs, a background and a probe budget that
    runs out mid-campaign: ledger totals, ``degraded_pairs`` keys *and*
    messages, and the RNG afterwards are the per-probe loop's."""

    def build():
        provider, names = build_provider("rackspace", n_vms=10, colocate=0.5)
        now = provider.now
        attach_timeline(
            provider,
            Timeline(
                events=(
                    ProbeLoss(names[0], names[1], now - 5.0, now + 5.0, mode="fail"),
                    ProbeLoss(names[2], names[3], now - 5.0, now + 5.0,
                              mode="wild", factor=3.0),
                    # Shadowed by the earlier window on the same pair.
                    ProbeLoss(names[2], names[3], now - 1.0, now + 9.0, mode="fail"),
                    ProbeLoss(names[4], names[5], now + 1.0, now + 5.0, mode="fail"),
                    ProbeLoss(names[6], names[9], now - 5.0, now + 5.0),
                    VmPreemption(names[7], now - 1.0),
                    VmPreemption(names[8], now + 1.0),
                )
            ),
        )
        provider.release_vm(names.pop())  # a window on a VM since released
        return provider, names

    def background(names):
        return background_flows(names[:7], np.random.default_rng(9), n_flows=8)

    got = assert_campaign_matches_oracle(
        build, MeasurementPlan(probe_budget=20), background=background
    )
    _, names = build()
    lost = {pair for pair, _ in got["degraded"]}
    assert lost == {(names[0], names[1])} | {
        pair for vm in names if vm != names[7]
        for pair in ((vm, names[7]), (names[7], vm))
    }
    reasons = [reason for _, reason in got["degraded"]]
    assert any("injected fault" in reason for reason in reasons)
    assert any("budget exhausted" in reason for reason in reasons)
    assert got["counters"][2] == 20
    assert (names[2], names[3]) in dict(got["rates"])


# ------------------------------------------------- doomed before the first draw
@pytest.mark.parametrize("name", ["ec2", "ec2-legacy"])
def test_a_doomed_campaign_raises_before_any_probe_draws(name):
    provider, names = build_provider(name, n_vms=4)
    measurer = NetworkMeasurer(provider, MeasurementPlan())
    state = provider._rng.bit_generator.state
    clock = provider.now
    doomed = [
        (MeasurementError, "duplicate VM names \\['vm1'\\]",
         dict(vm_names=["vm1", "vm1", "vm2"])),
        (CloudError, "unknown VM 'ghost'", dict(vm_names=["vm1", "ghost", "vm2"])),
        (MeasurementError, "cannot schedule pair \\('vm1', 'vm1'\\)",
         dict(vm_names=names, pairs=[("vm1", "vm2"), ("vm1", "vm1")])),
        (MeasurementError, "cannot schedule pair \\('vm2', 'ghost'\\)",
         dict(vm_names=names, pairs=[("vm2", "ghost")])),
        (MeasurementError, "within \\[0, 4\\), .* values 0..4",
         dict(vm_names=names, pairs=np.array([[0, 1], [0, 4]]))),
        (MeasurementError, "within \\[0, 4\\), .* values -1..2",
         dict(vm_names=names, pairs=np.array([[-1, 2]]))),
        (MeasurementError, "cannot schedule pair \\(3, 3\\)",
         dict(vm_names=names, pairs=np.array([[0, 2], [3, 3]], dtype=np.uint8))),
        (MeasurementError, "integer array",
         dict(vm_names=names, pairs=np.array([[0.0, 1.0]]))),
        (MeasurementError, "integer array",
         dict(vm_names=names, pairs=np.array([0, 1, 2]))),
        (MeasurementError, "must be a \\(src, dst\\) pair",
         dict(vm_names=names, pairs=[("vm1", "vm2", "vm3")])),
        (MeasurementError, "at least two VMs", dict(vm_names=["vm1"])),
    ]
    for error, message, kwargs in doomed:
        with pytest.raises(error, match=message):
            measurer.measure(**kwargs)
        assert provider._rng.bit_generator.state == state
        assert provider.now == clock


@pytest.mark.parametrize("pairs", [[], np.zeros((0, 2), dtype=np.intp)])
def test_an_empty_pair_list_is_an_empty_profile(pairs):
    provider, names = build_provider("ec2", n_vms=4)
    state = provider._rng.bit_generator.state
    profile = NetworkMeasurer(provider, MeasurementPlan()).measure(names, pairs=pairs)
    assert np.isnan(profile.measured_at_matrix()).all() and not profile.degraded_pairs
    assert profile.measurement_duration_s == 0.0
    assert provider._rng.bit_generator.state == state


# ------------------------------------------------------------ the ECMP pick
@pytest.mark.parametrize("cores", [2, 4, 12])
def test_remembered_picks_are_node_paths_picks(cores):
    """``core_picks`` (every pair in one array expression) against the
    scalar :func:`~repro.net.topology._ecmp_pick`, against the pick of
    ``node_path`` and against graph search (a hand-built copy of the tree:
    no router), 500 random far pairs."""
    spec = TreeSpec(hosts_per_rack=4, racks_per_pod=3, pods=4, num_cores=cores)
    tree = build_multi_rooted_tree(spec)
    router = tree._router
    rng = np.random.default_rng(cores)
    per_pod = spec.hosts_per_rack * spec.racks_per_pod
    src = rng.integers(0, spec.num_hosts, size=2000)
    dst = rng.integers(0, spec.num_hosts, size=2000)
    far = np.flatnonzero(src // per_pod != dst // per_pod)[:500]
    src, dst = src[far], dst[far]
    assert far.shape[0] == 500
    picks = router.core_picks(src, dst)
    assert (router.core_picks(src[::-1], dst[::-1])[::-1] == picks).all()
    cores_sorted = sorted(f"core{c}" for c in range(cores))
    searched = build_searched_tree(spec)
    for a, b, pick in zip(src.tolist(), dst.tolist(), picks.tolist()):
        assert topology._ecmp_pick(f"host{a}", f"host{b}", cores) == pick
        path = router.node_path(a, b)
        assert path[3] == cores_sorted[pick]
        assert searched.node_path(f"host{a}", f"host{b}") == path
