"""The campaign as one array program vs. the per-probe loop it replays.

``NetworkMeasurer.measure`` runs a packet-train campaign as one array
program whenever the probes' RNG consumption is fixed up front.  The
oracle here is the per-probe loop — ``measure_pair`` once per scheduled
pair, retries and backoff inline — on a fresh same-seed provider: the two
must agree to the last bit on every field of the profile, on the
``repro.measure.*`` counters, and on the provider RNG's state afterwards.
"""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from oracles.parent_schedule import parent_schedule_rounds

from repro import obs
from repro.cloud.ec2 import ec2_params
from repro.cloud.provider import VMFlow
from repro.cloud.registry import make_provider
from repro.core.measurement import MeasurementPlan, NetworkMeasurer
from repro.core.measurement.cross_traffic import estimate_cross_traffic
from repro.errors import CloudError, MeasurementError
from repro.faults import (
    FaultTimeline, ProbeLoss, VmPreemption, attach_faults, generate_faults,
)
from repro.net import topology
from repro.net.topology import (
    TreeSpec, _lazy_kth_shortest_path, build_multi_rooted_tree,
)
from repro.obs.report import load_events
from repro.service.timeline import attach_timeline, generate_timeline
from repro.units import GBITPS, MBYTE

EPOCH_S = 300.0
COUNTERS = (
    "repro.measure.campaigns_run",
    "repro.measure.probes",
    "repro.measure.probe_retries",
    "repro.measure.probes_degraded",
)


def build_provider(name, n_vms=8, seed=3, faults=None, colocate=None, drift=None):
    kwargs = {}
    if colocate is not None:
        kwargs["params"] = dataclasses.replace(
            make_provider(name).params, colocation_probability=colocate
        )
    provider = make_provider(name, seed=seed, **kwargs)
    provider.request_vms(n_vms)
    names = [vm.name for vm in provider.vms()]
    if drift is not None:
        attach_timeline(
            provider,
            generate_timeline(
                provider.base_hose_rates(), 3, drift=drift, seed=seed, epoch_s=EPOCH_S
            ),
        )
    if faults is not None:
        racks = {
            vm.name: provider.topology.rack_of(vm.host) for vm in provider.vms()
        }
        attach_faults(
            provider,
            generate_faults(
                names, 2, faults=faults, seed=seed, strength=0.4,
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
    """The campaign, probe by probe: the loop the array program replays."""
    plan, provider = measurer.plan, measurer.provider
    started_at = provider.now
    rates, cross, pair_times, degraded = {}, {}, {}, {}
    advertised = provider.params.instance_type.advertised_egress_bps
    rounds = measurer.schedule_rounds(names, pairs=pairs)
    round_time = measurer.per_pair_time_s()
    retry_time = 0.0
    retries = 0
    retries_left = plan.probe_budget
    for round_index, batch in enumerate(rounds):
        probed_at = started_at + round_index * round_time
        for src, dst in batch:
            rate = None
            attempt = 0
            while True:
                try:
                    rate = measurer.measure_pair(src, dst, background=background)
                    break
                except MeasurementError as exc:
                    out_of_budget = retries_left is not None and retries_left <= 0
                    if attempt >= plan.max_retries or out_of_budget:
                        reason = "probe budget exhausted" if out_of_budget else f"{exc}"
                        degraded[(src, dst)] = f"{attempt + 1} probe(s) failed: {reason}"
                        break
                    retry_time += plan.retry_backoff_s * (2.0 ** attempt) + round_time
                    if retries_left is not None:
                        retries_left -= 1
                    attempt += 1
                    retries += 1
            if rate is None:
                continue
            rates[(src, dst)] = max(rate, 1.0)
            pair_times[(src, dst)] = probed_at
            if plan.estimate_cross_traffic and rate > 0:
                cross[(src, dst)] = estimate_cross_traffic(rate, max(advertised, rate))
    duration = len(rounds) * round_time + retry_time
    if plan.advance_clock:
        provider.advance_time(duration)
    return {
        "rates": sorted(rates.items()),
        "cross": sorted(cross.items()),
        "pair_times": sorted(pair_times.items()),
        "degraded": list(degraded.items()),
        "duration": duration,
        "counters": [1, sum(map(len, rounds)), retries, len(degraded)],
        "rng": provider._rng.bit_generator.state,
        "clock": provider.now,
    }


def campaign(measurer, names, background=(), pairs=None):
    before = obs.metrics.snapshot()
    profile = measurer.measure(names, background=background, pairs=pairs)
    after = obs.metrics.snapshot()
    return {
        "rates": sorted(profile.rates_bps.items()),
        "cross": sorted(profile.cross_traffic.items()),
        "pair_times": sorted(profile.pair_measured_at.items()),
        "degraded": list(profile.degraded_pairs.items()),
        "duration": profile.measurement_duration_s,
        "counters": [after[name] - before.get(name, 0) for name in COUNTERS],
        "rng": measurer.provider._rng.bit_generator.state,
        "clock": measurer.provider.now,
    }


class ArrayOnlyMeasurer(NetworkMeasurer):
    """A measurer whose campaign must not fall back to probing pair by pair."""

    def measure_pair(self, src_vm, dst_vm, background=()):
        raise AssertionError("the campaign took the per-probe path")


def assert_campaign_matches_oracle(
    build, plan, background=None, pairs=None, array=True
):
    """``build()`` twice gives two identical providers: one per path."""
    provider, names = build()
    oracle_provider, _ = build()
    flows = background(names) if background is not None else ()
    chosen = pairs(names) if pairs is not None else None
    measurer = ArrayOnlyMeasurer if array else NetworkMeasurer
    got = campaign(measurer(provider, plan), names, flows, chosen)
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
@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("name", ["ec2", "rackspace", "ec2-legacy"])
def test_full_mesh_is_bit_identical(name, parallelism):
    plan = MeasurementPlan(parallelism=parallelism)
    got = assert_campaign_matches_oracle(
        lambda: build_provider(name), plan, array=name != "ec2-legacy"
    )
    assert len(got["rates"]) == 8 * 7 and not got["degraded"]


@pytest.mark.parametrize("name", ["ec2", "rackspace"])
def test_colocated_vms_and_cross_traffic_estimates(name):
    plan = MeasurementPlan(estimate_cross_traffic=True, advance_clock=False)

    def build():
        return build_provider(name, n_vms=10, colocate=0.6)

    provider, _ = build()
    assert len({vm.host for vm in provider.vms()}) < 10  # some VMs do share hosts
    got = assert_campaign_matches_oracle(build, plan)
    assert len(got["cross"]) == len(got["rates"]) == 90


@pytest.mark.parametrize("parallelism", [1, 4])
def test_pair_subsets_with_duplicates(parallelism):
    def pairs(names):
        rng = np.random.default_rng(11)
        picks = [
            tuple(names[i] for i in rng.choice(len(names), size=2, replace=False))
            for _ in range(25)
        ]
        return picks + picks[:7]

    plan = MeasurementPlan(parallelism=parallelism)
    got = assert_campaign_matches_oracle(
        lambda: build_provider("ec2"), plan, pairs=pairs
    )
    assert 0 < len(got["rates"]) <= 25


@pytest.mark.parametrize("name", ["ec2", "rackspace", "ec2-legacy"])
def test_background_flows(name):
    def background(names):
        return background_flows(names, np.random.default_rng(5))

    assert_campaign_matches_oracle(
        lambda: build_provider(name, drift="hotspot-flap"),
        MeasurementPlan(),
        background=background,
        array=name != "ec2-legacy",
    )


@pytest.mark.parametrize("probe_budget", [None, 0, 3])
@pytest.mark.parametrize("faults", ["lossy-probes", "random-preempt", "rack-outage"])
@pytest.mark.parametrize("name", ["ec2", "rackspace"])
def test_fault_timelines(name, faults, probe_budget):
    plan = MeasurementPlan(probe_budget=probe_budget, parallelism=2)

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
        (e.src, e.dst) for e in provider.fault_timeline.events if e.mode == "wild"
    ]
    assert wild and all(pair in faulty.rates_bps for pair in wild)
    truth = max(clean.hose_rate(vm) for vm in names)
    assert any(faulty.rates_bps[pair] > 1.5 * truth for pair in wild)


def test_a_nan_estimate_is_an_error_not_an_unmeasured_pair():
    class NanMeasurer(NetworkMeasurer):
        def measure_pair(self, src_vm, dst_vm, background=()):
            rate = super().measure_pair(src_vm, dst_vm, background=background)
            return float("nan") if (src_vm, dst_vm) == broken else rate

    provider, names = build_provider("ec2-legacy", n_vms=4)  # per-probe path
    broken = (names[1], names[2])
    with pytest.raises(MeasurementError, match="unmeasured pair"):
        NanMeasurer(provider, MeasurementPlan()).measure(names)


# ----------------------------------------------------- which path, and why
def test_span_names_the_path_and_the_reason(trace_to):
    for name, plan in (
        ("ec2", MeasurementPlan()),
        ("rackspace", MeasurementPlan()),
        ("ec2-legacy", MeasurementPlan()),
        ("ec2", MeasurementPlan(method="netperf")),
    ):
        provider, names = build_provider(name, n_vms=4)
        NetworkMeasurer(provider, plan).measure(names)
    noisy, names = build_provider("ec2", n_vms=4)
    noisy.latency.noise_fraction = 0.1
    NetworkMeasurer(noisy).measure(names)
    spans = campaign_spans(trace_to)
    assert [(s["path"], s.get("reason")) for s in spans] == [
        ("array", None),
        ("array", None),
        ("per-probe", "lossy provider"),
        ("per-probe", "netperf"),
        ("per-probe", "noisy latency"),
    ]


def test_unreplayable_batch_rewinds_and_falls_back(trace_to):
    """A path model the scalar code rejects *after* its draw (here: a
    non-positive intra-host rate) consumes randomness on every retry, so
    the array path must hand back the RNG and step aside."""

    def build():
        provider = make_provider(
            "ec2", seed=3, params=ec2_params(colocation_probability=0.6)
        )
        provider.request_vms(6)
        # (The topology, which does validate its loopback links, is built.)
        provider.params = dataclasses.replace(
            provider.params, intra_host_rate_bps=-1.0
        )
        return provider, [vm.name for vm in provider.vms()]

    got = assert_campaign_matches_oracle(build, MeasurementPlan(), array=False)
    assert got["degraded"] and got["counters"][2] > 0
    (span,) = campaign_spans(trace_to)
    assert (span["path"], span["reason"]) == ("per-probe", "replay aborted")


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


def test_traced_campaign_equals_untraced(trace_to):
    traced = campaign(NetworkMeasurer(*build_provider("ec2")[:1]), None)
    obs.configure(None, export_env=False)
    untraced = campaign(NetworkMeasurer(*build_provider("ec2")[:1]), None)
    assert traced == untraced


# ------------------------------------------------------ the shared snapshot
def simulated_snapshot(provider, src_vm, dst_vm, background, window_s=0.1):
    """``snapshot_rate`` as a fresh fluid simulation per pair (the oracle)."""
    probe = VMFlow(
        flow_id="__snapshot__", src_vm=src_vm, dst_vm=dst_vm, size_bytes=None,
        start_time=0.0, end_time=window_s, tag="snapshot",
    )
    shifted = [
        dataclasses.replace(
            flow, size_bytes=None, start_time=0.0, end_time=window_s
        )
        for flow in background
    ]
    result = provider.simulate([probe] + shifted, until=window_s)
    return result.timelines["__snapshot__"].average_rate(0.0, window_s)


@pytest.mark.parametrize("seed", range(6))
def test_shared_snapshot_equals_one_simulation_per_pair(seed):
    rng = np.random.default_rng(seed)
    provider, names = build_provider(
        "ec2", n_vms=10, seed=seed, colocate=0.3, drift="random-walk"
    )
    flows = background_flows(names, rng, n_flows=int(rng.integers(1, 60)))
    pairs = [(s, d) for s in names for d in names if s != d]
    shared = provider._snapshot_rates(pairs, flows)
    for (src, dst), rate in zip(pairs, shared):
        assert rate == simulated_snapshot(provider, src, dst, flows)
        assert rate > 0
    assert provider.snapshot_rate(*pairs[3], background=flows) == shared[3]


class RaisedHoses:
    """A hose timeline that lifts every VM's cap above its host's link."""

    def hose_rate_at(self, vm, clock):
        return 100 * GBITPS


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
        provider.hose_timeline = RaisedHoses()
    flows = background_flows(names, rng, n_flows=45)
    pairs = [(s, d) for s in names for d in names if s != d]
    shared = provider._snapshot_rates(pairs, flows)
    assert len(shared) == 40 * 39
    for i in rng.choice(len(pairs), size=150, replace=False):
        assert shared[i] == simulated_snapshot(provider, *pairs[i], flows)


# ------------------------------------------------- the campaign speaks indices
def position_pairs(names, pairs):
    index = {name: i for i, name in enumerate(names)}
    return np.array([(index[s], index[d]) for s, d in pairs], dtype=np.intp)


@pytest.mark.parametrize("seed", range(8))
def test_the_index_schedule_is_the_name_schedule(seed):
    """``schedule_rounds`` — now the name view of the three arrays ``measure``
    runs on — against the parent's list-of-lists scheduler, kept verbatim:
    full mesh and subsets with repeats, serial and parallel, pairs given by
    name and by position."""
    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in rng.permutation(int(rng.integers(2, 12)))]
    provider, _ = build_provider("ec2", n_vms=2)
    for limit in (1, 2, int(rng.integers(3, 7))):
        measurer = NetworkMeasurer(provider, MeasurementPlan(parallelism=limit))
        assert measurer.schedule_rounds(names) == parent_schedule_rounds(
            names, None, limit
        )
        picks = [
            tuple(names[i] for i in rng.choice(len(names), size=2, replace=False))
            for _ in range(int(rng.integers(0, 40)))
        ]
        picks += picks[: len(picks) // 3]
        want = parent_schedule_rounds(names, picks, limit)
        assert measurer.schedule_rounds(names, pairs=picks) == want
        by_position = position_pairs(names, picks).reshape(-1, 2)
        assert measurer.schedule_rounds(names, pairs=by_position) == want


@pytest.mark.parametrize("parallelism", [1, 4])
@pytest.mark.parametrize("name", ["ec2", "ec2-legacy"])
def test_pairs_by_position_give_the_profile_pairs_by_name_give(name, parallelism):
    """An ``(m, 2)`` position array is the same campaign as the name pairs
    it stands for — on the array path and (lossy provider) pair by pair."""
    plan = MeasurementPlan(parallelism=parallelism, estimate_cross_traffic=True)
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
        attach_faults(
            provider,
            FaultTimeline(
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
        build, MeasurementPlan(probe_budget=20, parallelism=3), background=background
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
    assert len(profile.rates_bps) == 0 and not profile.degraded_pairs
    assert profile.measurement_duration_s == 0.0
    assert provider._rng.bit_generator.state == state


# ------------------------------------------------------------- the ECMP memo
class CountingHashlib:
    """Stands in for ``hashlib`` inside ``repro.net.topology``: counts the
    SHA-256 calls that hash an ECMP endpoint pair (not a structure token)."""

    def __init__(self):
        self.ecmp = 0

    def sha256(self, data=b""):
        if re.fullmatch(rb"host\d+\|host\d+", data):
            self.ecmp += 1
        return hashlib.sha256(data)


@pytest.fixture
def hashes(monkeypatch):
    """ECMP hashes made from ``repro.net.topology``, with no router (and so
    no memo) left over from another test."""
    counting = CountingHashlib()
    monkeypatch.setattr(topology, "hashlib", counting)
    monkeypatch.setattr(topology, "_structured_routers", {})
    return counting


def far_pairs(provider):
    """Ordered cross-pod host pairs among the provider's VMs' hosts."""
    spec = provider.params.tree_spec
    per_pod = spec.hosts_per_rack * spec.racks_per_pod
    pods = [int(vm.host[4:]) // per_pod for vm in provider.vms()]
    hosts = [vm.host for vm in provider.vms()]
    return {
        (a, b) for a, pa in zip(hosts, pods) for b, pb in zip(hosts, pods) if pa != pb
    }


def wide_provider(seed, pods=3, cores=4):
    base = ec2_params()
    spec = dataclasses.replace(
        base.tree_spec, hosts_per_rack=4, racks_per_pod=2, pods=pods, num_cores=cores
    )
    provider = make_provider(
        "ec2", seed=seed, params=dataclasses.replace(base, tree_spec=spec)
    )
    provider.request_vms(16)
    return provider


def test_an_ecmp_pick_is_hashed_once_per_tree_shape(hashes, trace_to):
    before = obs.metrics.snapshot().get("repro.routes.ecmp_hashed", 0)
    first = wide_provider(seed=1)
    far = far_pairs(first)
    assert len(far) > 100
    measurer = NetworkMeasurer(first, MeasurementPlan())
    measurer.measure()
    assert hashes.ecmp == len(far)  # each far pair once, however many probes
    measurer.measure()  # same provider: all remembered
    assert hashes.ecmp == len(far)
    # A fresh topology of the same TreeSpec shares the router, so the memo:
    # only far pairs the first tenant's hosts did not form are hashed.
    second = wide_provider(seed=2)
    extra = far_pairs(second) - far
    NetworkMeasurer(second, MeasurementPlan()).measure()
    assert hashes.ecmp == len(far) + len(extra) < len(far) + len(far_pairs(second))
    twin = wide_provider(seed=1)  # the first tenant's hosts again: nothing
    NetworkMeasurer(twin, MeasurementPlan()).measure()
    assert hashes.ecmp == len(far) + len(extra)
    # A different TreeSpec shares nothing.
    other = wide_provider(seed=1, cores=3)
    assert far_pairs(other) == far  # same draws, same hosts
    NetworkMeasurer(other, MeasurementPlan()).measure()
    assert hashes.ecmp == 2 * len(far) + len(extra)
    # The counter and the span attribute say the same.
    counted = obs.metrics.snapshot()["repro.routes.ecmp_hashed"] - before
    assert counted == hashes.ecmp
    assert [span["ecmp_hashed"] for span in campaign_spans(trace_to)] == [
        len(far), 0, len(extra), 0, len(far),
    ]


@pytest.mark.parametrize("cores", [2, 4, 12])
def test_remembered_picks_are_node_paths_picks(cores, hashes):
    """``core_picks`` (hashed in one pass, then read back) against the
    scalar pick of ``node_path`` and against graph search
    (``_lazy_kth_shortest_path``, no router), 500 random far pairs."""
    spec = TreeSpec(hosts_per_rack=4, racks_per_pod=3, pods=4, num_cores=cores)
    tree = build_multi_rooted_tree(spec)
    router = topology._structured_routers[tree.structure_token()]
    rng = np.random.default_rng(cores)
    per_pod = spec.hosts_per_rack * spec.racks_per_pod
    src = rng.integers(0, spec.num_hosts, size=2000)
    dst = rng.integers(0, spec.num_hosts, size=2000)
    far = np.flatnonzero(src // per_pod != dst // per_pod)[:500]
    src, dst = src[far], dst[far]
    assert far.shape[0] == 500
    cold = router.core_picks(src, dst)
    hashed = hashes.ecmp
    assert hashed == len(set(zip(src.tolist(), dst.tolist())))
    warm = router.core_picks(src[::-1], dst[::-1])[::-1]
    assert hashes.ecmp == hashed and (cold == warm).all()
    cores_sorted = sorted(f"core{c}" for c in range(cores))
    searched = build_multi_rooted_tree(spec)
    for a, b, pick in zip(src.tolist(), dst.tolist(), cold.tolist()):
        path = router.node_path(f"host{a}", f"host{b}")
        assert path[3] == cores_sorted[pick]
        assert _lazy_kth_shortest_path(
            searched._adjacency, f"host{a}", f"host{b}"
        ) == path
    # Memory follows the pairs hashed, not hosts squared.
    assert router._pick_keys.shape == router._picks.shape == (hashed,)
    assert (np.diff(router._pick_keys) > 0).all()
