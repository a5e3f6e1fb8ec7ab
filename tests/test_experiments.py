"""Evaluation-subsystem tests: scenario registry, per-trial seeding, the
(serial and parallel) experiment runner, JSON results, and the CLI."""

import hashlib
import json
import math

import pytest

from repro.errors import ExperimentError, SimulationError
from repro.experiments import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    TrialRecord,
    get_scenario,
    list_scenarios,
    placer_names,
    run_trial,
    scenario_names,
    trial_seed,
)
from repro.experiments.cli import main as cli_main
from repro.runtime.metrics import relative_speedup
from repro.service.engine import report_violations
from helpers import traced_spans
from oracles.max_min import force_loop
from test_live_books import books_checked
from test_truth_property import Case, check_every_run


# ----------------------------------------------------------------- registry
def test_registry_has_at_least_five_distinct_scenarios():
    names = scenario_names()
    assert len(names) >= 5
    assert len(set(names)) == len(names)
    for spec in list_scenarios():
        assert spec.description


def test_unknown_scenario_and_placer_raise_experiment_error():
    with pytest.raises(ExperimentError):
        get_scenario("does-not-exist")
    with pytest.raises(ExperimentError):
        ExperimentConfig(scenarios=("smoke",), placers=("not-a-placer",))


def test_unknown_scenario_param_raises_experiment_error():
    with pytest.raises(ExperimentError):
        get_scenario("smoke").build(seed=0, bogus_param=3)


def test_config_validates_scenario_params_eagerly():
    with pytest.raises(ExperimentError):
        ExperimentConfig(
            scenarios=("smoke",), scenario_params={"smoke": {"n_vm": 4}}
        )


def test_scenario_builds_are_seed_reproducible():
    first = get_scenario("smoke").build(seed=123)
    second = get_scenario("smoke").build(seed=123)
    assert [vm.host for vm in first.provider.vms()] == [
        vm.host for vm in second.provider.vms()
    ]
    assert first.apps[0].transfers() == second.apps[0].transfers()


# ------------------------------------------------------------------ seeding
def test_arrival_scenarios_run_the_arrival_loop_and_measure_beside_the_other_tenant(
    monkeypatch,
):
    from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
    from repro.experiments.scenarios import ARRIVAL_TTL_S
    from repro.service.cache import MeasurementCache

    for name in ("multi-app-sequence", "ec2-trace-replay", "smoke", "cross-traffic"):
        settings = get_scenario(name).build(seed=3).service
        assert (settings.predictor, settings.migrate, settings.ttl_s, settings.hours) == (
            "measured", False, ARRIVAL_TTL_S, 1.0,
        )
    # Arrivals past the first epoch lengthen the session to reach them.
    late = get_scenario("multi-app-sequence").build(seed=3, arrival_gap_s=1500.0)
    assert late.service.hours == 2.0

    # The other tenant's flows are the session's background: its bootstrap
    # campaign is the one measurement of the mesh under them at t = 0.
    profiles = []
    refresh = MeasurementCache.refresh

    def kept(cache, now, background=()):
        profiles.append((now, refresh(cache, now, background)))
        return profiles[-1][1]

    monkeypatch.setattr(MeasurementCache, "refresh", kept)

    seed = trial_seed(0, "cross-traffic", 0)
    instance = get_scenario("cross-traffic").build(seed=seed)
    assert run_trial("cross-traffic", "greedy", 0, 0, instance=instance).ok
    (now, bootstrap), *_ = profiles
    assert now == 0.0
    names = instance.cluster.machine_names()

    def measured(background=()):
        provider = get_scenario("cross-traffic").build(seed=seed).provider
        measurer = NetworkMeasurer(provider, MeasurementPlan(advance_clock=False))
        return measurer.measure(names, background=background).rates_bps

    assert bootstrap.rates_bps == measured(instance.background)
    assert bootstrap.rates_bps != measured()


def test_trial_seed_is_stable_and_placer_independent():
    seed = trial_seed(0, "smoke", 0)
    assert seed == trial_seed(0, "smoke", 0)
    assert seed != trial_seed(0, "smoke", 1)
    assert seed != trial_seed(1, "smoke", 0)
    # run_trial derives the same seed for every placer -> paired comparison.
    greedy = run_trial("smoke", "greedy", 0, 0)
    random_ = run_trial("smoke", "random", 0, 0)
    assert greedy.seed == random_.seed


def test_run_trial_captures_library_failures_as_error_records():
    record = run_trial("smoke", "greedy", 0, 0, scenario_params={"n_vms": 1})
    assert record.status == "error"
    assert "ExperimentError" in record.error


# ------------------------------------------------------------------- runner
def test_serial_sweep_produces_speedup_summary(tmp_path):
    config = ExperimentConfig(
        scenarios=("smoke",), placers=("greedy",), trials=2, workers=1
    )
    result = ExperimentRunner(config).run()
    # The baseline (random) is added to the grid automatically.
    assert set(result.placers) == {"greedy", "random"}
    assert len(result.records) == 4
    assert all(rec.ok for rec in result.records)
    greedy_records = result.ok_records("smoke", "greedy")
    assert all(rec.measurement_overhead_s > 0 for rec in greedy_records)
    assert all(rec.measurement_overhead_s == 0 for rec in result.ok_records("smoke", "random"))

    summary = result.summary()
    assert "speedup_vs_random" in summary["smoke"]["greedy"]
    assert summary["smoke"]["greedy"]["trials_ok"] == 2

    # JSON round trip.
    path = result.save(tmp_path / "out.json")
    loaded = ExperimentResult.from_json_dict(json.loads(path.read_text()))
    (cell,) = [r for r in loaded.records if (r.placer, r.trial) == ("greedy", 0)]
    assert cell.seed == trial_seed(0, "smoke", 0)
    assert loaded.summary()["smoke"]["greedy"]["trials_ok"] == 2


def test_sequence_trial_placement_wall_excludes_simulation():
    record = run_trial("multi-app-sequence", "greedy", 0, 0)
    assert record.ok
    assert 0 < record.placement_wall_s < record.trial_wall_s


def test_speedups_drop_undefined_zero_baseline_trials():
    def rec(placer, trial, total):
        return TrialRecord(
            scenario="s", placer=placer, trial=trial, seed=trial,
            total_running_time_s=total,
        )

    result = ExperimentResult(
        scenarios=["s"], placers=["round-robin", "random"], trials=2,
        base_seed=0, baseline="random",
        records=[
            rec("random", 0, 0.0), rec("round-robin", 0, 2.0),  # -inf: dropped
            rec("random", 1, 2.0), rec("round-robin", 1, 1.0),  # 0.5
        ],
    )
    assert result._paired_speedups("s", "round-robin") == ([0.5], 1)
    json.dumps(result.to_json_dict(), allow_nan=False)  # strict-JSON safe


@pytest.mark.parametrize("field", ["baseline_duration", "choreo_duration"])
def test_a_nan_duration_is_refused(field):
    """``< 0`` is False for NaN, so a NaN running time used to come back as
    a NaN speed-up and turn a sweep's whole summary into NaN."""
    durations = {"baseline_duration": 1.0, "choreo_duration": 1.0, field: math.nan}
    with pytest.raises(SimulationError, match="^durations must be >= 0$"):
        relative_speedup(**durations)


def test_speedups_pair_only_trials_that_completed_the_same_applications():
    def rec(placer, trial, durations):
        return TrialRecord(
            scenario="s", placer=placer, trial=trial, seed=trial,
            per_app_duration_s=durations, total_running_time_s=sum(durations.values()),
        )

    result = ExperimentResult(
        scenarios=["s"], placers=["greedy", "random"], trials=2,
        base_seed=0, baseline="random",
        records=[
            # Random rejected b: 4 s of its work against greedy's 6 s of more.
            rec("random", 0, {"a": 4.0}), rec("greedy", 0, {"a": 3.0, "b": 3.0}),
            rec("random", 1, {"a": 4.0, "b": 4.0}), rec("greedy", 1, {"a": 2.0, "b": 2.0}),
        ],
    )
    assert result._paired_speedups("s", "greedy") == ([0.5], 1)
    assert result.summary()["s"]["greedy"]["dropped_trials"] == 1


def test_parallel_sweep_matches_grid_and_runs_all_cells():
    config = ExperimentConfig(
        scenarios=("smoke", "all-to-all"),
        placers=("greedy", "random"),
        trials=1,
        workers=2,
    )
    result = ExperimentRunner(config).run()
    assert len(result.records) == 4
    assert all(rec.ok for rec in result.records)
    # Records come back sorted regardless of completion order.
    keys = [(rec.scenario, rec.placer, rec.trial) for rec in result.records]
    assert keys == sorted(keys)


# ----------------------------------------------------------- golden digests
# SHA-256 of ``json.dumps(result.canonical_json_dict(), sort_keys=True)`` for
# one trial of every registered scenario under ``greedy`` and ``random``
# (``base_seed=0``, ``workers=1``, default params), computed at the commit
# before the A/B bench suite and the engine's ``set_*`` switches were deleted
# (PR 16), and of the ILP grid under ``ilp``, computed at the commit that
# made it a deterministic search (PR 17; before that the digest would have
# pinned the HiGHS build).  Identity across commits, like
# ``test_service.TestGoldenDigests``: a digest changes only when simulated
# behaviour changes; update it only in a PR that means to change behaviour,
# and say so there.
#
# Exactly two cells were re-pinned in PR 23, ``multi-app-sequence``/``greedy``
# and ``ec2-trace-replay``/``greedy``: the sequence runner now keeps its
# applications on the service's ``LiveApp`` books, where an application whose
# placement colocates every transfer is done on admission; before, only
# applications owning a network flow could finish, so greedy's fully
# colocated ones held their cores for the rest of the sequence and later
# arrivals were placed on a cluster that looked fuller than it was
# (tests/test_live_books.py).  Under ``random`` every application of those
# two scenarios crosses the network, so its cores come back when they always
# did, and no ``ilp`` cell runs in sequence mode: every other cell is the
# parent's.
#
# Eight cells were re-pinned when a §6.3 trial became a placement-service
# session (no migration, a TTL below every arrival gap).  In the four
# ``multi-app-sequence`` / ``ec2-trace-replay`` cells the provider's
# clock advances from arrival to arrival, a later arrival re-probes only the
# pairs probed before it, and the reported times are the live simulation's
# instead of a second run from zero.  Greedy placed 28 of 80 and 17 of 60
# applications differently over trials 0-19; random placed none differently.
# The four ``service-churn`` / ``fault-churn`` cells moved in
# ``network_bytes`` / ``colocated_bytes`` only, which a service trial now
# fills from its applications' books (they read 0 before); and in the
# ``service-churn`` / ``greedy`` summary, trial 0 is no longer paired with
# random, which rejected an application greedy ran.
#
# Thirteen cells were re-pinned when greedy's colocation ties went to the
# machine with the fastest measured egress instead of the lowest name, and
# the hierarchical search left: the nine ``greedy`` cells whose trial 0
# colocates a transfer with a choice of machines, and four ``ilp`` cells,
# whose placements and completion times are the parent's — only
# ``solver_stats.warm_bound_s``, the greedy incumbent's modelled
# objective, moved.  No ``random`` cell moved.
#
# Five cells were re-pinned when every trial became a placement-service
# session (the one-application scenarios run as one arrival at t = 0, the
# other tenant's flows as the session's background): ``cross-traffic`` /
# ``greedy``, ``single-app-ec2`` / ``greedy`` and ``ilp``, and ``smoke`` /
# ``greedy`` and ``ilp``.  Their trial 0 colocates every transfer, and the
# record's ``network_bytes`` is now the float ``0.0`` the session's books
# sum to, where the run of no flows wrote the integer ``0``; nothing else in
# them moved.  Over trials 0-19 of the ten one-application scenarios under
# greedy, random, round-robin and min-machines, every other record field
# but the host timings is the parent's.
#
# ``service-churn`` / ``greedy`` and ``fault-churn`` / ``greedy`` were
# re-pinned when a session stopped placing on a forecast of the rates and
# placed on the cache's measured profile instead; their ``random`` cells,
# whose placer reads no profile, did not move.
#
# Thirty-three cells — all but ``fault-churn`` / ``random``, whose times
# round to the same floats — were re-pinned when both fluid event loops became
# lazy: a flow's bytes are computed once per segment instead of drained
# once per event, and its finish folds in the byte tolerance.  Every run
# of every cell keeps its invariants, placements and every non-float field
# are the parent's, and no completion time in them moved by more than
# 9.1e-15 of itself.
_GOLDEN_DIGESTS = {
    ("all-to-all", "greedy"): "c50eae042bca199a8d4b0835b761266b688a4548b2f730fcedee8a93b6b504c3",
    ("all-to-all", "random"): "b0b1132ca59d0145b66c7bbb72ef0dd24f3320f033e3c0adaf3bdcdc1b3296c8",
    ("bursty-mapreduce", "greedy"): "4b50a46f27bdc0544b4617668796c9205f166fcce301dfd19c8df28531debeae",
    ("bursty-mapreduce", "random"): "2befa0c604eee25b824255e21ea368f50e34928caac0bec912e98698293d2003",
    ("cross-traffic", "greedy"): "6a5824f0f73a78d23ef65e07d21c05ba83792f4429e8716e76c5c838ba0a4cba",
    ("cross-traffic", "random"): "0624cc2d40005c67e038094b5f0db516447fc59246731dc0f406fce17090727c",
    ("ec2-trace-replay", "greedy"): "ab20da70ad4df8ecbf4f0b0f1e48e90e9b8cdf1506003cf3a8a97105cf0f83ba",
    ("ec2-trace-replay", "random"): "dae2d0f8612093e9586aa59aeaf0c06f4be9f44e925f2ee039bddcf83cfd36d4",
    ("fault-churn", "greedy"): "7455e23d19802fb9aaa1a28868ed146af5661f6d9bc79cd60497b2e877dbce3c",
    ("fault-churn", "random"): "edb9c2c0ecbaaee23bdb84ce0c90eed3bc3fc0a8f256d06d549bee309693ae40",
    ("hetero-topology", "greedy"): "61f8943808a7425803282a5ca9e05f5d9cac01c76623ab966d622296774fa833",
    ("hetero-topology", "random"): "bac837504d273ba32d9a12b35028d90406dc60f4f915567a9cd4f1b81b66cf7e",
    ("legacy-ec2-zone", "greedy"): "3344b410347b862e427ce1eca5858120fc9054c1310c0bb93a20ffcc400edcbc",
    ("legacy-ec2-zone", "random"): "b062ff6e60008569e1103a5f229b14a31d3a8ea97933f267d6068c2a3636556c",
    ("multi-app-sequence", "greedy"): "47332db69cc9395d9aaebb9d1ae6d2adf80c4bf54f653de91a5cd802721cb407",
    ("multi-app-sequence", "random"): "6461fdc996ef52faabc1810bde4a28e0bb5bdefa656b03e1409a69ba7921cb58",
    ("partition-aggregate", "greedy"): "fc46eaa8197b9aed1123f9ba2d4b6c0f5db3016396ee9094c40da062545f2a9f",
    ("partition-aggregate", "random"): "db9ad5ee8ac804ec296523b976af2df974a29222acd1a6f13c5457e30aed1fba",
    ("rack-hotspot", "greedy"): "2ee1e5a25f34e30f55df1522d1bf2f772f98f18321b022007b72b0ab87290e23",
    ("rack-hotspot", "random"): "c514c327ce777423dc36fbeeec494cfa406baa4d19ef5ab358f2e7675b122c07",
    ("rackspace-uniform", "greedy"): "2f457143c961bc2d66f00254f5f4967fe11e5e23ebd0bb18393317e9aaa95d25",
    ("rackspace-uniform", "random"): "4b7ccb920e68e18bb59ff2ec856edc1feed221323c6c29094fb2d3c3cc0e6558",
    ("service-churn", "greedy"): "3e66dd6a5e402248ac849a9539c7aff5601cb48ef310c3348954e74ac3b1bffc",
    ("service-churn", "random"): "907776bb9bfc977be92e1bd8a6fc4cc1f6df56725b168a0ac71dcb33f359a057",
    ("single-app-ec2", "greedy"): "916db802a9a37d76d5c6f9f2985bfcdd2bf24d19a087d507bc536dc2f9e847fe",
    ("single-app-ec2", "random"): "d8a69b4329eaad5fa1fb2175a0a095926b868f955e79e45a658cd61c76ab73c0",
    ("smoke", "greedy"): "a3849c16df7b388880c9ca2364e105dc31b2e57a29114102a2cf3b546d5b0a4e",
    ("smoke", "random"): "57f63a8082e754a40232fd5a10f3942b92b9ddf8b04013124a02094ae4fffcb3",
    ("smoke", "ilp"): "b6c81a4befd9ca180c0016d8dc69980fc0ec742967c9870843bd3c1057177f14",
    ("all-to-all", "ilp"): "e690f94f26ac9c8ed1ede0f2d7324231bbb728115875800bce5fa6bcd09e6a78",
    ("bursty-mapreduce", "ilp"): "f925f7b7ea4c2061b497f0dedb7efe6d698edc7ba1e38ed851fd9d36856a598e",
    ("single-app-ec2", "ilp"): "a37f8ba39641803acd4b664b63ba019b36b026055b03414cf60a51206534ff4a",
    ("partition-aggregate", "ilp"): "f9f4c1406ad911e04131f4c0c012bd0971b7e5a6fbaa033bb514d58493e5e13f",
    ("rack-hotspot", "ilp"): "7f60f00002dc2b384e6815080b357574142e38efca691c6a830224b5bf16ebdc",
}


#: The exact placer's cells: the search is deterministic pure Python, so its
#: placements pin like any other (``time_limit_s=60`` never binds).
_ILP_CELLS = [
    (scenario, "ilp")
    for scenario in (
        "smoke", "all-to-all", "bursty-mapreduce", "single-app-ec2",
        "partition-aggregate", "rack-hotspot",
    )
]
_PINNED_CELLS = [
    (scenario, placer)
    for scenario in scenario_names()
    for placer in ("greedy", "random")
] + _ILP_CELLS


@pytest.mark.parametrize("loop", ["auto", "vector"])
@pytest.mark.parametrize(
    "scenario,placer", _PINNED_CELLS, ids=["-".join(cell) for cell in _PINNED_CELLS]
)
def test_cell_digest_is_pinned(scenario, placer, loop, monkeypatch, tmp_path):
    """Each cell's digest, with every fluid run on the loop its size picks
    (the scalar one, at these sizes) and again on the vector one."""
    if loop == "vector":
        force_loop(monkeypatch, True)
    ledger, reports = books_checked(monkeypatch)
    checked = Case()
    check_every_run(monkeypatch, checked)
    config = ExperimentConfig(
        scenarios=(scenario,), placers=(placer,), trials=1, base_seed=0, workers=1,
        placer_params={"ilp": {"time_limit_s": 60.0}} if placer == "ilp" else {},
    )
    with traced_spans(tmp_path / "trace.jsonl") as spans:
        result = ExperimentRunner(config).run()
    assert all(rec.ok for rec in result.records)
    canonical = json.dumps(result.canonical_json_dict(), sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == _GOLDEN_DIGESTS[scenario, placer]
    # Every cell is a service session: its books balance at every pause and
    # at its end, and its report is consistent.
    assert len(reports) == len(result.records) and ledger.checks >= len(reports)
    assert ledger.problems == []
    assert [report_violations(report) for report in reports] == [[]] * len(reports)
    # Every fluid run it made keeps max-min fairness segment by segment (so
    # each run's timelines are read, and its log reduced), and every probe
    # filling under its own traffic is max-min fair.  Each run took the
    # loop forced on it, or, at these sizes, the scalar one.
    assert checked.runs and checked.problems == []
    expected = "vector" if loop == "vector" else "scalar"
    assert [span["loop"] for span in spans] == [expected] * len(checked.runs)


# ---------------------------------------------------------------------- CLI
def test_cli_list_json_names_every_scenario(capsys):
    assert cli_main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in payload["scenarios"]] == scenario_names()
    assert payload["placers"] == placer_names()


def test_cli_run_writes_structured_results(tmp_path, capsys):
    out = tmp_path / "results.json"
    code = cli_main(
        ["run", "--scenario", "smoke", "--trials", "1",
         "--placers", "greedy,random", "--output", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "repro.experiments/result/v1"
    assert {rec["placer"] for rec in data["records"]} == {"greedy", "random"}
    assert "speedup_vs_random" in data["summary"]["smoke"]["greedy"]
    per_placer_times = {
        rec["placer"]: rec["total_running_time_s"] for rec in data["records"]
    }
    assert all(time >= 0 for time in per_placer_times.values())


def test_cli_run_rejects_unknown_scenario(capsys):
    assert cli_main(["run", "--scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_run_rejects_param_key_no_scenario_declares(capsys):
    code = cli_main(["run", "--scenario", "smoke", "--param", "n_vmz=9"])
    assert code == 2
    assert "n_vmz" in capsys.readouterr().err


def test_cli_run_exits_nonzero_when_trials_fail(tmp_path, capsys):
    # n_vms=1 is below the scenario minimum, so every trial errors out.
    out = tmp_path / "failed.json"
    code = cli_main(
        ["run", "--scenario", "smoke", "--trials", "1",
         "--param", "n_vms=1", "--output", str(out)]
    )
    assert code == 1
    assert "trial(s) failed" in capsys.readouterr().err
    data = json.loads(out.read_text())
    assert all(rec["status"] == "error" for rec in data["records"])
