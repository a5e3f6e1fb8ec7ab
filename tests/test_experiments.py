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
from helpers import fluid_run_spans
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
_GOLDEN_DIGESTS = {
    ("all-to-all", "greedy"): "10a2fdb55b5d32c3cfded43f3569ebea2d0fec4ef2f45267f0afec5904373af5",
    ("all-to-all", "random"): "6c19bf4e0d4e10480721338705008b19258f9cb3771918118bc3c334aa56af5c",
    ("bursty-mapreduce", "greedy"): "a727e3eb61034c1e7bda5c6fb7154a5af4bd21188bacb5b921d654f8e157010f",
    ("bursty-mapreduce", "random"): "b95300d78ec39f9a8283b3a567a157f09dfb44d980e250a33837e9761ec91824",
    ("cross-traffic", "greedy"): "0dbc4051442ee7d0d65e96284ef60edb21a423712cfb5f4cc94e7068bff914a2",
    ("cross-traffic", "random"): "31a9bd2d0809327e005051646b760f9d422f9262b2600dd594baf5a9e250eb7a",
    ("ec2-trace-replay", "greedy"): "c5bfd12018785a152a652433ed80a1afc188e1c8e4c0cf30ec7c819ea79bc1af",
    ("ec2-trace-replay", "random"): "947e230aa0d6d1a6334f685b38ea044cc5048cd6598857245bfe058e6f78dcf7",
    ("fault-churn", "greedy"): "a5a9e595db8cc8d752fdd8478446612ad435afa605b7e082cff7cbe7522e7bf6",
    ("fault-churn", "random"): "edb9c2c0ecbaaee23bdb84ce0c90eed3bc3fc0a8f256d06d549bee309693ae40",
    ("hetero-topology", "greedy"): "44ee84d43931fc95fa08a52186cd653fc46f077e11ac1135f7bcba639a2ab169",
    ("hetero-topology", "random"): "75d0ed2870d73f7a98afda06401af6e661cbb38f59950940b7998ee57928ee63",
    ("legacy-ec2-zone", "greedy"): "01e12458da596933ce289a51643fff4b1d05c336d17eaa2e1dfce31d2b887ebc",
    ("legacy-ec2-zone", "random"): "cd99a0314e884befbd96c3a25af8aee396144fad0492e3bef5842a71c23c8984",
    ("multi-app-sequence", "greedy"): "0077101f6deabc6b51c72b152301795ea32f532afcc4a567dd1a0950d39aaa5b",
    ("multi-app-sequence", "random"): "c3b66077e41ec8f4449e6c0db7f40dda9ce06f364a49a34e0efc4e1d1fc521b7",
    ("partition-aggregate", "greedy"): "2c251d6fd79e91e1a268c7ed346191f086bae073821f9138517747e3da2768d6",
    ("partition-aggregate", "random"): "3d58add2b4bce4331452f143aa64f5ae3d2bf07ef92f4275c886d74451b99b4b",
    ("rack-hotspot", "greedy"): "dbe58aaf16c28e8fec73cf5eb61840596c29a6bf8b26fd74b25f36b5cafc6930",
    ("rack-hotspot", "random"): "40dc8341a6c91ee4ff564e4aa31e581b4a595cc2ec42537cb313e47afe69e8ad",
    ("rackspace-uniform", "greedy"): "1547dcf06d108bd7f21dc7886511fa3b54f48b4beef1018103819f1f0de31cc8",
    ("rackspace-uniform", "random"): "09379e27b95534fe1bf8bc6d20c0263da978940502a2021fc18428b316748ac0",
    ("service-churn", "greedy"): "f5acc6cc76b859b01579105204ef2721f9a6fa259c0abfbb95d2a586c0c86841",
    ("service-churn", "random"): "7f6594cad00c30f9d2ef8b233dbc7fe8e020fc0902707288c17b1f64719be080",
    ("single-app-ec2", "greedy"): "7c32da6a201b1586993ebdb1c3cd90f4235bbbb60d4d881e1ec00446e067c2ca",
    ("single-app-ec2", "random"): "8123ece541b1a78dd65cb425b749b8ba9b05fa1dc5c0b86ab5d7c8b01fbd1493",
    ("smoke", "greedy"): "ef03aee6a93ade7268b85d5021b40f5216cfac16c9ea9660a5b0c044f54352cc",
    ("smoke", "random"): "b5bfcfea0acf8af077ec006ae7670b5bad502ae5fea7e820e0c0a2fe70f00fee",
    ("smoke", "ilp"): "85b81b831c5b6433c5aae0ec9f69747c554f993d0a99d156a21a633828cdbf50",
    ("all-to-all", "ilp"): "904be8a24f40e130147b26595eec3d3bbaa7877ed2c690c556acf15ba7c06958",
    ("bursty-mapreduce", "ilp"): "18adc5b343659f95b858eb48176a590e56bd7cb8528430bb92bd1d6cec35e11f",
    ("single-app-ec2", "ilp"): "bbfaaaca72a0d3162461113d281e7dd4bc85ca885659ca5e7e6f795187c5dee4",
    ("partition-aggregate", "ilp"): "1fd73e82a56945491b8e69151ec7b8ea2da3482c54be1fb716fa0e61e994ef72",
    ("rack-hotspot", "ilp"): "aec89711b98b8c870ff69b289cb3ab4f2b4064073f34e1f1ebfa9e7f14f532cb",
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
    with fluid_run_spans(tmp_path / "trace.jsonl") as spans:
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
