"""Evaluation-subsystem tests: scenario registry, per-trial seeding, the
(serial and parallel) experiment runner, JSON results, and the CLI."""

import hashlib
import json

import pytest

from repro.errors import ExperimentError
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
    assert loaded.record("smoke", "greedy", 0).seed == trial_seed(0, "smoke", 0)
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
    assert result.speedups_vs_baseline("s", "round-robin") == [0.5]
    json.dumps(result.to_json_dict(), allow_nan=False)  # strict-JSON safe


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
# (tests/test_sequence_live.py).  Under ``random`` every application of those
# two scenarios crosses the network, so its cores come back when they always
# did, and no ``ilp`` cell runs in sequence mode: every other cell is the
# parent's.
_GOLDEN_DIGESTS = {
    ("all-to-all", "greedy"): "34b5de744dff8d49428be1e5dadedf4e3c4d3c495d48d87427296b1eee8555e6",
    ("all-to-all", "random"): "6c19bf4e0d4e10480721338705008b19258f9cb3771918118bc3c334aa56af5c",
    ("bursty-mapreduce", "greedy"): "82ead48d26e0cd6b94061dd6591c2d2460452d1e5eb31fafdc9d2bb09080701e",
    ("bursty-mapreduce", "random"): "b95300d78ec39f9a8283b3a567a157f09dfb44d980e250a33837e9761ec91824",
    ("cross-traffic", "greedy"): "a818d83a01a13ab4fab59257e8eb6e8c6ee68a2c1296188eb9d34976799a1d98",
    ("cross-traffic", "random"): "31a9bd2d0809327e005051646b760f9d422f9262b2600dd594baf5a9e250eb7a",
    ("ec2-trace-replay", "greedy"): "f94e0f836a61ec539bf218ca213a731d1b56851de30eede9fbc27a7684aaeea4",
    ("ec2-trace-replay", "random"): "f5cde081e72d141c5c9803264eaba7241ba726acd7643439e10a844664a5a599",
    ("fault-churn", "greedy"): "a1b24b3e37a65b4697ccbb92a255965128aef985ba50d44ba9e06070de03a6b3",
    ("fault-churn", "random"): "9aaadea747fb12b8c2c707e544336254159a3f67031cbb93f595280e5a858d47",
    ("hetero-topology", "greedy"): "3fda523b2fdb680cd0ce674a1ffa711049835f25e45b971252b80612416b7738",
    ("hetero-topology", "random"): "75d0ed2870d73f7a98afda06401af6e661cbb38f59950940b7998ee57928ee63",
    ("legacy-ec2-zone", "greedy"): "5a17820f8cde9ef021feaaecdf7710b7df075d2619abb49e8882832849ac94be",
    ("legacy-ec2-zone", "random"): "cd99a0314e884befbd96c3a25af8aee396144fad0492e3bef5842a71c23c8984",
    ("multi-app-sequence", "greedy"): "03131117bb179e1c4fa10c003d76dd6c6ab3478783f4f9e69a632154dfbf0ac0",
    ("multi-app-sequence", "random"): "95ebfb9d48b9e4fda003b48d77a57e53e6980dd80fd0b284b736bc7c5d0e8769",
    ("partition-aggregate", "greedy"): "454ca05c49dd90ed890edec4751bcef211da8f076bf52447694a208034553d56",
    ("partition-aggregate", "random"): "3d58add2b4bce4331452f143aa64f5ae3d2bf07ef92f4275c886d74451b99b4b",
    ("rack-hotspot", "greedy"): "252e676ee31df707eb0f6e548cc205f94f0bd567eefbe2fcffd1b394f8c2fe49",
    ("rack-hotspot", "random"): "40dc8341a6c91ee4ff564e4aa31e581b4a595cc2ec42537cb313e47afe69e8ad",
    ("rackspace-uniform", "greedy"): "1547dcf06d108bd7f21dc7886511fa3b54f48b4beef1018103819f1f0de31cc8",
    ("rackspace-uniform", "random"): "09379e27b95534fe1bf8bc6d20c0263da978940502a2021fc18428b316748ac0",
    ("service-churn", "greedy"): "9eb7a65dfb0de859c0ba2c26467fa2b97832566bfc69a29adb36ae250b4a4331",
    ("service-churn", "random"): "a9d67360fe8df919c1dcc880373e18b44d3fefb643095f4594cf319276f106ad",
    ("single-app-ec2", "greedy"): "ae5a48d81bc483e73101db0218ca576b54bc43bd1bca6b79929edfc169b9ed34",
    ("single-app-ec2", "random"): "8123ece541b1a78dd65cb425b749b8ba9b05fa1dc5c0b86ab5d7c8b01fbd1493",
    ("smoke", "greedy"): "4447c0ebc7022a56d44f687522cd1325794b08664f45c320f942a5a20a6abdf1",
    ("smoke", "random"): "b5bfcfea0acf8af077ec006ae7670b5bad502ae5fea7e820e0c0a2fe70f00fee",
    ("smoke", "ilp"): "70cdc950ce4438f4e70c04c34d276a28497014e6d80951d559b4d12d0266fba9",
    ("all-to-all", "ilp"): "939fe9b49ac2a17bf2122966b800955e076c0e936029d4e902897fba9e63cb88",
    ("bursty-mapreduce", "ilp"): "47e2855a101bd0e89c67fc8df50e1b40d475ea74081f009ed975babcd483e4a9",
    ("single-app-ec2", "ilp"): "3847211c9a6474b22397d86a43195625aa1e2529c985f49c34c2f69c405ebd2f",
    ("partition-aggregate", "ilp"): "c574526ba490977da22e84e6ab2dcd3cb97d3d3a469cb8d440d6b17a7b966569",
    ("rack-hotspot", "ilp"): "3a01d090430b37d79d154340ae72639f13361092908dd275cbf7dad07062c384",
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


@pytest.mark.parametrize(
    "scenario,placer", _PINNED_CELLS, ids=["-".join(cell) for cell in _PINNED_CELLS]
)
def test_cell_digest_is_pinned(scenario, placer):
    config = ExperimentConfig(
        scenarios=(scenario,), placers=(placer,), trials=1, base_seed=0, workers=1,
        placer_params={"ilp": {"time_limit_s": 60.0}} if placer == "ilp" else {},
    )
    result = ExperimentRunner(config).run()
    assert all(rec.ok for rec in result.records)
    canonical = json.dumps(result.canonical_json_dict(), sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == _GOLDEN_DIGESTS[scenario, placer]


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
