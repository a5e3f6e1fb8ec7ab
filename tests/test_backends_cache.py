"""Execution backends and the persistent content-addressed result store:
backend selection, cross-backend equivalence, cache hits/invalidation, the
trace-replay scenario, and the dropped-trials summary accounting.  (Pool
sizing and worker loss: ``tests/test_fabric.py``.)"""

import json
import zlib

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    ResultStore,
    TrialRecord,
    WorkItem,
    backend_names,
    code_version,
    create_backend,
    get_scenario,
    run_trial,
    tree_digest,
)
from repro.experiments.cache import CacheKey
from repro.experiments.cli import main as cli_main

ALL_BACKENDS = ("inline", "pool")


def _small_config(**overrides):
    defaults = dict(
        scenarios=("smoke",),
        placers=("greedy", "random"),
        trials=2,
        baseline="random",
        workers=2,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------- registry
def test_backend_registry_lists_all_backends():
    assert backend_names() == list(ALL_BACKENDS)
    for name in ALL_BACKENDS:
        assert create_backend(name).name == name


def test_unknown_backend_rejected_eagerly():
    with pytest.raises(ExperimentError):
        ExperimentConfig(scenarios=("smoke",), backend="carrier-pigeon")


def test_backend_default_preserves_historical_behaviour():
    """One rule, from the inputs: explicit wins; else anything that needs
    another process (more workers) is ``pool``."""
    assert _small_config(workers=1).effective_backend == "inline"
    assert _small_config(workers=2).effective_backend == "pool"
    assert _small_config(workers=None).effective_backend == "pool"
    assert _small_config(workers=4, backend="inline").effective_backend == "inline"
    assert _small_config(workers=1, backend="pool").effective_backend == "pool"


# ------------------------------------------------------------- equivalence
def test_all_backends_produce_bit_identical_canonical_results():
    outputs = {}
    for name in backend_names():
        runner = ExperimentRunner(_small_config(backend=name))
        result = runner.run()
        assert runner.last_stats.backend == name
        outputs[name] = json.dumps(result.canonical_json_dict(), sort_keys=True)
    assert sorted(outputs) == list(ALL_BACKENDS)
    assert len(set(outputs.values())) == 1, "a backend diverged from the others"


def test_backend_map_trials_preserves_input_order():
    """Each yielded position names the record of the item at that position,
    every position exactly once, whatever order the pool finishes in."""
    items = [
        WorkItem.make("smoke", placer, trial, 0)
        for placer in ("random", "round-robin")
        for trial in (1, 0)
    ]
    pairs = list(create_backend("pool", workers=2).map_trials(items))
    assert sorted(position for position, _ in pairs) == list(range(len(items)))
    records = dict(pairs)
    assert [(records[i].placer, records[i].trial) for i in range(len(items))] == [
        (item.placer, item.trial) for item in items
    ]


# -------------------------------------------------------------------- cache
def test_store_round_trips_records_and_counts_stats(tmp_path):
    store = ResultStore(tmp_path, version="v1")
    key = store.key_for("smoke", "random", 0, 42, params={"n_vms": 4})
    assert store.get(key) is None
    record = run_trial("smoke", "random", 0, 0)
    store.put(key, record)
    assert store.get(key) == record
    assert len(store) == 1
    assert store.stats == {"hits": 1, "misses": 1, "stored": 1, "invalidated": 0}


def test_cache_key_digest_covers_every_component():
    base = dict(scenario="s", placer="p", trial=0, seed=1, version="v")
    digest = CacheKey.make(**base).digest()
    for change in (
        dict(scenario="s2"), dict(placer="p2"), dict(trial=1), dict(seed=2),
        dict(version="v2"), dict(params={"k": 1}),
    ):
        assert CacheKey.make(**{**base, **change}).digest() != digest


def test_code_version_change_invalidates_store(tmp_path):
    old = ResultStore(tmp_path, version="code-a")
    key = old.key_for("smoke", "random", 0, 42)
    old.put(key, run_trial("smoke", "random", 0, 0))

    new = ResultStore(tmp_path, version="code-b")
    assert new.get(new.key_for("smoke", "random", 0, 42)) is None
    assert len(new) == 0  # the old cell is invisible under the new version
    assert len(old) == 1


def _two_cell_pack(store):
    """Two cells in one pack: ``(keys, records, pack path)``."""
    keys = [store.key_for("smoke", "random", trial, 42) for trial in (0, 1)]
    records = [run_trial("smoke", "random", trial, 0) for trial in (0, 1)]
    return keys, records, store.put_many(zip(keys, records))


def _assert_re_put_wins(store, key, record):
    store.put(key, record)
    assert ResultStore(store.root, version=store.version).get(key) == record


def test_corrupt_cell_is_dropped_and_re_missed(tmp_path):
    """A torn line is a miss counted under ``invalidated``; its pack holds
    another good cell, so it is not deleted, and a re-put wins."""
    store = ResultStore(tmp_path, version="v1")
    (key, other), (record, other_record), path = _two_cell_pack(store)
    path.write_bytes(b"{not json\n" + path.read_bytes().splitlines(True)[1])
    assert store.get(key) is None
    assert store.stats["invalidated"] == 1
    assert path.exists() and store.get(other) == other_record
    _assert_re_put_wins(store, key, record)


def test_malformed_record_dict_is_a_miss_not_an_error(tmp_path):
    store = ResultStore(tmp_path, version="v1")
    (key, other), (record, other_record), path = _two_cell_pack(store)
    first, second = path.read_bytes().splitlines(True)
    digest, text, _ = first.decode().split("\t")
    payload = json.loads(text)
    payload["record"]["not_a_field"] = 1
    body = f"{digest}\t{json.dumps(payload)}".encode()
    path.write_bytes(b"%s\t%08x\n" % (body, zlib.crc32(body)) + second)
    assert store.get(key) is None  # treated as corruption, not fatal
    assert store.stats["invalidated"] == 1
    assert path.exists() and store.get(other) == other_record
    _assert_re_put_wins(store, key, record)


def test_code_version_is_stable_and_tracks_source_changes(tmp_path):
    assert code_version() == code_version()
    (tmp_path / "mod.py").write_text("x = 1\n")
    before = tree_digest(tmp_path)
    assert before == tree_digest(tmp_path)
    (tmp_path / "mod.py").write_text("x = 2\n")
    assert tree_digest(tmp_path) != before
    (tmp_path / "notes.txt").write_text("not source")
    assert tree_digest(tmp_path) == tree_digest(tmp_path)


def test_warm_run_executes_zero_trials_and_matches_cold(tmp_path, monkeypatch):
    def no_listing(store):
        raise AssertionError("a sweep must not list the store (O(cells) per cell)")

    monkeypatch.setattr(ResultStore, "__len__", no_listing)
    config = _small_config(workers=1, cache_dir=str(tmp_path))
    cold_runner = ExperimentRunner(config)
    cold = cold_runner.run()
    assert cold_runner.last_stats.executed == 4
    assert cold_runner.last_stats.cache_hits == 0
    # An empty store is still a store: every cold cell is looked up, and missed.
    assert cold_runner.store.stats["misses"] == 4

    warm_runner = ExperimentRunner(config)
    warm = warm_runner.run()
    assert warm_runner.last_stats.executed == 0
    assert warm_runner.last_stats.cache_hits == 4
    assert warm_runner.store.stats["hits"] == 4
    # Cached records carry the cold run's timings, so the full (not just
    # canonical) JSON is bit-identical.
    assert json.dumps(cold.to_json_dict(), sort_keys=True) == json.dumps(
        warm.to_json_dict(), sort_keys=True
    )


def test_grown_grid_only_executes_new_cells(tmp_path):
    small = _small_config(workers=1, trials=1, cache_dir=str(tmp_path))
    ExperimentRunner(small).run()
    grown = _small_config(workers=1, trials=2, cache_dir=str(tmp_path))
    runner = ExperimentRunner(grown)
    runner.run()
    assert runner.last_stats.cache_hits == 2  # trial 0 of both placers
    assert runner.last_stats.executed == 2  # only the new trial-1 cells


def test_error_records_are_cached_too(tmp_path):
    config = ExperimentConfig(
        scenarios=("smoke",), placers=("random",), trials=1, baseline="random",
        cache_dir=str(tmp_path), scenario_params={"smoke": {"n_vms": 1}},
    )
    first = ExperimentRunner(config)
    result = first.run()
    assert all(not rec.ok for rec in result.records)
    second = ExperimentRunner(config)
    rerun = second.run()
    assert second.last_stats.executed == 0
    assert [rec.error for rec in rerun.records] == [
        rec.error for rec in result.records
    ]


# ---------------------------------------------------------------------- CLI
def test_cli_run_reports_cache_resume(tmp_path, capsys):
    out = tmp_path / "results.json"
    args = [
        "run", "--scenario", "smoke", "--trials", "2", "--placers", "random",
        "--cache-dir", str(tmp_path / "store"), "--output", str(out),
    ]
    assert cli_main(args) == 0
    assert "executed 2 trial(s)" in capsys.readouterr().out
    assert cli_main(args) == 0
    assert "executed 0 trial(s)" in capsys.readouterr().out


def test_cli_no_cache_forces_execution(tmp_path, capsys):
    out = tmp_path / "results.json"
    args = [
        "run", "--scenario", "smoke", "--trials", "1", "--placers", "random",
        "--cache-dir", str(tmp_path / "store"), "--output", str(out),
    ]
    assert cli_main(args) == 0
    capsys.readouterr()
    assert cli_main(args + ["--no-cache"]) == 0
    assert "executed 1 trial(s)" in capsys.readouterr().out


def test_cli_run_jobs_picks_the_pool(tmp_path, capsys):
    out = tmp_path / "results.json"
    code = cli_main(
        ["run", "--scenario", "smoke", "--trials", "2", "--placers", "random",
         "--workers", "2", "--output", str(out)]
    )
    assert code == 0
    assert "backend pool: executed 2 trial(s)" in capsys.readouterr().out
    assert json.loads(out.read_text())["records"]


def test_cli_run_with_empty_output_writes_nothing(tmp_path, capsys, monkeypatch):
    """``--output ''`` disables the artifact, as the shared flag's help says."""
    monkeypatch.chdir(tmp_path)
    code = cli_main(
        ["run", "--scenario", "smoke", "--trials", "1", "--placers", "random",
         "--output", ""]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "backend inline: executed 1 trial(s)" in out
    assert "wrote" not in out
    assert list(tmp_path.iterdir()) == []


def test_config_rejects_non_scalar_param_values():
    with pytest.raises(ExperimentError):
        ExperimentConfig(
            scenarios=("smoke",),
            scenario_params={"smoke": {"n_vms": (4, 6)}},
        )


def test_cli_list_names_backends(capsys):
    assert cli_main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backends"] == list(ALL_BACKENDS)


# ---------------------------------------------------- trace-replay scenario
def test_trace_replay_scenario_profiles_apps_from_records():
    spec = get_scenario("ec2-trace-replay")
    first = spec.build(seed=11)
    second = spec.build(seed=11)
    assert first.mode == "service"
    assert len(first.apps) == 3
    # Profiling from records preserves the ground-truth traffic exactly
    # (record byte shares sum back to the matrix entries)...
    assert [app.traffic.total_bytes for app in first.apps] == pytest.approx(
        [app.traffic.total_bytes for app in second.apps]
    )
    # ...and the builder is seed-reproducible.
    assert [app.transfers() for app in first.apps] == [
        app.transfers() for app in second.apps
    ]
    assert all(app.total_cpu > 0 for app in first.apps)


def test_trace_replay_trial_runs_through_measure_and_place():
    params = {"n_vms": 8, "n_apps": 2, "records_per_pair": 3}
    record = run_trial("ec2-trace-replay", "greedy", 0, 0, params)
    assert record.ok, record.error
    assert record.measurement_overhead_s > 0  # greedy measured the network
    # Greedy colocates both applications: the first gives its cores back
    # before the second arrives, so nothing has to cross the network.
    instance = get_scenario("ec2-trace-replay").build(record.seed, **params)
    total_bytes = sum(app.total_bytes for app in instance.apps)
    assert record.network_bytes + record.colocated_bytes == pytest.approx(total_bytes)
    baseline = run_trial("ec2-trace-replay", "random", 0, 0, params)
    assert baseline.ok, baseline.error
    assert baseline.total_running_time_s > 0


# -------------------------------------------------- dropped-trials summary
def test_summary_surfaces_dropped_trials():
    def rec(placer, trial, total):
        return TrialRecord(
            scenario="s", placer=placer, trial=trial, seed=trial,
            total_running_time_s=total,
        )

    result = ExperimentResult(
        scenarios=["s"], placers=["round-robin", "random"], trials=3,
        base_seed=0, baseline="random",
        records=[
            rec("random", 0, 0.0), rec("round-robin", 0, 2.0),  # -inf: dropped
            rec("random", 1, 2.0), rec("round-robin", 1, 1.0),  # kept
            rec("round-robin", 2, 1.0),  # baseline missing: dropped
        ],
    )
    cell = result.summary()["s"]["round-robin"]
    assert cell["dropped_trials"] == 2
    assert cell["trials_ok"] == 3
    assert "dropped_trials" not in result.summary()["s"]["random"]

    clean = ExperimentResult(
        scenarios=["s"], placers=["round-robin", "random"], trials=1,
        base_seed=0, baseline="random",
        records=[rec("random", 0, 2.0), rec("round-robin", 0, 1.0)],
    )
    assert clean.summary()["s"]["round-robin"]["dropped_trials"] == 0


# ------------------------------------------------------ keep-going trials
def test_keep_going_captures_crashing_trial(monkeypatch):
    import repro.experiments.trials as trials_mod

    def boom(name):
        raise RuntimeError("synthetic bug")

    monkeypatch.setattr(trials_mod, "get_scenario", boom)
    record = run_trial("smoke", "random", 0, 0)
    assert record.status == "error"
    assert "RuntimeError: synthetic bug" in record.error

    with pytest.raises(RuntimeError):
        run_trial("smoke", "random", 0, 0, fail_fast=True)


def test_fail_fast_does_not_split_the_store_key():
    item = WorkItem.make("smoke", "random", 0, 0, fail_fast=True)
    # Error policy must not split the cache: items differing only in
    # fail_fast share a persistent-store key.
    store_fields = (item.scenario, item.placer, item.trial, item.seed)
    other = WorkItem.make("smoke", "random", 0, 0, fail_fast=False)
    assert store_fields == (other.scenario, other.placer, other.trial, other.seed)


def test_result_json_carries_top_level_dropped_trials():
    records = [
        TrialRecord(scenario="s", placer="random", trial=0, seed=1),
        TrialRecord(
            scenario="s", placer="random", trial=1, seed=2,
            status="error", error="RuntimeError: synthetic",
        ),
    ]
    result = ExperimentResult(
        scenarios=["s"], placers=["random"], trials=2,
        base_seed=0, baseline="random", records=records,
    )
    payload = result.to_json_dict()
    assert payload["dropped_trials"] == [
        {"scenario": "s", "placer": "random", "trial": 1,
         "error": "RuntimeError: synthetic"}
    ]
    assert result.canonical_json_dict()["dropped_trials"] == payload["dropped_trials"]
