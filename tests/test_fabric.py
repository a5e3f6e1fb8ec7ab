"""The ``pool`` backend: a stdlib process pool over trial groups — its
size, a ``fail_fast`` trial's error, and a worker killed mid-sweep (the
sweep fails by name, the store keeps what finished, a re-run resumes)."""

import concurrent.futures
import errno
import json
import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest

from helpers import arm_worker_chaos
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    ResultStore,
    WorkItem,
    create_backend,
    placer_names,
    scenario_names,
)
from repro.experiments.backends import _resolve_workers
from repro.experiments.placers import PLACER_ALIASES


def test_pool_is_sized_to_the_batch_not_the_hint(monkeypatch):
    """``--jobs 8`` with one pending trial cold-starts one interpreter, however
    many placers that trial has: a task never splits a trial."""
    sizes = []
    real = concurrent.futures.ProcessPoolExecutor

    def recording(max_workers, **kwargs):
        sizes.append(max_workers)
        return real(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
    items = [WorkItem.make("smoke", placer, 0, 0) for placer in ("greedy", "random")]
    assert len(list(create_backend("pool", workers=8).map_trials(items))) == 2
    assert sizes == [1]


def test_fail_fast_trial_error_ends_the_sweep_with_its_own_text():
    """A raising ``fail_fast`` trial is deterministic: the pool re-raises the
    child's exception, of the type and with the text inline raises."""
    items = [
        WorkItem.make("smoke", "random", trial, 0, params={"n_vms": "six"}, fail_fast=True)
        for trial in range(3)
    ]
    raised = {}
    for name in ("inline", "pool"):
        with pytest.raises(Exception) as excinfo:
            list(create_backend(name, workers=2).map_trials(items))
        raised[name] = (type(excinfo.value), str(excinfo.value))
    assert raised["pool"] == raised["inline"]
    assert raised["inline"][0] is ValueError


def _canonical(result):
    return json.dumps(result.canonical_json_dict(), sort_keys=True)


def test_chaos_crash_fails_the_sweep_by_name_and_a_rerun_resumes(tmp_path, monkeypatch):
    """One pool worker is killed after a finished group: the sweep raises
    naming the missing trials, the store holds every finished cell, and the
    re-run executes exactly the missing ones and equals inline."""

    def grid(**execution):
        return ExperimentConfig(
            scenarios=("smoke",), placers=("greedy", "random"), trials=4,
            baseline="random", **execution,
        )

    inline = ExperimentRunner(grid(workers=1)).run()
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    arm_worker_chaos(monkeypatch, chaos_dir)
    store = tmp_path / "store"
    # One worker runs the four trial groups in order; the chaos hook kills
    # it during its second, so the first group is the only one that finished.
    config = grid(workers=1, backend="pool", cache_dir=str(store))
    with pytest.raises(ExperimentError) as excinfo:
        ExperimentRunner(config).run()
    assert (chaos_dir / "chaos-fired").exists(), "crash chaos never armed"
    message = str(excinfo.value)
    assert "6 of 8 trial(s) missing" in message
    missing = WorkItem.make("smoke", "greedy", 1, 0)
    assert str(missing.trial_key) in message
    assert len(ResultStore(store)) == 2

    rerun = ExperimentRunner(config)
    resumed = rerun.run()
    assert (rerun.last_stats.executed, rerun.last_stats.cache_hits) == (6, 2)
    assert _canonical(resumed) == _canonical(inline)


# ------------------------------------------------- equivalence, cell by cell
def _canonical_record(record):
    return json.dumps(
        ExperimentResult(
            scenarios=[record.scenario], placers=[record.placer], trials=1,
            base_seed=0, baseline=record.placer, records=[record],
        ).canonical_json_dict()["records"],
        sort_keys=True,
    )


#: Every registered scenario under two placers, and every registered placer
#: on ``smoke``: one batch, so the pool cold-starts its children once.
EQUIVALENCE_ITEMS = list(
    dict.fromkeys(
        [WorkItem.make(name, placer, 0, 11) for name in scenario_names()
         for placer in ("greedy", "random")]
        + [WorkItem.make("smoke", placer, trial, 11) for placer in placer_names()
           for trial in (0, 1)]
    )
)


@pytest.fixture(scope="module")
def both_backends():
    """``{backend: {item: canonical record}}`` for :data:`EQUIVALENCE_ITEMS`."""
    runs = {}
    for name in ("inline", "pool"):
        pairs = list(create_backend(name, workers=2).map_trials(EQUIVALENCE_ITEMS))
        assert sorted(position for position, _ in pairs) == list(
            range(len(EQUIVALENCE_ITEMS))
        )
        runs[name] = {
            EQUIVALENCE_ITEMS[position]: _canonical_record(record)
            for position, record in pairs
        }
    return runs


def _cells(runs, predicate):
    chosen = [item for item in EQUIVALENCE_ITEMS if predicate(item)]
    assert chosen
    return {name: [runs[name][item] for item in chosen] for name in runs}


@pytest.mark.parametrize("scenario", scenario_names())
def test_a_pool_child_runs_every_scenario_as_inline_does(both_backends, scenario):
    """Each registered scenario's records cross the process boundary intact:
    pickled items in, pickled records out, equal to this process's run."""
    cells = _cells(both_backends, lambda item: item.scenario == scenario)
    assert cells["pool"] == cells["inline"]


@pytest.mark.parametrize("placer", placer_names())
def test_a_pool_child_runs_every_placer_as_inline_does(both_backends, placer):
    """Each registered placer, built in a child from its name and seed,
    decides as it does in this process."""
    cells = _cells(
        both_backends, lambda item: item.scenario == "smoke" and item.placer == placer
    )
    assert cells["pool"] == cells["inline"]
    assert all(json.loads(text)[0]["status"] == "ok" for text in cells["pool"])


# ------------------------------------------------------------- pool sizing
@pytest.mark.parametrize(
    "hint, n_groups, size",
    [
        (None, 1, 1),  # auto, one group: one child
        (None, 3, 3),  # auto, fewer groups than CPUs: one child a group
        (None, 50, 4),  # auto: capped by the CPU count
        (8, 2, 2),  # the hint never outgrows the batch
        (2, 9, 2),  # the batch never outgrows the hint
        (1, 9, 1),
    ],
)
def test_the_pool_size_is_the_hint_capped_by_the_groups(monkeypatch, hint, n_groups, size):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _resolve_workers(hint, n_groups) == size


def test_an_unknown_cpu_count_sizes_one_child(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _resolve_workers(None, 6) == 1


# ------------------------------------------------- a pool that loses groups
class _LosingPool:
    """A stand-in ``ProcessPoolExecutor`` run in this process: a group whose
    first trial is in ``lost`` fails as a dead child's does
    (``BrokenProcessPool``); every other group runs, as a child would."""

    lost = frozenset()
    sizes = []

    def __init__(self, max_workers, mp_context=None):
        _LosingPool.sizes.append(max_workers)
        self.shut_down = False

    def submit(self, fn, items):
        future = concurrent.futures.Future()
        if items[0].trial in self.lost:
            future.set_exception(BrokenProcessPool("a child process died"))
        else:
            future.set_result(fn(items))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


def _losing_pool(monkeypatch, lost):
    monkeypatch.setattr(_LosingPool, "lost", frozenset(lost))
    monkeypatch.setattr(_LosingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _LosingPool)


#: Five trials of two placers: five groups of two items, trial ``t`` at
#: positions ``2t`` and ``2t + 1``.
LOSS_ITEMS = [
    WorkItem.make("smoke", placer, trial, 0)
    for trial in range(5)
    for placer in ("greedy", "random")
]


@pytest.mark.parametrize(
    "lost",
    [(), (0,), (4,), (1, 3), (0, 1, 2, 3, 4)],
    ids=["none", "first", "last", "two", "all"],
)
def test_a_broken_pool_yields_what_finished_then_names_what_it_lost(monkeypatch, lost):
    _losing_pool(monkeypatch, lost)
    pairs = []
    backend = create_backend("pool", workers=2)
    if lost:
        with pytest.raises(ExperimentError) as excinfo:
            pairs.extend(backend.map_trials(LOSS_ITEMS))
    else:
        pairs.extend(backend.map_trials(LOSS_ITEMS))
    finished = [i for i, item in enumerate(LOSS_ITEMS) if item.trial not in lost]
    assert sorted(position for position, _ in pairs) == finished
    for position, record in pairs:
        item = LOSS_ITEMS[position]
        assert (record.placer, record.trial, record.seed) == (
            item.placer, item.trial, item.seed
        )
    assert _LosingPool.sizes == [2]
    if not lost:
        return
    missing = [item for item in LOSS_ITEMS if item.trial in lost]
    message = str(excinfo.value)
    assert f"{len(missing)} of {len(LOSS_ITEMS)} trial(s) missing" in message
    named = ", ".join(str(item.trial_key) for item in missing[:3])
    more = f" and {len(missing) - 3} more" if len(missing) > 3 else ";"
    assert named + more in message
    assert "--cache-dir" in message


@pytest.mark.parametrize(
    "lost", [(0,), (1, 2), (0, 1, 2)], ids=["one", "two", "all"]
)
def test_the_runner_stores_what_a_broken_pool_finished(tmp_path, monkeypatch, lost):
    """The store takes salvage's job: what finished is stored before the
    error leaves the runner, and the re-run executes only what was lost."""

    def grid(**execution):
        return ExperimentConfig(
            scenarios=("smoke",), placers=("greedy", "random"), trials=3,
            baseline="random", **execution,
        )

    inline = ExperimentRunner(grid(workers=1)).run()
    _losing_pool(monkeypatch, lost)
    config = grid(workers=2, cache_dir=str(tmp_path))
    with pytest.raises(ExperimentError, match=f"{2 * len(lost)} of 6 trial"):
        ExperimentRunner(config).run()
    assert len(ResultStore(tmp_path)) == 6 - 2 * len(lost)

    _losing_pool(monkeypatch, ())
    rerun = ExperimentRunner(config)
    resumed = rerun.run()
    assert (rerun.last_stats.executed, rerun.last_stats.cache_hits) == (
        2 * len(lost), 6 - 2 * len(lost)
    )
    assert _canonical(resumed) == _canonical(inline)


# ------------------------------------------------------------- the CLI's --jobs
@pytest.mark.parametrize(
    "jobs, backend, size",
    [("1", "inline", None), ("2", "pool", 2), ("0", "pool", 3), ("5", "pool", 3)],
)
def test_jobs_picks_the_backend_and_sizes_the_pool(monkeypatch, capsys, jobs, backend, size):
    """``--jobs 1`` runs inline; anything else runs the pool, sized by the
    hint (``0``: the CPU count) and capped by the three trials."""
    from repro.experiments.cli import main

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    _losing_pool(monkeypatch, ())
    assert main([
        "run", "--scenario", "smoke", "--placers", "greedy,random",
        "--trials", "3", "--jobs", jobs, "--output", "",
    ]) == 0
    assert f"backend {backend}: executed 6 trial(s)" in capsys.readouterr().out
    assert _LosingPool.sizes == ([] if size is None else [size])


def test_a_negative_job_count_is_refused(capsys):
    from repro.experiments.cli import main

    assert main(["run", "--scenario", "smoke", "--jobs", "-2", "--output", ""]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err


# ----------------------------------------------------- what the config refuses
@pytest.mark.parametrize(
    "overrides, complaint",
    [
        ({"scenarios": ()}, "at least one scenario"),
        ({"trials": 0}, "trials must be >= 1"),
        ({"workers": 0}, "workers must be >= 1"),
        ({"backend": "remote"}, "unknown backend 'remote'"),
        ({"scenarios": ("no-such-scenario",)}, "unknown scenario 'no-such-scenario'"),
        ({"placers": ("greedy", "no-such-placer")}, "unknown placer 'no-such-placer'"),
        ({"baseline": "no-such-placer"}, "unknown placer 'no-such-placer'"),
        ({"scenario_params": {"smoke": {"n_racks": 2}}}, "has no parameters ['n_racks']"),
        (
            {"placer_params": {"ilp": {"time_limit_s": [1.0]}}},
            "placer_params['ilp']['time_limit_s'] is list",
        ),
        (
            {"placer_params": {"ilp": {"time_limit_s": 1.0},
                               "optimal": {"time_limit_s": 2.0}}},
            "placer_params given twice for 'ilp'",
        ),
    ],
    ids=[
        "no-scenario", "no-trial", "no-worker", "deleted-backend", "scenario-typo",
        "placer-typo", "baseline-typo", "scenario-param-typo", "non-scalar-param",
        "params-via-alias",
    ],
)
def test_the_config_refuses_a_bad_grid_by_name(overrides, complaint):
    """Every refusal happens in this process, before any child starts, and
    names what it refuses."""
    settings = dict(scenarios=("smoke",), placers=("greedy", "random"), trials=1)
    settings.update(overrides)
    with pytest.raises(ExperimentError) as excinfo:
        ExperimentConfig(**settings)
    assert complaint in str(excinfo.value)


@pytest.mark.parametrize("alias", sorted(PLACER_ALIASES))
def test_an_alias_next_to_its_registry_name_is_a_repeat(alias):
    canonical = PLACER_ALIASES[alias]
    with pytest.raises(ExperimentError, match=f"placer {canonical!r} is listed more"):
        ExperimentConfig(scenarios=("smoke",), placers=(canonical, alias))


def test_a_baseline_alias_joins_the_grid_once():
    config = ExperimentConfig(
        scenarios=("smoke",), placers=("greedy", "choreo-optimal"), baseline="optimal"
    )
    assert config.effective_placers == ("greedy", "ilp")


# ------------------------------------------------ items pickled to a child
@pytest.mark.parametrize("value", [None, True, 3, 2.5, "x"], ids=repr)
def test_a_work_item_reaches_a_child_unchanged(value):
    """Items cross to a ``spawn`` child by pickle: each JSON scalar keeps its
    type (``True`` does not become ``1``), so the child runs the cell, and
    the parent stores it, under the key the item had."""
    item = WorkItem.make(
        "smoke", "ilp", 2, 7, params={"k": value},
        placer_params={"time_limit_s": value}, fail_fast=True,
    )
    copy = pickle.loads(pickle.dumps(item))
    assert copy == item and hash(copy) == hash(item)
    assert [type(v) for _, v in copy.params + copy.placer_params] == [type(value)] * 2
    assert (copy.trial_key, copy.instance_key, copy.seed) == (
        item.trial_key, item.instance_key, item.seed
    )
    assert copy.fail_fast is True


# ----------------------------------------------------- real pools, end to end
def _grid(**execution):
    return ExperimentConfig(
        scenarios=("smoke",), placers=("greedy", "random"), trials=2,
        baseline="random", **execution,
    )


def test_pool_workers_populate_the_shared_store(tmp_path):
    """A ``--jobs 2`` sweep stores every cell in one pack of the parent's;
    an inline sweep on the same store then executes nothing."""
    inline = ExperimentRunner(_grid(workers=1)).run()
    pooled = ExperimentRunner(_grid(workers=2, cache_dir=str(tmp_path)))
    assert _canonical(pooled.run()) == _canonical(inline)
    assert pooled.last_stats.executed == 4
    assert len(list(tmp_path.glob("*/packs/*.jsonl"))) == 1
    warm = ExperimentRunner(_grid(workers=1, cache_dir=str(tmp_path)))
    assert _canonical(warm.run()) == _canonical(inline)
    assert (warm.last_stats.executed, warm.last_stats.cache_hits) == (0, 4)


def test_a_pool_sweep_whose_store_is_full_still_finishes(tmp_path, monkeypatch):
    """The parent stores the pool's records; a store out of space costs the
    sweep nothing and leaves no pack and no temporary file."""

    def no_space(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    inline = ExperimentRunner(_grid(workers=1)).run()
    monkeypatch.setattr(os, "fsync", no_space)
    runner = ExperimentRunner(_grid(workers=2, cache_dir=str(tmp_path)))
    assert _canonical(runner.run()) == _canonical(inline)
    assert runner.last_stats.backend == "pool"
    assert runner.store.stats["stored"] == 0
    assert list(tmp_path.rglob("*.jsonl")) == list(tmp_path.rglob("*.tmp")) == []


def test_a_kept_going_error_crosses_from_a_child_as_inline_records_it():
    """Without ``fail_fast`` a raising trial is a record, not an exception:
    the child's error record equals inline's, text and all."""
    items = [
        WorkItem.make("smoke", placer, 0, 0, params={"n_vms": "six"})
        for placer in ("greedy", "random")
    ] + [WorkItem.make("smoke", "random", 1, 0)]
    runs = {
        name: dict(create_backend(name, workers=2).map_trials(items))
        for name in ("inline", "pool")
    }
    assert {i: _canonical_record(r) for i, r in runs["pool"].items()} == {
        i: _canonical_record(r) for i, r in runs["inline"].items()
    }
    assert [runs["pool"][i].status for i in range(3)] == ["error", "error", "ok"]
    assert runs["pool"][0].error.startswith("ValueError: ")
