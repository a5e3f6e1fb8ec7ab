"""The placers of one trial share one scenario build.

:func:`run_trials` builds each trial's instance once and runs every placer
but the last on a copy of its provider (:meth:`CloudProvider.copy`).  These
tests hold that path to the one-build-per-cell path of :func:`run_trial`:
the pinned cell digests from a multi-placer sweep, every scenario and
placer record for record, a failing build, ``fail_fast``, and the copy's
state against a fresh build's.
"""

import hashlib
import json
import time

import numpy as np
import pytest

import repro.experiments.trials as trials_mod
from repro.cloud.registry import make_provider
from repro.core.measurement.orchestrator import NetworkMeasurer
from repro.experiments import (
    ExperimentConfig,
    ExperimentResult,
    ExperimentRunner,
    get_scenario,
    placer_names,
    run_trial,
    scenario_names,
)
import repro.experiments.scenarios as scenarios_mod
from repro.experiments.scenarios import ScenarioInstance, ScenarioSpec
from repro.experiments.trials import WorkItem, run_trials, trial_groups
from test_experiments import _GOLDEN_DIGESTS, _ILP_CELLS
from test_live_books import tenant_under_load

_ILP_PARAMS = {"ilp": {"time_limit_s": 60.0}}


def _canonical_records(records):
    """Records with host timings zeroed and solver-run stats dropped."""
    records = list(records)
    result = ExperimentResult(
        scenarios=sorted({rec.scenario for rec in records}),
        placers=sorted({rec.placer for rec in records} | {"random"}),
        trials=1, base_seed=0, baseline="random", records=records,
    )
    return json.dumps(result.canonical_json_dict()["records"], sort_keys=True)


# ------------------------------------------------- pinned digests, shared
@pytest.mark.parametrize("scenario", scenario_names())
def test_multi_placer_sweep_reproduces_the_pinned_cell_digests(scenario):
    """One sweep runs every pinned placer of a scenario on one build per
    trial; split per placer, its records hash to the single-placer pins."""
    placers = ("greedy", "random") + (
        ("ilp",) if (scenario, "ilp") in _ILP_CELLS else ()
    )
    config = ExperimentConfig(
        scenarios=(scenario,), placers=placers, trials=1, base_seed=0,
        workers=1, placer_params=_ILP_PARAMS if "ilp" in placers else {},
    )
    result = ExperimentRunner(config).run()
    assert all(rec.ok for rec in result.records)
    for placer in placers:
        # The pinned config of ``placer``: the baseline rides along.
        alone = (placer,) if placer == "random" else (placer, "random")
        split = ExperimentResult(
            scenarios=[scenario], placers=list(alone), trials=1, base_seed=0,
            baseline="random",
            records=[rec for rec in result.records if rec.placer in alone],
        )
        canonical = json.dumps(split.canonical_json_dict(), sort_keys=True)
        digest = hashlib.sha256(canonical.encode()).hexdigest()
        assert digest == _GOLDEN_DIGESTS[scenario, placer], placer


# ------------------------------------------ grouped == one build per cell
def _grid_items(scenario, fail_fast=False, params=None):
    return [
        WorkItem.make(
            scenario, placer, trial, 0, params,
            _ILP_PARAMS.get(placer), fail_fast=fail_fast,
        )
        for placer in placer_names()
        for trial in range(2)
    ]


@pytest.mark.parametrize("scenario", scenario_names())
def test_grouped_trials_equal_one_build_per_cell(scenario):
    _assert_grouped_equal_fresh(scenario)


def _assert_grouped_equal_fresh(scenario):
    """Run the grid of ``scenario`` both ways; return the grouped records."""
    items = _grid_items(scenario)
    grouped = dict(run_trials(items))
    assert sorted(grouped) == list(range(len(items)))
    fresh = [
        run_trial(
            item.scenario, item.placer, item.trial, item.base_seed,
            dict(item.params), dict(item.placer_params),
        )
        for item in items
    ]
    assert _canonical_records(grouped[i] for i in range(len(items))) == (
        _canonical_records(fresh)
    )
    return list(grouped.values())


def test_a_copy_runs_beside_another_tenant_as_a_fresh_build_does(monkeypatch):
    """Arrivals over the other tenant's flows, placer by placer: on the
    shared build's copies, every record is the one-build-per-cell one."""

    def build(seed):
        provider, cluster, apps, background = tenant_under_load(seed)
        return ScenarioInstance(provider, cluster, apps, background=background)

    name = "tenant-under-load"
    monkeypatch.setitem(
        scenarios_mod._REGISTRY, name, ScenarioSpec(name, "another tenant's flows", build)
    )
    records = _assert_grouped_equal_fresh(name)
    # Each application ran from its arrival: the last one lands at 400 s.
    assert all(
        rec.ok and len(rec.per_app_duration_s) == 3 and rec.makespan_s >= 400.0
        for rec in records
    )


def test_groups_are_trials_in_first_seen_order():
    items = _grid_items("smoke")
    groups = trial_groups(items)
    assert len(groups) == 2
    assert [items[i].trial for i in groups[0]] == [0] * len(placer_names())
    assert sorted(i for group in groups for i in group) == list(range(len(items)))
    order = [index for index, _ in run_trials(items[:4])]
    assert order == [i for group in trial_groups(items[:4]) for i in group]


def test_a_failing_build_fails_every_cell_of_its_trial_alike():
    items = _grid_items("smoke", params={"n_vms": 1})
    records = dict(run_trials(items))
    errors = {records[i].error for i in range(len(items))}
    assert all(not rec.ok for rec in records.values())
    assert len(errors) == 1 and "ExperimentError" in errors.pop()
    lone = run_trial("smoke", "greedy", 0, 0, {"n_vms": 1})
    assert records[0].error == lone.error
    # Under fail_fast a library error is still captured, as run_trial does.
    records = dict(run_trials(_grid_items("smoke", True, {"n_vms": 1})))
    assert all(not rec.ok for rec in records.values())


def test_fail_fast_raises_a_build_bug_and_keep_going_records_it(monkeypatch):
    build = ScenarioSpec.build

    def buggy(self, seed=0, **overrides):
        if self.name == "smoke":
            raise RuntimeError("synthetic build bug")
        return build(self, seed=seed, **overrides)

    monkeypatch.setattr(ScenarioSpec, "build", buggy)
    with pytest.raises(RuntimeError, match="synthetic build bug"):
        list(run_trials(_grid_items("smoke", fail_fast=True)))
    records = dict(run_trials(_grid_items("smoke")))
    assert {rec.error for rec in records.values()} == {
        "RuntimeError: synthetic build bug"
    }


def test_the_build_is_charged_evenly_to_its_trial(monkeypatch):
    build = ScenarioSpec.build

    def slow(self, seed=0, **overrides):
        time.sleep(0.06)
        return build(self, seed=seed, **overrides)

    monkeypatch.setattr(ScenarioSpec, "build", slow)
    items = [
        WorkItem.make("smoke", placer, 0, 0)
        for placer in ("random", "round-robin", "greedy")
    ]
    started = time.perf_counter()
    records = [record for _, record in run_trials(items)]
    elapsed = time.perf_counter() - started
    assert all(rec.trial_wall_s >= 0.02 for rec in records)
    assert sum(rec.trial_wall_s for rec in records) <= elapsed


def test_fail_fast_bug_in_a_placer_still_raises(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic placer bug")

    monkeypatch.setattr(trials_mod, "_run_session", boom)
    with pytest.raises(RuntimeError, match="synthetic placer bug"):
        list(run_trials(_grid_items("smoke", fail_fast=True)))


# ----------------------------------------------------------- the copy
#: Attributes a copy shares with its provider: never changed in place (a
#: VM-set change replaces the position caches, it does not edit them).
#: Everything else a provider holds must be copied, the bottlenecks that
#: campaigns fill in included.
_SHARED = {"params", "topology", "timeline", "_vm_position", "_vm_host"}
_COPIED = {
    "_rng", "_clock", "_vm_counter", "_vms", "_base_hose", "_hose_deviation",
    "_host_vms", "_used_hosts", "_free_hosts", "_bottleneck",
}


def test_every_provider_attribute_is_copied_or_shared_by_design():
    provider = make_provider("ec2", seed=1)
    provider.request_vms(3)
    provider.true_path_rates([vm.name for vm in provider.vms()])  # fills the caches
    assert set(vars(provider)) == _SHARED | _COPIED, (
        "classify each new CloudProvider attribute: copy it in copy(), or "
        "list it as shared and immutable here"
    )
    twin = provider.copy()
    for name in _SHARED:
        assert getattr(twin, name) is getattr(provider, name), name
    for name in _COPIED:
        value = getattr(provider, name)
        if isinstance(value, (int, float)):
            assert getattr(twin, name) == value, name
        else:
            assert getattr(twin, name) is not value, name


def _state(provider):
    return (
        provider._rng.bit_generator.state,
        provider.now,
        provider._vm_counter,
        list(provider._vms.values()),
        provider._base_hose,
        provider._hose_deviation,
        provider._host_vms,
        provider._used_hosts,
        provider._free_hosts,
    )


@pytest.mark.parametrize("scenario", ["smoke", "rack-hotspot", "service-churn"])
def test_a_used_copy_leaves_its_template_as_built(scenario):
    template = get_scenario(scenario).build(seed=11).provider
    fresh = get_scenario(scenario).build(seed=11).provider
    used = template.copy()
    assert _state(used) == _state(fresh)
    NetworkMeasurer(used).measure([vm.name for vm in used.vms()])
    used.advance_time(120.0)
    (extra,) = used.request_vms(1)
    used.release_vm(used.vms()[0].name)
    used.release_vm(extra.name)
    assert _state(used) != _state(fresh)
    assert _state(template) == _state(fresh)
    assert _state(template.copy()) == _state(fresh)
    # Same state, separate streams: a copy draws what the template would.
    twin = template.copy()
    draws = twin._rng.random(3)
    np.testing.assert_array_equal(draws, fresh._rng.random(3))
    np.testing.assert_array_equal(template._rng.random(3), draws)
