"""Exact-placer tests: the branch-and-bound search against brute force and
against the Appendix's two MILP linearisations (HiGHS; ``tests/oracles``),
graceful warm-start rejection, the time budget, solver stats plumbing,
placer aliases, and the rack-hotspot scenario's greedy gap."""

import importlib
import json
import math
import random
import time

import pytest

from repro.core.estimator import estimate_completion_time
from repro.core.measurement.orchestrator import MeasurementPlan, NetworkMeasurer
from repro.core.network_profile import NetworkProfile
from repro.core.placement import ilp
from repro.core.placement.base import ClusterState, Machine, cpu_feasible_machines
from repro.core.placement.greedy import GreedyPlacer, greedy_incumbent
from repro.core.placement.ilp import BruteForcePlacer, OptimalPlacer
from repro.errors import ExperimentError, PlacementError
from repro.experiments.cache import ResultStore
from repro.experiments.cli import main as cli_main
from repro.experiments.placers import canonical_placer_name, get_placer
from repro.experiments.runner import DEFAULT_PLACERS, ExperimentConfig
from repro.experiments.scenarios import get_scenario
from repro.experiments.trials import WorkItem, run_trial, trial_seed
from repro.units import GBITPS, GBYTE
from repro.workloads.application import Application, Task, TrafficMatrix


# ---------------------------------------------------------------------------
# Randomized instances
# ---------------------------------------------------------------------------
def _random_instance(rng: random.Random, uniform_rates: bool = False):
    n_tasks = rng.randint(2, 4)
    n_machines = rng.randint(2, 4)
    tasks = [
        Task(f"t{i}", rng.choice([0.5, 1.0, 2.0, 4.0])) for i in range(n_tasks)
    ]
    names = [t.name for t in tasks]
    traffic = TrafficMatrix()
    for i in range(n_tasks):
        for j in range(n_tasks):
            if i != j and rng.random() < 0.5:
                traffic.add(names[i], names[j], rng.uniform(0.05, 3.0) * GBYTE)
    app = Application("app", tasks, traffic)
    machines = [f"m{i}" for i in range(n_machines)]
    cluster = ClusterState(machines=[Machine(m, cores=4.0) for m in machines])
    if uniform_rates:
        profile = NetworkProfile.from_uniform_rate(machines, 0.5 * GBITPS)
    else:
        rates = {
            (a, b): rng.uniform(0.1, 1.0) * GBITPS
            for a in machines
            for b in machines
            if a != b
        }
        intra = math.inf if rng.random() < 0.5 else 4 * GBITPS
        profile = NetworkProfile(
            vms=machines, rates_bps=rates, intra_vm_rate_bps=intra
        )
    return app, cluster, profile


def _objective(placement, app, profile, model):
    return estimate_completion_time(placement.assignments, app, profile, model=model)


def _random_feasible_instance(rng: random.Random, uniform_rates: bool = False):
    """Redraw until the instance passes the basic CPU feasibility checks."""
    while True:
        app, cluster, profile = _random_instance(rng, uniform_rates=uniform_rates)
        total = sum(t.cpu_cores for t in app.tasks)
        if total <= cluster.total_available_cpu():
            return app, cluster, profile


def _symmetric_instance(rng: random.Random):
    """Identical machines *and* identical tasks: a mesh, a two-way star, or
    two groups of twins — rule 4's machine and task rules at once."""
    n_tasks = rng.randint(2, 5)
    cores = rng.choice([0.5, 1.0, 2.0])
    names = [f"t{i}" for i in range(n_tasks)]
    traffic = TrafficMatrix()
    shape = rng.choice(["mesh", "star", "groups"])
    out = rng.uniform(0.05, 3.0) * GBYTE
    back = rng.uniform(0.05, 3.0) * GBYTE
    if shape == "mesh":
        for a in names:
            for b in names:
                traffic.add(a, b, out)
    elif shape == "star":
        for leaf in names[1:]:
            traffic.add(names[0], leaf, out)
            traffic.add(leaf, names[0], back)
    else:
        half = n_tasks // 2
        for a in names[:half]:
            for b in names[half:]:
                traffic.add(a, b, out)
    app = Application("twins", [Task(name, cores) for name in names], traffic)
    machines = [f"m{i}" for i in range(rng.randint(2, 4))]
    size = rng.choice([2.0, 4.0])
    cluster = ClusterState(machines=[Machine(m, cores=size) for m in machines])
    profile = NetworkProfile.from_uniform_rate(
        machines, 0.5 * GBITPS,
        intra_vm_rate_bps=math.inf if rng.random() < 0.5 else 4 * GBITPS,
    )
    return app, cluster, profile


ILP_GRID = (
    "all-to-all", "bursty-mapreduce", "single-app-ec2",
    "partition-aggregate", "rack-hotspot",
)


def _grid_instances():
    """The instances ``benchmark/``'s ``sweep_paper`` hands the ``ilp``
    placer (base seed 0), and the same grid at base seed 1."""
    for base_seed in (0, 1):
        for scenario in ILP_GRID:
            for trial in (0, 1):
                instance = get_scenario(scenario).build(
                    seed=trial_seed(base_seed, scenario, trial)
                )
                (app,) = instance.apps
                profile = NetworkMeasurer(
                    instance.provider, MeasurementPlan(advance_clock=False)
                ).measure(
                    instance.cluster.machine_names(), background=instance.background
                )
                yield f"{scenario}/{base_seed}/{trial}", app, instance.cluster, profile


@pytest.fixture(scope="module")
def milp():
    """The HiGHS oracles (skips the test when scipy is not installed)."""
    return importlib.import_module("oracles.appendix_milp")


@pytest.mark.parametrize("model", ["hose", "pipe"])
def test_pruned_warm_milp_matches_brute_force_on_randomized_instances(
    model, monkeypatch
):
    """The search == brute force: >= 50 random instances per model, then 60
    symmetric ones searched cold (no greedy value to hide behind)."""
    rng = random.Random(42 if model == "hose" else 43)

    def check(app, cluster, profile, label):
        try:
            brute = BruteForcePlacer(model=model).place(app, cluster, profile)
        except PlacementError:
            with pytest.raises(PlacementError):
                OptimalPlacer(model=model).place(app, cluster, profile)
            return False  # CPU-infeasible draw
        placer = OptimalPlacer(model=model, mip_rel_gap=1e-9)
        optimal = placer.place(app, cluster, profile)
        assert placer.last_solve_stats["status"] == 0
        t_brute = _objective(brute, app, profile, model)
        t_optimal = _objective(optimal, app, profile, model)
        assert t_optimal == pytest.approx(t_brute, rel=1e-6, abs=1e-9), (
            f"{label}: search {t_optimal} != brute {t_brute}"
        )
        return True

    checked = 0
    attempts = 0
    while checked < 50 and attempts < 200:
        attempts += 1
        # Every third instance uses uniform rates, which makes machines
        # interchangeable and exercises the symmetry rule.
        app, cluster, profile = _random_instance(
            rng, uniform_rates=(attempts % 3 == 0)
        )
        checked += check(app, cluster, profile, f"instance {attempts}")
    assert checked == 50

    monkeypatch.setattr(ilp, "greedy_incumbent", lambda *args, **kwargs: None)
    for draw in range(60):
        app, cluster, profile = _symmetric_instance(rng)
        check(app, cluster, profile, f"symmetric {draw}")


@pytest.mark.parametrize("model", ["hose", "pipe"])
def test_sparse_matches_dense_formulation_objective(model, milp):
    """search == sparse MILP == dense MILP on randomized instances, and
    search == sparse MILP on the benchmark's ILP grid (all at gap 1e-9)."""
    rng = random.Random(7)
    for trial in range(8):
        app, cluster, profile = _random_feasible_instance(
            rng, uniform_rates=(trial % 4 == 0)
        )
        search = OptimalPlacer(model=model, mip_rel_gap=1e-9)
        sparse = milp.MilpPlacer(model=model, mip_rel_gap=1e-9)
        dense = milp.MilpPlacer(
            model=model, mip_rel_gap=1e-9, formulation="dense",
            warm_start=False, symmetry_breaking=False,
        )
        t_search = _objective(search.place(app, cluster, profile), app, profile, model)
        t_sparse = _objective(sparse.place(app, cluster, profile), app, profile, model)
        t_dense = _objective(dense.place(app, cluster, profile), app, profile, model)
        assert t_search == pytest.approx(t_sparse, rel=1e-6, abs=1e-9)
        assert t_sparse == pytest.approx(t_dense, rel=1e-6, abs=1e-9)
        assert sparse.last_solve_stats["n_vars"] <= dense.last_solve_stats["n_vars"]

    for label, app, cluster, profile in _grid_instances():
        search = OptimalPlacer(model=model, mip_rel_gap=1e-9)
        sparse = milp.MilpPlacer(model=model, mip_rel_gap=1e-9)
        t_search = _objective(search.place(app, cluster, profile), app, profile, model)
        t_sparse = _objective(sparse.place(app, cluster, profile), app, profile, model)
        assert search.last_solve_stats["status"] == sparse.last_solve_stats["status"] == 0
        assert t_search == pytest.approx(t_sparse, rel=1e-6, abs=1e-9), label


def _greedy_dead_end_instance():
    """Greedy colocates (a, b) on m1 by name tie-break, stranding c(4)."""
    app = Application(
        "trap",
        tasks=[Task("a", 1.0), Task("b", 1.0), Task("c", 4.0)],
        traffic=TrafficMatrix({("a", "b"): 1 * GBYTE}),
    )
    cluster = ClusterState(
        machines=[Machine("m1", cores=4.0), Machine("m2", cores=2.0)]
    )
    profile = NetworkProfile.from_uniform_rate(["m1", "m2"], 0.5 * GBITPS)
    return app, cluster, profile


def test_greedy_infeasible_warm_start_rejected_gracefully():
    app, cluster, profile = _greedy_dead_end_instance()
    with pytest.raises(PlacementError):
        GreedyPlacer().place(app, cluster, profile)
    assert greedy_incumbent(app, cluster, profile) is None

    placer = OptimalPlacer(mip_rel_gap=1e-9)
    placement = placer.place(app, cluster, profile)
    assert placement.machine_of("c") == "m1"
    assert placement.machine_of("a") == placement.machine_of("b") == "m2"
    stats = placer.last_solve_stats
    assert stats["warm_start_accepted"] is False
    assert stats["fallback_used"] is False


def test_warm_start_accepted_and_bound_recorded():
    rng = random.Random(3)
    app, cluster, profile = _random_feasible_instance(rng)
    placer = OptimalPlacer(mip_rel_gap=1e-9)
    placement = placer.place(app, cluster, profile)
    stats = placer.last_solve_stats
    assert stats["warm_start_accepted"] is True
    assert stats["warm_bound_s"] >= stats["objective_s"] - 1e-9
    assert placer.stats_history[-1][0] == app.name
    assert _objective(placement, app, profile, "hose") <= stats["warm_bound_s"] + 1e-9


def test_budget_expiry_returns_best_found_within_the_limit():
    """40 tasks x 32 VMs cannot be proven in 0.2 s: the search stops on
    time with a valid placement no worse than greedy's."""
    instance = get_scenario("bursty-mapreduce").build(
        seed=trial_seed(0, "bursty-mapreduce", 0),
        n_mappers=20, n_reducers=20, n_vms=32,
    )
    (app,) = instance.apps
    cluster = instance.cluster
    profile = NetworkMeasurer(
        instance.provider, MeasurementPlan(advance_clock=False)
    ).measure(cluster.machine_names())
    assert (len(app.tasks), len(cluster.machines)) == (40, 32)

    placer = OptimalPlacer(time_limit_s=0.2)
    # CPU time, not wall clock: the 0.2 s deadline is wall time, so on a busy
    # host the search gets fewer nodes, never more work — while the wall
    # clock around greedy + search + re-scoring stretches with the host.
    started = time.process_time()
    placement = placer.place(app, cluster, profile)  # validated inside
    assert time.process_time() - started < 1.0
    stats = placer.last_solve_stats
    assert stats["status"] == 1 and stats["mip_gap"] is None
    assert stats["mip_nodes"] >= ilp._CLOCK_EVERY
    t_greedy = _objective(greedy_incumbent(app, cluster, profile), app, profile, "hose")
    assert stats["objective_s"] <= t_greedy
    assert stats["objective_s"] == _objective(placement, app, profile, "hose")
    # fallback_used says whether that is still greedy's own placement.
    assert stats["fallback_used"] == (stats["objective_s"] == t_greedy)


def test_boolean_placer_params_parse_and_apply():
    from repro.experiments.cli import _parse_value

    assert _parse_value("false") is False
    assert _parse_value("True") is True
    assert _parse_value("3") == 3
    # The HiGHS-era switches are gone, not ignored.
    for gone in ("formulation", "warm_start", "symmetry_breaking", "candidate_k"):
        with pytest.raises(ExperimentError, match="unknown placer parameter"):
            get_placer("ilp").create(0, {gone: "sparse"})
        with pytest.raises(TypeError):
            OptimalPlacer(**{gone: None})


def test_cpu_feasible_machines_filters_by_free_cores():
    app = Application(
        "a", tasks=[Task("small", 1.0), Task("big", 4.0)], traffic=TrafficMatrix()
    )
    cluster = ClusterState(
        machines=[Machine("m1", cores=4.0), Machine("m2", cores=2.0)],
        cpu_used={"m1": 1.0},
    )
    feasible = cpu_feasible_machines(app, cluster)
    assert feasible["small"] == ["m1", "m2"]
    assert feasible["big"] == []


def test_fallback_or_raise_uses_incumbent_else_raises(monkeypatch):
    """A budget that expires before anything beats greedy returns greedy's
    placement and says so; with no greedy placement either, it raises."""
    rng = random.Random(5)
    while True:
        app, cluster, profile = _random_feasible_instance(rng)
        greedy = greedy_incumbent(app, cluster, profile)
        best = BruteForcePlacer().place(app, cluster, profile)
        if _objective(best, app, profile, "hose") < 0.9 * _objective(
            greedy, app, profile, "hose"
        ):
            break  # greedy leaves room, so the root has children to enter
    monkeypatch.setattr(ilp, "_CLOCK_EVERY", 1)  # read the clock at node one
    placer = OptimalPlacer(time_limit_s=1e-9)
    placement = placer.place(app, cluster, profile)
    assert placement.assignments == greedy.assignments
    stats = placer.last_solve_stats
    assert stats["fallback_used"] is True
    assert stats["status"] == 1 and stats["mip_gap"] is None

    monkeypatch.setattr(ilp, "greedy_incumbent", lambda *args, **kwargs: None)
    with pytest.raises(PlacementError, match="time limit"):
        OptimalPlacer(time_limit_s=1e-9).place(app, cluster, profile)


# ---------------------------------------------------------------------------
# Experiments integration
# ---------------------------------------------------------------------------
def test_placer_alias_resolution():
    assert canonical_placer_name("choreo-optimal") == "ilp"
    assert canonical_placer_name("choreo-greedy") == "greedy"
    assert get_placer("choreo-optimal").name == "ilp"
    config = ExperimentConfig(
        scenarios=("smoke",), placers=("choreo-optimal",), baseline="random"
    )
    assert config.placers == ("ilp",)


def test_ilp_in_default_placer_grid():
    assert "ilp" in DEFAULT_PLACERS


def test_placer_params_validated_and_keyed():
    with pytest.raises(ExperimentError):
        ExperimentConfig(
            scenarios=("smoke",),
            placers=("ilp",),
            placer_params={"ilp": {"not_a_param": 1}},
        )
    config = ExperimentConfig(
        scenarios=("smoke",),
        placers=("choreo-optimal",),
        placer_params={"choreo-optimal": {"time_limit_s": 5.0}},
    )
    assert config.placer_params == {"ilp": {"time_limit_s": 5.0}}
    # An alias and its canonical name both carrying params is ambiguous.
    with pytest.raises(ExperimentError):
        ExperimentConfig(
            scenarios=("smoke",),
            placers=("ilp",),
            placer_params={
                "choreo-optimal": {"time_limit_s": 5.0},
                "ilp": {"mip_rel_gap": 1e-2},
            },
        )

    store = ResultStore("/tmp/unused", version="v0")
    key_a = store.key_for("s", "ilp", 0, 1, placer_params={"time_limit_s": 5.0})
    key_b = store.key_for("s", "ilp", 0, 1, placer_params={"time_limit_s": 9.0})
    assert key_a.digest() != key_b.digest()

    item = WorkItem.make("s", "ilp", 0, 1, placer_params={"time_limit_s": 5.0})
    assert WorkItem.from_json_dict(item.to_json_dict()) == item


def test_trial_records_solver_stats_for_ilp():
    record = run_trial(
        "smoke", "ilp", 0, 0, placer_params={"time_limit_s": 5.0}
    )
    assert record.status == "ok"
    assert record.solver_stats
    stats = next(iter(record.solver_stats.values()))
    assert stats["warm_start_accepted"] in (True, False)
    assert stats["mip_gap"] == 0.0 and stats["status"] == 0
    assert stats["mip_nodes"] >= 1  # search nodes, the root included
    assert "formulation" not in stats and "n_vars" not in stats
    # The record survives a JSON round-trip with its stats intact.
    from dataclasses import asdict

    from repro.experiments.results import TrialRecord

    clone = TrialRecord(**json.loads(json.dumps(asdict(record))))
    assert clone.solver_stats == record.solver_stats


def test_rack_hotspot_greedy_leaves_rate_on_the_table():
    """On the hotspot scenario the exact placer strictly beats greedy."""
    greedy_rec = run_trial("rack-hotspot", "greedy", 0, 0)
    ilp_rec = run_trial(
        "rack-hotspot", "ilp", 0, 0, placer_params={"time_limit_s": 10.0}
    )
    assert greedy_rec.status == "ok" and ilp_rec.status == "ok"
    assert ilp_rec.total_running_time_s < 0.9 * greedy_rec.total_running_time_s
    stats = next(iter(ilp_rec.solver_stats.values()))
    assert stats["warm_start_accepted"] is True
    # The ILP's predicted objective improves on the greedy warm bound, i.e.
    # greedy's plan left rate on the table even under its own model.
    assert stats["objective_s"] < stats["warm_bound_s"] - 1e-6


def test_ilp_canonical_results_identical_across_backends():
    """solver_stats are modeled except solve_wall_s, which the canonical
    form strips — so ilp cells compare bit-identical across backends."""
    from repro.experiments.runner import ExperimentRunner

    def run(backend, workers):
        config = ExperimentConfig(
            scenarios=("smoke",), placers=("ilp",), trials=1,
            workers=workers, backend=backend,
            placer_params={"ilp": {"time_limit_s": 5.0}},
        )
        return ExperimentRunner(config).run().canonical_json_dict()

    inline = run("inline", 1)
    leased = run("remote", 2)
    assert json.dumps(inline, sort_keys=True) == json.dumps(leased, sort_keys=True)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_accepts_ilp_alias_and_placer_params(tmp_path, capsys):
    out = tmp_path / "results.json"
    code = cli_main(
        [
            "run", "--scenario", "smoke", "--trials", "1",
            "--placers", "choreo-optimal", "--baseline", "random",
            "--placer-param", "choreo-optimal:time_limit_s=5",
            "--output", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert set(data["placers"]) == {"ilp", "random"}
    ilp_records = [rec for rec in data["records"] if rec["placer"] == "ilp"]
    assert ilp_records and all(rec["solver_stats"] for rec in ilp_records)


def test_cli_cache_stats_flag(tmp_path, capsys):
    out = tmp_path / "results.json"
    store = tmp_path / "store"
    args = [
        "run", "--scenario", "smoke", "--trials", "1",
        "--placers", "greedy", "--cache-dir", str(store),
        "--cache-stats", "--output", str(out),
    ]
    assert cli_main(args) == 0
    cold = capsys.readouterr().out
    assert "executed 2 trial(s)" in cold
    assert "store stats: hits=0" in cold and "stored=2" in cold

    assert cli_main(args) == 0
    warm = capsys.readouterr().out
    # The executed line still prints on a fully-warm run, plus store stats.
    assert "executed 0 trial(s)" in warm
    assert "store stats: hits=2" in warm

    # --cache-stats is now a deprecated alias for --stats, so it works
    # without a store too: no store line, telemetry snapshot only.
    assert (
        cli_main(
            ["run", "--scenario", "smoke", "--trials", "1",
             "--placers", "greedy", "--cache-stats", "--output", str(out)]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "note: --cache-stats is deprecated" in captured.err
    assert "store stats:" not in captured.out
    assert "telemetry snapshot:" in captured.out


def test_cli_rejects_malformed_placer_param(tmp_path):
    code = cli_main(
        [
            "run", "--scenario", "smoke", "--trials", "1",
            "--placers", "greedy", "--placer-param", "nonsense",
            "--output", str(tmp_path / "r.json"),
        ]
    )
    assert code == 2
