"""Command-line entry point: ``python -m repro.experiments``.

A thin alias for ``python -m repro experiments`` (see :mod:`repro.cli`,
which owns the shared ``--seed``/``--jobs``/``--output``/``--param``
flags).  Two commands:

* ``list`` — show the registered scenarios (and placers);
* ``run`` — sweep scenarios x placers, write structured JSON results, and
  print the per-scenario speedup-over-baseline summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.cli import common_parser, parse_params, parse_placer_params
from repro.errors import ExperimentError, ReproError
from repro.experiments.backends import backend_names
from repro.experiments.placers import placer_names
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import (
    DEFAULT_PLACERS,
    ExperimentConfig,
    ExperimentRunner,
)
from repro.experiments.scenarios import get_scenario, list_scenarios, scenario_names


def _resolve_scenarios(requested: Sequence[str]) -> List[str]:
    if not requested:
        raise ExperimentError("no scenario given; try --scenario smoke or 'all'")
    if list(requested) == ["all"]:
        return scenario_names()
    for name in requested:
        get_scenario(name)
    return list(requested)


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``list``/``run`` commands to ``parser``.

    Called both by :func:`repro.cli.build_parser` (for ``python -m repro
    experiments``) and by this module's own :func:`main` (for the
    ``python -m repro.experiments`` alias), so the two spellings cannot
    diverge.  Shared flags come from :func:`repro.cli.common_parser`.
    """
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list registered scenarios and placers")
    list_cmd.add_argument("--tag", help="only scenarios carrying this tag")
    list_cmd.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    list_cmd.set_defaults(handler=_cmd_list)

    run_cmd = sub.add_parser(
        "run",
        help="sweep scenarios x placers and save JSON",
        parents=[
            common_parser(
                seed=0, jobs=1, output="experiment_results.json",
                params=True, placer_params=True,
            )
        ],
    )
    run_cmd.add_argument(
        "--scenario", action="append", default=[], metavar="NAME",
        help="scenario to run (repeatable; 'all' runs every registered one)",
    )
    run_cmd.add_argument(
        "--placers", default=",".join(DEFAULT_PLACERS),
        help=f"comma-separated placer names (default: {','.join(DEFAULT_PLACERS)})",
    )
    run_cmd.add_argument("--trials", type=int, default=3)
    run_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=(
            "persistent result store: trials already computed there (by this "
            "exact code version) are not re-executed"
        ),
    )
    run_cmd.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir and execute every trial",
    )
    run_cmd.add_argument("--baseline", default="random")
    run_cmd.add_argument(
        "--fail-fast", action="store_true",
        help=(
            "abort the sweep on the first raising trial (default: capture "
            "it as a dropped trial and keep going)"
        ),
    )
    run_cmd.add_argument(
        "--stats", action="store_true",
        help="print the full telemetry snapshot (obs.metrics: store, "
        "allocator, fluid, measurement, sweep counters) after the run",
    )
    run_cmd.set_defaults(handler=_cmd_run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Choreo evaluation: scenario registry and experiment sweeps (§6).",
    )
    configure_parser(parser)
    return parser


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def _cmd_list(args: argparse.Namespace) -> int:
    specs = list_scenarios(tag=args.tag)
    if args.json:
        payload = {
            "scenarios": [
                {
                    "name": spec.name,
                    "description": spec.description,
                    "tags": list(spec.tags),
                    "params": dict(spec.defaults),
                }
                for spec in specs
            ],
            "placers": placer_names(),
            "backends": backend_names(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"{len(specs)} scenario(s):")
    for spec in specs:
        tags = f" [{', '.join(spec.tags)}]" if spec.tags else ""
        print(f"  {spec.name:<20}{tags}")
        print(f"      {spec.description}")
        if spec.defaults:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(spec.defaults.items()))
            print(f"      params: {rendered}")
    print(f"placers: {', '.join(placer_names())}")
    print(f"backends: {', '.join(backend_names())}")
    return 0


def _make_config(
    scenarios: Sequence[str],
    placers_csv: str,
    trials: int,
    seed: int,
    workers: int,
    baseline: str,
    param_items: Optional[Sequence[str]] = None,
    cache_dir: Optional[str] = None,
    placer_param_items: Optional[Sequence[str]] = None,
    fail_fast: bool = False,
) -> ExperimentConfig:
    placers = tuple(name.strip() for name in placers_csv.split(",") if name.strip())
    overrides = parse_params(param_items)
    scenario_params = {
        name: {
            key: value
            for key, value in overrides.items()
            if key in get_scenario(name).defaults
        }
        for name in scenarios
    }
    unused = set(overrides) - {
        key for params in scenario_params.values() for key in params
    }
    if unused:
        raise ExperimentError(
            f"--param key(s) {sorted(unused)} match no parameter of the "
            f"selected scenario(s) {list(scenarios)}"
        )
    return ExperimentConfig(
        scenarios=tuple(scenarios),
        placers=placers,
        trials=trials,
        base_seed=seed,
        baseline=baseline,
        workers=None if workers == 0 else workers,
        cache_dir=cache_dir,
        scenario_params=scenario_params,
        placer_params=parse_placer_params(placer_param_items),
        fail_fast=fail_fast,
    )


def _print_run_summary(result: ExperimentResult) -> None:
    summary = result.summary()
    for scenario in result.scenarios:
        print(f"scenario {scenario}:")
        for placer in result.placers:
            cell = summary[scenario][placer]
            if not cell.get("trials_ok"):
                print(f"  {placer:<12} all {cell['trials_failed']} trial(s) failed")
                continue
            line = (
                f"  {placer:<12} mean total running time "
                f"{cell['mean_total_running_time_s']:.1f}s"
            )
            speedup = cell.get(f"speedup_vs_{result.baseline}")
            if speedup:
                line += f", median speedup vs {result.baseline} {speedup['median_%']:.1f}%"
            if cell.get("mean_measurement_overhead_s"):
                line += f", measurement {cell['mean_measurement_overhead_s']:.0f}s"
            print(line)


def _cmd_run(args: argparse.Namespace) -> int:
    scenarios = _resolve_scenarios(args.scenario)
    config = _make_config(
        scenarios, args.placers, args.trials, args.seed, args.jobs,
        args.baseline, args.param,
        cache_dir=None if args.no_cache else args.cache_dir,
        placer_param_items=args.placer_param,
        fail_fast=args.fail_fast,
    )
    runner = ExperimentRunner(config)
    result = runner.run()
    path = result.save(args.output) if args.output else None
    _print_run_summary(result)
    stats = runner.last_stats
    # Printed even on fully-warm runs ("executed 0 trial(s)"), so cache
    # behaviour is observable without opening the JSON.
    line = f"backend {stats.backend}: executed {stats.executed} trial(s)"
    if config.cache_dir:
        line += f", {stats.cache_hits} cache hit(s) from {config.cache_dir}"
    print(line)
    if args.stats:
        if runner.store is not None:
            counters = runner.store.stats
            print(
                "store stats: "
                f"hits={counters['hits']} misses={counters['misses']} "
                f"stored={counters['stored']} invalidated={counters['invalidated']}"
            )
        from repro import obs

        print("telemetry snapshot:")
        for name, value in sorted(obs.metrics.snapshot().items()):
            print(f"  {name} = {value}")
    failed = [rec for rec in result.records if not rec.ok]
    if path is not None:
        print(f"wrote {len(result.records)} trial record(s) to {path}")
    if failed:
        where = f"; see 'error' fields in {path}" if path is not None else ""
        print(f"ERROR: {len(failed)} trial(s) failed{where}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``python -m repro.experiments``); exit code."""
    from repro import obs

    args = _build_parser().parse_args(argv)
    obs.apply_observability_args(args)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
