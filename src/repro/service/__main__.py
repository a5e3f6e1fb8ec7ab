"""Command-line entry point: ``python -m repro.service``.

A thin alias for ``python -m repro service`` (see :mod:`repro.cli`, which
owns the shared ``--seed``/``--output``/``--param`` flags).  Two commands:

* ``list`` — show the available drift generators and predictors;
* ``run`` — run one churn session (streaming admission over a drifting
  network) and, unless ``--no-oracle``, a paired oracle session on the same
  seed; prints per-application completion vs. the oracle and the predictor's
  regret, and writes the structured JSON report.

``run`` accepts the two unified parameter conventions: ``--param
KEY=VALUE`` overrides a session-builder parameter (same keys as the
dedicated flags: ``n_vms``, ``hours``, ``drift``, …), and ``--placer-param
PLACER:KEY=VALUE`` forwards constructor overrides to the selected
``--placer`` (e.g. ``ilp:time_limit_s=5``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.cli import common_parser, parse_params, parse_placer_params
from repro.errors import ReproError, ServiceError
from repro.service.forecast import PREDICTOR_NAMES
from repro.service.session import build_churn_session, run_churn_session
from repro.service.timeline import DEFAULT_EPOCH_S, DRIFT_NAMES, FAULT_NAMES

#: Session-builder keys overridable via ``--param`` (mirroring the dedicated
#: flags, whose argparse dests they share).
_SESSION_PARAM_KEYS = (
    "apps_per_hour",
    "drift",
    "drift_strength",
    "epoch_s",
    "fault_strength",
    "faults",
    "hours",
    "max_tasks",
    "n_vms",
)


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the ``list``/``run`` commands to ``parser``.

    Called both by :func:`repro.cli.build_parser` (``python -m repro
    service``) and by this module's own :func:`main` (``python -m
    repro.service``), so the two spellings cannot diverge.
    """
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list drift generators and predictors")
    list_cmd.set_defaults(handler=_cmd_list)

    run_cmd = sub.add_parser(
        "run",
        help="run one churn session",
        parents=[
            common_parser(
                seed=0, output="service_report.json",
                params=True, placer_params=True,
            )
        ],
    )
    run_cmd.add_argument("--hours", type=float, default=6.0,
                         help="admission horizon in epochs (default 6)")
    run_cmd.add_argument("--drift", default="random-walk", choices=DRIFT_NAMES)
    run_cmd.add_argument(
        "--drift-strength", type=float, default=None,
        help="generator knob (walk sigma / diurnal amplitude / flap fraction)",
    )
    run_cmd.add_argument(
        "--predictor", default="combined", choices=PREDICTOR_NAMES,
    )
    run_cmd.add_argument("--placer", default="greedy",
                         help="placer registry name (aliases accepted)")
    run_cmd.add_argument("--n-vms", type=int, default=8)
    run_cmd.add_argument("--apps-per-hour", type=float, default=1.5)
    run_cmd.add_argument("--max-tasks", type=int, default=6)
    run_cmd.add_argument("--epoch-s", type=float, default=DEFAULT_EPOCH_S,
                         help="epoch length in seconds (default: one hour)")
    run_cmd.add_argument(
        "--ttl-s", type=float, default=None,
        help="measurement-cache TTL (default: half an epoch)",
    )
    run_cmd.add_argument("--no-migrate", action="store_true",
                         help="disable §2.4 re-evaluation at epoch ticks")
    run_cmd.add_argument(
        "--no-oracle", action="store_true",
        help="skip the paired oracle session (no regret report)",
    )
    run_cmd.add_argument(
        "--timeline", default=None, metavar="PATH",
        help="replay a recorded timeline JSON (drift and faults) instead of "
             "generating one (overrides --drift and --faults)",
    )
    run_cmd.add_argument(
        "--save-timeline", default=None, metavar="PATH",
        help="write the session's (generated or loaded) timeline, drift and "
             "faults, to PATH",
    )
    run_cmd.add_argument(
        "--faults", default="none", choices=FAULT_NAMES,
        help="fault-timeline generator (default: none — no faults injected)",
    )
    run_cmd.add_argument(
        "--fault-strength", type=float, default=None,
        help="generator knob (preempted fraction / flappy fraction / "
             "per-pair loss probability)",
    )
    run_cmd.add_argument(
        "--telemetry", action="store_true",
        help="attach the opt-in telemetry block (metrics snapshot, wall "
        "clocks) to the JSON report; canonical forms drop it either way",
    )
    run_cmd.set_defaults(handler=_cmd_run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.service",
        description=(
            "Online placement service: admit a stream of applications onto "
            "a time-varying cloud, forecasting next-epoch rates with the "
            "paper's §6.1 predictors."
        ),
    )
    configure_parser(parser)
    return parser


def _cmd_list(args: argparse.Namespace) -> int:
    print("drift generators:", ", ".join(DRIFT_NAMES))
    print("predictors:      ", ", ".join(PREDICTOR_NAMES))
    print("fault generators:", ", ".join(FAULT_NAMES))
    print("(oracle reads true rates off the timeline; stale freezes the "
          "hour-0 profile)")
    return 0


def _apply_session_overrides(args: argparse.Namespace) -> None:
    """Fold ``--param KEY=VALUE`` overrides onto the dedicated flags."""
    overrides = parse_params(args.param)
    unknown = sorted(set(overrides) - set(_SESSION_PARAM_KEYS))
    if unknown:
        raise ServiceError(
            f"--param key(s) {unknown} are not session parameters; choose "
            f"from {list(_SESSION_PARAM_KEYS)} (placer constructor overrides "
            f"go through --placer-param PLACER:KEY=VALUE instead)"
        )
    for key, value in overrides.items():
        setattr(args, key, value)


def _resolve_placer_overrides(args: argparse.Namespace):
    """Return constructor overrides for the selected ``--placer``."""
    overrides = parse_placer_params(args.placer_param)
    if not overrides:
        return None
    from repro.experiments.placers import resolve_placer

    canonical = resolve_placer(args.placer).name
    stray = sorted(set(overrides) - {canonical})
    if stray:
        raise ServiceError(
            f"--placer-param given for {stray} but this session places with "
            f"--placer {canonical}; pass overrides for that placer only"
        )
    return overrides.get(canonical)


def _cmd_run(args: argparse.Namespace) -> int:
    _apply_session_overrides(args)
    placer_params = _resolve_placer_overrides(args)
    session_kwargs = dict(
        n_vms=args.n_vms,
        hours=args.hours,
        drift=args.drift,
        drift_strength=args.drift_strength,
        apps_per_hour=args.apps_per_hour,
        max_tasks=args.max_tasks,
        epoch_s=args.epoch_s,
        timeline_path=args.timeline,
        faults=args.faults,
        fault_strength=args.fault_strength,
    )
    if args.save_timeline:
        _, _, _, timeline = build_churn_session(args.seed, **session_kwargs)
        timeline.save(args.save_timeline)
        print(f"wrote timeline to {args.save_timeline}", file=sys.stderr)

    report = run_churn_session(
        args.seed,
        predictor=args.predictor,
        placer=args.placer,
        placer_params=placer_params,
        migrate=not args.no_migrate,
        ttl_s=args.ttl_s,
        telemetry=args.telemetry,
        **session_kwargs,
    )
    oracle = None
    if not args.no_oracle and args.predictor != "oracle":
        oracle = run_churn_session(
            args.seed,
            predictor="oracle",
            placer=args.placer,
            placer_params=placer_params,
            migrate=not args.no_migrate,
            ttl_s=args.ttl_s,
            **session_kwargs,
        )

    line = (
        f"session: {args.hours:g} epoch(s) of {args.epoch_s:g}s, drift "
        f"{args.drift}, predictor {args.predictor}, placer {args.placer}, "
        f"seed {args.seed}"
    )
    if args.timeline:
        line += f", timeline from {args.timeline}"
    elif args.faults != "none":
        line += f", faults {args.faults}"
    print(line)
    oracle_by_name = (
        {a.name: a for a in oracle.apps} if oracle is not None else {}
    )
    for outcome in report.apps:
        if outcome.status != "completed":
            print(f"  {outcome.name:<10} rejected ({outcome.error})")
            continue
        line = (
            f"  {outcome.name:<10} arrived {outcome.arrived_at:8.0f}s  "
            f"completed in {outcome.duration:9.1f}s"
        )
        ref = oracle_by_name.get(outcome.name)
        if ref is not None and ref.duration:
            line += (
                f"  (oracle {ref.duration:9.1f}s, "
                f"regret {100.0 * (outcome.duration / ref.duration - 1.0):+6.1f}%)"
            )
        if outcome.migrations:
            line += f"  [{outcome.migrations} migration(s)]"
        print(line)

    completed = report.completed()
    print(
        f"completed {len(completed)}/{len(report.apps)} app(s), "
        f"{len(report.migrations)} migration(s), "
        f"measured {report.measurement.get('pairs_measured', 0)} pair(s) in "
        f"{report.measurement.get('campaigns', 0)} campaign(s) "
        f"(reused {report.measurement.get('pairs_reused', 0)})"
    )
    if report.recovery:
        replaced = sum(1 for a in report.recovery if a.action == "re-placed")
        print(
            f"recovery: {len(report.recovery)} action(s), "
            f"{replaced} re-placement(s), "
            f"{report.measurement.get('pairs_degraded', 0)} degraded pair(s)"
        )
    payload = {"report": report.to_json_dict()}
    if completed:
        print(f"mean completion time: {report.mean_completion_time_s:.1f}s")
    if oracle is not None and completed and oracle.completed():
        regret = (
            report.mean_completion_time_s / oracle.mean_completion_time_s - 1.0
        )
        print(
            f"oracle mean completion time: "
            f"{oracle.mean_completion_time_s:.1f}s "
            f"-> mean regret {100.0 * regret:+.1f}%"
        )
        payload["oracle_report"] = oracle.to_json_dict()
        payload["mean_regret_vs_oracle"] = round(regret, 6)

    if args.output:
        Path(args.output).write_text(
            json.dumps(payload, indent=2, sort_keys=True)
        )
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``python -m repro.service``); exit code."""
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
