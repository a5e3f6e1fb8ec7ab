"""Unified command-line surface: ``python -m repro``.

One top-level dispatcher with two subcommands —

* ``python -m repro experiments`` — scenario sweeps (§6 evaluation);
* ``python -m repro service``     — online placement over a drifting network;

each also reachable as ``python -m repro.experiments`` /
``repro.service`` (thin aliases over the same handlers).  The shared flags
are declared once, in :func:`common_parser`, and inherited by every
subcommand that takes them, so they spell and behave identically
everywhere:

* ``--seed N``     — base RNG seed; identical seeds reproduce identical runs;
* ``--jobs N``     — worker processes (``--workers`` is an accepted alias);
* ``--output PATH``— where the JSON artifact goes (``''`` disables it);
* ``--param KEY=VALUE`` — *builder* parameter override (scenario parameters
  for experiments, session parameters for the service); repeatable;
* ``--trace PATH`` / ``--log-level`` / ``-v`` — the observability flags
  (:func:`repro.obs.add_observability_flags`), on every subcommand that
  takes the common parent.

Parameter conventions (the one documented home):

* ``--param KEY=VALUE`` addresses the thing being built (a scenario, a
  churn session).  There is no placer name in it.
* ``--placer-param PLACER:KEY=VALUE`` addresses a placement algorithm's
  constructor (``ilp:time_limit_s=5``, ``greedy:cluster_threshold=64``).
  The placer name prefix is mandatory and aliases are accepted.

Both are parsed and validated by the helpers below; malformed input fails
with the expected shape and an example, never a stack trace.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional, Sequence

from repro.errors import ExperimentError, ReproError

__all__ = [
    "build_parser",
    "common_parser",
    "main",
    "parse_params",
    "parse_placer_params",
    "parse_value",
]


def parse_value(text: str):
    """Parse a flag value as bool, then int, then float, then string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def parse_params(
    items: Optional[Sequence[str]], flag: str = "--param"
) -> Dict[str, object]:
    """Parse repeated ``KEY=VALUE`` flags into a mapping.

    Raises:
        ExperimentError: on malformed input, naming the offending item and
            showing the expected shape.
    """
    params: Dict[str, object] = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ExperimentError(
                f"{flag} expects KEY=VALUE, got {item!r} "
                f"(e.g. {flag} n_machines=8)"
            )
        params[key.strip()] = parse_value(value.strip())
    return params


def parse_placer_params(
    items: Optional[Sequence[str]], flag: str = "--placer-param"
) -> Dict[str, Dict[str, object]]:
    """Parse repeated ``PLACER:KEY=VALUE`` flags into per-placer mappings.

    Placer names (aliases included) resolve through
    :func:`repro.experiments.placers.resolve_placer`, so the returned
    mapping is keyed by canonical registry names and unknown placers fail
    here with the full registry listing.

    Raises:
        ExperimentError: on malformed input or unknown placer names.
    """
    from repro.experiments.placers import resolve_placer

    params: Dict[str, Dict[str, object]] = {}
    for item in items or ():
        head, sep, assignment = item.partition(":")
        key, eq, value = assignment.partition("=")
        if not sep or not eq or not head.strip() or not key.strip():
            raise ExperimentError(
                f"{flag} expects PLACER:KEY=VALUE, got {item!r} "
                f"(e.g. {flag} ilp:time_limit_s=5); for scenario/session "
                f"parameters use --param KEY=VALUE instead"
            )
        placer = resolve_placer(head.strip()).name
        params.setdefault(placer, {})[key.strip()] = parse_value(value.strip())
    return params


def common_parser(
    *,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    output: Optional[str] = None,
    params: bool = False,
    placer_params: bool = False,
) -> argparse.ArgumentParser:
    """The shared argparse parent: one definition of the common flags.

    Each keyword enables a flag and supplies its subcommand default
    (``None`` leaves the flag out for subcommands it cannot apply to).
    Subcommands consume it via ``parents=[common_parser(...)]``, so help
    strings, types, and spellings cannot drift apart.
    """
    parent = argparse.ArgumentParser(add_help=False)
    if seed is not None:
        parent.add_argument(
            "--seed", type=int, default=seed,
            help="base RNG seed; identical seeds reproduce identical runs "
            f"(default {seed})",
        )
    if jobs is not None:
        parent.add_argument(
            "--jobs", "--workers", dest="jobs", type=int, default=jobs,
            metavar="N",
            help="worker processes (0 = one per grid cell, capped at CPU "
            f"count; --workers is an alias; default {jobs})",
        )
    if output is not None:
        parent.add_argument(
            "--output", default=output, metavar="PATH",
            help=f"where to write the JSON artifact ('' disables; "
            f"default {output!r})",
        )
    if params:
        parent.add_argument(
            "--param", action="append", metavar="KEY=VALUE",
            help="builder parameter override (scenario parameters for "
            "experiments, session parameters for the service); repeatable",
        )
    if placer_params:
        parent.add_argument(
            "--placer-param", action="append", metavar="PLACER:KEY=VALUE",
            help="per-placer construction override, e.g. ilp:time_limit_s=5 "
            "or greedy:cluster_threshold=64 (repeatable; aliases accepted)",
        )
    from repro import obs

    obs.add_observability_flags(parent)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` dispatcher over the two subsystems."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Choreo reproduction: network-aware task placement for cloud "
            "applications (IMC 2013)."
        ),
    )
    sub = parser.add_subparsers(dest="subsystem", required=True)

    from repro.experiments.cli import configure_parser as configure_experiments
    from repro.service.__main__ import configure_parser as configure_service

    configure_experiments(
        sub.add_parser(
            "experiments",
            help="scenario sweeps and the §6 evaluation grid",
            description="Choreo evaluation: scenario registry and "
            "experiment sweeps (§6).",
        )
    )
    configure_service(
        sub.add_parser(
            "service",
            help="online placement service over a drifting network",
            description="Online placement service: admit a stream of "
            "applications onto a time-varying cloud.",
        )
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro``; returns a process exit code."""
    from repro import obs

    args = build_parser().parse_args(argv)
    obs.apply_observability_args(args)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
