"""Command-line entry point: ``python -m repro.bench``.

A thin alias for ``python -m repro bench`` (see :mod:`repro.cli`, which
owns the shared ``--seed``/``--output`` flags).  Runs the hot-path
benchmark suite, prints the JSON report, and writes it to a
``BENCH_*.json`` file.  Exits with status 1 when any optimised path
disagrees with its reference implementation, or when a full (non
``--quick``) run records a tracked speedup below its floor.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.bench.benchmarks import bench_names, run_benchmarks
from repro.cli import common_parser


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the bench flags (and handler) to ``parser``.

    Called both by :func:`repro.cli.build_parser` (``python -m repro
    bench``) and by this module's own :func:`main` (``python -m
    repro.bench``), so the two spellings cannot diverge.
    """
    # ``parents=`` only works at construction time; graft the shared parent
    # onto the existing parser the same way argparse itself does.
    parser._add_container_actions(common_parser(seed=0, output="BENCH_hotpath.json"))
    parser.add_argument(
        "--quick", action="store_true",
        help="small input sizes for CI smoke (correctness still verified)",
    )
    parser.add_argument(
        "--only", default=None, metavar="NAMES",
        help=f"comma-separated subset of benchmarks ({','.join(bench_names())})",
    )
    parser.set_defaults(handler=_cmd_bench)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description=(
            "Hot-path benchmarks: incremental allocator, fluid event loop, "
            "batched measurement mesh, and the "
            "experiments sweep end to end, each A/B'd against its "
            "reference implementation."
        ),
    )
    configure_parser(parser)
    return parser


def _cmd_bench(args: argparse.Namespace) -> int:
    only = (
        [name.strip() for name in args.only.split(",") if name.strip()]
        if args.only
        else None
    )
    try:
        payload = run_benchmarks(quick=args.quick, seed=args.seed, only=only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)

    if not payload["all_matched"]:
        mismatched = [
            name
            for name, entry in payload["benches"].items()
            if not entry["matched"]
        ]
        print(
            f"ERROR: optimised path(s) disagree with reference: {mismatched}",
            file=sys.stderr,
        )
        return 1
    targets = payload["targets"]
    if not targets.get("met", True):
        below = [
            f"{key}={targets[key]} < {floor}"
            for key, floor in (
                (k[: -len("_min")], v)
                for k, v in targets.items()
                if k.endswith("_min")
            )
            if (targets.get(key) or 0) < floor
        ]
        print(
            f"ERROR: tracked speedup(s) below floor: {below}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (``python -m repro.bench``); exit code."""
    from repro import obs

    args = _build_parser().parse_args(argv)
    obs.apply_observability_args(args)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
