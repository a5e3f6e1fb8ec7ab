"""`repro.obs` — the unified telemetry layer.

One import gives instrumented code everything it needs::

    from repro import obs

    with obs.span("alloc.solve", mode="vector", links=n):
        ...                      # traced when REPRO_TRACE / --trace is on

    hits = obs.Counter("repro.store.hits")   # always-on, ~dict-increment cost
    hits.inc()

    obs.metrics.snapshot()       # {"repro.store.hits": 1, ...}
    obs.metrics.prometheus_text()  # exposition for GET /metrics

Three pillars:

* **spans** (:mod:`repro.obs.trace`) — nested timing events flushed to a
  JSONL file, off by default, enabled via ``REPRO_TRACE=path``, the
  unified CLI's ``--trace``, or :func:`configure`;
* **metrics** (:mod:`repro.obs.metrics`) — typed Counter/Gauge/Histogram
  instruments owned by components, aggregated by the process-wide
  :data:`metrics` registry; the pre-existing ad-hoc ``.stats`` dicts are
  now thin views over these;
* **analysis** (:mod:`repro.obs.report`) — ``python -m repro.obs report
  trace.jsonl`` turns a trace into a self/cumulative-time profile tree.

Tracing is pure observation: results of traced runs are bit-identical
to untraced runs (see ``tests/test_obs.py`` and docs/observability.md).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry as metrics,
)
from repro.obs.trace import (
    TRACE_ENV,
    WORKER_ID_ENV,
    configure,
    enabled,
    point,
    span,
    trace_path,
)

__all__ = [
    "TRACE_ENV",
    "WORKER_ID_ENV",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metrics",
    "configure",
    "enabled",
    "point",
    "span",
    "trace_path",
    "setup_logging",
    "add_observability_flags",
    "apply_observability_args",
]

_LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"
_configured_logging = False


def setup_logging(level: int = logging.WARNING) -> None:
    """Attach one stderr handler to the ``repro`` logger tree.

    Idempotent: repeated calls only adjust the level, so library users
    who configured logging themselves are never double-handled.
    """
    global _configured_logging
    logger = logging.getLogger("repro")
    if not _configured_logging:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(_LOG_FORMAT))
        logger.addHandler(handler)
        logger.propagate = False
        _configured_logging = True
    logger.setLevel(level)


def add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """Attach ``--trace``/``--log-level``/``-v`` to a (sub)parser."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append span trace events (JSONL) to PATH; worker "
        "subprocesses inherit it via REPRO_TRACE and share the file "
        "(analyse with `python -m repro.obs report PATH`)",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=["debug", "info", "warning", "error"],
        help="logging threshold for the repro.* loggers "
        "(default warning; overrides -v)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise log verbosity (-v = info, -vv = debug)",
    )


def apply_observability_args(args: argparse.Namespace) -> None:
    """Act on the flags declared by :func:`add_observability_flags`.

    Tolerates namespaces missing the flags (subcommands that do not take
    them), so every CLI entry point can call this unconditionally.
    """
    level = getattr(args, "log_level", None)
    verbose = getattr(args, "verbose", 0)
    if level:
        setup_logging(getattr(logging, level.upper()))
    elif verbose >= 2:
        setup_logging(logging.DEBUG)
    elif verbose == 1:
        setup_logging(logging.INFO)
    else:
        setup_logging(logging.WARNING)
    trace = getattr(args, "trace", None)
    if trace:
        configure(trace_path=trace)
