"""Tracked micro- and end-to-end benchmarks for the hot paths.

The §6 sweep bottoms out in two hot paths — the max-min allocator and the
fluid simulator's event loop — and the paper's pitch is that the measurement+placement cycle must finish
in about 90 seconds to be usable, so speed *is* fidelity here.  This
package times those paths A/B against their pre-optimisation reference
implementations (which remain in the tree behind switches) and emits a
``BENCH_*.json``-style report so wins are measurable and cannot silently
regress.

Run it with::

    python -m repro.bench            # full run, writes BENCH_hotpath.json
    python -m repro.bench --quick    # small sizes, for CI smoke

The process exits non-zero when any optimised path *disagrees* with its
reference (allocator rates, fluid timelines, experiment metrics) — correctness is checked on every benchmark run, speed is
reported.  See ``docs/performance.md`` for how to read the output.
"""

from repro.bench.benchmarks import (
    bench_allocator,
    bench_e2e_experiments,
    bench_fluid,
    bench_mesh,
    bench_sweep_resume,
    run_benchmarks,
)
from repro.bench.modes import reference_mode

__all__ = [
    "bench_allocator",
    "bench_e2e_experiments",
    "bench_fluid",
    "bench_mesh",
    "bench_sweep_resume",
    "reference_mode",
    "run_benchmarks",
]
