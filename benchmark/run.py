#!/usr/bin/env python3
"""The repository's benchmark: one command, four workloads.

Two modes share one protocol.

*One run* — what the benchmark driver calls, and what the suite spawns::

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process, checks its outputs, and prints as its
last line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  The line before it (``detail {...}``) carries the
result digest, the per-op samples and the host facts.

*The suite* — for people::

    python3 benchmark/run.py --seed 0 [--repeats 3] [--workload NAME]
        [--no-trace] [--quick] [--out PATH] [--history PATH]

runs every workload ``--repeats`` times untraced plus once traced, each in
its own fresh single-threaded child process, strictly one at a time, and
prints every metric by name with its unit, its min/median/max over the
repeats and its spread against its bound.

``--manifest`` prints ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"

#: One thread per child: BLAS pools would measure the scheduler.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}

#: An op is sized to about this long on the 2-core reference host;
#: ``--seconds`` buys ``seconds // OP_SECONDS`` ops (at least one).
OP_SECONDS = 15
#: Set-ups built and thrown away before the first op, so that ``setup_s``
#: is a median of at least three.
EXTRA_SETUPS = 2


class HostSpeed:
    """Times a fixed kernel on a timer; turns host seconds into reference seconds.

    The reference host's speed shifts by up to 1.5x for seconds to minutes
    at a time (README, "Noise"), which no statistic over one run's ops can
    remove.  So every ``INTERVAL_S`` a timer signal interrupts whatever the
    process is doing and times a fixed few milliseconds of interpreter work;
    the stretch of host time since the previous tick then counts as
    ``stretch x REFERENCE_KERNEL_S / kernel seconds`` reference-host seconds,
    and the kernel's own time counts as nothing.  The kernel lives here, so
    no change to the program can move it.
    """

    INTERVAL_S = 0.1
    #: What the kernel takes on the reference host while it is quiet.
    REFERENCE_KERNEL_S = 0.00275

    def __init__(self):
        self.ticks: list = []  # (started, ended) of every kernel run
        self._table: dict = {}
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def tick(self, *_signal_args) -> None:
        if self._busy:  # the timer fired inside a tick made by hand
            return
        self._busy = True
        table, total = self._table, 0
        started = time.perf_counter()
        for i in range(30_000):
            total += i * i % 7
            table[i & 1023] = total
        self.ticks.append((started, time.perf_counter()))
        self._busy = False

    def reference_seconds(self, start: float, end: float) -> float:
        """``[start, end]`` less the kernel's time, each stretch scaled by
        the speed the tick that ends it measured (the last stretch: by the
        next tick, or the last one there is)."""
        total, since, speed = 0.0, start, 1.0
        for began, ended in self.ticks:
            if ended <= start:
                continue
            speed = self.REFERENCE_KERNEL_S / (ended - began)
            if began >= end:
                break
            total += max(0.0, began - since) * speed
            since = ended
        return total + max(0.0, end - since) * speed

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]``."""
        return self.reference_seconds(start, end) / (end - start)


WORKLOAD_NAMES = ("pipeline_dc", "sweep_paper", "churn_day", "fluid_giant")

#: Bounds are shares of the parent's median.  The timing bounds sit at the
#: contract's ceiling because the reference host's speed wanders (README,
#: "Noise"); the simulated and memory metrics are bounded by their spread
#: across seeds.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "decision_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "sim_completion_s", "unit": "sim_s", "better": "lower", "bound": 0.25},
]


def manifest() -> dict:
    import layers
    from workloads import WORKLOADS

    return {
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": OP_SECONDS,
        "workloads": [
            {"name": name, "why": WORKLOADS[name].why} for name in WORKLOAD_NAMES
        ],
        "end_to_end": END_TO_END,
        "per_layer": [
            {
                "name": name, "unit": layers.unit_of(name),
                "better": "higher" if name in HIGHER_IS_BETTER else "lower",
            }
            for name in layers.metric_names()
        ],
    }


#: Per-layer metrics that read better when larger; everything else is a
#: cost (time, calls, retries) or a fidelity count that should not move.
HIGHER_IS_BETTER = {
    "bench.span_coverage_frac",
    "experiments.choreo_gain_pct",
    "experiments.cache.hits",
    "experiments.runner.cache_hits",
    "net.topology.cache_hits",
    "net.topology.structured_hits",
    "service.cache.pairs_reused",
    "service.cache.reuse_ratio",
}


def host_facts() -> dict:
    import numpy
    import scipy

    def git(*command: str) -> str:
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), *command],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    # A driver's checkout is not a repository: the commit is then unknown.
    commit = git("rev-parse", "--short", "HEAD") or "unknown"
    if git("status", "--porcelain"):
        commit += "+dirty"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit,
    }


# ----------------------------------------------------------------- one run
def run_one(args) -> int:
    """One workload in this process; see the module docstring."""
    os.environ.update(THREAD_ENV)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    speed = HostSpeed()
    speed.start()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import layers
        import workloads
        from spans import SpanRecorder
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START

    workload = workloads.WORKLOADS[args.workload](quick=args.quick)
    ops = max(1, int(args.seconds // OP_SECONDS))
    recorder = tracer = None
    stage = workloads.no_stage
    if args.trace:
        recorder = SpanRecorder()
        tracer = layers.LayerTracer(recorder, args.workload)
        tracer.install()
        stage = recorder.span

    setup_samples, samples, results, problems = [], [], [], []
    attempted = failed = 0
    layer_counts: dict = {}
    setup_scale = None

    def fresh_inputs(k: int):
        started = time.perf_counter()
        inputs = workload.setup(args.seed, k, stage)
        setup_samples.append(time.perf_counter() - started)
        return inputs

    for _ in range(EXTRA_SETUPS):
        workload.cleanup(fresh_inputs(0))
    if tracer is not None:
        tracer.start_ops()
    for k in range(ops):
        inputs = fresh_inputs(k)
        try:
            speed.tick()
            if recorder is not None:
                recorder.op = k
            started = time.perf_counter()
            if setup_scale is None:
                setup_scale = speed.scale(_PROCESS_START, started)
            with stage("op"):
                out = workload.run(inputs, stage)
            ended = time.perf_counter()
            if recorder is not None:
                recorder.op = None
            speed.tick()
            n, bad, broken = workload.check(inputs, out)
            attempted, failed = attempted + n, failed + bad
            problems.extend(f"op {k}: {text}" for text in broken)
            # Decisions the program timed itself are scaled by the speed of
            # the window they were made in, which also takes out the share
            # of them the kernel interrupted.
            measured = workload.metrics(out)
            samples.append({
                "raw_wall_s": ended - started,
                "wall_s": speed.reference_seconds(started, ended),
                "raw_decision_s": measured["decision_s"],
                "decision_s": measured["decision_s"]
                * speed.scale(*measured["decision_window"]),
                "sim_completion_s": measured["sim_completion_s"],
            })
            results.append(workload.result(out))
            for name, value in workload.layer_counts(inputs, out).items():
                layer_counts[name] = layer_counts.get(name, 0.0) + value / ops
        finally:
            workload.cleanup(inputs)
    speed.stop()
    if tracer is not None:
        tracer.uninstall()
    try:
        workloads.TMP_ROOT.rmdir()
    except OSError:
        pass

    def median(key: str) -> float:
        return statistics.median(sample[key] for sample in samples)

    if tracer is None:
        values = {
            "setup_s": (import_s + statistics.median(setup_samples)) * setup_scale,
            "wall_s": median("wall_s"),
            "decision_s": median("decision_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_completion_s": median("sim_completion_s"),
        }
        metrics = {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in END_TO_END
        }
    else:
        raw_wall_s = sum(sample["raw_wall_s"] for sample in samples)
        values = tracer.layer_metrics(
            ops=ops, setups=len(setup_samples), traced_wall_s=raw_wall_s,
            host_speed=sum(sample["wall_s"] for sample in samples) / raw_wall_s,
            cpu_s=time.process_time(), workload_counts=layer_counts,
        )
        metrics = {
            name: {"value": values[name], "unit": layers.unit_of(name)}
            for name in layers.metric_names()
        }
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write_jsonl(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")

    for text in problems:
        print(f"check failed: {text}", file=sys.stderr)
    detail = {
        "workload": args.workload, "seed": args.seed, "ops": ops,
        "quick": args.quick, "trace": args.trace,
        "result_digest": workloads.digest(results),
        "import_s": import_s, "setup_samples_s": setup_samples,
        "setup_scale": setup_scale,
        "ticks_s_ms": [
            [round(a - _PROCESS_START, 4), round(1e3 * (b - a), 3)] for a, b in speed.ticks
        ],
        "samples": samples, "problems": problems, "host": host_facts(),
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


# --------------------------------------------------------------- the suite
def spawn(workload: str, args, trace: int) -> dict:
    """Run one child to completion and parse its two result lines."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(
        command, cwd=ROOT, env={**os.environ, **THREAD_ENV},
        capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail "):
        raise SystemExit(f"{workload} (trace {trace}) failed with code {done.returncode}")
    return {**json.loads(lines[-1]), "detail": json.loads(lines[-2][len("detail "):])}


def spread(values) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_suite(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    report = {
        "seed": args.seed, "seconds": args.seconds, "repeats": args.repeats,
        "quick": args.quick, "end_to_end": END_TO_END, "workloads": {},
    }
    ok = True
    for name in names:
        runs = [spawn(name, args, trace=0) for _ in range(args.repeats)]
        report["host"] = runs[0]["detail"]["host"]
        digests = {run["detail"]["result_digest"] for run in runs}
        entry = {
            "attempted": runs[0]["attempted"],
            "failed": max(run["failed"] for run in runs),
            "correct": all(run["correct"] for run in runs),
            "result_digest": sorted(digests)[0],
            "end_to_end": {},
        }
        print(f"\n== {name}: {entry['attempted']} ops attempted, "
              f"{entry['failed']} failed, digest {entry['result_digest'][:12]}")
        print(f"  {'metric':<18}{'unit':<5}{'min':>12}{'median':>12}{'max':>12}"
              f"{'spread':>9}{'bound':>7}")
        for spec in END_TO_END:
            values = [run["metrics"][spec["name"]]["value"] for run in runs]
            entry["end_to_end"][spec["name"]] = {
                "unit": spec["unit"], "values": values,
                "median": statistics.median(values), "spread": spread(values),
            }
            print(f"  {spec['name']:<18}{spec['unit']:<5}{min(values):>12.4f}"
                  f"{statistics.median(values):>12.4f}{max(values):>12.4f}"
                  f"{spread(values):>9.3f}{spec['bound']:>7.2f}")
        if not args.no_trace:
            traced = spawn(name, args, trace=1)
            digests.add(traced["detail"]["result_digest"])
            entry["correct"] = entry["correct"] and traced["correct"]
            entry["per_layer"] = {
                metric: body["value"] for metric, body in traced["metrics"].items()
            }
            untraced = entry["end_to_end"]["wall_s"]["median"]
            entry["traced_over_untraced_wall"] = (
                entry["per_layer"]["bench.traced_wall_s"]
                * entry["per_layer"]["bench.host_speed_ratio"] / untraced
            )
            print(f"  traced run: wall x{entry['traced_over_untraced_wall']:.3f} of the "
                  "untraced median; per-op values, layers that did no work omitted")
            for metric, body in traced["metrics"].items():
                if body["value"]:
                    print(f"    {metric:<44}{body['value']:>16.6f} {body['unit']}")
        if len(digests) != 1:
            entry["correct"] = False
            print("  RESULT DIGESTS DIFFER between runs of one seed", file=sys.stderr)
        ok = ok and entry["correct"] and entry["failed"] == 0
        report["workloads"][name] = entry
    print(f"\nhost: {json.dumps(report.get('host'))}")
    print("all checks passed" if ok else "CHECKS FAILED")
    if args.quick:
        return 0 if ok else 1
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.history:
        line = {
            "commit": report["host"]["commit"], "host": report["host"],
            "seed": args.seed,
            "metrics": {
                name: {m: body["median"] for m, body in entry["end_to_end"].items()}
                for name, entry in report["workloads"].items()
            },
        }
        with open(args.history, "a") as handle:
            handle.write(json.dumps(line) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=OP_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run in this process (the driver's protocol)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--quick", action="store_true",
                        help="small self-test sizes; results are never stored")
    parser.add_argument("--out", help="write the suite's results as JSON")
    parser.add_argument("--history", help="append {commit, host, metrics} as JSONL")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
