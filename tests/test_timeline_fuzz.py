"""Hostile timeline files: a seeded mutator against the two timeline loaders.

``NetworkTimeline.load`` and ``FaultTimeline.load`` read files a user hands
the service (``--timeline-file``, ``--faults-file``).  Every case below
mutates a valid file — cut it short, flip a byte, or swap one JSON value for
a hostile one (NaN, infinity, a huge integer, a wrong type, deep nesting) —
and asserts the load contract: the loader returns a timeline that answers
its queries with finite numbers, or raises a ``ReproError`` that names the
file.  It never hangs, and never lets another exception out.
"""

import contextlib
import json
import math
import signal

import numpy as np
import pytest

from repro.errors import ReproError
from repro.faults import FaultTimeline, LinkDegradation, ProbeLoss, VmPreemption
from repro.service.timeline import NetworkTimeline

VMS = ["vm1", "vm2", "vm3"]


@contextlib.contextmanager
def _deadline(seconds=5.0):
    """Fail a case that takes longer than ``seconds`` instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError(f"timeline load exceeded its {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _network():
    return NetworkTimeline(
        epoch_s=60.0,
        hose_epochs=[{vm: 1e9 + i for i, vm in enumerate(VMS)}, {vm: 9e8 for vm in VMS}],
        pair_epochs=[{("vm1", "vm2"): 5e8}, {("vm2", "vm3"): 4e8}],
        drift="random-walk",
    )


def _faults():
    return FaultTimeline(
        events=(
            VmPreemption("vm3", 120.0),
            LinkDegradation("vm1", 10.0, 70.0, 0.5),
            ProbeLoss("vm1", "vm2", 0.0, math.inf),
            ProbeLoss("vm2", "vm1", 5.0, 50.0, mode="wild", factor=3.0),
        ),
        generator="link-flap",
    )


def _use_network(timeline):
    """Every query a session makes of a loaded timeline, answered finitely."""
    for t in (0.0, timeline.epoch_s * 1.5, 1e9):
        for vm in timeline.vms:
            rate = timeline.hose_rate_at(vm, t)
            assert math.isfinite(rate) and rate > 0, (vm, t, rate)
        for src in timeline.vms:
            for dst in timeline.vms:
                rate = timeline.pair_rate_at(src, dst, t)
                assert rate is None or (math.isfinite(rate) and rate > 0)


def _use_faults(timeline, path):
    vms = timeline.vms()
    index = np.arange(len(vms))
    for t in (0.0, 30.0, 200.0):
        for vm in vms:
            rate = timeline.effective_hose_rate(vm, t, 1e9)
            assert math.isfinite(rate) and rate > 0, (vm, t, rate)
            for other in vms:
                timeline.probe_fault(vm, other, t)
        timeline.probe_faults(vms, index, index[::-1], t)
    timeline.save(path)
    assert FaultTimeline.load(path) == timeline


LOADERS = {
    "network": (_network, NetworkTimeline.load, lambda timeline, path: _use_network(timeline)),
    "faults": (_faults, FaultTimeline.load, _use_faults),
}

#: Values a hostile editor puts in place of one JSON value.
HOSTILE = (
    None, True, 0, -1, 0.0, -0.0, -1e9, float("nan"), float("inf"), float("-inf"),
    10**400, "", "x", "1e9", "nan", "a->b", [], {}, [1, 2], {"x": 1},
)
DEEP = "[" * 100_000 + "]" * 100_000


def _paths(node, prefix=()):
    """Every position in a JSON document, as a key path."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copy


def _dropped(doc, path):
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return copy


def _mutants(text, rng, n):
    """``n`` seeded mutants of a JSON file's text."""
    doc = json.loads(text)
    paths = list(_paths(doc))
    data = text.encode()
    for _ in range(n):
        roll = rng.random()
        if roll < 0.15:
            yield data[: int(rng.integers(0, len(data)))]
        elif roll < 0.3:
            flipped = bytearray(data)
            flipped[int(rng.integers(0, len(data)))] ^= int(rng.integers(1, 256))
            yield bytes(flipped)
        else:
            path = paths[int(rng.integers(0, len(paths)))]
            if path and roll < 0.4:
                mutant = _dropped(doc, path)
            else:
                mutant = _replaced(doc, path, HOSTILE[int(rng.integers(0, len(HOSTILE)))])
            yield json.dumps(mutant).encode()
    first = next(iter(doc))
    yield json.dumps({**doc, first: "DEEP"}).replace('"DEEP"', DEEP).encode()
    yield b"\xff\xfe" + data


@pytest.mark.parametrize("kind", sorted(LOADERS))
@pytest.mark.parametrize("seed", range(3))
def test_a_mutated_timeline_loads_or_names_its_file(kind, seed, tmp_path):
    make, load, use = LOADERS[kind]
    path = tmp_path / f"{kind}_timeline.json"
    make().save(path)
    rng = np.random.default_rng(seed)
    outcomes = {"loaded": 0, "refused": 0}
    for i, mutant in enumerate(_mutants(path.read_text(), rng, 300)):
        path.write_bytes(mutant)
        with _deadline():
            try:
                timeline = load(path)
            except ReproError as exc:
                assert path.name in str(exc), (i, mutant[:200], exc)
                outcomes["refused"] += 1
                continue
            use(timeline, tmp_path / "again.json")
        outcomes["loaded"] += 1
    assert outcomes["loaded"] and outcomes["refused"], outcomes
