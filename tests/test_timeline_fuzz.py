"""Hostile timeline files: a seeded mutator against the timeline loader.

``Timeline.load`` reads files a user hands the service (``--timeline``).
Every case below mutates a valid file — a drift-only one, a fault-only one
and one with both — by cutting it short, flipping a byte, or swapping one
JSON value for a hostile one (NaN, infinity, a huge integer, a wrong type,
deep nesting), and asserts the load contract of :mod:`hostile`.
"""

import json
import math

import numpy as np
import pytest

from hostile import DEEP, HOSTILE, deadline
from oracles.probe_fault import probe_fault
from repro.errors import ReproError
from repro.service.timeline import LinkDegradation, ProbeLoss, Timeline, VmPreemption

VMS = ["vm1", "vm2", "vm3"]
HOSE_EPOCHS = [{vm: 1e9 + i for i, vm in enumerate(VMS)}, {vm: 9e8 for vm in VMS}]
EVENTS = (
    VmPreemption("vm3", 120.0),
    LinkDegradation("vm1", 10.0, 70.0, 0.5),
    ProbeLoss("vm1", "vm2", 0.0, math.inf),
    ProbeLoss("vm2", "vm1", 5.0, 50.0, mode="wild", factor=3.0),
)
TIMELINES = {
    "drift": Timeline(epoch_s=60.0, hose_epochs=HOSE_EPOCHS, drift="random-walk"),
    "faults": Timeline(epoch_s=60.0, events=EVENTS, faults="link-flap"),
    "combined": Timeline(
        epoch_s=60.0, hose_epochs=HOSE_EPOCHS, events=EVENTS,
        drift="random-walk", faults="link-flap",
    ),
}


def _use(timeline, path):
    """Every query a session makes of a loaded timeline, answered finitely,
    and a save that loads back equal."""
    vms = timeline.vms()
    index = np.arange(len(vms))
    for t in (0.0, 30.0, timeline.epoch_s * 1.5, 200.0, 1e9):
        rates = timeline.hose_rates(vms, t, np.full(len(vms), 1e9))
        assert (np.isfinite(rates) & (rates > 0)).all(), (t, rates)
        for vm in vms:
            for other in vms:
                probe_fault(timeline, vm, other, t)
        timeline.probe_faults(vms, index, index[::-1], t)
    timeline.save(path)
    assert Timeline.load(path) == timeline


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


@pytest.mark.parametrize("kind", sorted(TIMELINES))
@pytest.mark.parametrize("seed", range(3))
def test_a_mutated_timeline_loads_or_names_its_file(kind, seed, tmp_path):
    path = tmp_path / f"{kind}_timeline.json"
    TIMELINES[kind].save(path)
    rng = np.random.default_rng(seed)
    outcomes = {"loaded": 0, "refused": 0}
    for i, mutant in enumerate(_mutants(path.read_text(), rng, 300)):
        path.write_bytes(mutant)
        with deadline():
            try:
                timeline = Timeline.load(path)
            except ReproError as exc:
                assert path.name in str(exc), (i, mutant[:200], exc)
                outcomes["refused"] += 1
                continue
            _use(timeline, tmp_path / "again.json")
        outcomes["loaded"] += 1
    assert outcomes["loaded"] and outcomes["refused"], outcomes
