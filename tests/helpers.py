"""Test scaffolding that no entry point of the package needs.

* the two small topologies of the paper's Figure 3, built by hand (so they
  carry no router: they are the graph-search oracle's
  :class:`~oracles.graph_search.SearchedGraph`);
* writers for the two flow-trace formats ``repro.workloads.trace`` reads,
  so tests can hand the readers files of known content;
* the ``(n, n)`` arrays a ``NetworkProfile`` is built from, spelled pair
  by pair;
* the measurement cache's stale set and ages, read off its arrays;
* the switch that puts pool workers under the chaos hook of
  ``tests/chaos``;
* the attributes of the ``fluid.run`` spans a block of code emits;
* the ``routes`` a fluid simulation takes for flows that cross extra links.
"""

import contextlib
import csv
import json
import math
import os
from pathlib import Path
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from oracles.graph_search import Links, SearchedGraph, route_ids
from repro import obs
from repro.errors import TopologyError
from repro.units import GBITPS
from repro.workloads.trace import _FIELDS, FlowRecord


# ------------------------------------------------------------- Figure 3
def figure3_layout(
    core: Links, n_pairs: int, left: str, right: str, access_bps: float
) -> Tuple[List[str], List[Tuple[str, str, float]]]:
    """A Figure 3 graph's hosts and links: ``core``'s switch links, then per
    pair ``s{i}`` and ``r{i}`` (their loopbacks) and their cables to
    ``left`` and ``right``."""
    if n_pairs < 1:
        raise TopologyError("n_pairs must be >= 1")
    hosts: List[str] = []
    links = list(core)
    for i in range(1, n_pairs + 1):
        sender, receiver = f"s{i}", f"r{i}"
        hosts += [sender, receiver]
        links += [(sender, sender, 4 * GBITPS), (receiver, receiver, 4 * GBITPS)]
        links += [(sender, left, access_bps), (receiver, right, access_bps)]
    return hosts, links


def build_dumbbell(
    n_pairs: int = 10,
    shared_link_bps: float = 1 * GBITPS,
    access_link_bps: float = 10 * GBITPS,
    name: str = "dumbbell",
) -> SearchedGraph:
    """Build the Figure 3(a) topology: ``n_pairs`` sender/receiver pairs.

    Senders ``s1..sN`` attach to a left switch, receivers ``r1..rN`` to a
    right switch, and a single ``shared_link_bps`` link connects the two
    switches; every sender-to-receiver flow crosses that shared bottleneck.
    """
    core = [("swL", "swR", shared_link_bps)]
    return SearchedGraph(name, *figure3_layout(core, n_pairs, "swL", "swR", access_link_bps))


def build_two_rack_cloud(
    n_pairs: int = 10,
    host_link_bps: float = 1 * GBITPS,
    agg_link_bps: float = 10 * GBITPS,
    name: str = "cloud",
) -> SearchedGraph:
    """Build the Figure 3(b) topology.

    Senders share a ToR switch, receivers share another ToR switch, and the
    two ToRs connect through an aggregation switch ``A``.  Host links are
    1 Gbit/s while ToR-to-aggregation links are 10 Gbit/s, so cross traffic
    only bites once more than ten flows share a ToR uplink.
    """
    core = [("torS", "A", agg_link_bps), ("torR", "A", agg_link_bps)]
    return SearchedGraph(name, *figure3_layout(core, n_pairs, "torS", "torR", host_link_bps))


# ------------------------------------------------------------ flow traces
def write_trace(records: Iterable[FlowRecord], path: Union[str, Path]) -> int:
    """Write records to a CSV file; returns the number of records written."""
    path = Path(path)
    count = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_FIELDS)
        for record in records:
            writer.writerow(
                [
                    f"{record.timestamp:.6f}",
                    record.application,
                    record.src_task,
                    record.dst_task,
                    f"{record.num_bytes:.1f}",
                ]
            )
            count += 1
    return count


def write_trace_jsonl(
    records: Iterable[FlowRecord], path: Union[str, Path]
) -> int:
    """Write records as JSONL (one object per line); returns the count."""
    path = Path(path)
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(
                json.dumps(
                    {
                        "timestamp": round(record.timestamp, 6),
                        "application": record.application,
                        "src_task": record.src_task,
                        "dst_task": record.dst_task,
                        "num_bytes": round(record.num_bytes, 1),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            count += 1
    return count


# -------------------------------------------------------------- profiles
def pair_matrix(vms: Sequence[str], values: Union[Mapping, Callable]) -> np.ndarray:
    """An ``(n, n)`` array in ``vms`` order, as ``NetworkProfile`` takes it.

    ``values`` maps ``(src, dst)`` pairs to values, or is called as
    ``values(src, dst)`` for every ordered pair of distinct VMs; every
    other entry is ``NaN`` (not measured).
    """
    if callable(values):
        values = {(a, b): values(a, b) for a in vms for b in vms if a != b}
    matrix = np.full((len(vms), len(vms)), math.nan)
    for (src, dst), value in values.items():
        matrix[vms.index(src), vms.index(dst)] = value
    return matrix


# ------------------------------------------------------ measurement cache
def stale_pairs(cache, now: float) -> List[Tuple[str, str]]:
    """Pairs never measured or older than the TTL at ``now``, in mesh order
    (row-major); a pair stamped exactly ``ttl_s`` ago is still fresh."""
    rows, cols = np.nonzero(cache._stale(now))
    return [(cache.vms[i], cache.vms[j]) for i, j in zip(rows.tolist(), cols.tolist())]


def age_of(cache, pair: Tuple[str, str], now: float) -> Optional[float]:
    """Age of a pair's measurement, ``None`` when never measured."""
    i, j = cache._index.get(pair[0]), cache._index.get(pair[1])
    if i is None or j is None or math.isnan(cache._measured_at[i, j]):
        return None
    return now - float(cache._measured_at[i, j])


# ------------------------------------------------------------ worker chaos
CHAOS_HOOK = str(Path(__file__).resolve().parent / "chaos")


def arm_worker_chaos(monkeypatch, chaos_dir) -> None:
    """Make one pool worker spawned from now on crash, once per
    ``chaos_dir``: see ``tests/chaos/sitecustomize.py``.  The package's
    source directory goes on ``PYTHONPATH`` too, since the hook imports
    ``repro`` before a child has the parent's ``sys.path``."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [CHAOS_HOOK, src, path]))
    )
    monkeypatch.setenv("REPRO_WORKER_CHAOS_DIR", str(chaos_dir))


@contextlib.contextmanager
def traced_spans(path: Path, name: str = "fluid.run"):
    """Trace into ``path``; the list yielded receives the attributes of the
    spans called ``name`` on exit, in the order they ended."""
    spans: List[dict] = []
    obs.configure(str(path), export_env=False)
    try:
        yield spans
    finally:
        obs.configure(None, export_env=False)
    spans.extend(
        event["attrs"]
        for event in map(json.loads, path.read_text().splitlines())
        if event["name"] == name
    )


def routes_of(sim, flows, extras) -> Tuple[np.ndarray, np.ndarray]:
    """``FluidSimulation.add_flows``'s ``routes`` for ``flows``: each flow's
    extra links (``extras[i]``, by id), then its route — the rows a
    provider hands over, spelled link by link."""
    index = {link_id: i for i, link_id in enumerate(sim.capacities)}
    rows = [
        [index[link_id] for link_id in extra]
        + [index[link_id] for link_id in route_ids(sim.topology, flow.src, flow.dst)]
        for flow, extra in zip(flows, extras)
    ]
    return (
        np.array([i for row in rows for i in row], dtype=np.intp),
        np.array([len(row) for row in rows], dtype=np.int64),
    )
