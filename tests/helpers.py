"""Test scaffolding that no entry point of the package needs.

* the two small topologies of the paper's Figure 3, built from
  :class:`~repro.net.topology.Topology`'s public calls (so they carry no
  router and route by graph search, as any hand-built graph does);
* writers for the two flow-trace formats ``repro.workloads.trace`` reads,
  so tests can hand the readers files of known content;
* the ``(n, n)`` arrays a ``NetworkProfile`` is built from, spelled pair
  by pair;
* the measurement cache's stale set and ages, read off its arrays;
* the switch that puts pool workers under the chaos hook of
  ``tests/chaos``.
"""

import csv
import json
import math
import os
from pathlib import Path
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TopologyError
from repro.net.links import LinkKind
from repro.net.topology import NodeKind, Topology
from repro.units import GBITPS
from repro.workloads.trace import _FIELDS, FlowRecord


# ------------------------------------------------------------- Figure 3
def build_dumbbell(
    n_pairs: int = 10,
    shared_link_bps: float = 1 * GBITPS,
    access_link_bps: float = 10 * GBITPS,
    name: str = "dumbbell",
) -> Topology:
    """Build the Figure 3(a) topology: ``n_pairs`` sender/receiver pairs.

    Senders ``s1..sN`` attach to a left switch, receivers ``r1..rN`` to a
    right switch, and a single ``shared_link_bps`` link connects the two
    switches; every sender-to-receiver flow crosses that shared bottleneck.
    """
    if n_pairs < 1:
        raise TopologyError("n_pairs must be >= 1")
    topo = Topology(name=name)
    topo.add_node("swL", NodeKind.TOR, level=1)
    topo.add_node("swR", NodeKind.TOR, level=1)
    topo.add_link("swL", "swR", shared_link_bps, LinkKind.GENERIC)
    for i in range(1, n_pairs + 1):
        sender, receiver = f"s{i}", f"r{i}"
        topo.add_node(sender, NodeKind.HOST, level=0)
        topo.add_node(receiver, NodeKind.HOST, level=0)
        topo.add_link(sender, "swL", access_link_bps, LinkKind.HOST_TOR)
        topo.add_link(receiver, "swR", access_link_bps, LinkKind.HOST_TOR)
    return topo


def build_two_rack_cloud(
    n_pairs: int = 10,
    host_link_bps: float = 1 * GBITPS,
    agg_link_bps: float = 10 * GBITPS,
    name: str = "cloud",
) -> Topology:
    """Build the Figure 3(b) topology.

    Senders share a ToR switch, receivers share another ToR switch, and the
    two ToRs connect through an aggregation switch ``A``.  Host links are
    1 Gbit/s while ToR-to-aggregation links are 10 Gbit/s, so cross traffic
    only bites once more than ten flows share a ToR uplink.
    """
    if n_pairs < 1:
        raise TopologyError("n_pairs must be >= 1")
    topo = Topology(name=name)
    topo.add_node("torS", NodeKind.TOR, level=1)
    topo.add_node("torR", NodeKind.TOR, level=1)
    topo.add_node("A", NodeKind.AGG, level=2)
    topo.add_link("torS", "A", agg_link_bps, LinkKind.TOR_AGG)
    topo.add_link("torR", "A", agg_link_bps, LinkKind.TOR_AGG)
    for i in range(1, n_pairs + 1):
        sender, receiver = f"s{i}", f"r{i}"
        topo.add_node(sender, NodeKind.HOST, level=0)
        topo.add_node(receiver, NodeKind.HOST, level=0)
        topo.add_link(sender, "torS", host_link_bps, LinkKind.HOST_TOR)
        topo.add_link(receiver, "torR", host_link_bps, LinkKind.HOST_TOR)
    return topo


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
