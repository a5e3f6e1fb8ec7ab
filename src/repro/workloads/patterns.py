"""Canonical communication patterns (paper §1 and §6).

The paper's introduction motivates Choreo with network-intensive cloud
applications: Hadoop/MapReduce jobs, analytic database workloads,
storage/backup services, and scientific computations.  These builders create
:class:`~repro.workloads.application.Application` objects with the
corresponding task graphs so that examples, tests, and the synthetic
HP-Cloud workload generator can compose realistic mixes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.units import MBYTE
from repro.workloads.application import Application, Task, TrafficMatrix


def mapreduce(
    name: str,
    n_mappers: int,
    n_reducers: int,
    shuffle_bytes: float,
    skew: float = 0.0,
    cpu_per_task: float = 1.0,
    rng: Optional[np.random.Generator] = None,
    start_time: float = 0.0,
) -> Application:
    """A MapReduce shuffle: every mapper sends to every reducer.

    Args:
        shuffle_bytes: total bytes moved in the shuffle phase.
        skew: 0 gives a perfectly uniform shuffle (the pattern §7.1 notes
            Choreo cannot improve); larger values draw per-pair weights from
            a lognormal with that sigma, producing hot reducers.
    """
    if n_mappers < 1 or n_reducers < 1:
        raise WorkloadError("mapreduce needs at least one mapper and one reducer")
    if shuffle_bytes < 0:
        raise WorkloadError("shuffle_bytes must be >= 0")
    rng = rng if rng is not None else np.random.default_rng(0)
    tasks = [Task(f"m{i}", cpu_per_task) for i in range(n_mappers)]
    tasks += [Task(f"r{j}", cpu_per_task) for j in range(n_reducers)]
    weights = np.ones((n_mappers, n_reducers))
    if skew > 0:
        weights = rng.lognormal(mean=0.0, sigma=skew, size=(n_mappers, n_reducers))
    weights = weights / weights.sum() if weights.sum() > 0 else weights
    traffic = TrafficMatrix()
    for i in range(n_mappers):
        for j in range(n_reducers):
            traffic.add(f"m{i}", f"r{j}", shuffle_bytes * float(weights[i, j]))
    return Application(name=name, tasks=tasks, traffic=traffic, start_time=start_time)


def scatter_gather(
    name: str,
    n_workers: int,
    request_bytes: float = 1 * MBYTE,
    response_bytes: float = 50 * MBYTE,
    cpu_per_task: float = 1.0,
    start_time: float = 0.0,
) -> Application:
    """A frontend scatters requests to workers and gathers large responses."""
    if n_workers < 1:
        raise WorkloadError("scatter_gather needs at least one worker")
    tasks = [Task("frontend", cpu_per_task)]
    tasks += [Task(f"w{i}", cpu_per_task) for i in range(n_workers)]
    traffic = TrafficMatrix()
    for i in range(n_workers):
        traffic.add("frontend", f"w{i}", request_bytes)
        traffic.add(f"w{i}", "frontend", response_bytes)
    return Application(name=name, tasks=tasks, traffic=traffic, start_time=start_time)


def pipeline(
    name: str,
    n_stages: int,
    stage_bytes: float = 100 * MBYTE,
    decay: float = 1.0,
    cpu_per_task: float = 1.0,
    start_time: float = 0.0,
) -> Application:
    """A linear pipeline: stage ``k`` streams to stage ``k+1``.

    ``decay`` scales each successive hop's volume (e.g. 0.5 models a
    filtering pipeline where each stage halves the data).
    """
    if n_stages < 2:
        raise WorkloadError("pipeline needs at least two stages")
    if decay <= 0:
        raise WorkloadError("decay must be positive")
    tasks = [Task(f"stage{i}", cpu_per_task) for i in range(n_stages)]
    traffic = TrafficMatrix()
    volume = stage_bytes
    for i in range(n_stages - 1):
        traffic.add(f"stage{i}", f"stage{i + 1}", volume)
        volume *= decay
    return Application(name=name, tasks=tasks, traffic=traffic, start_time=start_time)


def star(
    name: str,
    n_leaves: int = 2,
    bytes_per_leaf: float = 100 * MBYTE,
    bidirectional: bool = False,
    cpu_per_task: float = 1.0,
    start_time: float = 0.0,
) -> Application:
    """The paper's introductory example: tasks A, B, ... talk to a hub S.

    With ``n_leaves=2`` this is exactly the three-task example of §1 where S
    communicates often with A and B but A and B rarely talk to each other.
    """
    if n_leaves < 1:
        raise WorkloadError("star needs at least one leaf")
    tasks = [Task("S", cpu_per_task)]
    tasks += [Task(f"L{i}", cpu_per_task) for i in range(n_leaves)]
    traffic = TrafficMatrix()
    for i in range(n_leaves):
        traffic.add(f"L{i}", "S", bytes_per_leaf)
        if bidirectional:
            traffic.add("S", f"L{i}", bytes_per_leaf)
    return Application(name=name, tasks=tasks, traffic=traffic, start_time=start_time)


def uniform_mesh(
    name: str,
    n_tasks: int,
    bytes_per_pair: float = 10 * MBYTE,
    cpu_per_task: float = 1.0,
    start_time: float = 0.0,
) -> Application:
    """Every task sends the same volume to every other task.

    This is the "relatively uniform bandwidth usage" pattern §7.1 identifies
    as a case where Choreo offers little improvement — useful as a negative
    control in tests and ablations.
    """
    if n_tasks < 2:
        raise WorkloadError("uniform_mesh needs at least two tasks")
    tasks = [Task(f"t{i}", cpu_per_task) for i in range(n_tasks)]
    traffic = TrafficMatrix()
    for i in range(n_tasks):
        for j in range(n_tasks):
            if i != j:
                traffic.add(f"t{i}", f"t{j}", bytes_per_pair)
    return Application(name=name, tasks=tasks, traffic=traffic, start_time=start_time)


def random_sparse(
    name: str,
    n_tasks: int,
    density: float = 0.3,
    total_bytes: float = 1000 * MBYTE,
    volume_sigma: float = 1.5,
    cpu_choices: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
    rng: Optional[np.random.Generator] = None,
    start_time: float = 0.0,
) -> Application:
    """A random sparse task graph with heavy-tailed per-pair volumes.

    This is the generic shape of the HP Cloud traffic matrices: most task
    pairs exchange nothing, a few pairs carry most of the bytes.

    Args:
        density: probability an ordered task pair communicates at all.
        total_bytes: total volume, split among communicating pairs with
            lognormal (sigma ``volume_sigma``) weights.
        cpu_choices: per-task CPU demands are drawn uniformly from this set
            (the paper models 0.5–4 cores).
    """
    if n_tasks < 2:
        raise WorkloadError("random_sparse needs at least two tasks")
    if not 0.0 < density <= 1.0:
        raise WorkloadError("density must be in (0, 1]")
    if total_bytes < 0:
        raise WorkloadError("total_bytes must be >= 0")
    rng = rng if rng is not None else np.random.default_rng(0)
    tasks = [
        Task(f"t{i}", float(rng.choice(list(cpu_choices)))) for i in range(n_tasks)
    ]
    pairs = [
        (f"t{i}", f"t{j}")
        for i in range(n_tasks)
        for j in range(n_tasks)
        if i != j and rng.random() < density
    ]
    if not pairs:
        # Guarantee the application is network-connected at all.
        i, j = rng.choice(n_tasks, size=2, replace=False)
        pairs = [(f"t{int(i)}", f"t{int(j)}")]
    weights = rng.lognormal(mean=0.0, sigma=volume_sigma, size=len(pairs))
    weights = weights / weights.sum()
    traffic = TrafficMatrix()
    for (src, dst), weight in zip(pairs, weights):
        traffic.add(src, dst, total_bytes * float(weight))
    return Application(name=name, tasks=tasks, traffic=traffic, start_time=start_time)
