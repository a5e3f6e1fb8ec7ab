"""Synthetic HP-Cloud-like workload generator (paper §6.1 substitute).

The paper composes its evaluation applications from three weeks of real
traffic matrices gathered with sFlow at the ToR and aggregation switches of
the HP Cloud network.  That dataset is private, so this generator produces a
statistically similar population:

* a mix of the communication patterns the paper motivates (MapReduce
  shuffles, scatter/gather services, pipelines, hub-and-spoke stars, and
  generic sparse heavy-tailed matrices);
* per-application totals drawn from a lognormal (most applications move a
  few hundred MBytes, a few move tens of GBytes);
* per-task CPU demands of 0.5–4 cores on 4-core machines, exactly as §6.1
  models them;
* observed start times from a Poisson arrival process;
* optionally, hourly byte series with a diurnal cycle and noise, so that the
  §6.1 predictability claim can be reproduced;
* optionally, sFlow-like flow-record traces that exercise the profiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.units import GBYTE, HOUR, MBYTE
from repro.workloads.application import Application
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.patterns import (
    mapreduce,
    pipeline,
    random_sparse,
    scatter_gather,
    star,
    uniform_mesh,
)
from repro.workloads.trace import FlowRecord


@dataclass(frozen=True)
class WorkloadSpec:
    """Tunable knobs of the synthetic workload population.

    Attributes:
        min_tasks, max_tasks: range of task counts per application.
        mean_total_bytes: median of the lognormal total-volume distribution.
        volume_sigma: lognormal sigma for total volume (heavier tail when
            larger).
        cpu_choices: per-task CPU demands (cores), sampled uniformly.
        pattern_weights: probability of each communication pattern.
        arrival_rate_per_hour: mean application arrival rate.
    """

    min_tasks: int = 4
    max_tasks: int = 12
    mean_total_bytes: float = 2 * GBYTE
    volume_sigma: float = 1.0
    cpu_choices: Tuple[float, ...] = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    pattern_weights: Tuple[Tuple[str, float], ...] = (
        ("mapreduce", 0.30),
        ("scatter_gather", 0.20),
        ("pipeline", 0.15),
        ("star", 0.10),
        ("sparse", 0.20),
        ("uniform", 0.05),
    )
    arrival_rate_per_hour: float = 2.0

    def __post_init__(self) -> None:
        if self.min_tasks < 2 or self.max_tasks < self.min_tasks:
            raise WorkloadError("need 2 <= min_tasks <= max_tasks")
        if not self.mean_total_bytes > 0:
            raise WorkloadError("mean_total_bytes must be positive")
        if not self.volume_sigma >= 0:
            raise WorkloadError("volume_sigma must be >= 0")
        total_weight = sum(weight for _, weight in self.pattern_weights)
        if not total_weight > 0:
            raise WorkloadError("pattern weights must sum to a positive value")
        known = {"mapreduce", "scatter_gather", "pipeline", "star", "sparse", "uniform"}
        for name, weight in self.pattern_weights:
            if name not in known:
                raise WorkloadError(f"unknown pattern {name!r}")
            if not weight >= 0:
                raise WorkloadError("pattern weights must be >= 0")


class HPCloudWorkloadGenerator:
    """Generates applications, hourly series, and flow traces."""

    def __init__(self, spec: WorkloadSpec = WorkloadSpec(), seed: int = 0):
        self.spec = spec
        self._rng = np.random.default_rng(seed)
        self._counter = 0

    # ----------------------------------------------------------- applications
    def _sample_total_bytes(self) -> float:
        spec = self.spec
        return float(
            spec.mean_total_bytes
            * self._rng.lognormal(mean=0.0, sigma=spec.volume_sigma)
        )

    def _sample_cpu(self) -> float:
        choices = self.spec.cpu_choices
        return float(choices[int(self._rng.integers(0, len(choices)))])

    def _sample_pattern(self) -> str:
        names = [name for name, _ in self.spec.pattern_weights]
        weights = np.array([w for _, w in self.spec.pattern_weights], dtype=float)
        weights = weights / weights.sum()
        return str(self._rng.choice(names, p=weights))

    def generate_application(self, start_time: float = 0.0) -> Application:
        """Generate one application with the configured mix of patterns."""
        spec = self.spec
        self._counter += 1
        name = f"app{self._counter:04d}"
        n_tasks = int(self._rng.integers(spec.min_tasks, spec.max_tasks + 1))
        total = self._sample_total_bytes()
        pattern = self._sample_pattern()
        cpu = self._sample_cpu()

        if pattern == "mapreduce":
            n_mappers = max(1, n_tasks // 2)
            n_reducers = max(1, n_tasks - n_mappers)
            skew = float(self._rng.uniform(0.0, 1.5))
            app = mapreduce(
                name, n_mappers, n_reducers, total, skew=skew,
                cpu_per_task=cpu, rng=self._rng, start_time=start_time,
            )
        elif pattern == "scatter_gather":
            n_workers = max(1, n_tasks - 1)
            response = total / n_workers
            app = scatter_gather(
                name, n_workers, request_bytes=max(response * 0.02, 1 * MBYTE),
                response_bytes=response, cpu_per_task=cpu, start_time=start_time,
            )
        elif pattern == "pipeline":
            stages = max(2, n_tasks)
            decay = float(self._rng.uniform(0.5, 1.0))
            app = pipeline(
                name, stages, stage_bytes=total / max(stages - 1, 1),
                decay=decay, cpu_per_task=cpu, start_time=start_time,
            )
        elif pattern == "star":
            leaves = max(1, n_tasks - 1)
            app = star(
                name, n_leaves=leaves, bytes_per_leaf=total / leaves,
                bidirectional=bool(self._rng.random() < 0.5),
                cpu_per_task=cpu, start_time=start_time,
            )
        elif pattern == "uniform":
            pairs = n_tasks * (n_tasks - 1)
            app = uniform_mesh(
                name, n_tasks, bytes_per_pair=total / pairs,
                cpu_per_task=cpu, start_time=start_time,
            )
        else:  # sparse
            app = random_sparse(
                name, n_tasks,
                density=float(self._rng.uniform(0.15, 0.5)),
                total_bytes=total,
                volume_sigma=float(self._rng.uniform(1.0, 2.0)),
                cpu_choices=spec.cpu_choices,
                rng=self._rng,
                start_time=start_time,
            )
        return app

    def generate_applications(self, n: int) -> List[Application]:
        """Generate ``n`` applications with Poisson start times."""
        if n < 0:
            raise WorkloadError("n must be >= 0")
        arrivals = PoissonArrivals(rate_per_hour=self.spec.arrival_rate_per_hour)
        start_times = arrivals.sample(n, rng=self._rng)
        return [self.generate_application(start_time=t) for t in start_times]

    # -------------------------------------------------------- hourly series
    def generate_hourly_series(
        self,
        n_hours: int = 21 * 24,
        mean_hourly_bytes: float = 5 * GBYTE,
        diurnal_amplitude: float = 0.5,
        noise_sigma: float = 0.15,
        peak_hour: float = 14.0,
    ) -> List[float]:
        """Hourly bytes of a long-running service over ``n_hours`` hours.

        The series has a per-application scale, a diurnal cycle, a small
        day-to-day drift, and multiplicative lognormal noise — enough
        structure that the previous-hour and time-of-day predictors of §6.1
        perform well without being trivially exact.
        """
        if n_hours < 1:
            raise WorkloadError("n_hours must be >= 1")
        if not 0.0 <= diurnal_amplitude < 1.0:
            raise WorkloadError("diurnal_amplitude must be in [0, 1)")
        scale = mean_hourly_bytes * float(
            self._rng.lognormal(mean=0.0, sigma=0.5)
        )
        series: List[float] = []
        daily_drift = 1.0
        for hour in range(n_hours):
            if hour % 24 == 0:
                daily_drift *= float(self._rng.lognormal(mean=0.0, sigma=0.05))
            phase = 2.0 * np.pi * ((hour % 24) - peak_hour) / 24.0
            diurnal = 1.0 + diurnal_amplitude * float(np.cos(phase))
            noise = float(self._rng.lognormal(mean=0.0, sigma=noise_sigma))
            series.append(scale * daily_drift * diurnal * noise)
        return series

    def generate_hourly_dataset(
        self, n_applications: int = 20, n_hours: int = 21 * 24
    ) -> List[List[float]]:
        """One hourly series per application (a three-week dataset by default)."""
        return [self.generate_hourly_series(n_hours=n_hours) for _ in range(n_applications)]

    # --------------------------------------------------------------- traces
    def application_to_records(
        self,
        app: Application,
        n_records_per_pair: int = 5,
        duration_s: float = HOUR,
    ) -> List[FlowRecord]:
        """Explode an application's traffic matrix into sFlow-like records.

        Each communicating pair is split into ``n_records_per_pair`` records
        at random timestamps within ``duration_s`` of the application start;
        re-aggregating the records recovers the original matrix, which is how
        the profiler tests validate :mod:`repro.core.profiler`.
        """
        if n_records_per_pair < 1:
            raise WorkloadError("n_records_per_pair must be >= 1")
        records: List[FlowRecord] = []
        for src, dst, volume in app.transfers():
            shares = self._rng.dirichlet(np.ones(n_records_per_pair)) * volume
            offsets = np.sort(self._rng.uniform(0.0, duration_s, size=n_records_per_pair))
            for share, offset in zip(shares, offsets):
                records.append(
                    FlowRecord(
                        timestamp=app.start_time + float(offset),
                        application=app.name,
                        src_task=src,
                        dst_task=dst,
                        num_bytes=float(share),
                    )
                )
        records.sort(key=lambda record: record.timestamp)
        return records
