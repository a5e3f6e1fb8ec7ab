"""Application workload substrate.

The paper evaluates Choreo with applications built from three weeks of real
traffic matrices collected (via sFlow) on the HP Cloud network.  That dataset
is not public, so this package provides a synthetic equivalent: task-level
applications (:mod:`repro.workloads.application`), the communication
patterns the paper's introduction motivates (:mod:`repro.workloads.patterns`),
a heavy-tailed HP-Cloud-like workload generator
(:mod:`repro.workloads.generator`), Poisson arrivals
(:mod:`repro.workloads.arrivals`), an sFlow-like flow-record trace format
(:mod:`repro.workloads.trace`), and the hour-over-hour predictability
analysis of §6.1 (:mod:`repro.workloads.predictability`).
"""

from repro.workloads.application import Application, Task, TrafficMatrix
from repro.workloads.patterns import (
    mapreduce,
    scatter_gather,
    pipeline,
    star,
    uniform_mesh,
    random_sparse,
)
from repro.workloads.generator import HPCloudWorkloadGenerator, WorkloadSpec
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.trace import FlowRecord, FlowRecords, aggregate_records, read_trace
from repro.workloads.predictability import (
    PredictabilityReport,
    evaluate_predictability,
)

__all__ = [
    "Application",
    "Task",
    "TrafficMatrix",
    "mapreduce",
    "scatter_gather",
    "pipeline",
    "star",
    "uniform_mesh",
    "random_sparse",
    "HPCloudWorkloadGenerator",
    "WorkloadSpec",
    "PoissonArrivals",
    "FlowRecord",
    "FlowRecords",
    "aggregate_records",
    "read_trace",
    "PredictabilityReport",
    "evaluate_predictability",
]
