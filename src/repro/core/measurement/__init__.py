"""Choreo's measurement sub-system (paper §3 and §4).

* :mod:`repro.core.measurement.packet_train` — pairwise TCP throughput
  estimation from packet-train observations, combined with the Mathis bound.
* :mod:`repro.core.measurement.cross_traffic` — equivalent-connection
  cross-traffic estimation from probe throughput time series.
* :mod:`repro.core.measurement.bottleneck` — interference tests, rack
  clustering, and rate-limit (hose) detection.
* :mod:`repro.core.measurement.orchestrator` — runs a full-mesh measurement
  campaign against a provider and produces a
  :class:`~repro.core.network_profile.NetworkProfile`.
"""

from repro.core.measurement.packet_train import (
    ThroughputEstimate,
    estimate_throughput,
    estimate_throughputs,
    mathis_throughput,
    CalibrationPoint,
    calibrate_train_parameters,
)
from repro.core.measurement.cross_traffic import (
    CrossTrafficEstimate,
    estimate_cross_traffic,
    estimate_cross_traffic_series,
    infer_capacity_from_two_probes,
)
from repro.core.measurement.bottleneck import (
    InterferenceResult,
    BottleneckReport,
    BottleneckLocator,
    connections_interfere_at_tor,
    connections_interfere_at_core,
)
from repro.core.measurement.orchestrator import NetworkMeasurer, MeasurementPlan

__all__ = [
    "ThroughputEstimate",
    "estimate_throughput",
    "estimate_throughputs",
    "mathis_throughput",
    "CalibrationPoint",
    "calibrate_train_parameters",
    "CrossTrafficEstimate",
    "estimate_cross_traffic",
    "estimate_cross_traffic_series",
    "infer_capacity_from_two_probes",
    "InterferenceResult",
    "BottleneckReport",
    "BottleneckLocator",
    "connections_interfere_at_tor",
    "connections_interfere_at_core",
    "NetworkMeasurer",
    "MeasurementPlan",
]
