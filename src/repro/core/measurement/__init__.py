"""Choreo's measurement sub-system (paper §3 and §4).

* :mod:`repro.core.measurement.packet_train` — pairwise TCP throughput
  estimation from packet-train observations, combined with the Mathis bound.
* :mod:`repro.core.measurement.bottleneck` — interference tests, rack
  clustering, and rate-limit (hose) detection.
* :mod:`repro.core.measurement.orchestrator` — runs a full-mesh measurement
  campaign against a provider and produces a
  :class:`~repro.core.network_profile.NetworkProfile`.
"""

from repro.core.measurement.packet_train import (
    estimate_throughputs,
    CalibrationPoint,
    calibrate_train_parameters,
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
    "estimate_throughputs",
    "CalibrationPoint",
    "calibrate_train_parameters",
    "InterferenceResult",
    "BottleneckReport",
    "BottleneckLocator",
    "connections_interfere_at_tor",
    "connections_interfere_at_core",
    "NetworkMeasurer",
    "MeasurementPlan",
]
