"""Bottleneck location and rate-limit detection (paper §3.3, §4.3).

Choreo determines which paths share bottlenecks by running concurrent bulk
connections: if connection A->B slows down significantly when C->D runs at
the same time, the two paths share a bottleneck.  Combined with
traceroute-based rack clustering and the multi-rooted-tree assumption
(§3.3.1), a handful of these tests reveal:

* whether the provider rate-limits at the source (hose model): connections
  from the *same* source always interfere and their sum stays constant,
  while connections between four distinct endpoints never interfere — this
  is exactly what §4.3 observes on EC2 and Rackspace;
* which racks would contend on their ToR uplink (rules 1 and 2 of §3.3.2),
  so one measurement generalises to the whole rack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError


# ---------------------------------------------------------------------------
# Interference rules of §3.3.2, expressed over rack/subtree localities.
# ---------------------------------------------------------------------------
def connections_interfere_at_tor(
    src_a: str, dst_a: str, src_c: str, dst_c: str,
    rack_of: Dict[str, str],
) -> bool:
    """Rule 1: interference when the bottleneck is the ToR uplink.

    Two connections A->B and C->D interfere if (a) they share a source, or
    (b) A and C are on the same rack and neither B nor D is on that rack.
    """
    if src_a == src_c:
        return True
    rack_a, rack_c = rack_of.get(src_a), rack_of.get(src_c)
    if rack_a is None or rack_a != rack_c:
        return False
    return rack_of.get(dst_a) != rack_a and rack_of.get(dst_c) != rack_a


def connections_interfere_at_core(
    src_a: str, dst_a: str, src_c: str, dst_c: str,
    subtree_of: Dict[str, str],
) -> bool:
    """Rule 2: potential interference when the bottleneck is the agg-to-core link.

    The connections potentially interfere if both originate in the same
    aggregation subtree and both must leave it.  (They may still not
    interfere if ECMP routes them through different aggregate switches.)
    """
    sub_a, sub_c = subtree_of.get(src_a), subtree_of.get(src_c)
    if sub_a is None or sub_a != sub_c:
        return False
    return subtree_of.get(dst_a) != sub_a and subtree_of.get(dst_c) != sub_a


@dataclass(frozen=True)
class InterferenceResult:
    """Outcome of one concurrent-connection interference test."""

    pair_a: Tuple[str, str]
    pair_b: Tuple[str, str]
    solo_rate_a_bps: float
    concurrent_rate_a_bps: float
    threshold: float

    @property
    def drop_fraction(self) -> float:
        """Fractional throughput loss of connection A when B runs concurrently."""
        if self.solo_rate_a_bps <= 0:
            return 0.0
        return max(
            0.0, 1.0 - self.concurrent_rate_a_bps / self.solo_rate_a_bps
        )

    @property
    def interferes(self) -> bool:
        """True when A slowed down by more than the threshold."""
        return self.drop_fraction > self.threshold


@dataclass
class BottleneckReport:
    """Summary of a bottleneck-location campaign (§4.3)."""

    same_source_results: List[InterferenceResult] = field(default_factory=list)
    distinct_endpoint_results: List[InterferenceResult] = field(default_factory=list)
    rack_clusters: List[List[str]] = field(default_factory=list)
    hose_rate_estimates_bps: Dict[str, float] = field(default_factory=dict)

    @property
    def same_source_interference_fraction(self) -> float:
        """Fraction of same-source tests that interfered."""
        if not self.same_source_results:
            return 0.0
        return sum(r.interferes for r in self.same_source_results) / len(
            self.same_source_results
        )

    @property
    def distinct_endpoint_interference_fraction(self) -> float:
        """Fraction of distinct-endpoint tests that interfered."""
        if not self.distinct_endpoint_results:
            return 0.0
        return sum(r.interferes for r in self.distinct_endpoint_results) / len(
            self.distinct_endpoint_results
        )

    @property
    def rate_limiting(self) -> str:
        """Classification of the provider's rate limiting.

        ``"hose"`` when same-source connections (almost) always interfere but
        distinct-endpoint connections (almost) never do — bottlenecks at the
        first hop; ``"shared-fabric"`` when distinct endpoints also interfere;
        ``"none"`` when nothing interferes.
        """
        same = self.same_source_interference_fraction
        distinct = self.distinct_endpoint_interference_fraction
        if same >= 0.9 and distinct <= 0.1:
            return "hose"
        if distinct > 0.1:
            return "shared-fabric"
        if same <= 0.1:
            return "none"
        return "mixed"


class BottleneckLocator:
    """Runs the §3.3/§4.3 bottleneck-location experiments against a provider."""

    def __init__(
        self,
        provider,
        duration_s: float = 5.0,
        interference_threshold: float = 0.25,
        rack_hop_threshold: int = 2,
        seed: int = 0,
    ):
        if not 0 < duration_s < math.inf:
            raise MeasurementError(
                f"duration_s must be finite and positive, got {duration_s!r}"
            )
        if not 0.0 < interference_threshold < 1.0:
            raise MeasurementError("interference_threshold must be in (0, 1)")
        self.provider = provider
        self.duration_s = duration_s
        self.interference_threshold = interference_threshold
        self.rack_hop_threshold = rack_hop_threshold
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------- primitives
    def measure_interference(
        self, pair_a: Tuple[str, str], pair_b: Tuple[str, str]
    ) -> InterferenceResult:
        """Does running ``pair_b`` concurrently slow ``pair_a`` down?"""
        solo = self.provider.run_netperf(*pair_a, duration=self.duration_s)
        concurrent = self.provider.concurrent_netperf(
            [pair_a, pair_b], duration=self.duration_s
        )
        return InterferenceResult(
            pair_a=pair_a,
            pair_b=pair_b,
            solo_rate_a_bps=solo,
            concurrent_rate_a_bps=concurrent[pair_a],
            threshold=self.interference_threshold,
        )

    def cluster_by_rack(self, vm_names: Sequence[str]) -> List[List[str]]:
        """Group VMs whose traceroute hop count suggests a shared rack (every
        pair traced in one :meth:`CloudProvider.traceroutes` call)."""
        parent = {name: name for name in vm_names}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        pairs = list(itertools.combinations(vm_names, 2))
        hops = self.provider.traceroutes(pairs).tolist() if pairs else []
        for (a, b), hop in zip(pairs, hops):
            if hop <= self.rack_hop_threshold:
                union(a, b)
        clusters: Dict[str, List[str]] = {}
        for name in vm_names:
            clusters.setdefault(find(name), []).append(name)
        return [sorted(members) for _, members in sorted(clusters.items())]

    # ----------------------------------------------------------------- driver
    def locate(
        self,
        vm_names: Sequence[str],
        n_same_source: int = 20,
        n_distinct: int = 20,
    ) -> BottleneckReport:
        """Run the full §4.3 experiment.

        ``n_distinct`` tests use four distinct VMs (two independent paths);
        ``n_same_source`` tests use two connections out of the same source.
        """
        names = list(vm_names)
        if len(names) < 4:
            raise MeasurementError("bottleneck location needs at least four VMs")
        report = BottleneckReport()

        for _ in range(n_distinct):
            a, b, c, d = self._rng.choice(names, size=4, replace=False)
            report.distinct_endpoint_results.append(
                self.measure_interference((str(a), str(b)), (str(c), str(d)))
            )

        for _ in range(n_same_source):
            a, b, c = self._rng.choice(names, size=3, replace=False)
            result = self.measure_interference((str(a), str(b)), (str(a), str(c)))
            report.same_source_results.append(result)
            # Under a hose model the sum of concurrent connections out of a
            # source stays (roughly) at the source's cap, so the solo rate is
            # itself the hose estimate.
            report.hose_rate_estimates_bps.setdefault(
                str(a), result.solo_rate_a_bps
            )

        report.rack_clusters = self.cluster_by_rack(names)
        return report
