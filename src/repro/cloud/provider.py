"""Base class for synthetic cloud providers.

A :class:`CloudProvider` owns:

* a physical multi-rooted-tree topology (§3.3.1) on which VMs are scheduled;
* a per-VM hose-model egress cap (§4.3/§4.4) whose base value is drawn from
  a provider-specific distribution and which drifts slowly over time (the
  temporal stability of §4.1);
* the measurement interface a tenant has on a public cloud: bulk TCP
  transfers (netperf), UDP packet trains, traceroute, and fine-grained probe
  throughput time series;
* an execution interface (:meth:`simulate`) used to "transfer data as
  specified by the placement algorithm and the traffic matrix" (§6.1) on the
  fluid simulator.

Concrete providers (:mod:`repro.cloud.ec2`, :mod:`repro.cloud.ec2_legacy`,
:mod:`repro.cloud.rackspace`) only supply a :class:`ProviderParams`.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field, replace
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro import obs
from repro.errors import CloudError, MeasurementError, SimulationError
from repro.cloud.instances import InstanceType, VirtualMachine, EC2_MEDIUM
from repro.net.fairness import probe_rates_under_load
from repro.net.fluid import FluidResult, FluidSimulation, RateTimeline
from repro.net.flows import Flow
from repro.net.latency import rtt_s
from repro.net.links import hose_link_id
from repro.net.packets import PacketTrainSpec, draw_losses, send_packet_trains
from repro.net.topology import (
    _STRUCTURED_ROUTER_MAX_ENTRIES,
    Topology,
    TreeSpec,
    build_multi_rooted_tree,
    index_pairs,
)
from repro.net.traceroute import traceroute_hop_count
from repro.units import GBITPS

HoseSampler = Callable[[np.random.Generator], float]

#: Probes whose rate was read off a background's water-filling, and the
#: rounds those fills took (``obs.metrics.snapshot()``, ``repro.measure.*``).
SNAPSHOT_PROBES = obs.Counter("repro.measure.snapshot_probes")
SNAPSHOT_ROUNDS = obs.Counter("repro.measure.snapshot_rounds")

# One frozen tree per shape, with its sorted host names: every provider of
# a ``(spec, name)`` shares it, so the tables a topology derives lazily
# (link index, capacity vector, tree tables, routes) are derived once per
# shape, not once per trial.  Bounded like ``_structured_routers``.  A lease
# worker builds providers from several threads.
_shared_trees: Dict[Tuple[TreeSpec, str], Tuple[Topology, Tuple[str, ...]]] = {}
_shared_trees_lock = threading.Lock()


def _shared_tree(spec: TreeSpec, name: str) -> Tuple[Topology, Tuple[str, ...]]:
    key = (spec, name)
    with _shared_trees_lock:
        shared = _shared_trees.get(key)
        if shared is None:
            topology = build_multi_rooted_tree(spec, name=name)
            topology.freeze()
            if len(_shared_trees) >= _STRUCTURED_ROUTER_MAX_ENTRIES:
                _shared_trees.clear()
            shared = _shared_trees[key] = (topology, tuple(topology.hosts()))
    return shared


@dataclass(frozen=True)
class VMFlow:
    """A tenant-level transfer between two VMs.

    Attributes:
        flow_id: unique identifier.
        src_vm, dst_vm: VM names (must exist on the provider).
        size_bytes: bytes to transfer, or ``None`` for a backlogged flow.
        start_time: absolute start time in seconds.
        end_time: stop time for backlogged flows.
        tag: free-form label (application name, "cross-traffic", ...).
    """

    flow_id: str
    src_vm: str
    dst_vm: str
    size_bytes: Optional[float] = None
    start_time: float = 0.0
    end_time: Optional[float] = None
    tag: str = ""


@dataclass
class TrainBatch:
    """Receiver-side observations of one packet train per probed pair.

    What :meth:`CloudProvider.send_packet_trains` returns for a schedule
    of ordered pairs: ``sent[k]`` is the position (in that schedule) of the
    pair whose train is column ``k`` of the burst arrays (shape
    ``(n_bursts, len(sent))``), ascending; ``lost`` maps the position of
    each pair whose probe an injected fault lost to the error its probe
    raises.

    ``first_rx_s``/``last_rx_s`` are the receive times of the first and
    last packet of each burst that arrived.  On a lossy provider,
    ``received`` counts each burst's packets that arrived,
    ``first_index``/``last_index`` are the positions of the first and last
    of them, and ``rtt_s`` is the round-trip time of each train that lost a
    packet (NaN for the rest); all four are ``None`` on a provider that
    loses nothing.
    """

    first_rx_s: np.ndarray
    last_rx_s: np.ndarray
    sent: np.ndarray
    lost: Dict[int, str]
    received: Optional[np.ndarray] = None
    first_index: Optional[np.ndarray] = None
    last_index: Optional[np.ndarray] = None
    rtt_s: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ProviderParams:
    """Everything that distinguishes one synthetic provider from another.

    Attributes:
        name: provider name ("ec2", "rackspace", ...).
        instance_type: instance type handed out by :meth:`request_vms`.
        hose_sampler: draws a VM's base egress cap (bits/s).
        colocation_probability: probability that a newly requested VM is
            placed on the same host as one of the tenant's existing VMs
            (produces the near-4 Gbit/s paths of Figure 2a).
        intra_host_rate_bps: rate between two VMs sharing a host.
        temporal_sigma: stationary relative standard deviation of the
            Ornstein-Uhlenbeck drift applied to each VM's hose rate.
        temporal_tau_s: OU time constant in seconds.
        measurement_noise: relative noise of a single netperf measurement.
        train_jitter_std_s: receiver timestamp jitter for packet trains.
        train_limiter_depth_bytes: token-bucket depth of the provider's rate
            limiter as seen by bursts; ``None`` disables the bucket (the
            burst then drains at the current hose rate directly).
        train_rate_noise: per-train multiplicative rate error floor (models
            conditions changing between the ground-truth and train runs).
        loss_rate: per-packet loss probability for packet trains.
        traceroute_visible_hops: optional hop-count obscuring map (Rackspace
            reports only 1- and 4-hop paths).
        tree_spec: physical topology specification.
    """

    name: str
    instance_type: InstanceType = EC2_MEDIUM
    hose_sampler: HoseSampler = lambda rng: 1 * GBITPS
    colocation_probability: float = 0.0
    intra_host_rate_bps: float = 4 * GBITPS
    temporal_sigma: float = 0.01
    temporal_tau_s: float = 600.0
    measurement_noise: float = 0.003
    train_jitter_std_s: float = 150e-6
    train_limiter_depth_bytes: Optional[float] = None
    train_rate_noise: float = 0.03
    loss_rate: float = 0.0
    traceroute_visible_hops: Optional[Mapping[int, int]] = None
    tree_spec: TreeSpec = field(default_factory=TreeSpec)

    def __post_init__(self) -> None:
        if not 0.0 <= self.colocation_probability <= 1.0:
            raise CloudError("colocation_probability must be in [0, 1]")
        if self.temporal_sigma < 0 or self.temporal_tau_s <= 0:
            raise CloudError("temporal drift parameters are invalid")
        if self.measurement_noise < 0 or self.train_rate_noise < 0:
            raise CloudError("noise parameters must be >= 0")
        if not self.train_jitter_std_s >= 0:
            raise CloudError(
                f"train_jitter_std_s must be >= 0, got {self.train_jitter_std_s!r}"
            )
        depth = self.train_limiter_depth_bytes
        if depth is not None and not depth >= 0:
            raise CloudError(f"train_limiter_depth_bytes must be >= 0, got {depth!r}")
        if not self.intra_host_rate_bps > 0:
            raise CloudError(
                f"intra_host_rate_bps must be positive, got {self.intra_host_rate_bps!r}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise CloudError(f"loss_rate must be in [0, 1), got {self.loss_rate!r}")


class CloudProvider:
    """A synthetic public cloud a tenant can measure and run traffic on."""

    def __init__(self, params: ProviderParams, seed: int = 0):
        self.params = params
        self._rng = np.random.default_rng(seed)
        spec = replace(params.tree_spec, intra_host_bps=params.intra_host_rate_bps)
        self.topology, hosts = _shared_tree(spec, params.name)
        self._clock = 0.0
        self._vms: Dict[str, VirtualMachine] = {}
        self._base_hose: Dict[str, float] = {}
        self._hose_deviation: Dict[str, float] = {}
        self._vm_counter = 0
        # Hosts holding one of the tenant's VMs (with how many) and hosts
        # holding none, both in ``topology.hosts()`` order: what
        # ``request_vms`` draws from, kept up to date VM by VM.
        self._host_vms: Dict[str, int] = {}
        self._used_hosts: List[str] = []
        self._free_hosts: List[str] = list(hosts)
        # VM name -> position in allocation order, and each VM's host index
        # by position; both rebuilt on demand after the VM set changes.
        self._vm_position: Optional[Dict[str, int]] = None
        self._vm_host: Optional[np.ndarray] = None
        #: When set (see :func:`repro.service.timeline.attach_timeline`), VMs
        #: covered by the timeline take their egress cap from it at the
        #: current clock instead of the OU-drifted base — the ground-truth
        #: network then varies epoch by epoch, and everything downstream
        #: (fluid simulation, packet trains, netperf) sees the epoch-correct
        #: rates because they all flow through :meth:`hose_rate`.
        self.hose_timeline = None
        #: When set (see :func:`repro.faults.attach_faults`), discrete fault
        #: events overlay the (possibly timeline-driven) ground truth:
        #: preempted VMs go dark through :meth:`hose_rate`, degraded links
        #: lose a multiplicative factor, and probes of pairs under an active
        #: :class:`~repro.faults.ProbeLoss` window fail or return wild
        #: estimates.  ``None`` (the default) is a guaranteed no-op: no hook
        #: consumes randomness or perturbs a rate, so fault-free runs are
        #: bit-identical to builds that predate fault injection.
        self.fault_timeline = None

    # ------------------------------------------------------------------ VMs
    def request_vms(self, n: int, name_prefix: str = "vm") -> List[VirtualMachine]:
        """Allocate ``n`` VMs, as a tenant would request instances.

        Hosts are chosen uniformly at random among physical machines not yet
        used by this tenant, except that with ``colocation_probability`` a VM
        lands on a host already holding one of the tenant's VMs.
        """
        if n < 1:
            raise CloudError("must request at least one VM")
        new_vms: List[VirtualMachine] = []
        self._vm_position = self._vm_host = None
        for _ in range(n):
            self._vm_counter += 1
            name = f"{name_prefix}{self._vm_counter}"
            colocate = (
                self._used_hosts
                and self._rng.random() < self.params.colocation_probability
            )
            hosts = self._used_hosts if colocate or not self._free_hosts else self._free_hosts
            # ``rng.choice`` of a list draws this very integer, via an array.
            host = hosts[int(self._rng.integers(0, len(hosts)))]
            if host not in self._host_vms:
                del self._free_hosts[bisect.bisect_left(self._free_hosts, host)]
                bisect.insort(self._used_hosts, host)
            self._host_vms[host] = self._host_vms.get(host, 0) + 1
            vm = VirtualMachine(name=name, host=host, instance_type=self.params.instance_type)
            self._vms[name] = vm
            self._base_hose[name] = float(self.params.hose_sampler(self._rng))
            self._hose_deviation[name] = 0.0
            new_vms.append(vm)
        return new_vms

    def vm(self, name: str) -> VirtualMachine:
        """Look up a VM handle by name."""
        try:
            return self._vms[name]
        except KeyError as exc:
            raise CloudError(f"unknown VM {name!r}") from exc

    def vms(self) -> List[VirtualMachine]:
        """All VMs allocated so far, in allocation order."""
        return list(self._vms.values())

    def release_vm(self, name: str) -> None:
        """Return a VM to the provider."""
        if name not in self._vms:
            raise CloudError(f"unknown VM {name!r}")
        host = self._vms.pop(name).host
        del self._base_hose[name]
        del self._hose_deviation[name]
        self._host_vms[host] -= 1
        if not self._host_vms[host]:
            del self._host_vms[host]
            del self._used_hosts[bisect.bisect_left(self._used_hosts, host)]
            bisect.insort(self._free_hosts, host)
        self._vm_position = self._vm_host = None

    # ---------------------------------------------------------------- clock
    @property
    def now(self) -> float:
        """Current provider time in seconds."""
        return self._clock

    def advance_time(self, seconds: float) -> None:
        """Advance the clock, letting per-VM hose rates drift (OU process)."""
        if seconds < 0:
            raise CloudError("cannot advance time backwards")
        if seconds == 0:
            return
        self._clock += seconds
        sigma = self.params.temporal_sigma
        tau = self.params.temporal_tau_s
        decay = math.exp(-seconds / tau)
        innovation_std = sigma * math.sqrt(max(0.0, 1.0 - decay * decay))
        for name in self._hose_deviation:
            self._hose_deviation[name] = (
                self._hose_deviation[name] * decay
                + float(self._rng.normal(0.0, innovation_std))
            )

    # --------------------------------------------------------- ground truth
    def hose_rate(self, vm_name: str) -> float:
        """Current (drifted) egress cap of a VM, in bits/second."""
        self.vm(vm_name)
        rate = None
        if self.hose_timeline is not None:
            rate = self.hose_timeline.hose_rate_at(vm_name, self._clock)
        if rate is None:
            base = self._base_hose[vm_name]
            deviation = self._hose_deviation[vm_name]
            rate = max(base * (1.0 + deviation), 0.05 * base)
        if self.fault_timeline is not None:
            rate = self.fault_timeline.effective_hose_rate(
                vm_name, self._clock, rate
            )
        return rate

    def base_hose_rates(self) -> Dict[str, float]:
        """Each VM's undrifted base egress cap (timeline generators seed
        their epoch-0 matrices from these)."""
        return dict(self._base_hose)

    def true_path_rate(self, src_vm: str, dst_vm: str) -> float:
        """Single-connection throughput absent any other tenant traffic."""
        src, dst = self.vm(src_vm), self.vm(dst_vm)
        if src.host == dst.host:
            return self.params.intra_host_rate_bps
        physical = min(
            link.capacity_bps for link in self.topology.path_links(src.host, dst.host)
        )
        return min(self.hose_rate(src_vm), physical)

    # ---------------------------------------------------------- simulation
    def hose_capacities(self, vms: Optional[Iterable[str]] = None) -> Dict[str, float]:
        """The hose link of each of ``vms`` (default: every VM, what a
        simulation of this network is built with) and its current capacity."""
        names = self._vms if vms is None else vms
        return {hose_link_id(name): self.hose_rate(name) for name in names}

    def _to_net_flow(self, vm_flow: VMFlow) -> Tuple[Flow, List[str]]:
        src, dst = self.vm(vm_flow.src_vm), self.vm(vm_flow.dst_vm)
        flow = Flow(
            flow_id=vm_flow.flow_id,
            src=src.host,
            dst=dst.host,
            size_bytes=vm_flow.size_bytes,
            start_time=vm_flow.start_time,
            end_time=vm_flow.end_time,
            tag=vm_flow.tag,
        )
        # The hose applies to the VM's egress onto the physical network, so
        # intra-host (colocated VM) traffic bypasses it.
        extra = [] if src.host == dst.host else [hose_link_id(vm_flow.src_vm)]
        return flow, extra

    def build_simulation(
        self, vm_flows: Sequence[VMFlow] = ()
    ) -> FluidSimulation:
        """A fluid simulation of this provider's network with the given flows."""
        sim = FluidSimulation(self.topology, extra_capacities=self.hose_capacities())
        self.add_flows(sim, vm_flows)
        return sim

    def add_flows(self, sim: FluidSimulation, vm_flows: Sequence[VMFlow]) -> None:
        """Register VM-level flows on a simulation :meth:`build_simulation`
        made (each crosses its sender's hose unless both VMs share a host)."""
        if vm_flows:
            flows, extras = zip(*map(self._to_net_flow, vm_flows))
            sim.add_flows(flows, extras)

    def simulate(
        self,
        vm_flows: Sequence[VMFlow],
        until: Optional[float] = None,
    ) -> FluidResult:
        """Run the given VM-level flows to completion on the provider network."""
        return self.build_simulation(vm_flows).run(until=until)

    # ----------------------------------------------------- measurement API
    def _probe_fault_factor(self, src_vm: str, dst_vm: str, what: str) -> float:
        """Fault adjustment for one probe: raises on loss, scales on "wild".

        Checked before any probe randomness is consumed, so a lost probe is
        replayable: the same (seed, clock, pair) always fails the same way.
        Returns 1.0 when no fault timeline is attached or no window is
        active — the zero-fault fast path.
        """
        if self.fault_timeline is None:
            return 1.0
        fault = self.fault_timeline.probe_fault(src_vm, dst_vm, self._clock)
        if fault is None:
            return 1.0
        mode, factor = fault
        if mode == "fail":
            raise MeasurementError(self._lost_probe(src_vm, dst_vm, what))
        return factor

    def _lost_probe(self, src_vm: str, dst_vm: str, what: str) -> str:
        return (
            f"{what} {src_vm}->{dst_vm} lost at t={self._clock:.0f}s "
            f"(injected fault)"
        )

    def run_netperf(
        self,
        src_vm: str,
        dst_vm: str,
        duration: float = 10.0,
        background: Sequence[VMFlow] = (),
    ) -> float:
        """Bulk TCP throughput of one connection, netperf-style (bits/s).

        ``background`` flows (e.g. the tenant's running applications) share
        the network with the probe for the duration of the measurement.
        """
        if duration <= 0:
            raise CloudError("duration must be positive")
        wild_factor = self._probe_fault_factor(src_vm, dst_vm, "netperf probe")
        probe = VMFlow(
            flow_id="__netperf__",
            src_vm=src_vm,
            dst_vm=dst_vm,
            size_bytes=None,
            start_time=0.0,
            end_time=duration,
            tag="netperf",
        )
        shifted = [
            replace_background_window(flow, duration) for flow in background
        ]
        result = self.simulate([probe] + shifted, until=duration)
        rate = result.timelines["__netperf__"].average_rate(0.0, duration)
        noise = 1.0 + float(self._rng.normal(0.0, self.params.measurement_noise))
        return max(rate * noise * wild_factor, 0.0)

    def concurrent_netperf(
        self,
        pairs: Sequence[Tuple[str, str]],
        duration: float = 10.0,
    ) -> Dict[Tuple[str, str], float]:
        """Throughput of bulk connections run concurrently on several pairs.

        This is the primitive the bottleneck-location experiment of §3.3.2
        uses: run netperf on both paths at the same time and see whether
        either slows down.
        """
        if duration <= 0:
            raise CloudError("duration must be positive")
        if len(set(pairs)) != len(pairs):
            raise CloudError("concurrent_netperf pairs must be unique")
        flows = [
            VMFlow(
                flow_id=f"__concurrent_{i}__",
                src_vm=src,
                dst_vm=dst,
                size_bytes=None,
                start_time=0.0,
                end_time=duration,
                tag="netperf",
            )
            for i, (src, dst) in enumerate(pairs)
        ]
        result = self.simulate(flows, until=duration)
        rates: Dict[Tuple[str, str], float] = {}
        for i, (src, dst) in enumerate(pairs):
            rate = result.timelines[f"__concurrent_{i}__"].average_rate(0.0, duration)
            noise = 1.0 + float(self._rng.normal(0.0, self.params.measurement_noise))
            rates[(src, dst)] = max(rate * noise, 0.0)
        return rates

    def probe_throughput_series(
        self,
        src_vm: str,
        dst_vm: str,
        duration: float = 10.0,
        sample_interval: float = 0.01,
        background: Sequence[VMFlow] = (),
    ) -> List[Tuple[float, float]]:
        """Per-``sample_interval`` throughput of one bulk probe connection.

        This reproduces the §3.2 measurement: run one bulk transfer for ten
        seconds, log packet timestamps at the receiver, and derive the
        throughput every 10 ms.
        """
        if duration <= 0 or sample_interval <= 0:
            raise CloudError("duration and sample_interval must be positive")
        probe = VMFlow(
            flow_id="__probe__",
            src_vm=src_vm,
            dst_vm=dst_vm,
            size_bytes=None,
            start_time=0.0,
            end_time=duration,
            tag="probe",
        )
        result = self.simulate([probe] + list(background), until=duration)
        timeline = result.timelines["__probe__"]
        return timeline.sample(sample_interval, start=0.0, end=duration)

    def snapshot_rate(
        self,
        src_vm: str,
        dst_vm: str,
        background: Sequence[VMFlow] = (),
        window_s: float = 0.1,
    ) -> float:
        """Instantaneous rate a new bulk connection would get on this path.

        The probe shares the network with ``background`` flows (treated as
        backlogged for the short snapshot window).  Used to model how probes
        and packet trains see the network while the tenant's other
        applications are running.
        """
        return float(self._snapshot_rates([(src_vm, dst_vm)], background, window_s)[0])

    def _snapshot_rates(
        self,
        pairs: Union[Sequence[Tuple[str, str]], np.ndarray],
        background: Sequence[VMFlow],
        window_s: float = 0.1,
    ) -> np.ndarray:
        """:meth:`snapshot_rate` of every pair, each alone with ``background``."""
        if not window_s > 0:
            raise CloudError(f"window_s must be positive, got {window_s!r}")
        pairs = self._pair_positions(pairs)
        return self._loaded_rates(pairs[:, 0], pairs[:, 1], background, window_s)[0]

    def vm_positions(self, names: Iterable[str]) -> np.ndarray:
        """Each named VM's position in allocation order (:meth:`vms`)."""
        position = self._vm_position
        if position is None:
            position = self._vm_position = {
                name: i for i, name in enumerate(self._vms)
            }
        try:
            return np.array([position[name] for name in names], dtype=np.intp)
        except KeyError as exc:
            raise CloudError(f"unknown VM {exc.args[0]!r}") from exc

    def _pair_positions(
        self, pairs: Union[Sequence[Tuple[str, str]], np.ndarray]
    ) -> np.ndarray:
        """Ordered VM pairs as an ``(m, 2)`` array of VM positions.

        ``pairs`` holds ``(src, dst)`` VM names, or already is that array
        (then only checked).
        """
        if isinstance(pairs, np.ndarray):
            return index_pairs(pairs, len(self._vms), "VM positions", CloudError)
        return self.vm_positions(name for pair in pairs for name in pair).reshape(-1, 2)

    def _vm_hosts(self) -> np.ndarray:
        """Each VM's host (:meth:`Topology.host_index`), by VM position."""
        if self._vm_host is None:
            self._vm_host = np.array(
                [self.topology.host_index(vm.host) for vm in self._vms.values()],
                dtype=np.intp,
            )
        return self._vm_host

    def _loaded_rates(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        background: Sequence[VMFlow],
        window_s: float = 0.1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Snapshot rate and narrowest physical link of each probe
        ``src[i] -> dst[i]`` (VM positions in allocation order).

        A snapshot is the probe's rate in the max-min allocation of the
        probe and the backlogged background — what a fresh :meth:`simulate`
        per probe would record, bit for bit.  Probes and background are
        routed in one pass, and :func:`probe_rates_under_load` reads every
        probe's rate off one filling of the background.
        """
        flow_ids = set()
        for flow in background:
            if flow.flow_id in flow_ids:
                raise CloudError(f"duplicate background flow id {flow.flow_id!r}")
            flow_ids.add(flow.flow_id)
        n = src.shape[0]
        if not n:
            return np.zeros(0), np.zeros(0)
        src = np.concatenate(
            (src, self.vm_positions(flow.src_vm for flow in background))
        )
        dst = np.concatenate(
            (dst, self.vm_positions(flow.dst_vm for flow in background))
        )
        ends = self._vm_hosts()[np.column_stack((src, dst))]
        paths = self.topology.path_links_matrix(ends)[0]
        links = self.topology.capacity_vector()
        # A simulation's link order: the topology's links, then one hose per
        # VM in allocation order.  The hose applies to the VM's egress onto
        # the physical network, so intra-host traffic bypasses it; the hose
        # of a VM that sends nothing is on no row and is not read.
        egress = ends[:, 0] != ends[:, 1]
        hose = self._sender_hoses(src[egress])
        rows = np.empty((ends.shape[0], 1 + paths.shape[1]), dtype=np.intp)
        rows[:, 0] = np.where(egress, links.shape[0] + src, -1)
        rows[:, 1:] = paths
        rates, rounds = probe_rates_under_load(
            np.concatenate((links, hose)), rows[n:], rows[:n]
        )
        SNAPSHOT_PROBES.inc(n)
        SNAPSHOT_ROUNDS.inc(rounds)
        physical = np.where(paths[:n] >= 0, links[paths[:n]], np.inf).min(axis=1)
        # RateTimeline.average_rate's own expression for one segment.
        return (0.0 + rates * window_s) / window_s, physical

    def _sender_hoses(self, senders: np.ndarray) -> np.ndarray:
        """Every VM's hose rate by position, read for ``senders`` only (the
        rest stay 0: the clock stands still, so one read per VM serves a
        whole campaign, and a VM that sends nothing has no use for one)."""
        names = list(self._vms)
        hose = np.zeros(len(names))
        for vm in np.flatnonzero(np.bincount(senders, minlength=len(names))).tolist():
            hose[vm] = self.hose_rate(names[vm])
        return hose

    def send_packet_trains(
        self,
        pairs: Union[Sequence[Tuple[str, str]], np.ndarray],
        spec: PacketTrainSpec = PacketTrainSpec(),
        background: Sequence[VMFlow] = (),
    ) -> TrainBatch:
        """Send one packet train on each pair of a schedule, as one array program.

        ``pairs`` is the schedule: an ``(m, 2)`` integer array of VM
        positions (:meth:`vm_positions`), or ``(src, dst)`` names.

        The clock does not move between the trains, so which probes an
        injected fault loses (:attr:`TrainBatch.lost`; they draw nothing),
        every VM's hose rate and the background are fixed up front, and the
        burst model runs over all pairs at once.  Randomness comes in
        blocks: each train that is sent consumes one rate-noise normal and
        ``2 * n_bursts`` jitter normals, in train order; a lossy provider
        then draws every burst's losses (:func:`~repro.net.packets.draw_losses`).
        """
        pairs = self._pair_positions(pairs)
        params = self.params
        src, dst = pairs[:, 0], pairs[:, 1]
        sent = np.arange(pairs.shape[0])
        lost: Dict[int, str] = {}
        wild = None
        if self.fault_timeline is not None:
            names = list(self._vms)
            gone, wild = self.fault_timeline.probe_faults(
                names, src, dst, self._clock
            )
            for i in np.flatnonzero(gone).tolist():
                lost[i] = self._lost_probe(
                    names[src[i]], names[dst[i]], "packet train"
                )
            if lost:
                sent = np.flatnonzero(~gone)
                src, dst, wild = src[sent], dst[sent], wild[sent]

        # What each path offers before this train's noise: the physical
        # bottleneck, and the sender's share of its hose.
        vm_host = self._vm_hosts()
        routed = vm_host[src] != vm_host[dst]
        if background and routed.any():
            available, physical = self._loaded_rates(
                src[routed], dst[routed], background
            )
        else:
            senders = src[routed]
            physical = self.topology.path_bottlenecks(
                np.column_stack((vm_host[senders], vm_host[dst[routed]]))
            )
            available = self._sender_hoses(senders)[senders]

        jittered = params.train_jitter_std_s > 0
        per_train = 1 + (2 * spec.n_bursts if jittered else 0)
        normals = self._rng.standard_normal(sent.shape[0] * per_train)
        normals = normals.reshape(sent.shape[0], per_train)
        # rng.normal(0.0, s) is 0.0 + s * z on the same stream.
        rate_noise = 1.0 + (0.0 + params.train_rate_noise * normals[:, 0])
        rate_noise = np.maximum(rate_noise, 0.2)
        if wild is not None:
            rate_noise = rate_noise * wild
        available = available * rate_noise[routed]
        line_rate = 10 * GBITPS
        unlimited = params.intra_host_rate_bps * rate_noise
        depth = params.train_limiter_depth_bytes
        if depth is None:
            # Hose enforcement is smooth: the burst drains at the available rate.
            unlimited[routed] = np.minimum(available, physical)
            limiter_rate = None
        else:
            # Colocated VMs bypass the limiter.  A bucket refilled at the
            # path's own fast rate never binds and drains a burst in the
            # unlimited path's very expression, so one call serves both.
            unlimited[routed] = physical
            limiter_rate = np.minimum(line_rate, unlimited)
            limiter_rate[routed] = available
        received = first_index = last_index = rtt = None
        if params.loss_rate > 0:
            received, first_index, last_index = draw_losses(
                self._rng, spec, params.loss_rate, sent.shape[0]
            )
            # The Mathis bound needs the RTT of every train that lost a packet.
            lossy = np.flatnonzero((received < spec.burst_length).any(axis=0))
            hosts = [vm.host for vm in self._vms.values()]
            hops = [
                self.topology.hop_count(hosts[s], hosts[d])
                for s, d in zip(src[lossy].tolist(), dst[lossy].tolist())
            ]
            rtt = np.full(sent.shape[0], np.nan)
            rtt[lossy] = rtt_s(np.array(hops, dtype=np.intp))
        first_rx, last_rx = send_packet_trains(
            spec,
            line_rate_bps=line_rate,
            unlimited_rate_bps=unlimited,
            base_delay_s=np.where(routed, 100e-6, 20e-6),
            jitter_std_s=params.train_jitter_std_s,
            normals=normals[:, 1:],
            limiter_rate_bps=limiter_rate,
            limiter_depth_bytes=depth,
            first_index=first_index,
            last_index=last_index,
        )
        return TrainBatch(
            first_rx, last_rx, sent, lost, received, first_index, last_index, rtt
        )

    def traceroute(self, src_vm: str, dst_vm: str) -> int:
        """Hop count reported by traceroute (possibly obscured by the provider)."""
        src, dst = self.vm(src_vm), self.vm(dst_vm)
        if src.host == dst.host:
            return 1
        return traceroute_hop_count(
            self.topology,
            src.host,
            dst.host,
            visible_hops=self.params.traceroute_visible_hops,
        )


def replace_background_window(flow: VMFlow, duration: float) -> VMFlow:
    """Clamp a background flow into the measurement window ``[0, duration]``.

    Measurement helpers simulate only the probe window, so background flows
    are treated as backlogged for the (short) duration of the measurement —
    the same approximation the paper makes when it measures while other
    applications run.
    """
    return VMFlow(
        flow_id=flow.flow_id,
        src_vm=flow.src_vm,
        dst_vm=flow.dst_vm,
        size_bytes=None,
        start_time=0.0,
        end_time=duration,
        tag=flow.tag or "background",
    )
