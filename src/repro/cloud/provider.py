"""Synthetic cloud providers.

A :class:`CloudProvider` owns:

* a physical multi-rooted-tree topology (§3.3.1) on which VMs are scheduled;
* a per-VM hose-model egress cap (§4.3/§4.4) whose base value is drawn from
  a provider-specific distribution and which drifts slowly over time (the
  temporal stability of §4.1);
* the measurement interface a tenant has on a public cloud: bulk TCP
  transfers (netperf), UDP packet trains and traceroute;
* an execution interface (:meth:`simulate`) used to "transfer data as
  specified by the placement algorithm and the traffic matrix" (§6.1) on the
  fluid simulator.

A provider is a :class:`ProviderParams` record (:mod:`repro.cloud.ec2`,
:mod:`repro.cloud.ec2_legacy` and :mod:`repro.cloud.rackspace` each make
one); :func:`repro.cloud.registry.make_provider` builds one by name.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field, replace
from typing import (
    Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

import numpy as np

from repro import obs
from repro.errors import CloudError, MeasurementError
from repro.cloud.instances import InstanceType, VirtualMachine, EC2_MEDIUM
from repro.net.fairness import probe_rates_under_load
from repro.net.fluid import FluidResult, FluidSimulation
from repro.net.flows import Flow
from repro.net.latency import rtt_s
from repro.net.links import hose_link_id
from repro.net.packets import PacketTrainSpec, draw_losses, send_packet_trains
from repro.net.topology import (
    Topology,
    TreeSpec,
    build_multi_rooted_tree,
    index_pairs,
)
from repro.net.traceroute import traceroute_hop_count
from repro.units import BITS_PER_BYTE, GBITPS

HoseSampler = Callable[[np.random.Generator], float]

#: Probes whose rate was read off a background's water-filling, and the
#: rounds those fills took (``obs.metrics.snapshot()``, ``repro.measure.*``).
SNAPSHOT_PROBES = obs.Counter("repro.measure.snapshot_probes")
SNAPSHOT_ROUNDS = obs.Counter("repro.measure.snapshot_rounds")
#: Rows of route tables built: every ordered pair of a tenant's VMs, each
#: time its VM set changes (``repro.routes.table_rows``).
ROUTE_TABLE_ROWS = obs.Counter("repro.routes.table_rows")

# One frozen tree per shape, with its sorted host names: every provider of
# a ``(spec, name)`` shares it, so the tables a topology derives lazily
# (link index, capacity vector, tree tables, routes, ECMP host keys) are
# derived once per shape, not once per trial.  Providers may be built from
# several threads of one process.
_SHARED_TREES_MAX_ENTRIES = 1024
_shared_trees: Dict[Tuple[TreeSpec, str], Tuple[Topology, Tuple[str, ...]]] = {}
_shared_trees_lock = threading.Lock()


def _shared_tree(spec: TreeSpec, name: str) -> Tuple[Topology, Tuple[str, ...]]:
    key = (spec, name)
    with _shared_trees_lock:
        shared = _shared_trees.get(key)
        if shared is None:
            topology = build_multi_rooted_tree(spec, name=name)
            topology.freeze()
            if len(_shared_trees) >= _SHARED_TREES_MAX_ENTRIES:
                _shared_trees.clear()
            shared = _shared_trees[key] = (topology, tuple(topology.hosts()))
    return shared


@dataclass(frozen=True)
class VMFlow:
    """A tenant-level transfer between two VMs.

    Attributes:
        flow_id: unique identifier.
        src_vm, dst_vm: VM names (must exist on the provider).
        size_bytes: bytes to transfer.
        start_time: absolute start time in seconds.
        tag: free-form label (application name, "cross-traffic", ...).
    """

    flow_id: str
    src_vm: str
    dst_vm: str
    size_bytes: float
    start_time: float = 0.0
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


class _Routes(NamedTuple):
    """Every ordered pair of a tenant's VMs, routed once.

    Row ``s * n + d`` (``n`` VMs) is the pair of VM positions ``(s, d)``;
    a pair on one host crosses that host's loopback link.
    """

    links: np.ndarray  # [pair, hop] link indices (:meth:`Topology.links`), -1 padded
    lengths: np.ndarray  # [pair] links on the path: the paper's hop count
    bottleneck: np.ndarray  # [pair] capacity of the narrowest link


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
        checks = (
            ("colocation_probability", lambda x: 0.0 <= x <= 1.0, "in [0, 1]"),
            ("temporal_sigma", lambda x: 0.0 <= x < math.inf, "finite and >= 0"),
            ("temporal_tau_s", lambda x: 0.0 < x < math.inf, "finite and positive"),
            ("measurement_noise", lambda x: 0.0 <= x < math.inf, "finite and >= 0"),
            ("train_jitter_std_s", lambda x: 0.0 <= x < math.inf, "finite and >= 0"),
            (
                "train_limiter_depth_bytes",
                lambda x: x is None or 0.0 <= x < math.inf,
                "None, or finite and >= 0",
            ),
            ("train_rate_noise", lambda x: 0.0 <= x < math.inf, "finite and >= 0"),
            ("intra_host_rate_bps", lambda x: 0.0 < x < math.inf, "finite and positive"),
            ("loss_rate", lambda x: 0.0 <= x < 1.0, "in [0, 1)"),
        )
        for name, holds, what in checks:
            value = getattr(self, name)
            if not holds(value):
                raise CloudError(f"ProviderParams.{name} must be {what}, got {value!r}")


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
        # VM name -> position in allocation order, each VM's host index by
        # position, and the routes between every two VMs; all rebuilt on
        # demand after the VM set changes.
        self._vm_position: Optional[Dict[str, int]] = None
        self._vm_host: Optional[np.ndarray] = None
        self._routes: Optional[_Routes] = None
        #: When set (see :func:`repro.service.timeline.attach_timeline`), the
        #: ground truth follows the timeline: VMs its drift table covers take
        #: their egress cap from it at the current clock instead of the
        #: OU-drifted base, preempted VMs go dark, degraded links lose a
        #: multiplicative factor, and probes of pairs under an active
        #: :class:`~repro.service.timeline.ProbeLoss` window fail or return
        #: wild estimates.  Everything downstream (fluid simulation, packet
        #: trains, netperf) sees it because it all flows through
        #: :meth:`_hose_rates` and the probe paths.  A timeline without fault
        #: events leaves the probe paths alone: no hook consumes randomness
        #: or perturbs a rate.
        self.timeline = None

    def copy(self) -> "CloudProvider":
        """An independent provider in this one's exact state.

        Only the mutable state is copied: the random stream (by its
        bit-generator state, a quarter of a ``deepcopy``'s cost), the clock,
        the VM counter and the VM, hose and host books.  The frozen tree,
        ``params``, the ``timeline`` and the position and route caches are
        shared: none is changed in place, and a VM-set change replaces the
        caches rather than editing them.  The placers of one trial each run
        on a copy of one built provider.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        bit_generator = type(self._rng.bit_generator)(0)
        bit_generator.state = self._rng.bit_generator.state
        twin._rng = np.random.Generator(bit_generator)
        twin._vms = dict(self._vms)
        twin._base_hose = dict(self._base_hose)
        twin._hose_deviation = dict(self._hose_deviation)
        twin._host_vms = dict(self._host_vms)
        twin._used_hosts = list(self._used_hosts)
        twin._free_hosts = list(self._free_hosts)
        return twin

    # ------------------------------------------------------------------ VMs
    def request_vms(self, n: int, name_prefix: str = "vm") -> List[VirtualMachine]:
        """Allocate ``n`` VMs, as a tenant would request instances.

        Hosts are chosen uniformly at random among physical machines not yet
        used by this tenant, except that with ``colocation_probability`` a VM
        lands on a host already holding one of the tenant's VMs.  A sampled
        egress cap that is not finite and positive raises a
        :class:`CloudError` and hands back the VMs this call had drawn (the
        random stream stays advanced).
        """
        if n < 1:
            raise CloudError("must request at least one VM")
        new_vms: List[VirtualMachine] = []
        self._vm_position = self._vm_host = self._routes = None
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
            cap = float(self.params.hose_sampler(self._rng))
            if not 0.0 < cap < math.inf:
                for vm in new_vms:
                    self.release_vm(vm.name)
                self._vm_counter -= len(new_vms) + 1
                raise CloudError(
                    f"provider {self.params.name!r}: hose_sampler drew {cap!r} "
                    f"for {name!r}; an egress cap must be finite and positive"
                )
            if host not in self._host_vms:
                del self._free_hosts[bisect.bisect_left(self._free_hosts, host)]
                bisect.insort(self._used_hosts, host)
            self._host_vms[host] = self._host_vms.get(host, 0) + 1
            vm = VirtualMachine(name=name, host=host, instance_type=self.params.instance_type)
            self._vms[name] = vm
            self._base_hose[name] = cap
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
        self._vm_position = self._vm_host = self._routes = None

    # ---------------------------------------------------------------- clock
    @property
    def now(self) -> float:
        """Current provider time in seconds."""
        return self._clock

    @property
    def fault_timeline(self):
        """The attached :attr:`timeline` (read-only; the ``churn_day``
        benchmark workload counts its ``n_events``)."""
        return self.timeline

    def advance_time(self, seconds: float) -> None:
        """Advance the clock, letting per-VM hose rates drift (OU process).

        This drift is not part of the :attr:`timeline`, and a timeline's
        drift table overrides it only in :meth:`_hose_rates`: the innovations
        are drawn from the provider's own random stream here, in between
        the draws of the probes, so sampling them ahead of time would move
        every probe's noise and with it every seeded result.
        """
        if not (math.isfinite(seconds) and seconds >= 0):
            raise CloudError(f"seconds must be finite and >= 0, got {seconds!r}")
        if seconds == 0:
            return
        self._clock += seconds
        sigma = self.params.temporal_sigma
        tau = self.params.temporal_tau_s
        decay = math.exp(-seconds / tau)
        innovation_std = sigma * math.sqrt(max(0.0, 1.0 - decay * decay))
        # One innovation per VM, in allocation order: the very draws of one
        # ``normal(0.0, innovation_std)`` call per VM.
        deviation = self._hose_deviation
        draws = self._rng.normal(0.0, innovation_std, size=len(deviation))
        drifted = np.fromiter(deviation.values(), np.float64, len(deviation))
        drifted *= decay
        drifted += draws
        self._hose_deviation = dict(zip(deviation, drifted.tolist()))

    # --------------------------------------------------------- ground truth
    def hose_rate(self, vm_name: str) -> float:
        """Current (drifted) egress cap of a VM, in bits/second: its entry of
        :meth:`_hose_rates`."""
        position = self._positions().get(vm_name)
        if position is None:
            raise CloudError(f"unknown VM {vm_name!r}")
        return float(self._hose_rates()[position])

    def _hose_rates(self) -> np.ndarray:
        """Every VM's current egress cap, by position (allocation order).

        Each VM's own cap is its OU-drifted base, ``max(base * (1 +
        deviation), 0.05 * base)``; an attached :attr:`timeline` then
        replaces it where its drift table covers the VM and applies its
        faults (:meth:`~repro.service.timeline.Timeline.hose_rates`).
        """
        n = len(self._base_hose)
        base = np.fromiter(self._base_hose.values(), np.float64, n)
        deviation = np.fromiter(self._hose_deviation.values(), np.float64, n)
        rates = np.maximum(base * (1.0 + deviation), 0.05 * base)
        if self.timeline is not None:
            rates = self.timeline.hose_rates(list(self._vms), self._clock, rates)
        return rates

    def base_hose_rates(self) -> Dict[str, float]:
        """Each VM's undrifted base egress cap (timeline generators seed
        their epoch-0 matrices from these)."""
        return dict(self._base_hose)

    def true_path_rates(self, vms: Sequence[str]) -> np.ndarray:
        """Single-connection throughput of every ordered pair of ``vms``
        absent any other tenant traffic, as an array in ``vms`` order.

        Two VMs on one host (the diagonal too) get the intra-host rate; any
        other pair the lower of its sender's hose and the narrowest link of
        its route (:meth:`_route_table`).  One hose read serves every pair.
        """
        at = self.vm_positions(vms)
        physical = self._route_table().bottleneck[
            at[:, None] * len(self._vms) + at[None, :]
        ]
        rates = np.minimum(self._hose_rates()[at][:, None], physical)
        host = self._vm_hosts()[at]
        rates[host[:, None] == host[None, :]] = self.params.intra_host_rate_bps
        return rates

    # ---------------------------------------------------------- simulation
    def hose_capacities(self, vms: Optional[Iterable[str]] = None) -> Dict[str, float]:
        """The hose link of each of ``vms`` (default: every VM, what a
        simulation of this network is built with) and its current capacity."""
        rates = self._hose_rates()
        if vms is None:
            names: Iterable[str] = self._vms
        else:
            names = list(vms)
            rates = rates[self.vm_positions(names)]
        return {hose_link_id(name): rate for name, rate in zip(names, rates.tolist())}

    def _to_net_flow(self, vm_flow: VMFlow) -> Tuple[Flow, List[str]]:
        src, dst = self.vm(vm_flow.src_vm), self.vm(vm_flow.dst_vm)
        flow = Flow(
            flow_id=vm_flow.flow_id,
            src=src.host,
            dst=dst.host,
            size_bytes=vm_flow.size_bytes,
            start_time=vm_flow.start_time,
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
        Returns 1.0 when the timeline has no fault events or no window is
        active — the zero-fault fast path.
        """
        if self.timeline is None or not self.timeline.events:
            return 1.0
        fault = self.timeline.probe_fault(src_vm, dst_vm, self._clock)
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

    def run_netperf(self, src_vm: str, dst_vm: str, duration: float = 10.0) -> float:
        """Bulk TCP throughput of one connection, netperf-style (bits/s)."""
        wild_factor = self._probe_fault_factor(src_vm, dst_vm, "netperf probe")
        (rate,) = self._bulk_rates([(src_vm, dst_vm)], duration)
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
        if len(set(pairs)) != len(pairs):
            raise CloudError("concurrent_netperf pairs must be unique")
        rates: Dict[Tuple[str, str], float] = {}
        for pair, rate in zip(pairs, self._bulk_rates(pairs, duration)):
            noise = 1.0 + float(self._rng.normal(0.0, self.params.measurement_noise))
            rates[pair] = max(rate * noise, 0.0)
        return rates

    def _bulk_rates(
        self, pairs: Sequence[Tuple[str, str]], duration: float
    ) -> List[float]:
        """Mean rate of one bulk connection per pair, all run together for
        ``duration`` seconds: flows too big to finish, cut off at ``until``.

        No flow outruns the fastest link it crosses, so twice the bytes the
        fastest link moves in the window outlast it; a max-min share does
        not depend on a flow's size.
        """
        if not 0 < duration < math.inf:
            raise CloudError(
                f"netperf duration must be finite and positive, got {duration!r}"
            )
        sim = self.build_simulation()
        size = 2 * duration * max(sim.capacities.values()) / BITS_PER_BYTE
        flow_ids = [f"__netperf_{i}__" for i in range(len(pairs))]
        self.add_flows(
            sim,
            [
                VMFlow(flow_id, src, dst, size, tag="netperf")
                for flow_id, (src, dst) in zip(flow_ids, pairs)
            ],
        )
        timelines = sim.run(until=duration).timelines
        return [
            timelines[flow_id].average_rate(0.0, duration) for flow_id in flow_ids
        ]

    def _positions(self) -> Dict[str, int]:
        """VM name -> position in allocation order (:meth:`vms`)."""
        position = self._vm_position
        if position is None:
            position = self._vm_position = {
                name: i for i, name in enumerate(self._vms)
            }
        return position

    def vm_positions(self, names: Iterable[str]) -> np.ndarray:
        """Each named VM's position in allocation order (:meth:`vms`)."""
        position = self._positions()
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

    def _route_table(self) -> _Routes:
        """The routes between every two of the tenant's VMs, by position.

        Routed in one :meth:`Topology.path_links_matrix` call the first
        time a campaign needs a path, and kept until the VM set changes:
        every campaign after that gathers its probes' and its background's
        rows, bottlenecks and hop counts from here instead of routing them.
        """
        if self._routes is None:
            hosts = self._vm_hosts()
            n = hosts.shape[0]
            # Row s * n + d is the pair (s, d); a (2, n * n) array whose
            # transpose the router reads without a copy.
            links, lengths, _ = self.topology.path_links_matrix(
                hosts[np.array(np.divmod(np.arange(n * n), n))].T
            )
            # A -1 padding entry reads the appended +inf.
            capacity = np.append(self.topology.capacity_vector(), np.inf)
            self._routes = _Routes(links, lengths, capacity[links].min(axis=1))
            ROUTE_TABLE_ROWS.inc(n * n)
        return self._routes

    def _loaded_rates(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        background: Sequence[VMFlow],
        window_s: float = 0.1,
    ) -> np.ndarray:
        """Snapshot rate of each probe ``src[i] -> dst[i]`` (VM positions in
        allocation order).

        A snapshot is the probe's rate in the max-min allocation of the
        probe and the backlogged background — what a fresh :meth:`simulate`
        per probe would record, bit for bit.  Probes and background read
        their paths off the route table, and :func:`probe_rates_under_load`
        reads every probe's rate off one filling of the background.
        """
        flow_ids = set()
        for flow in background:
            if flow.flow_id in flow_ids:
                raise CloudError(f"duplicate background flow id {flow.flow_id!r}")
            flow_ids.add(flow.flow_id)
        n = src.shape[0]
        if not n:
            return np.zeros(0)
        src = np.concatenate(
            (src, self.vm_positions(flow.src_vm for flow in background))
        )
        dst = np.concatenate(
            (dst, self.vm_positions(flow.dst_vm for flow in background))
        )
        paths = self._route_table().links[src * len(self._vms) + dst]
        links = self.topology.capacity_vector()
        # A simulation's link order: the topology's links, then one hose per
        # VM in allocation order.  The hose applies to the VM's egress onto
        # the physical network, so intra-host traffic bypasses it; the hose
        # of a VM that sends nothing is on no row and is not read.
        vm_host = self._vm_hosts()
        egress = vm_host[src] != vm_host[dst]
        hose = self._hose_rates()
        rows = np.empty((paths.shape[0], 1 + paths.shape[1]), dtype=np.intp)
        rows[:, 0] = np.where(egress, links.shape[0] + src, -1)
        rows[:, 1:] = paths
        rates, rounds = probe_rates_under_load(
            np.concatenate((links, hose)), rows[n:], rows[:n]
        )
        SNAPSHOT_PROBES.inc(n)
        SNAPSHOT_ROUNDS.inc(rounds)
        # RateTimeline.average_rate's own expression for one segment.
        return (0.0 + rates * window_s) / window_s

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
        every VM's hose rate and the background are fixed up front, every
        path is read off the route table, and the burst model runs over all
        bursts of all pairs at once.  Randomness comes in
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
        if self.timeline is not None and self.timeline.events:
            names = list(self._vms)
            gone, wild = self.timeline.probe_faults(
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
        routes = self._route_table()
        at = src * len(self._vms) + dst
        physical = routes.bottleneck[at[routed]]
        if background and routed.any():
            available = self._loaded_rates(src[routed], dst[routed], background)
        else:
            available = self._hose_rates()[src[routed]]

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
            # The Mathis bound needs the RTT of every train that lost a
            # packet; a route's length is its hop count (1 on one host).
            lossy = np.flatnonzero((received < spec.burst_length).any(axis=0))
            rtt = np.full(sent.shape[0], np.nan)
            rtt[lossy] = rtt_s(routes.lengths[at[lossy]])
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
