"""The ground truth a provider's network follows (§6.1's drifting cloud).

A :class:`Timeline` is one seeded, replayable record of everything that
changes the network under a session, in two parts:

* **drift** — one hose-rate matrix per epoch (an hour by default).  It
  *replaces* the provider's slow Ornstein-Uhlenbeck hose drift for the VMs
  it covers, so the fluid simulator, packet trains and netperf all see the
  epoch-correct network: every ground-truth path in
  :class:`~repro.cloud.provider.CloudProvider` flows through its hose
  vector (:meth:`Timeline.hose_rates`).
  A timeline may carry no drift table, and then the provider keeps its own;
* **fault events** — real clouds also fail discretely: a link degrades for
  a while (:class:`LinkDegradation`), a VM is preempted and never comes
  back (:class:`VmPreemption`), a burst of packet-train probes is lost or
  returns wild estimates (:class:`ProbeLoss`).  The provider applies them
  in its hose vector and the probe paths; the
  :class:`~repro.service.engine.PlacementService` consumes them at epoch
  ticks and heals (re-place preempted apps, re-measure degraded links,
  coast on cached rates through probe loss).

A VM's rate at time ``t`` is the epoch rate (or the provider's own drift
when the timeline does not cover the VM), then either the preemption floor
or that rate times every degradation active at ``t``.  A timeline with **no
events is inert to the probe paths**: every fault hook short-circuits before
consuming randomness or perturbing a rate.

Timelines come from two places: :func:`generate_timeline` runs a named
drift generator and a named fault generator over a provider's base rates,
and :meth:`Timeline.load` reads one :meth:`Timeline.save` wrote (for
instance to replay a chaotic session).  :func:`attach_timeline` hooks one
onto a provider.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ServiceError

#: Epoch length matching the paper's hourly predictability analysis.
DEFAULT_EPOCH_S = 3600.0

#: Drift epochs generated past the session horizon so draining flows stay
#: on a defined (still drifting) network.
TAIL_EPOCHS = 8

#: Egress rate of a preempted VM: effectively dark, but non-zero so the
#: fluid simulator's positive-rate invariants hold while the service heals.
PREEMPTED_RATE_BPS = 1.0

_SCHEMA = "repro.service/timeline/v2"

#: Seed offsets: the drift and fault streams must not be correlated with the
#: provider's own RNG (which seeds VM host choices and hose caps) or with
#: each other.
_DRIFT_SEED_SALT = 0x7117E
_FAULT_SEED_SALT = 0xFA0175


def _check_window(what: str, start_s: float, end_s: float) -> None:
    """A window must start at a finite time and end after it starts (an
    infinite end is a window that never closes)."""
    if not (math.isfinite(start_s) and start_s < end_s):
        raise ServiceError(
            f"{what} must start at a finite time and end after it starts "
            f"(start_s={start_s}, end_s={end_s})"
        )


# ---------------------------------------------------------------------------
# Fault events
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class LinkDegradation:
    """A VM's egress rate is multiplied by ``multiplier`` over an interval.

    Active while ``start_s <= t < end_s``; overlapping degradations on the
    same VM compose multiplicatively.
    """

    vm: str
    start_s: float
    end_s: float
    multiplier: float

    def __post_init__(self) -> None:
        _check_window(f"degradation of {self.vm!r}", self.start_s, self.end_s)
        if not 0.0 < self.multiplier < 1.0:
            raise ServiceError(
                f"degradation multiplier of {self.vm!r} must be in (0, 1), "
                f"got {self.multiplier}"
            )

    @property
    def effect_time_s(self) -> float:
        return self.start_s


@dataclass(frozen=True)
class VmPreemption:
    """A VM disappears at ``time_s`` and never returns.

    The provider keeps the handle alive (its hose collapses to
    :data:`PREEMPTED_RATE_BPS`) so in-flight simulation stays well-formed;
    the service removes the VM from its cluster and re-places affected
    applications at the next epoch tick.
    """

    vm: str
    time_s: float

    def __post_init__(self) -> None:
        if not (self.time_s >= 0 and math.isfinite(self.time_s)):
            raise ServiceError(
                f"preemption of {self.vm!r} needs a finite time >= 0, "
                f"got {self.time_s}"
            )

    @property
    def effect_time_s(self) -> float:
        return self.time_s


@dataclass(frozen=True)
class ProbeLoss:
    """Packet-train probes of one ordered pair fail or go wild for a while.

    ``mode="fail"`` makes probes of ``(src, dst)`` raise (lost trains);
    ``mode="wild"`` makes them return ``factor`` times the true estimate
    (interrupt coalescing / burst compression artefacts, §3.1).  Active
    while ``start_s <= t < end_s``.  True transfer rates are unaffected —
    only the *measurement* of them.
    """

    src: str
    dst: str
    start_s: float
    end_s: float
    mode: str = "fail"
    factor: float = 1.0

    def __post_init__(self) -> None:
        what = f"probe loss on ({self.src!r}, {self.dst!r})"
        if self.src == self.dst:
            raise ServiceError("probe-loss pair must not be a self pair")
        _check_window(what, self.start_s, self.end_s)
        if self.mode not in ("fail", "wild"):
            raise ServiceError(
                f"{what}: mode must be 'fail' or 'wild', got {self.mode!r}"
            )
        if not math.isfinite(self.factor):
            raise ServiceError(f"{what}: factor must be finite, got {self.factor}")
        if self.mode == "wild" and (self.factor <= 0 or self.factor == 1.0):
            raise ServiceError(
                f"{what}: wild probe factor must be positive and != 1, "
                f"got {self.factor}"
            )

    @property
    def effect_time_s(self) -> float:
        return self.start_s


FaultEvent = Union[LinkDegradation, VmPreemption, ProbeLoss]

#: Deterministic ordering for events sharing an effect time.
_KIND_ORDER = {VmPreemption: 0, LinkDegradation: 1, ProbeLoss: 2}

_KIND_NAMES = {
    VmPreemption: "vm-preemption",
    LinkDegradation: "link-degradation",
    ProbeLoss: "probe-loss",
}


def _event_sort_key(event: FaultEvent) -> Tuple:
    if isinstance(event, VmPreemption):
        tail: Tuple = (event.vm,)
    elif isinstance(event, LinkDegradation):
        tail = (event.vm, event.end_s)
    else:
        tail = (event.src, event.dst, event.end_s)
    return (event.effect_time_s, _KIND_ORDER[type(event)], tail)


def _event_record(event: FaultEvent) -> Dict[str, object]:
    record: Dict[str, object] = {"kind": _KIND_NAMES[type(event)]}
    if isinstance(event, VmPreemption):
        record.update(vm=event.vm, time_s=event.time_s)
    elif isinstance(event, LinkDegradation):
        record.update(
            vm=event.vm, start_s=event.start_s, end_s=event.end_s,
            multiplier=event.multiplier,
        )
    else:
        record.update(
            src=event.src, dst=event.dst, start_s=event.start_s,
            end_s=event.end_s, mode=event.mode, factor=event.factor,
        )
    return record


def _event_from_record(record) -> FaultEvent:
    kind = record["kind"]
    if kind == "vm-preemption":
        return VmPreemption(vm=str(record["vm"]), time_s=float(record["time_s"]))
    if kind == "link-degradation":
        return LinkDegradation(
            vm=str(record["vm"]),
            start_s=float(record["start_s"]),
            end_s=float(record["end_s"]),
            multiplier=float(record["multiplier"]),
        )
    if kind == "probe-loss":
        return ProbeLoss(
            src=str(record["src"]),
            dst=str(record["dst"]),
            start_s=float(record["start_s"]),
            end_s=float(record["end_s"]),
            mode=str(record.get("mode", "fail")),
            factor=float(record.get("factor", 1.0)),
        )
    raise ValueError(f"unknown event kind {kind!r}")


# ---------------------------------------------------------------------------
# The timeline
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Timeline:
    """Per-epoch hose rates plus discrete fault events.

    Attributes:
        epoch_s: epoch length in seconds (an hour by default).
        hose_epochs: one ``{vm: egress_bps}`` mapping per epoch, every one
            covering the same VM set; empty when the provider keeps its own
            drift.  Queries past the last epoch clamp to it, so simulations
            that run past the session horizon stay defined.
        events: the fault events, stored sorted by (effect time, kind,
            target).
        drift, faults: the generators that produced the two parts
            (``"recorded"`` for hand-built ones), for reports.
    """

    epoch_s: float = DEFAULT_EPOCH_S
    hose_epochs: Tuple[Dict[str, float], ...] = ()
    events: Tuple[FaultEvent, ...] = ()
    drift: str = "recorded"
    faults: str = "recorded"

    def __post_init__(self) -> None:
        if not 0 < self.epoch_s < math.inf:
            raise ServiceError(f"epoch_s must be finite and positive, got {self.epoch_s!r}")
        object.__setattr__(self, "hose_epochs", tuple(self.hose_epochs))
        vms = set(self.hose_epochs[0]) if self.hose_epochs else set()
        if self.hose_epochs and not vms:
            raise ServiceError("timeline epochs must cover at least one VM")
        for index, epoch in enumerate(self.hose_epochs):
            if set(epoch) != vms:
                raise ServiceError(
                    f"epoch {index} covers a different VM set than epoch 0"
                )
            for vm, rate in epoch.items():
                if not 0 < rate < math.inf:
                    raise ServiceError(
                        f"epoch {index} has a non-finite or non-positive rate "
                        f"for {vm!r}: {rate!r}"
                    )
        for event in self.events:
            if not isinstance(event, (LinkDegradation, VmPreemption, ProbeLoss)):
                raise ServiceError(
                    f"unknown fault event type {type(event).__name__}"
                )
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=_event_sort_key))
        )
        # The rate and probe hooks ask "is this VM gone yet?" on every
        # call; events are immutable, so answer from an index built once.
        preempted_at: Dict[str, float] = {}
        for event in self.events:  # sorted: the first hit is the earliest
            if isinstance(event, VmPreemption):
                preempted_at.setdefault(event.vm, event.time_s)
        object.__setattr__(self, "_preempted_at", preempted_at)

    # ------------------------------------------------------------- inspection
    @property
    def n_epochs(self) -> int:
        return len(self.hose_epochs)

    @property
    def n_events(self) -> int:
        """Fault events only: a drift table counts none."""
        return len(self.events)

    def vms(self) -> List[str]:
        """Every VM the drift table covers or an event names (sorted)."""
        names = set(self.hose_epochs[0]) if self.hose_epochs else set()
        for event in self.events:
            if isinstance(event, ProbeLoss):
                names.update((event.src, event.dst))
            else:
                names.add(event.vm)
        return sorted(names)

    def epoch_of(self, time_s: float) -> int:
        """The (clamped) drift epoch containing ``time_s``."""
        if time_s < 0:
            raise ServiceError("timeline queried at negative time")
        return min(int(time_s // self.epoch_s), self.n_epochs - 1)

    def events_between(self, t0: float, t1: float) -> List[FaultEvent]:
        """Events whose effect time falls in ``(t0, t1]``, in replay order."""
        return [e for e in self.events if t0 < e.effect_time_s <= t1]

    def pending_after(self, t: float) -> bool:
        """True if any event takes effect strictly after ``t``."""
        return any(e.effect_time_s > t for e in self.events)

    # ----------------------------------------------------------- rate effects
    def preempted(self, vm: str, t: float) -> bool:
        """True once ``vm`` has been preempted at or before ``t``."""
        at = self._preempted_at.get(vm)
        return at is not None and at <= t

    def hose_rates(self, vms: Sequence[str], t: float, own: np.ndarray) -> np.ndarray:
        """The egress cap of each of ``vms`` at ``t``, given ``own``, the
        provider's own (OU-drifted) caps in the same order.

        A VM the drift table covers takes the rate of ``t``'s epoch instead
        of its own.  Then the faults: a preempted VM collapses to
        :data:`PREEMPTED_RATE_BPS`, and every other takes the product of the
        degradations active on it at ``t``, multiplied in event order
        starting from 1.0 (with none, its rate is unchanged).  Returns a
        new array.
        """
        if self.hose_epochs:
            epoch = self.hose_epochs[self.epoch_of(t)]
            rates = np.fromiter(
                (epoch.get(vm, rate) for vm, rate in zip(vms, own.tolist())),
                np.float64, count=len(vms),
            )
        else:
            rates = np.array(own, dtype=np.float64)
        if self.events:
            index = {vm: i for i, vm in enumerate(vms)}
            factor = np.ones(len(vms))
            for event in self.events:
                if (
                    isinstance(event, LinkDegradation)
                    and event.start_s <= t < event.end_s
                    and event.vm in index
                ):
                    factor[index[event.vm]] *= event.multiplier
            rates *= factor
            for vm, at in self._preempted_at.items():
                if at <= t and vm in index:
                    rates[index[vm]] = PREEMPTED_RATE_BPS
        return rates

    def probe_faults(
        self, vms: Sequence[str], src: np.ndarray, dst: np.ndarray, t: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The fault of every probe ``vms[src[i]] -> vms[dst[i]]`` at ``t``,
        the preempted VMs and the active windows resolved once.

        A probe touching a preempted VM fails; any other takes the first
        active :class:`ProbeLoss` window of its ordered pair, in event order.
        Returns ``(lost, factor)``: ``lost[i]`` where the probe must raise,
        ``factor[i]`` its "wild" distortion (1.0 where it has none).
        """
        n = len(vms)
        dark = np.fromiter((self.preempted(vm, t) for vm in vms), bool, count=n)
        lost = dark[src] | dark[dst]
        factor = np.ones(src.shape[0])
        index = {vm: i for i, vm in enumerate(vms)}
        # The first active window of each pair.
        active: Dict[int, ProbeLoss] = {}
        for event in self.events:
            if (
                isinstance(event, ProbeLoss)
                and event.start_s <= t < event.end_s
                and event.src in index
                and event.dst in index
            ):
                active.setdefault(index[event.src] * n + index[event.dst], event)
        if active:
            keys = np.array(sorted(active), dtype=np.int64)
            windows = [active[key] for key in keys.tolist()]
            fails = np.array([w.mode == "fail" for w in windows])
            factors = np.array([w.factor for w in windows])
            probes = src.astype(np.int64) * n + dst
            at = np.minimum(np.searchsorted(keys, probes), keys.shape[0] - 1)
            hit = keys[at] == probes
            lost |= hit & fails[at]
            wild = hit & ~fails[at]
            factor[wild] = factors[at[wild]]
        return lost, factor

    # ------------------------------------------------------------ persistence
    def save(self, path: Union[str, Path]) -> Path:
        """Write the timeline to ``path`` as JSON (see :meth:`load`)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": _SCHEMA,
            "epoch_s": self.epoch_s,
            "drift": self.drift,
            "faults": self.faults,
            "hose_epochs": list(self.hose_epochs),
            "events": [_event_record(event) for event in self.events],
        }
        target.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Timeline":
        """Read a timeline written by :meth:`save`.

        Raises:
            ServiceError: unreadable file, wrong schema, or a malformed or
                incomplete field or event record; the message names the
                file (and the missing field, when one is missing).
        """
        source = Path(path)
        try:
            payload = json.loads(source.read_text())
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers bad JSON and bytes that are not UTF-8;
            # RecursionError, JSON nested past the parser's stack.
            raise ServiceError(f"cannot read timeline {source}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("schema") != _SCHEMA:
            raise ServiceError(f"{source} is not a timeline file (schema {_SCHEMA})")
        try:
            return cls(
                epoch_s=float(payload["epoch_s"]),
                hose_epochs=[
                    {vm: float(rate) for vm, rate in epoch.items()}
                    for epoch in payload.get("hose_epochs", ())
                ],
                events=tuple(
                    _event_from_record(record)
                    for record in payload.get("events", ())
                ),
                drift=str(payload.get("drift", "recorded")),
                faults=str(payload.get("faults", "recorded")),
            )
        except KeyError as exc:
            raise ServiceError(
                f"malformed timeline {source}: missing field {exc}"
            ) from exc
        except (AttributeError, TypeError, ValueError, OverflowError, ServiceError) as exc:
            # AttributeError: an epoch or event that is not a JSON object;
            # OverflowError: an integer too large for a float.
            raise ServiceError(f"malformed timeline {source}: {exc}") from exc


# ---------------------------------------------------------------------------
# Drift generators
# ---------------------------------------------------------------------------
#: A drift generator maps (base rates, epoch count, rng, strength) to hose
#: epochs.
DriftGenerator = Callable[
    [Mapping[str, float], int, np.random.Generator, float],
    List[Dict[str, float]],
]

#: Multiplier clamp shared by every drift: the paper's clouds drift, but a
#: VM never loses its NIC entirely nor doubles its advertised cap twice.
_MIN_FACTOR = 0.1
_MAX_FACTOR = 2.0


def _clamped(base: float, factor: float) -> float:
    return base * min(max(factor, _MIN_FACTOR), _MAX_FACTOR)


def _drift_none(base, n_epochs, rng, strength):
    """Frozen rates — the degenerate timeline (useful as a control)."""
    return [dict(base) for _ in range(n_epochs)]


def _drift_random_walk(base, n_epochs, rng, strength):
    """Per-VM multiplicative log random walk, ``strength`` = per-epoch sigma.

    Consecutive epochs stay correlated (the previous-hour predictor's
    regime) while the hour-0 matrix decays in relevance as the walk wanders.
    """
    log_factor = {vm: 0.0 for vm in base}
    epochs: List[Dict[str, float]] = [dict(base)]
    for _ in range(1, n_epochs):
        epoch: Dict[str, float] = {}
        for vm in sorted(base):
            log_factor[vm] += float(rng.normal(0.0, strength))
            epoch[vm] = _clamped(base[vm], math.exp(log_factor[vm]))
        epochs.append(epoch)
    return epochs


def _drift_diurnal(base, n_epochs, rng, strength):
    """Day/night cycle: available capacity dips at each VM's busy hours.

    ``strength`` is the relative amplitude; each VM gets a random phase (its
    neighbours' tenants peak at different hours) plus mild lognormal noise.
    """
    amplitude = min(strength, 0.9)
    phase = {
        vm: float(rng.uniform(0.0, 24.0)) for vm in sorted(base)
    }
    epochs: List[Dict[str, float]] = []
    for hour in range(n_epochs):
        epoch: Dict[str, float] = {}
        for vm in sorted(base):
            cycle = 1.0 - amplitude * 0.5 * (
                1.0 + math.cos(2.0 * math.pi * (hour - phase[vm]) / 24.0)
            )
            noise = float(rng.lognormal(mean=0.0, sigma=0.03))
            epoch[vm] = _clamped(base[vm], cycle * noise)
        epochs.append(epoch)
    return epochs


def _drift_hotspot_flap(base, n_epochs, rng, strength):
    """Hotspots appear under a subset of VMs and persist for multi-epoch dwells.

    ``strength`` is the fraction of VMs that flap.  A flapping VM starts
    healthy, collapses to 15% of its cap at a random early epoch, and then
    alternates states with geometric dwells of at least two epochs — long
    enough that last-hour measurements track the current state, while the
    hour-0 matrix keeps advertising the collapsed VMs as fast.
    """
    fraction = min(strength, 1.0)
    names = sorted(base)
    n_flapping = max(1, int(round(fraction * len(names)))) if fraction > 0 else 0
    flapping = list(rng.choice(names, size=n_flapping, replace=False)) if n_flapping else []
    collapsed_factor = 0.15

    state: Dict[str, bool] = {vm: False for vm in flapping}  # True = collapsed
    flip_at: Dict[str, int] = {
        # First collapse lands early (epoch 1 or 2) so even short sessions
        # see the hour-0 profile go stale.
        vm: int(rng.integers(1, 3)) for vm in flapping
    }
    epochs: List[Dict[str, float]] = []
    for hour in range(n_epochs):
        for vm in flapping:
            if hour == flip_at[vm]:
                state[vm] = not state[vm]
                dwell = 2 + int(rng.geometric(0.5))
                flip_at[vm] = hour + dwell
        epoch = {
            vm: _clamped(
                base[vm],
                collapsed_factor if state.get(vm, False) else 1.0,
            )
            for vm in names
        }
        epochs.append(epoch)
    return epochs


_DRIFTS: Dict[str, DriftGenerator] = {
    "none": _drift_none,
    "random-walk": _drift_random_walk,
    "diurnal": _drift_diurnal,
    "hotspot-flap": _drift_hotspot_flap,
}

#: Default ``strength`` per drift (sigma / amplitude / flap fraction).
_DRIFT_STRENGTH: Dict[str, float] = {
    "none": 0.0,
    "random-walk": 0.25,
    "diurnal": 0.5,
    "hotspot-flap": 0.4,
}

DRIFT_NAMES: Tuple[str, ...] = tuple(sorted(_DRIFTS))


# ---------------------------------------------------------------------------
# Fault generators
# ---------------------------------------------------------------------------
#: A fault generator maps (vms, epoch count, rng, strength, epoch_s, racks)
#: to events; ``racks`` (VM name -> rack identity, or ``None``) matters to
#: the rack-aware ones only.
FaultGenerator = Callable[
    [Sequence[str], int, np.random.Generator, float, float,
     Optional[Mapping[str, str]]],
    List[FaultEvent],
]

#: Preemption keeps at least this many VMs alive so placement stays possible.
_MIN_SURVIVORS = 3

#: VMs per pseudo-rack when a caller has no topology to hand (allocation
#: order is the best rack proxy available: providers fill hosts in order).
_PSEUDO_RACK_SIZE = 4


def _faults_none(vms, n_epochs, rng, strength, epoch_s, racks):
    return []


def _faults_random_preempt(vms, n_epochs, rng, strength, epoch_s, racks):
    """Preempt a random ``strength`` fraction of VMs at random mid-epochs.

    Never preempts into the last :data:`_MIN_SURVIVORS` VMs, and never in
    epoch 0 (the bootstrap measurement must see a healthy mesh).
    """
    budget = len(vms) - _MIN_SURVIVORS
    n_preempt = min(max(1, round(strength * len(vms))), budget)
    if n_preempt <= 0 or n_epochs < 2:
        return []
    victims = rng.choice(len(vms), size=n_preempt, replace=False)
    events: List[FaultEvent] = []
    for idx in sorted(victims):
        epoch = int(rng.integers(1, n_epochs))
        offset = float(rng.uniform(0.25, 0.75))
        events.append(
            VmPreemption(vm=vms[idx], time_s=(epoch + offset) * epoch_s)
        )
    return events


def _faults_rack_outage(vms, n_epochs, rng, strength, epoch_s, racks):
    """Take out whole top-of-rack switches: correlated VM preemptions.

    Unlike ``random-preempt``, failures here are *correlated* — every VM
    under a dying ToR is preempted inside the same epoch window (with
    per-VM offsets, as preemption notices do not land simultaneously).
    ``strength`` is the fraction of racks lost.  At least one rack always
    survives, and a rack whose loss would leave fewer than
    :data:`_MIN_SURVIVORS` VMs alive is spared, so placement stays
    possible and the healing loop has somewhere to go.

    ``racks`` maps VM name -> rack identity; without it, VMs are grouped
    into pseudo-racks of :data:`_PSEUDO_RACK_SIZE` in allocation order.
    """
    if n_epochs < 2:
        return []
    by_rack: Dict[str, List[str]] = {}
    if racks:
        for vm in vms:
            by_rack.setdefault(str(racks.get(vm, "unracked")), []).append(vm)
    else:
        for i, vm in enumerate(vms):
            by_rack.setdefault(f"pseudo-rack-{i // _PSEUDO_RACK_SIZE}", []).append(vm)
    rack_names = sorted(by_rack)
    if len(rack_names) < 2:
        return []  # one rack: an outage would be a cluster outage
    n_out = min(max(1, round(strength * len(rack_names))), len(rack_names) - 1)
    doomed = rng.choice(len(rack_names), size=n_out, replace=False)
    events: List[FaultEvent] = []
    survivors = set(vms)
    for rack_idx in sorted(int(i) for i in doomed):
        members = by_rack[rack_names[rack_idx]]
        if len(survivors) - len(members) < _MIN_SURVIVORS:
            continue  # this rack is too big to lose; try the next victim
        epoch = int(rng.integers(1, n_epochs))
        for vm in sorted(members):
            offset = float(rng.uniform(0.25, 0.75))
            events.append(
                VmPreemption(vm=vm, time_s=(epoch + offset) * epoch_s)
            )
            survivors.discard(vm)
    return events


def _faults_link_flap(vms, n_epochs, rng, strength, epoch_s, racks):
    """Give a ``strength`` fraction of VMs one or two degraded intervals."""
    n_flappy = min(max(1, round(strength * len(vms))), len(vms))
    if n_epochs < 2:
        return []
    flappy = rng.choice(len(vms), size=n_flappy, replace=False)
    events: List[FaultEvent] = []
    for idx in sorted(flappy):
        for _ in range(int(rng.integers(1, 3))):
            start_epoch = int(rng.integers(1, n_epochs))
            duration = float(rng.uniform(1.0, 2.0))
            events.append(
                LinkDegradation(
                    vm=vms[idx],
                    start_s=start_epoch * epoch_s,
                    end_s=(start_epoch + duration) * epoch_s,
                    multiplier=float(rng.uniform(0.15, 0.5)),
                )
            )
    return events


def _faults_lossy_probes(vms, n_epochs, rng, strength, epoch_s, racks):
    """Each ordered pair independently suffers a one-epoch probe burst."""
    if n_epochs < 2:
        return []
    events: List[FaultEvent] = []
    for src in vms:
        for dst in vms:
            if src == dst or rng.random() >= strength:
                continue
            start_epoch = int(rng.integers(1, n_epochs))
            mode = "fail" if rng.random() < 0.7 else "wild"
            factor = float(rng.uniform(2.0, 6.0)) if mode == "wild" else 1.0
            events.append(
                ProbeLoss(
                    src=src, dst=dst,
                    start_s=start_epoch * epoch_s,
                    end_s=(start_epoch + 1) * epoch_s,
                    mode=mode, factor=factor,
                )
            )
    return events


_FAULTS: Dict[str, FaultGenerator] = {
    "none": _faults_none,
    "random-preempt": _faults_random_preempt,
    "rack-outage": _faults_rack_outage,
    "link-flap": _faults_link_flap,
    "lossy-probes": _faults_lossy_probes,
}

#: Default ``strength`` per fault generator (fraction of VMs / racks /
#: pairs).
_FAULT_STRENGTH: Dict[str, float] = {
    "none": 0.0,
    "random-preempt": 0.2,
    "rack-outage": 0.34,
    "link-flap": 0.3,
    "lossy-probes": 0.12,
}

FAULT_NAMES: Tuple[str, ...] = tuple(sorted(_FAULTS))


def _generator(kind: str, table: Mapping[str, object], name: str,
               strength: Optional[float], defaults: Mapping[str, float]):
    """Look up a generator and its strength (the default when ``None``)."""
    if name not in table:
        raise ServiceError(f"unknown {kind} {name!r}; known: {sorted(table)}")
    if strength is None:
        strength = defaults[name]
    if not 0 <= strength < math.inf:
        raise ServiceError(
            f"{kind} {name!r} needs a finite strength >= 0, got {strength!r}"
        )
    return table[name], strength


def generate_timeline(
    base_rates: Mapping[str, float],
    hours: float,
    drift: str = "random-walk",
    faults: str = "none",
    seed: int = 0,
    drift_strength: Optional[float] = None,
    fault_strength: Optional[float] = None,
    epoch_s: float = DEFAULT_EPOCH_S,
    racks: Optional[Mapping[str, str]] = None,
) -> Timeline:
    """Synthesise a session's timeline from base hose rates.

    Args:
        base_rates: epoch-0 egress caps in allocation order, usually
            :meth:`~repro.cloud.provider.CloudProvider.base_hose_rates`.
        hours: the session's admission horizon in epochs.  The drift table
            covers it plus :data:`TAIL_EPOCHS` of drain; fault events land
            inside it (a preemption after the drain would be unobservable).
        drift: one of :data:`DRIFT_NAMES`.
        faults: one of :data:`FAULT_NAMES` (``"none"`` adds no event).
        seed: drift and faults each draw from their own salted stream, so
            timelines are pure functions of their inputs.
        drift_strength, fault_strength: generator knobs (walk sigma,
            diurnal amplitude or flapping fraction; the fraction of VMs,
            racks or pairs hit); ``None`` takes the generator's default.
        epoch_s: epoch length in seconds.
        racks: VM name -> rack identity for rack-aware fault generators
            (``rack-outage``); without it they fall back to pseudo-racks in
            allocation order.
    """
    if not 0 < hours < math.inf:
        raise ServiceError(f"hours must be finite and positive, got {hours!r}")
    if not base_rates:
        raise ServiceError("base_rates must cover at least one VM")
    make_drift, drift_strength = _generator(
        "drift", _DRIFTS, drift, drift_strength, _DRIFT_STRENGTH
    )
    make_faults, fault_strength = _generator(
        "fault generator", _FAULTS, faults, fault_strength, _FAULT_STRENGTH
    )
    hose_epochs = make_drift(
        base_rates, int(hours) + TAIL_EPOCHS,
        np.random.default_rng(seed ^ _DRIFT_SEED_SALT), drift_strength,
    )
    events: List[FaultEvent] = []
    if fault_strength > 0:
        events = make_faults(
            list(base_rates), max(2, int(round(hours))),
            np.random.default_rng(seed ^ _FAULT_SEED_SALT), fault_strength,
            epoch_s, racks,
        )
    return Timeline(
        epoch_s=epoch_s, hose_epochs=hose_epochs, events=tuple(events),
        drift=drift, faults=faults,
    )


def attach_timeline(provider, timeline: Timeline) -> None:
    """Make ``provider``'s ground truth follow ``timeline``.

    Every VM the timeline names must exist on the provider; VMs the drift
    table does not cover keep the provider's own drifted base rates.
    """
    known = {vm.name for vm in provider.vms()}
    missing = [vm for vm in timeline.vms() if vm not in known]
    if missing:
        raise ServiceError(
            f"timeline names VMs the provider lacks: {missing}"
        )
    provider.timeline = timeline
