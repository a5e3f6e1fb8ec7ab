"""Discrete fault events layered onto a drifting cloud network.

The drift generators in :mod:`repro.service.timeline` model *smooth* rate
variation; real clouds also fail discretely — a link degrades for a while, a
VM is preempted and never comes back, a burst of packet-train probes is lost
or returns wild estimates.  A :class:`FaultTimeline` is a seeded, replayable
schedule of such events, attached to a provider via
:func:`attach_faults` (mirroring ``attach_timeline``): the provider consults
it from ``hose_rate`` and the probe paths, the
:class:`~repro.service.engine.PlacementService` subscribes to it at epoch
ticks and heals (re-place preempted apps, re-measure degraded links, coast
on forecasts through probe loss).

A timeline with **no events is inert by construction**: every hook
short-circuits before consuming randomness or perturbing a rate, so
zero-fault runs stay bit-identical to runs without a fault timeline at all.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import FaultError

#: Egress rate of a preempted VM: effectively dark, but non-zero so the
#: fluid simulator's positive-rate invariants hold while the service heals.
PREEMPTED_RATE_BPS = 1.0

_SCHEMA = "repro.faults/timeline/v1"


def _check_window(what: str, start_s: float, end_s: float) -> None:
    """A window must start at a finite time and end after it starts (an
    infinite end is a window that never closes)."""
    if not (math.isfinite(start_s) and start_s < end_s):
        raise FaultError(
            f"{what} must start at a finite time and end after it starts "
            f"(start_s={start_s}, end_s={end_s})"
        )


# ---------------------------------------------------------------------------
# Event types
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
            raise FaultError(
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
            raise FaultError(
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
            raise FaultError("probe-loss pair must not be a self pair")
        _check_window(what, self.start_s, self.end_s)
        if self.mode not in ("fail", "wild"):
            raise FaultError(
                f"{what}: mode must be 'fail' or 'wild', got {self.mode!r}"
            )
        if not math.isfinite(self.factor):
            raise FaultError(f"{what}: factor must be finite, got {self.factor}")
        if self.mode == "wild" and (self.factor <= 0 or self.factor == 1.0):
            raise FaultError(
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


# ---------------------------------------------------------------------------
# The timeline
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FaultTimeline:
    """A replayable schedule of discrete fault events.

    Attributes:
        events: the events, stored sorted by (effect time, kind, target).
        generator: which generator produced it (``"recorded"`` for loaded
            or hand-built timelines) — documentation only.
    """

    events: Tuple[FaultEvent, ...] = ()
    generator: str = "recorded"

    def __post_init__(self) -> None:
        for event in self.events:
            if not isinstance(event, (LinkDegradation, VmPreemption, ProbeLoss)):
                raise FaultError(
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
    def is_empty(self) -> bool:
        return not self.events

    @property
    def n_events(self) -> int:
        return len(self.events)

    def vms(self) -> List[str]:
        """Every VM named by any event (sorted)."""
        names = set()
        for event in self.events:
            if isinstance(event, ProbeLoss):
                names.update((event.src, event.dst))
            else:
                names.add(event.vm)
        return sorted(names)

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

    def degradation_factor(self, vm: str, t: float) -> float:
        """Product of all degradation multipliers active on ``vm`` at ``t``."""
        factor = 1.0
        for event in self.events:
            if (
                isinstance(event, LinkDegradation)
                and event.vm == vm
                and event.start_s <= t < event.end_s
            ):
                factor *= event.multiplier
        return factor

    def effective_hose_rate(self, vm: str, t: float, rate_bps: float) -> float:
        """Fault-adjusted egress rate of ``vm`` at ``t``.

        Preemption collapses the rate to :data:`PREEMPTED_RATE_BPS`;
        otherwise active degradations multiply in.  With no matching events
        this returns ``rate_bps`` unchanged.
        """
        if self.preempted(vm, t):
            return PREEMPTED_RATE_BPS
        return rate_bps * self.degradation_factor(vm, t)

    def probe_fault(
        self, src: str, dst: str, t: float
    ) -> Optional[Tuple[str, float]]:
        """Active probe fault for an ordered pair, or ``None``.

        Returns ``("fail", 0.0)`` when a probe of the pair must raise —
        probes touching a preempted VM always fail — or ``("wild", factor)``
        when it returns a distorted estimate.
        """
        if self.preempted(src, t) or self.preempted(dst, t):
            return ("fail", 0.0)
        for event in self.events:
            if (
                isinstance(event, ProbeLoss)
                and event.src == src
                and event.dst == dst
                and event.start_s <= t < event.end_s
            ):
                if event.mode == "fail":
                    return ("fail", 0.0)
                return ("wild", event.factor)
        return None

    def probe_faults(
        self, vms: Sequence[str], src: np.ndarray, dst: np.ndarray, t: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`probe_fault` of every probe ``vms[src[i]] -> vms[dst[i]]``
        at ``t``, the preempted VMs and the active windows resolved once.

        Returns ``(lost, factor)``: ``lost[i]`` where the probe must raise,
        ``factor[i]`` its "wild" distortion (1.0 where it has none).
        """
        n = len(vms)
        dark = np.fromiter((self.preempted(vm, t) for vm in vms), bool, count=n)
        lost = dark[src] | dark[dst]
        factor = np.ones(src.shape[0])
        index = {vm: i for i, vm in enumerate(vms)}
        # The first active window of each pair, as probe_fault's scan finds it.
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
    def save(self, path: Union[str, Path]) -> None:
        """Write the timeline as JSON (see :meth:`load`)."""
        records = []
        for event in self.events:
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
            records.append(record)
        payload = {
            "schema": _SCHEMA,
            "generator": self.generator,
            "events": records,
        }
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))

    @classmethod
    def load(cls, source: Union[str, Path]) -> "FaultTimeline":
        """Read a timeline written by :meth:`save`.

        Raises:
            FaultError: unreadable file, wrong schema, or a malformed or
                incomplete event record (the message names the file and the
                missing field).
        """
        try:
            payload = json.loads(Path(source).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise FaultError(f"cannot read fault timeline {source}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("schema") != _SCHEMA:
            raise FaultError(
                f"{source} is not a fault timeline file (schema {_SCHEMA})"
            )
        records = payload.get("events", [])
        if not isinstance(records, list):
            raise FaultError(
                f"malformed fault timeline {source}: 'events' must be a list"
            )
        events: List[FaultEvent] = []
        for i, record in enumerate(records):
            try:
                kind = record["kind"]
                if kind == "vm-preemption":
                    events.append(
                        VmPreemption(
                            vm=str(record["vm"]), time_s=float(record["time_s"])
                        )
                    )
                elif kind == "link-degradation":
                    events.append(
                        LinkDegradation(
                            vm=str(record["vm"]),
                            start_s=float(record["start_s"]),
                            end_s=float(record["end_s"]),
                            multiplier=float(record["multiplier"]),
                        )
                    )
                elif kind == "probe-loss":
                    events.append(
                        ProbeLoss(
                            src=str(record["src"]),
                            dst=str(record["dst"]),
                            start_s=float(record["start_s"]),
                            end_s=float(record["end_s"]),
                            mode=str(record.get("mode", "fail")),
                            factor=float(record.get("factor", 1.0)),
                        )
                    )
                else:
                    raise ValueError(f"unknown kind {kind!r}")
            except KeyError as exc:
                raise FaultError(
                    f"malformed fault timeline {source}: event {i} is "
                    f"missing field {exc}"
                ) from exc
            except (TypeError, ValueError, OverflowError, FaultError) as exc:
                raise FaultError(
                    f"malformed fault timeline {source}: event {i}: {exc}"
                ) from exc
        generator = payload.get("generator", "recorded")
        return cls(events=tuple(events), generator=str(generator))


# ---------------------------------------------------------------------------
# Generators (mirroring the drift-generator registry in service.timeline)
# ---------------------------------------------------------------------------
#: signature: (vms, n_epochs, rng, strength, epoch_s) -> events
FaultGenerator = Callable[
    [Sequence[str], int, np.random.Generator, float, float], List[FaultEvent]
]

#: Preemption keeps at least this many VMs alive so placement stays possible.
_MIN_SURVIVORS = 3


def _faults_none(vms, n_epochs, rng, strength, epoch_s):
    return []


def _faults_random_preempt(vms, n_epochs, rng, strength, epoch_s):
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


#: VMs per pseudo-rack when a caller has no topology to hand (allocation
#: order is the best rack proxy available: providers fill hosts in order).
_PSEUDO_RACK_SIZE = 4


def _faults_rack_outage(vms, n_epochs, rng, strength, epoch_s, racks=None):
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


def _faults_link_flap(vms, n_epochs, rng, strength, epoch_s):
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


def _faults_lossy_probes(vms, n_epochs, rng, strength, epoch_s):
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

#: Generators that understand a VM -> rack mapping.
_RACK_AWARE = frozenset({"rack-outage"})

#: Per-generator default ``strength`` (fraction of VMs / pairs / racks).
_DEFAULT_STRENGTH: Dict[str, float] = {
    "none": 0.0,
    "random-preempt": 0.2,
    "rack-outage": 0.34,
    "link-flap": 0.3,
    "lossy-probes": 0.12,
}

FAULT_NAMES: Tuple[str, ...] = tuple(sorted(_FAULTS))


def generate_faults(
    vms: Sequence[str],
    n_epochs: int,
    faults: str = "random-preempt",
    seed: int = 0,
    strength: Optional[float] = None,
    epoch_s: float = 3600.0,
    racks: Optional[Mapping[str, str]] = None,
) -> FaultTimeline:
    """Generate a seeded :class:`FaultTimeline` for ``vms``.

    ``racks`` (VM name -> rack identity) feeds rack-aware generators such
    as ``rack-outage``; others ignore it.  Without a mapping those
    generators fall back to pseudo-racks in allocation order.

    Raises:
        FaultError: unknown generator, bad strength, or n_epochs < 1.
    """
    if faults not in _FAULTS:
        raise FaultError(
            f"unknown fault generator {faults!r}; choose from {list(FAULT_NAMES)}"
        )
    if n_epochs < 1:
        raise FaultError(f"n_epochs must be >= 1, got {n_epochs}")
    if epoch_s <= 0:
        raise FaultError(f"epoch_s must be positive, got {epoch_s}")
    if strength is None:
        strength = _DEFAULT_STRENGTH[faults]
    if strength < 0:
        raise FaultError(f"fault strength must be >= 0, got {strength}")
    if strength == 0.0 or faults == "none":
        return FaultTimeline(events=(), generator=faults)
    rng = np.random.default_rng(seed)
    if faults in _RACK_AWARE:
        events = _FAULTS[faults](
            list(vms), n_epochs, rng, strength, epoch_s, racks=racks
        )
    else:
        events = _FAULTS[faults](list(vms), n_epochs, rng, strength, epoch_s)
    return FaultTimeline(events=tuple(events), generator=faults)


def attach_faults(provider, faults: FaultTimeline) -> None:
    """Attach ``faults`` to a provider so rate and probe hooks consult it.

    Raises:
        FaultError: an event names a VM the provider has not allocated.
    """
    known = {vm.name for vm in provider.vms()}
    unknown = [vm for vm in faults.vms() if vm not in known]
    if unknown:
        raise FaultError(
            f"fault timeline names unknown VM(s) {unknown}; provider has "
            f"{sorted(known)}"
        )
    provider.fault_timeline = faults


__all__ = [
    "FAULT_NAMES",
    "FaultEvent",
    "FaultTimeline",
    "LinkDegradation",
    "PREEMPTED_RATE_BPS",
    "ProbeLoss",
    "VmPreemption",
    "attach_faults",
    "generate_faults",
]
