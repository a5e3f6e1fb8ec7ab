"""Piecewise-hourly ground-truth network timelines (§6.1's drifting cloud).

A :class:`NetworkTimeline` holds one hose-rate matrix per epoch (an hour by
default) and optional recorded pairwise-rate matrices.  Attached to a
provider via :func:`attach_timeline`, it *replaces* the provider's slow
Ornstein-Uhlenbeck hose drift with explicit epoch-by-epoch rates, so the
fluid simulator, packet trains, and netperf all see the epoch-correct
network — every ground-truth path in :class:`~repro.cloud.provider.CloudProvider`
flows through ``hose_rate``.

Timelines come from two places:

* :func:`generate_timeline` synthesises one from a provider's base hose
  rates with a named drift generator — ``random-walk`` (multiplicative
  log-walk per VM), ``diurnal`` (per-VM phase-shifted day/night cycle), or
  ``hotspot-flap`` (a subset of VMs collapses to a fraction of its cap for
  multi-epoch dwells, the regime where a frozen hour-0 profile misleads the
  placer the most);
* :meth:`NetworkTimeline.load` reads a recorded timeline (JSON) from disk,
  e.g. one exported from a real measurement campaign.

Pairwise entries, when present, describe recorded per-path measurements and
are surfaced through :meth:`NetworkTimeline.pair_rate_at` (the oracle and
trace replay read them); the *simulated* network remains hose + physical
topology, as §4.4 found on EC2 and Rackspace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import ServiceError

#: Epoch length matching the paper's hourly predictability analysis.
DEFAULT_EPOCH_S = 3600.0

_SCHEMA = "repro.service/timeline/v1"


@dataclass
class NetworkTimeline:
    """Per-epoch ground-truth rate matrices.

    Attributes:
        epoch_s: epoch length in seconds (an hour by default).
        hose_epochs: one ``{vm: egress_bps}`` mapping per epoch; every epoch
            must cover the same VM set.
        pair_epochs: optional recorded ``{(src, dst): rate_bps}`` mappings
            per epoch (empty mappings when absent).
        drift: name of the generator that produced the timeline (or
            ``"recorded"`` for loaded ones), for reports.

    Queries past the last epoch clamp to it, so simulations that run past
    the session horizon stay defined.
    """

    epoch_s: float
    hose_epochs: List[Dict[str, float]]
    pair_epochs: List[Dict[Tuple[str, str], float]] = field(default_factory=list)
    drift: str = "recorded"

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise ServiceError("epoch_s must be positive")
        if not self.hose_epochs:
            raise ServiceError("a timeline needs at least one epoch")
        vms = set(self.hose_epochs[0])
        if not vms:
            raise ServiceError("timeline epochs must cover at least one VM")
        for index, epoch in enumerate(self.hose_epochs):
            if set(epoch) != vms:
                raise ServiceError(
                    f"epoch {index} covers a different VM set than epoch 0"
                )
            for vm, rate in epoch.items():
                if not math.isfinite(rate) or rate <= 0:
                    raise ServiceError(
                        f"epoch {index} has non-positive rate for {vm!r}"
                    )
        if self.pair_epochs and len(self.pair_epochs) != len(self.hose_epochs):
            raise ServiceError("pair_epochs must match hose_epochs in length")

    # -------------------------------------------------------------- accessors
    @property
    def n_epochs(self) -> int:
        return len(self.hose_epochs)

    @property
    def vms(self) -> List[str]:
        return sorted(self.hose_epochs[0])

    def covers(self, vm: str) -> bool:
        return vm in self.hose_epochs[0]

    def epoch_of(self, time_s: float) -> int:
        """The (clamped) epoch index containing ``time_s``."""
        if time_s < 0:
            raise ServiceError("timeline queried at negative time")
        return min(int(time_s // self.epoch_s), self.n_epochs - 1)

    def hose_rate_at(self, vm: str, time_s: float) -> Optional[float]:
        """Egress cap of ``vm`` at ``time_s`` (``None`` for uncovered VMs)."""
        return self.hose_epochs[self.epoch_of(time_s)].get(vm)

    def pair_rate_at(self, src: str, dst: str, time_s: float) -> Optional[float]:
        """Recorded pairwise rate at ``time_s``, when the timeline has one."""
        if not self.pair_epochs:
            return None
        return self.pair_epochs[self.epoch_of(time_s)].get((src, dst))

    def hose_series(self, vm: str) -> List[float]:
        """The per-epoch egress caps of one VM (ground truth, for analysis)."""
        if not self.covers(vm):
            raise ServiceError(f"timeline does not cover VM {vm!r}")
        return [epoch[vm] for epoch in self.hose_epochs]

    # ------------------------------------------------------------ persistence
    def save(self, path: Union[str, Path]) -> Path:
        """Write the timeline to ``path`` as JSON."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": _SCHEMA,
            "epoch_s": self.epoch_s,
            "drift": self.drift,
            "hose_epochs": self.hose_epochs,
            "pair_epochs": [
                {f"{src}->{dst}": rate for (src, dst), rate in epoch.items()}
                for epoch in self.pair_epochs
            ],
        }
        target.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return target

    @classmethod
    def load(cls, path: Union[str, Path]) -> "NetworkTimeline":
        """Read a timeline written by :meth:`save`."""
        source = Path(path)
        try:
            payload = json.loads(source.read_text())
        except (OSError, ValueError) as exc:
            raise ServiceError(f"cannot read timeline {source}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("schema") != _SCHEMA:
            raise ServiceError(f"{source} is not a timeline file (schema {_SCHEMA})")
        try:
            pair_epochs = []
            for epoch in payload.get("pair_epochs") or []:
                parsed: Dict[Tuple[str, str], float] = {}
                for key, rate in epoch.items():
                    src, sep, dst = key.partition("->")
                    if not sep:
                        raise ServiceError(f"malformed pair key {key!r}")
                    parsed[(src, dst)] = float(rate)
                pair_epochs.append(parsed)
            return cls(
                epoch_s=float(payload["epoch_s"]),
                hose_epochs=[
                    {vm: float(rate) for vm, rate in epoch.items()}
                    for epoch in payload["hose_epochs"]
                ],
                pair_epochs=pair_epochs,
                drift=str(payload.get("drift", "recorded")),
            )
        except KeyError as exc:
            raise ServiceError(
                f"malformed timeline {source}: missing field {exc}"
            ) from exc
        except (AttributeError, TypeError, ValueError) as exc:
            # AttributeError: an epoch that is not a JSON object.
            raise ServiceError(f"malformed timeline {source}: {exc}") from exc


# ---------------------------------------------------------------------------
# Drift generators
# ---------------------------------------------------------------------------
#: A generator maps (base rates, epoch count, rng, strength) to hose epochs.
DriftGenerator = Callable[
    [Mapping[str, float], int, np.random.Generator, float],
    List[Dict[str, float]],
]

#: Multiplier clamp shared by every generator: the paper's clouds drift, but
#: a VM never loses its NIC entirely nor doubles its advertised cap twice.
_MIN_FACTOR = 0.1
_MAX_FACTOR = 2.0


def _clamped(base: float, factor: float) -> float:
    return base * min(max(factor, _MIN_FACTOR), _MAX_FACTOR)


def _drift_none(
    base: Mapping[str, float], n_epochs: int, rng: np.random.Generator,
    strength: float,
) -> List[Dict[str, float]]:
    """Frozen rates — the degenerate timeline (useful as a control)."""
    return [dict(base) for _ in range(n_epochs)]


def _drift_random_walk(
    base: Mapping[str, float], n_epochs: int, rng: np.random.Generator,
    strength: float,
) -> List[Dict[str, float]]:
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


def _drift_diurnal(
    base: Mapping[str, float], n_epochs: int, rng: np.random.Generator,
    strength: float,
) -> List[Dict[str, float]]:
    """Day/night cycle: available capacity dips at each VM's busy hours.

    ``strength`` is the relative amplitude; each VM gets a random phase (its
    neighbours' tenants peak at different hours) plus mild lognormal noise.
    The time-of-day predictor is the natural fit once a day of history
    exists.
    """
    amplitude = min(max(strength, 0.0), 0.9)
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


def _drift_hotspot_flap(
    base: Mapping[str, float], n_epochs: int, rng: np.random.Generator,
    strength: float,
) -> List[Dict[str, float]]:
    """Hotspots appear under a subset of VMs and persist for multi-epoch dwells.

    ``strength`` is the fraction of VMs that flap.  A flapping VM starts
    healthy, collapses to 15% of its cap at a random early epoch, and then
    alternates states with geometric dwells of at least two epochs — long
    enough that last-hour measurements track the current state, while the
    hour-0 matrix keeps advertising the collapsed VMs as fast.
    """
    fraction = min(max(strength, 0.0), 1.0)
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

#: Default ``strength`` per generator (sigma / amplitude / flap fraction).
_DEFAULT_STRENGTH: Dict[str, float] = {
    "none": 0.0,
    "random-walk": 0.25,
    "diurnal": 0.5,
    "hotspot-flap": 0.4,
}

DRIFT_NAMES: Tuple[str, ...] = tuple(sorted(_DRIFTS))


def generate_timeline(
    base_rates: Mapping[str, float],
    n_epochs: int,
    drift: str = "random-walk",
    seed: int = 0,
    strength: Optional[float] = None,
    epoch_s: float = DEFAULT_EPOCH_S,
) -> NetworkTimeline:
    """Synthesise a timeline from base hose rates with a named drift.

    Args:
        base_rates: epoch-0 egress caps, usually
            :meth:`~repro.cloud.provider.CloudProvider.base_hose_rates`.
        n_epochs: how many epochs to generate.
        drift: one of :data:`DRIFT_NAMES`.
        seed: RNG seed — timelines are pure functions of their inputs.
        strength: generator-specific knob (walk sigma, diurnal amplitude,
            flapping VM fraction); each generator has a sensible default.
        epoch_s: epoch length in seconds.
    """
    if n_epochs < 1:
        raise ServiceError("n_epochs must be >= 1")
    if not base_rates:
        raise ServiceError("base_rates must cover at least one VM")
    try:
        generator = _DRIFTS[drift]
    except KeyError as exc:
        raise ServiceError(
            f"unknown drift {drift!r}; known: {list(DRIFT_NAMES)}"
        ) from exc
    if strength is None:
        strength = _DEFAULT_STRENGTH[drift]
    if strength < 0:
        raise ServiceError("drift strength must be >= 0")
    rng = np.random.default_rng(seed)
    hose_epochs = generator(base_rates, n_epochs, rng, strength)
    return NetworkTimeline(
        epoch_s=epoch_s, hose_epochs=hose_epochs, drift=drift
    )


def attach_timeline(provider, timeline: NetworkTimeline) -> None:
    """Make ``provider``'s ground truth follow ``timeline``.

    Every VM the timeline covers must exist on the provider; uncovered
    provider VMs keep their OU-drifted base rates.
    """
    known = {vm.name for vm in provider.vms()}
    missing = sorted(set(timeline.hose_epochs[0]) - known)
    if missing:
        raise ServiceError(
            f"timeline covers VMs the provider lacks: {missing}"
        )
    provider.hose_timeline = timeline
