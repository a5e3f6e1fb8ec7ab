"""The fidelity table: the paper's claims against this reproduction.

Run from the repository root (with ``src`` importable)::

    python tests/fidelity.py [--check] [--out PATH]

It writes ``docs/fidelity.md`` (or ``PATH``): one row per claim, with the
paper's value, ours, the seeds it was measured on and two verdicts: whether
the claim holds, and — for a claim the paper gives a range for — whether
our value lies in that range.  Every number is seeded, so the same code
writes the same file.  ``--check`` writes the table too, and exits 1 when
either verdict of a claim differs from the one in the file it replaced.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import statistics
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cloud.registry import make_provider, provider_names
from repro.core.measurement import calibrate_train_parameters
from repro.cloud.ec2 import ec2_params
from repro.core.network_profile import NetworkProfile
from repro.core.placement.greedy import GreedyPlacer
from repro.core.measurement.bottleneck import (
    BottleneckLocator,
    InterferenceResult,
    connections_interfere_at_core,
    connections_interfere_at_tor,
)
from repro.errors import MeasurementError
from repro.experiments import placers
from repro.experiments.results import TrialRecord
from repro.experiments.runner import ExperimentConfig, ExperimentRunner
from repro.runtime.metrics import relative_speedup
from repro.service.timeline import ProbeLoss, Timeline, attach_timeline
from repro.workloads.generator import HPCloudWorkloadGenerator
from repro.workloads.predictability import PredictabilityReport, evaluate_predictability

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "docs" / "fidelity.md"

HOLDS, FAILS = "holds", "does not hold"
IN_RANGE, OUTSIDE_RANGE, NO_RANGE = "in range", "outside range", "no range"


class Row(NamedTuple):
    claim: str  # starts with the paper's section: the row's key
    paper: str
    ours: str
    seeds: str
    verdict: str
    #: IN_RANGE / OUTSIDE_RANGE against the paper's range, NO_RANGE without one.
    magnitude: str = NO_RANGE


# --------------------------------------------------------------------- §3.2
def cross_traffic_row() -> Row:
    """Whether estimating ``c`` changes greedy's placements: a recorded
    row.  The estimate left ``src/`` because of these numbers (the
    ``cross-traffic`` entry of docs/experiments.md, seeds as there), so no
    seeded run here can measure them again."""
    return Row(
        claim="§3.2: a path carrying c background connections gives a new one "
        "R ≈ C / (c + 1), so k more connections out of one source get "
        "R·(c + 1)/(c + 1 + k) each, not R / (1 + k), and the placer should "
        "rate paths by it",
        paper="the rate model counts each path's background connections `c`",
        ours="`c` does not change greedy's placements: with `c = max(A, R) / R − 1` "
        "estimated per pair (`A` the advertised egress), greedy's per-application "
        "durations were `==` to those without it in every trial of every registered "
        "scenario at its defaults (14 scenarios), and in 28 of 30 trials of a cramped "
        "`cross-traffic` (`n_vms=4`, `n_cross_flows=8`), the other 2 better with `c` "
        "(mean completion 5.448 → 5.395 s, −0.97 %).  Recorded, not re-run: the "
        "estimate left `src/` for these numbers (docs/experiments.md, `cross-traffic`)",
        seeds="trials 0–19 of base seed 0 (0–9 for `service-churn` and `fault-churn`), "
        "paired; trials 0–29 for the cramped `cross-traffic`",
        verdict=FAILS,
    )


# ------------------------------------------------------------- §3.3 / §4.3
BOTTLENECK_SEEDS = range(10)
BOTTLENECK_VMS = 10
BOTTLENECK_TESTS = 10


def bottleneck_report(name: str, seed: int):
    """``BottleneckLocator.locate`` on 10 VMs of ``name``, ten tests of
    each kind (``tests/test_bottleneck.py`` runs it too)."""
    provider = make_provider(name, seed=seed)
    provider.request_vms(BOTTLENECK_VMS)
    names = [vm.name for vm in provider.vms()]
    report = BottleneckLocator(provider, seed=seed).locate(
        names, n_same_source=BOTTLENECK_TESTS, n_distinct=BOTTLENECK_TESTS
    )
    return provider, report


def route_cores(topology, src: str, dst: str) -> set:
    """The core switches host ``src``'s route to host ``dst`` enters, read
    off the router's link ids (``a->core3`` enters ``core3``)."""
    (row,), (length,), link_ids = topology.path_links_matrix([(src, dst)])
    ends = (link_ids[i].partition("->")[2] for i in row[:length].tolist())
    return {node for node in ends if node.startswith("core")}


def bottleneck_row() -> Row:
    """Distinct-endpoint connections never interfere; two connections out
    of one source to two other hosts always do, each losing about half."""
    distinct, interfered, connections, cored = 0, 0, 0, 0
    drops: List[float] = []  # of each same-source test on three hosts
    quiet = 0  # of those, the tests that did not interfere
    classified: Counter = Counter()
    for name in provider_names():
        for seed in BOTTLENECK_SEEDS:
            provider, report = bottleneck_report(name, seed)
            topology = provider.topology
            host = {vm.name: vm.host for vm in provider.vms()}
            classified[report.rate_limiting] += 1
            for result in report.distinct_endpoint_results:
                distinct += 1
                interfered += result.interferes
                for src, dst in (result.pair_a, result.pair_b):
                    connections += 1
                    cored += bool(route_cores(topology, host[src], host[dst]))
            for result in report.same_source_results:
                (src, dst_a), (_, dst_b) = result.pair_a, result.pair_b
                if len({host[src], host[dst_a], host[dst_b]}) == 3:
                    drops.append(result.drop_fraction)
                    quiet += not result.interferes
    classes = ", ".join(f"{label} {count}" for label, count in sorted(classified.items()))
    return Row(
        claim="§3.3 / §4.3: the bottleneck is at the source (hose model): "
        "connections out of one VM slow each other down, connections between "
        "four distinct VMs do not",
        paper="distinct endpoints never interfere; same-source connections "
        "always do, each dropping ≈ 0.5",
        ours=f"distinct endpoints: {interfered} of {distinct} tests interfere "
        f"({interfered / distinct:.2f}; {cored} of {connections} connections "
        f"crossed the core); same source on three hosts: {len(drops) - quiet} of "
        f"{len(drops)} interfere ({1 - quiet / len(drops):.2f}), drop "
        f"{min(drops):.2f}–{max(drops):.2f}; classified {classes}",
        seeds=f"{', '.join(provider_names())}, seeds {_span(BOTTLENECK_SEEDS)}, "
        f"{BOTTLENECK_VMS} VMs, {BOTTLENECK_TESTS} tests of each kind",
        verdict=HOLDS if interfered == 0 and quiet == 0 else FAILS,
    )


# ------------------------------------------------------------------ §3.3.2
INTERFERENCE_SEEDS = range(10)
INTERFERENCE_VMS = 12
INTERFERENCE_TESTS = 40  # per seed and rule
#: The fabric links a rule names, below every ``ec2`` hose (296 Mbit/s and
#: up), so they bind every connection that crosses them.
INTERFERENCE_NARROW_BPS = 200e6
#: A drop that counts as interference: ``BottleneckLocator``'s default.
INTERFERENCE_THRESHOLD = 0.25


class InterferenceTest(NamedTuple):
    shared: bool  # A->B and C->D share a source
    said: bool  # the rule's verdict
    hit: bool  # the network slowed A->B down by more than the threshold
    one_core: bool  # ECMP takes both routes through one core
    stays: bool  # a connection stays inside its source's rack


def interference_tests(rule: int, seed: int) -> Tuple[List[InterferenceTest], int]:
    """Connection pairs ``(A->B, C->D)`` on 12 ``ec2`` VMs, one a host, on a
    tree whose ToR uplinks (rule 1) or aggregation-to-core links (rule 2)
    are narrowed, and how many tests a lost probe cost.  Three tests in ten
    share a source (rule 2, which says nothing of sources, draws none); the
    destinations sit in two racks (rule 1) or pods (rule 2): a rule speaks
    of the links out of the sources' rack or pod, and with links as fast
    both ways two connections into one rack share its downlink too.  One
    ordered pair's probes are lost for the whole run (a ``ProbeLoss``
    window, which ``Timeline.probe_faults`` reports to ``run_netperf``); a
    test whose solo probe it hits is counted, not run."""
    base = ec2_params(colocation_probability=0.0)
    field = "tor_agg_link_bps" if rule == 1 else "agg_core_link_bps"
    tree = dataclasses.replace(base.tree_spec, **{field: INTERFERENCE_NARROW_BPS})
    provider = make_provider("ec2", seed=seed, params=dataclasses.replace(base, tree_spec=tree))
    provider.request_vms(INTERFERENCE_VMS)
    topology = provider.topology
    host = {vm.name: vm.host for vm in provider.vms()}
    vms = list(host)
    rack = {vm: topology.rack_of(host[vm]) for vm in vms}
    # Two hosts share a pod when their route crosses no core; a pod is
    # named by its first VM.
    pod = {
        vm: next(other for other in vms if not route_cores(topology, host[vm], host[other]))
        for vm in vms
    }
    side = rack if rule == 1 else pod
    rng = np.random.default_rng(seed)
    gone = [vms[i] for i in rng.choice(len(vms), size=2, replace=False)]
    attach_timeline(provider, Timeline(events=(ProbeLoss(*gone, 0.0, math.inf),)))

    def cores(src: str, dst: str) -> set:
        return route_cores(topology, host[src], host[dst])

    tests: List[InterferenceTest] = []
    lost = 0
    while len(tests) + lost < INTERFERENCE_TESTS:
        a, b, c, d = (vms[i] for i in rng.choice(len(vms), size=4, replace=False))
        if rule == 1 and rng.random() < 0.3:
            c = a
        if side[b] == side[d]:
            continue
        try:
            solo = provider.run_netperf(a, b)
        except MeasurementError:
            lost += 1
            continue
        both = provider.concurrent_netperf([(a, b), (c, d)])[(a, b)]
        rule_of = connections_interfere_at_tor if rule == 1 else connections_interfere_at_core
        tests.append(InterferenceTest(
            shared=a == c,
            said=rule_of(a, b, c, d, side),
            hit=InterferenceResult(
                (a, b), (c, d), solo, both, INTERFERENCE_THRESHOLD
            ).interferes,
            one_core=bool(cores(a, b) & cores(c, d)),
            stays=rack[a] == rack[b] or rack[c] == rack[d],
        ))
    return tests, lost


def interference_row() -> Row:
    """Rule 1 against the network on every test; rule 2 as a may: no test
    it rules out interferes, and the tests it allows interfere exactly when
    ECMP takes both routes through one core."""
    first: List[InterferenceTest] = []
    second: List[InterferenceTest] = []
    lost = 0
    for seed in INTERFERENCE_SEEDS:
        for rule, tests in ((1, first), (2, second)):
            drawn, missed = interference_tests(rule, seed)
            tests += drawn
            lost += missed
    wrong = [t for t in first if t.said != t.hit]
    ruled_out = [t for t in second if not t.said]
    allowed = [t for t in second if t.said]
    missed = sum(t.hit for t in ruled_out)
    by_core = sum(t.hit == t.one_core for t in allowed)
    return Row(
        claim="§3.3.2: with the ToR uplink the bottleneck, two connections "
        "interfere when they share a source or their sources share a rack "
        "both destinations leave (rule 1); with the aggregation-to-core link "
        "the bottleneck, they may interfere only when their sources share a "
        "pod both destinations leave, and do when ECMP takes both through "
        "one core (rule 2)",
        paper="rules 1 and 2, argued from the tree, not measured",
        ours=f"rule 1 agrees with the network on {len(first) - len(wrong)} of "
        f"{len(first)} tests ({sum(t.hit for t in first)} interfere); of the "
        f"{len(wrong)} it gets wrong, {sum(t.shared for t in wrong)} share a "
        f"source and {sum(t.stays for t in wrong)} have a connection that stays "
        "in its rack while the uplink caps the other, so sharing the hose "
        "costs the measured one less than the threshold.  Rule 2 rules out "
        f"{len(ruled_out)} tests, {missed} of which interfere, and allows "
        f"{len(allowed)}, {sum(t.hit for t in allowed)} of which interfere; "
        f"whether both routes take one core (the router's ECMP pick) says "
        f"which on {by_core} of {len(allowed)}.  {lost} tests lost their probe",
        seeds=f"ec2 trees with those links at {INTERFERENCE_NARROW_BPS / 1e6:.0f} "
        f"Mbit/s, seeds {_span(INTERFERENCE_SEEDS)}, {INTERFERENCE_VMS} VMs, "
        f"{INTERFERENCE_TESTS} tests per seed and rule, interference above a "
        f"{INTERFERENCE_THRESHOLD} drop, one lost-probe window per seed",
        verdict=HOLDS if not wrong and not missed and by_core == len(allowed) else FAILS,
    )


# ------------------------------------------------------------ §4.1 / Fig. 6
CALIBRATION_SEEDS = range(3)


def calibration_errors(name: str, seed: int) -> Dict[int, float]:
    """Mean relative error of 10-burst trains against a 10 s netperf run,
    by burst length, over the 20 ordered pairs of 5 VMs (as
    ``tests/test_calibration.py`` measures it)."""
    provider = make_provider(name, seed=seed)
    provider.request_vms(5)
    names = [vm.name for vm in provider.vms()]
    pairs = [(s, d) for s in names for d in names if s != d]
    points = calibrate_train_parameters(
        provider, pairs, burst_lengths=(200, 2000), n_bursts_options=(10,)
    )
    return {point.burst_length: point.mean_relative_error for point in points}


def calibration_row() -> Row:
    ec2 = [calibration_errors("ec2", seed)[200] for seed in CALIBRATION_SEEDS]
    rackspace = [calibration_errors("rackspace", seed) for seed in CALIBRATION_SEEDS]
    ratio = [errors[2000] / errors[200] for errors in rackspace]
    holds = max(ec2) < 0.10 and max(ratio) <= 1 / 3
    return Row(
        claim="§4.1 / Figure 6: a 10-burst packet train tracks netperf with "
        "200-packet bursts on EC2; Rackspace's token bucket needs 2000-packet bursts",
        paper="EC2 calibrated at 200 packets; Rackspace at 2000",
        ours=f"EC2 error at 200 packets {_pct(min(ec2))}–{_pct(max(ec2))} "
        f"(bound 10 %); Rackspace error at 2000 / at 200 "
        f"{min(ratio):.2f}–{max(ratio):.2f} (bound 1/3)",
        seeds=f"ec2 and rackspace, seeds {_span(CALIBRATION_SEEDS)}",
        verdict=HOLDS if holds else FAILS,
    )


# ----------------------------------------------------------------------- §5
EXACT_SCENARIOS = (
    "smoke", "all-to-all", "bursty-mapreduce", "single-app-ec2",
    "partition-aggregate", "rack-hotspot",
)
EXACT_TRIALS = 20
PAPER_MEDIAN_RATIO = 1.13


def completion_ratio(greedy: float, exact: float) -> float:
    """Greedy's completion over the exact placer's; 1 when both placements
    colocate every transfer and finish at once."""
    if exact == 0.0:
        return 1.0 if greedy == 0.0 else math.inf
    return greedy / exact


def exact_row() -> Row:
    """Greedy's simulated completion over the exact placer's, per trial."""
    result = ExperimentRunner(ExperimentConfig(
        scenarios=EXACT_SCENARIOS, placers=("greedy",), trials=EXACT_TRIALS,
        base_seed=0, baseline="ilp", workers=1,
        placer_params={"ilp": {"time_limit_s": 60.0}},
    )).run()
    ratios: Dict[str, List[float]] = {}
    for scenario in EXACT_SCENARIOS:
        exact = {r.trial: r.total_running_time_s for r in result.ok_records(scenario, "ilp")}
        ratios[scenario] = [
            completion_ratio(r.total_running_time_s, exact[r.trial])
            for r in result.ok_records(scenario, "greedy") if r.trial in exact
        ]
    pooled = [ratio for values in ratios.values() for ratio in values]
    median = statistics.median(pooled)
    low, high = seed_interval(pooled, statistic=np.median)
    complete = len(pooled) == len(EXACT_SCENARIOS) * EXACT_TRIALS
    scenarios = ", ".join(
        f"`{scenario}` {statistics.median(values):.3f}" for scenario, values in ratios.items()
    )
    return Row(
        claim="§5: greedy places within 13 % of the optimal placement (median)",
        paper=f"median completion ratio ≤ {PAPER_MEDIAN_RATIO:.2f}",
        ours=f"median {median:.3f} (95 % {low:.3f}–{high:.3f}), max {max(pooled):.2f}; "
        f"per scenario {scenarios}",
        seeds=f"trials {_span(range(EXACT_TRIALS))} of base seed 0, paired, "
        f"{len(EXACT_SCENARIOS)} scenarios",
        verdict=HOLDS if complete and median <= PAPER_MEDIAN_RATIO else FAILS,
    )


# --------------------------------------------------------------------- §6.1
PREDICTABILITY_SEEDS = range(10)
PREDICTABILITY_APPS = 12
PREDICTABILITY_HOURS = 7 * 24
PREDICTABILITY_PARTS = ("previous-hour", "time-of-day")
PREDICTABILITY_TOLERANCE = 0.2


def predictability_reports(seed: int) -> Dict[str, PredictabilityReport]:
    """The §6.1 analysis on the 7-day, 12-application dataset
    ``tests/test_predictability.py`` checks."""
    data = HPCloudWorkloadGenerator(seed=seed).generate_hourly_dataset(
        n_applications=PREDICTABILITY_APPS, n_hours=PREDICTABILITY_HOURS
    )
    return evaluate_predictability(data)


def combined_wins(reports: Dict[str, PredictabilityReport]) -> bool:
    """``combined`` has a lower median and a lower mean relative error than
    each of its parts."""
    combined = reports["combined"]
    return all(
        combined.median_error < reports[part].median_error
        and combined.mean_error < reports[part].mean_error
        for part in PREDICTABILITY_PARTS
    )


def predictability_row() -> Row:
    pooled: Dict[str, List[float]] = {}
    alone = 0
    for seed in PREDICTABILITY_SEEDS:
        reports = predictability_reports(seed)
        alone += combined_wins(reports)
        for name, report in reports.items():
            pooled.setdefault(name, []).extend(report.relative_errors)
    reports = {name: PredictabilityReport(name, errors) for name, errors in pooled.items()}
    summary = "; ".join(
        f"{name} median {report.median_error:.3f} / mean {report.mean_error:.3f}, "
        f"{report.fraction_within(PREDICTABILITY_TOLERANCE):.2f} within "
        f"{_pct(PREDICTABILITY_TOLERANCE)}"
        for name, report in reports.items()
    )
    counts = {report.n_predictions for report in reports.values()}
    return Row(
        claim="§6.1: the previous hour and the time of day predict the next "
        "hour's bytes, and their average predicts better than either alone",
        paper="combined beats both of its parts",
        ours=f"{summary}; {' / '.join(map(str, sorted(counts)))} predictions each; "
        f"combined wins on {alone} of {len(PREDICTABILITY_SEEDS)} seeds alone",
        seeds=f"seeds {_span(PREDICTABILITY_SEEDS)}, {PREDICTABILITY_APPS} "
        f"applications × {PREDICTABILITY_HOURS} hours, first day as warm-up, pooled",
        verdict=HOLDS if combined_wins(reports) else FAILS,
    )


# ------------------------------------------------------- §2.4, §3 (service)
SERVICE_SCENARIOS = ("service-churn", "fault-churn")
SERVICE_TRIALS = 20
#: The sessions each service row compares, by name: the scenario's
#: registered defaults (``measured``, migration on) but these parameters.
SERVICE_SESSIONS = {
    "measured": {},
    "no-migration": {"migrate": False},
    "stale": {"predictor": "stale"},
    "oracle": {"predictor": "oracle"},
}


def service_sessions() -> Dict[Tuple[str, str], Dict[int, TrialRecord]]:
    """``(scenario, session) -> trial -> record`` of greedy's sessions."""
    sessions = {}
    for scenario in SERVICE_SCENARIOS:
        for name, params in SERVICE_SESSIONS.items():
            result = ExperimentRunner(ExperimentConfig(
                scenarios=(scenario,), placers=("greedy",), trials=SERVICE_TRIALS,
                base_seed=0, baseline="greedy", workers=1,
                scenario_params={scenario: params},
            )).run()
            sessions[scenario, name] = {
                r.trial: r for r in result.ok_records(scenario, "greedy")
            }
    return sessions


def common_gain(before: TrialRecord, after: TrialRecord) -> float:
    """``after``'s gain over ``before`` in mean admission-to-completion
    time over the applications both sessions completed."""
    both = before.per_app_duration_s.keys() & after.per_app_duration_s.keys()
    before_mean, after_mean = (
        statistics.fmean(r.per_app_duration_s[app] for app in both)
        for r in (before, after)
    )
    return relative_speedup(before_mean, after_mean)


def paired_service_gains(sessions, scenario: str, before: str, after: str) -> List[float]:
    """Per trial, session ``after``'s :func:`common_gain` over ``before``."""
    a, b = sessions[scenario, before], sessions[scenario, after]
    return [common_gain(a[trial], b[trial]) for trial in sorted(a.keys() & b.keys())]


def gain_text(gains: List[float]) -> str:
    """Mean, interval and the seeds each way."""
    better, worse = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    return (
        f"{interval_text(gains)}: better on {better}, equal on "
        f"{len(gains) - better - worse}, worse on {worse} seeds"
    )


SERVICE_SEEDS = (
    f"trials 0–{SERVICE_TRIALS - 1} of base seed 0, paired, greedy, "
    "registered defaults"
)


def migration_row(sessions) -> Row:
    """§2.4's re-evaluation against the same sessions without it."""
    gains = {
        scenario: paired_service_gains(sessions, scenario, "no-migration", "measured")
        for scenario in SERVICE_SCENARIOS
    }
    churn, faults = gains["service-churn"], gains["fault-churn"]
    holds = (
        len(churn) == len(faults) == SERVICE_TRIALS and gain_holds(churn)
        and statistics.fmean(faults) >= 0
    )
    return Row(
        claim="§2.4: re-evaluating running applications (and migrating them "
        "when the predicted gain clears the threshold) shortens them",
        paper="argued, not measured",
        ours=f"mean completion over the applications both sessions completed, "
        f"migration on over off, both placing on the measured profile and "
        f"measuring at every epoch tick: `service-churn` {gain_text(churn)}; "
        f"`fault-churn` {gain_text(faults)}.  Measured once at commit 53040b7, "
        f"while the threshold was still a setting and sessions placed on a "
        f"forecast, `fault-churn` fired no migration on any of its 20 seeds at "
        f"any threshold in {{0, 0.05, 0.1, 0.2, 0.5}}.  The claim holds when "
        f"migration's gain holds on `service-churn` and its mean on "
        f"`fault-churn` is ≥ 0",
        seeds=SERVICE_SEEDS,
        verdict=HOLDS if holds else FAILS,
    )


def measurement_row(sessions) -> Row:
    """The service's measured placement between its two controls, per seed."""
    parts, holds = [], True
    for scenario in SERVICE_SCENARIOS:
        oracle = paired_service_gains(sessions, scenario, "measured", "oracle")
        measured = paired_service_gains(sessions, scenario, "stale", "measured")
        stale, fresh = sessions[scenario, "stale"], sessions[scenario, "measured"]
        totals = [
            relative_speedup(stale[t].total_running_time_s, fresh[t].total_running_time_s)
            for t in sorted(stale.keys() & fresh.keys())
        ]
        rejected = {
            name: sum(
                r.n_apps - len(r.per_app_duration_s)
                for r in sessions[scenario, name].values()
            )
            for name in ("stale", "measured", "oracle")
        }
        holds = (
            holds and len(measured) == SERVICE_TRIALS
            and statistics.fmean(oracle) >= 0 and gain_holds(measured)
        )
        parts.append(
            f"`{scenario}`: measured over stale {gain_text(measured)}; oracle over "
            f"measured {gain_text(oracle)}; on session totals measured over stale "
            f"{interval_text(totals)}, "
            f"rejected " + " / ".join(f"{n} {name}" for name, n in rejected.items())
        )
    return Row(
        claim="§3, the service: placing each arrival and migration on a fresh "
        "measurement of the network finishes applications sooner than placing on "
        "the stale hour-0 profile, and no sooner than on the true rates "
        "(oracle ≤ measured < stale)",
        paper="Choreo measures the network, then places on what it measured",
        ours="Three greedy sessions per seed on the same drifting network and "
        "arrivals: `measured` places on the TTL cache's refresh at each admission "
        "and epoch tick, `stale` on the bootstrap campaign at t = 0, `oracle` on "
        "the true rates of the instant.  " + "; ".join(parts) + ".  Each seed "
        "compares only the applications both sessions completed: a session that "
        "rejects an application (no CPU at its arrival) drops its time from its "
        "total, so totals reward rejecting.  A seed worse for the oracle is "
        "negative regret: the oracle is Algorithm 1 on the true rates of the "
        "instant it places at, not an optimum, and `measured` differs from it by "
        "probe noise, the rates the cache reuses within its TTL and greedy's ties "
        "(ROADMAP item 19(c) keeps those seeds open).  The claim holds when, on both scenarios, oracle over measured is "
        "≥ 0 in the mean and measured over stale holds as a gain",
        seeds=SERVICE_SEEDS,
        verdict=HOLDS if holds else FAILS,
    )


# --------------------------------------------------------------------- §6.3
SEQUENCE_SCENARIOS = ("multi-app-sequence", "ec2-trace-replay")
SEQUENCE_TRIALS = 20
PAPER_MEAN_GAIN = (0.22, 0.43)
PAPER_MAX_GAIN = 0.79


def paired_gains(result, scenario: str, baseline: str = "random") -> List[float]:
    """Per trial, greedy's running-time gain over ``baseline`` on the same
    seed.  A trial both finish in 0 s (every transfer colocated) has no
    gain to give and is left out."""
    greedy = {r.trial: r.total_running_time_s for r in result.ok_records(scenario, "greedy")}
    base = {r.trial: r.total_running_time_s for r in result.ok_records(scenario, baseline)}
    return [
        relative_speedup(base[trial], greedy[trial])
        for trial in sorted(greedy.keys() & base.keys())
        if base[trial] or greedy[trial]
    ]


def seed_interval(values: List[float], resamples: int = 10_000, statistic=np.mean) -> tuple:
    """95 % percentile-bootstrap interval of ``statistic`` over seeds (seeded)."""
    draws = np.random.default_rng(0).choice(values, size=(resamples, len(values)))
    low, high = np.percentile(statistic(draws, axis=1), [2.5, 97.5])
    return float(low), float(high)


def interval_text(values: List[float]) -> str:
    """The mean over seeds and its 95 % interval."""
    low, high = seed_interval(values)
    return f"{_pct(statistics.fmean(values))} (95 % {_pct(low)}–{_pct(high)})"


def gain_holds(gains: List[float]) -> bool:
    """A gain holds when its mean over seeds and its interval's lower
    bound are both > 0."""
    return statistics.fmean(gains) > 0 and seed_interval(gains)[0] > 0


def sequence_row() -> Row:
    result = ExperimentRunner(ExperimentConfig(
        scenarios=SEQUENCE_SCENARIOS, placers=("greedy", "random"),
        trials=SEQUENCE_TRIALS, base_seed=0, baseline="random", workers=1,
    )).run()
    parts, holds, in_range = [], True, True
    for scenario in SEQUENCE_SCENARIOS:
        gains = paired_gains(result, scenario)
        mean = statistics.fmean(gains)
        holds = holds and len(gains) == SEQUENCE_TRIALS and gain_holds(gains)
        inside = PAPER_MEAN_GAIN[0] <= mean <= PAPER_MEAN_GAIN[1]
        in_range = in_range and inside
        parts.append(
            f"`{scenario}` mean {interval_text(gains)}, "
            f"max {_pct(max(gains))}; mean {'inside' if inside else 'outside'} "
            f"the paper's range"
        )
    return Row(
        claim="§6.3: placed as they arrive, each measured under the load of "
        "those still running, greedy's applications finish sooner than random's",
        paper=f"mean gain {_pct(PAPER_MEAN_GAIN[0])}–{_pct(PAPER_MEAN_GAIN[1])}, "
        f"max {_pct(PAPER_MAX_GAIN)}",
        ours="; ".join(parts),
        seeds=f"trials {_span(range(SEQUENCE_TRIALS))} of base seed 0, paired",
        verdict=HOLDS if holds else FAILS,
        magnitude=IN_RANGE if in_range else OUTSIDE_RANGE,
    )


# --------------------------------------------------------------------- §6.2
SINGLE_APP_SCENARIOS = (
    "single-app-ec2", "bursty-mapreduce", "partition-aggregate", "all-to-all",
    "legacy-ec2-zone", "rackspace-uniform", "hetero-topology", "cross-traffic",
    "rack-hotspot",
)
SINGLE_APP_BASELINES = ("random", "round-robin", "min-machines")
#: Built to defeat a placer that ignores the network (a hot rack; another
#: tenant's flows): a second pool leaves them out, beside the full one.
ADVERSARIAL_SCENARIOS = ("rack-hotspot", "cross-traffic")
SINGLE_APP_TRIALS = 20
PAPER_SINGLE_MEAN_GAIN = (0.08, 0.14)
PAPER_SINGLE_MAX_GAIN = 0.61
#: Greedy on a flat profile, a placer of this table alone.
FLAT_GREEDY = "greedy-flat"


class FlatGreedyPlacer(GreedyPlacer):
    """Algorithm 1 on a flat profile: every measured pair of distinct VMs
    at one rate, the mean of the measured ones; the intra-VM rate (the
    diagonal) and the unmeasured pairs as they were."""

    def place(self, app, cluster, profile=None):
        rates = profile.rate_matrix()
        measured = ~np.eye(len(profile.vms), dtype=bool) & ~np.isnan(rates)
        flat = np.where(measured, rates[measured].mean(), rates)
        return super().place(
            app, cluster,
            NetworkProfile(profile.vms, flat, intra_vm_rate_bps=profile.intra_vm_rate_bps),
        )


def single_app_result():
    """The §6.2 grid: greedy, greedy on a flat profile and each baseline on
    one application at a time, paired by trial (a cell's record does not
    depend on the other placers of its trial)."""
    spec = placers._register(placers.PlacerSpec(
        FLAT_GREEDY, "Algorithm 1 on a flat profile.", lambda seed: FlatGreedyPlacer(),
    ))
    try:
        return ExperimentRunner(ExperimentConfig(
            scenarios=SINGLE_APP_SCENARIOS,
            placers=("greedy", FLAT_GREEDY, *SINGLE_APP_BASELINES),
            trials=SINGLE_APP_TRIALS, base_seed=0, baseline="random", workers=1,
        )).run()
    finally:
        del placers._PLACERS[spec.name]


def single_app_row(result) -> Row:
    """Greedy against each baseline on one application at a time."""
    gains = {
        (scenario, baseline): paired_gains(result, scenario, baseline)
        for scenario in SINGLE_APP_SCENARIOS for baseline in SINGLE_APP_BASELINES
    }
    trials = len(SINGLE_APP_SCENARIOS) * SINGLE_APP_TRIALS
    pooled, benign, holds, in_range = [], [], True, True
    for baseline in SINGLE_APP_BASELINES:
        values = [g for scenario in SINGLE_APP_SCENARIOS for g in gains[scenario, baseline]]
        kept = [
            g for scenario in SINGLE_APP_SCENARIOS
            if scenario not in ADVERSARIAL_SCENARIOS for g in gains[scenario, baseline]
        ]
        benign.append(f"vs {baseline} mean {interval_text(kept)}, max {_pct(max(kept))}")
        mean, gain = statistics.fmean(values), gain_holds(values)
        holds = holds and gain
        in_range = in_range and max(values) <= PAPER_SINGLE_MAX_GAIN and (
            PAPER_SINGLE_MEAN_GAIN[0] <= mean <= PAPER_SINGLE_MEAN_GAIN[1]
        )
        left_out = trials - len(values)
        pooled.append(
            f"vs {baseline} mean {interval_text(values)}, max "
            f"{_pct(max(values))}, {HOLDS if gain else FAILS}"
            + (f", {left_out} trials both in 0 s left out" if left_out else "")
        )

    def colocated(scenario: str, placer: str) -> str:
        """The mean over trials of the share of bytes kept on one VM."""
        records = result.ok_records(scenario, placer)
        shares = [r.colocated_bytes / (r.colocated_bytes + r.network_bytes) for r in records]
        return f"{statistics.fmean(shares):.2f}"

    per_scenario = "; ".join(
        f"`{scenario}` "
        + " / ".join(_pct(statistics.fmean(gains[scenario, b])) for b in SINGLE_APP_BASELINES)
        + ", max " + " / ".join(_pct(max(gains[scenario, b])) for b in SINGLE_APP_BASELINES)
        + f", colocated {colocated(scenario, 'greedy')} / {colocated(scenario, 'random')}"
        for scenario in SINGLE_APP_SCENARIOS
    )
    instant = sum(
        r.total_running_time_s == 0
        for scenario in SINGLE_APP_SCENARIOS for r in result.ok_records(scenario, "greedy")
    )
    return Row(
        claim="§6.2: on one application, greedy's placement finishes sooner "
        "than random's, round-robin's and min-machines'",
        paper=f"mean gain {_pct(PAPER_SINGLE_MEAN_GAIN[0])}–"
        f"{_pct(PAPER_SINGLE_MEAN_GAIN[1])}, max {_pct(PAPER_SINGLE_MAX_GAIN)}",
        ours=f"pooled: {'; '.join(pooled)}.  Pooled without "
        f"{' and '.join(f'`{name}`' for name in ADVERSARIAL_SCENARIOS)}: "
        f"{'; '.join(benign)}.  Per scenario, mean and max vs "
        f"{' / '.join(SINGLE_APP_BASELINES)}, and the share of bytes colocated, "
        f"greedy / random: {per_scenario}.  Greedy finishes {instant} of {trials} "
        "trials in 0 s (every transfer colocated)",
        seeds=f"trials {_span(range(SINGLE_APP_TRIALS))} of base seed 0, paired, "
        f"{len(SINGLE_APP_SCENARIOS)} scenarios",
        verdict=HOLDS if holds else FAILS,
        magnitude=IN_RANGE if in_range else OUTSIDE_RANGE,
    )


def measuring_pays_row(result) -> Row:
    """Greedy on the measured profile against greedy on a flat one, on the
    §6.2 grid: what Algorithm 1 gains from the measurement itself."""
    gains = [
        g for scenario in SINGLE_APP_SCENARIOS
        for g in paired_gains(result, scenario, FLAT_GREEDY)
    ]
    holds = gain_holds(gains)
    trials = len(SINGLE_APP_SCENARIOS) * SINGLE_APP_TRIALS
    return Row(
        claim="§6.2, measuring pays: on one application, greedy on the measured "
        "profile finishes sooner than greedy on a flat one (every pair of "
        "distinct VMs at one rate, the intra-VM rate unchanged)",
        paper="not reported: the paper's gains are over network-oblivious placers",
        ours=f"pooled mean {interval_text(gains)}, max {_pct(max(gains))}, "
        f"min {_pct(min(gains))}; faster on {sum(g > 0 for g in gains)}, "
        f"equal on {sum(g == 0 for g in gains)} and slower on "
        f"{sum(g < 0 for g in gains)} of {len(gains)} trials"
        + (f" ({trials - len(gains)} both in 0 s left out)" if len(gains) < trials else ""),
        seeds=f"trials {_span(range(SINGLE_APP_TRIALS))} of base seed 0, paired, "
        f"{len(SINGLE_APP_SCENARIOS)} scenarios",
        verdict=HOLDS if holds else FAILS,
    )


# ------------------------------------------------------------------ output
def _pct(value: float) -> str:
    return f"{100 * value:.1f} %"


def _span(values: range) -> str:
    return f"{values[0]}–{values[-1]}"


HEADER = """\
# Fidelity: the paper's claims, checked

Generated by `python tests/fidelity.py`; do not edit by hand.  A claim
*holds* when our seeded runs reproduce its direction with the stated
bound: for a gain, the mean over seeds is above 0 and so is its 95 %
interval (a percentile bootstrap over the seeds).  Where the paper gives a
range, the second verdict says whether our value lies *in range* (every
scenario's, for a claim measured on several) or *outside range*; a claim
can hold and still be outside its range.  CI regenerates this table and
fails when either verdict flips.

| claim | paper | ours | seeds | verdict | range |
| --- | --- | --- | --- | --- | --- |
"""


def render(rows: List[Row]) -> str:
    return HEADER + "".join("| " + " | ".join(row) + " |\n" for row in rows)


def verdicts(text: str) -> Dict[str, Tuple[str, str]]:
    """``section -> (verdict, range verdict)`` of a rendered table."""
    found = {}
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == len(Row._fields) and cells[0].startswith("§"):
            found[cells[0].split(":")[0]] = (cells[-2], cells[-1])
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail when a verdict differs from the replaced table's")
    parser.add_argument("--out", default=str(TABLE), help="where to write the table")
    args = parser.parse_args(argv)
    out = Path(args.out)
    before = verdicts(out.read_text()) if out.exists() else {}
    sessions = service_sessions()
    single_app = single_app_result()
    text = render([
        migration_row(sessions), measurement_row(sessions), cross_traffic_row(),
        bottleneck_row(),
        interference_row(),
        calibration_row(), exact_row(), predictability_row(), single_app_row(single_app),
        measuring_pays_row(single_app), sequence_row(),
    ])
    out.write_text(text)
    print(text, end="")
    flipped = [
        f"{claim}: {', '.join(before[claim])} -> {', '.join(verdict)}"
        for claim, verdict in verdicts(text).items()
        if claim in before and before[claim] != verdict
    ]
    for line in flipped:
        print(f"verdict flipped: {line}", file=sys.stderr)
    return 1 if args.check and flipped else 0


if __name__ == "__main__":
    sys.exit(main())
