"""The ``adaptive_overlay`` scenario: the paper's adaptive-vs-static claim.

The title's promise — *informed content delivery across adaptive
overlay networks* — is a comparison: an overlay that rewires its
peering from informed utility estimates should beat both a static
overlay and one that rewires blindly.  This scenario runs that
comparison as one spec: the same swarm is executed three times from
identical derived seeds, once per arm —

* ``static`` — the initial source-only peering never changes;
* ``random`` — senders are swapped uniformly at random each epoch
  (:class:`~repro.overlay.reconfiguration.RandomRewiring`);
* ``informed`` — summary-driven admission and utility rewiring under
  the spec's :class:`~repro.api.spec.ReconfigSpec` (any registered
  summary kind via ``reconfig.summary``).

The swarm is the paper's mirror environment (§1-2): two replica groups
each hold one half of the symbol space — every in-group peering is
pure redundancy, every cross-group peering is pure gain — plus a wave
of empty latecomers.  Senders deliberately use the *uninformed*
``Random`` strategy, so reception efficiency isolates the quality of
the peering decisions themselves (the strategy axis is
``summary_tradeoff``'s business; the paper's §4 point is that sketches
let receivers "immediately reject candidate senders whose content is
identical to their own").

Packet accounting is cumulative over every connection that ever
existed — :class:`~repro.overlay.simulator.SimulationReport` counters
are simulator-owned running totals, so an arm cannot improve its
reported efficiency by discarding connections along with their
redundant history.  (This scenario originally reconstructed cumulative
totals from a :class:`~repro.sim.stats.StatsRecorder` to work around
the report summing live connections only; the report itself is honest
now.)  Each arm
reports completion time, useful-symbol fraction, rewiring count, and
the control bytes its summary cards actually cost on the wire; the
headline ``informed_useful_gain`` metric is the informed arm's
useful-fraction lead over the random arm.  The ``reconfig.summary
.kind`` axis is sweepable, so a campaign turns the accuracy-vs-
overhead of informed peering into one grid.
"""

import math
import random
from typing import Dict, List

from repro.api.builders import (
    _expect_groups,
    _reconfig_policies,
    _reconfig_sim_kwargs,
    _require_swarm,
    _seeded_count,
    _source_group,
    simulator_class,
)
from repro.api.registry import scenario
from repro.api.result import RunResult
from repro.api.runner import BuiltExperiment
from repro.api.spec import (
    ChurnSpec,
    ExperimentSpec,
    MeasurementSpec,
    NodeSpec,
    ReconfigSpec,
    SpecError,
    StrategySpec,
    SwarmSpec,
)
from repro.overlay.node import OverlayNode
from repro.overlay.simulator import OverlaySimulator, SimulationReport
from repro.overlay.topology import VirtualTopology
from repro.seeding import derive_seed
from repro.sim.stats import StatsRecorder

#: The comparison arms, in reporting order.
ARMS = ("static", "random", "informed")


def adaptive_overlay(
    mirrors_per_group: int = 4,
    joiners: int = 4,
    target: int = 100,
    wave_interval: float = 5.0,
    max_connections: int = 3,
    interval: float = 5.0,
    summary_kind: str = "",
    seed: int = 2,
    strategy_name: str = "Random",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: static vs random vs informed rewiring over a mirror swarm.

    Args:
        mirrors_per_group: replicas in each of the two content groups.
        joiners: empty latecomers arriving in one wave.
        target: symbols each peer needs to complete.
        wave_interval: when the joiner wave lands.
        max_connections: inbound sender slots per peer.
        interval: reconfiguration epoch period (simulated time units).
        summary_kind: summary driving the informed arm ("" = the
            default min-wise calling card).
        seed: master seed; every arm derives identically from it.
        strategy_name: sender strategy, shared by all arms (the
            default uninformed ``Random`` isolates the peering axis).
    """
    if mirrors_per_group < 1:
        raise SpecError("need at least one mirror per group")
    spec = ExperimentSpec(
        scenario="adaptive_overlay",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.2,
            nodes=(
                NodeSpec(name="src", count=1, role="source"),
                NodeSpec(
                    name="a",
                    count=mirrors_per_group,
                    seeding="fixed",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=max_connections,
                ),
                NodeSpec(
                    name="b",
                    count=mirrors_per_group,
                    seeding="fixed",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=max_connections,
                ),
                NodeSpec(
                    name="p", count=joiners, max_connections=max_connections
                ),
            ),
        ),
        strategy=StrategySpec(name=strategy_name),
        churn=ChurnSpec(join_waves=1, wave_interval=wave_interval)
        if joiners
        else None,
        reconfig=ReconfigSpec(policy="informed", interval=interval),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )
    if summary_kind:
        spec = spec.with_override("reconfig.summary.kind", summary_kind)
    return spec


def _build_arm(spec: ExperimentSpec, arm: str) -> OverlaySimulator:
    """One arm's ready-to-run simulator.

    Every arm draws the identical construction stream (same mirror
    slices, same wave schedule); runs diverge only through the
    policies' own behaviour — the controlled comparison the paper's
    argument needs.  Packet accounting rides the simulator's own
    cumulative totals, so no side recorder is needed.
    """
    swarm = _require_swarm(spec)
    src_name = _source_group(swarm).member_ids()[0]
    group_a = swarm.group("a")
    group_b = swarm.group("b")
    joiners = swarm.group("p")
    target, distinct = swarm.target, swarm.distinct_symbols

    rng = random.Random(derive_seed(spec.seed, "adaptive_overlay"))
    admission, rewiring = _reconfig_policies(spec, rng, policy=arm)
    sim = simulator_class(spec)(
        VirtualTopology(),
        admission=admission,
        rewiring=rewiring,
        strategy_name=spec.strategy.name,
        rng=rng,
        **_reconfig_sim_kwargs(spec, swarm),
    )
    sim.add_node(OverlayNode(src_name, target, is_source=True))
    # The two replica groups mirror complementary half-slices of the
    # symbol space: in-group peerings offer nothing, cross-group
    # peerings offer everything (Figure 1's C/D insight, scaled up).
    shuffled = list(range(distinct))
    rng.shuffle(shuffled)
    slice_a = shuffled[: _seeded_count(group_a, target, distinct)]
    slice_b = shuffled[
        len(slice_a) : len(slice_a) + _seeded_count(group_b, target, distinct)
    ]
    for group, ids in ((group_a, slice_a), (group_b, slice_b)):
        for name in group.member_ids():
            sim.add_node(
                OverlayNode(
                    name,
                    target,
                    initial_ids=ids,
                    max_connections=group.max_connections,
                )
            )
            sim.connect(src_name, name)

    joiner_ids = list(joiners.member_ids())
    churn = spec.churn
    if churn is None or churn.join_waves < 1:
        for pid in joiner_ids:
            sim.add_node(
                OverlayNode(pid, target, max_connections=joiners.max_connections)
            )
            sim.connect(src_name, pid)
    else:
        per_wave = math.ceil(len(joiner_ids) / churn.join_waves)

        def make_wave(batch: List[str]):
            def join_wave() -> None:
                for pid in batch:
                    sim.add_node(
                        OverlayNode(
                            pid, target, max_connections=joiners.max_connections
                        )
                    )
                    sim.connect(src_name, pid)

            return join_wave

        for w in range(churn.join_waves):
            batch = joiner_ids[w * per_wave : (w + 1) * per_wave]
            if batch:
                sim.scheduler.schedule_at(
                    (w + 1) * float(churn.wave_interval) + 0.5, make_wave(batch)
                )
    return sim


@scenario(
    "adaptive_overlay",
    small_spec=lambda: adaptive_overlay(
        mirrors_per_group=4,
        joiners=4,
        target=40,
        seed=2,
        max_ticks=4_000,
    ),
    description="Static vs random vs informed rewiring over one mirror swarm",
    small_grid=lambda: {"reconfig.summary.kind": ["minwise", "bloom", "modk"]},
)
def build_adaptive_overlay(spec: ExperimentSpec) -> BuiltExperiment:
    """Run all three arms from identical seeds; report the comparison."""
    swarm = _require_swarm(spec)
    _expect_groups(swarm, "a", "b", "p")
    _source_group(swarm)
    if spec.churn is not None and spec.churn.depart_node:
        raise SpecError("adaptive_overlay does not support departures")
    if spec.strategy.summary is not None:
        raise SpecError(
            "adaptive_overlay compares reconfiguration policies; select the "
            "summary through reconfig.summary, not strategy.summary"
        )
    rc = spec.reconfig if spec.reconfig is not None else ReconfigSpec()
    if rc.policy != "informed":
        raise SpecError(
            "adaptive_overlay runs every arm itself; its reconfig spec names "
            f"the informed arm's configuration, not {rc.policy!r}"
        )

    def run(built: BuiltExperiment) -> RunResult:
        metrics: Dict[str, float] = {}
        events: List[str] = []
        reports: Dict[str, SimulationReport] = {}
        series = (
            StatsRecorder(resolution=spec.measurement.resolution)
            if spec.measurement.record_series
            else None
        )
        for arm in ARMS:
            sim = _build_arm(spec, arm)
            report = sim.run(max_ticks=spec.measurement.max_ticks)
            reports[arm] = report
            fraction = report.efficiency
            metrics[f"ticks[{arm}]"] = float(report.ticks)
            metrics[f"packets_sent[{arm}]"] = float(report.packets_sent)
            metrics[f"useful_fraction[{arm}]"] = fraction
            metrics[f"reconfigurations[{arm}]"] = float(report.reconfigurations)
            metrics[f"control_bytes[{arm}]"] = float(report.control_bytes)
            events.append(
                f"{arm}: ticks={report.ticks} useful_fraction={fraction:.3f} "
                f"reconfigurations={report.reconfigurations} "
                f"control_bytes={report.control_bytes}"
            )
            if series is not None:
                series.gauge(0.0, arm, "ticks", float(report.ticks))
                series.gauge(0.0, arm, "useful_fraction", fraction)
                series.gauge(0.0, arm, "control_bytes", float(report.control_bytes))
        metrics["informed_useful_gain"] = (
            metrics["useful_fraction[informed]"] - metrics["useful_fraction[random]"]
        )
        return RunResult(
            spec=spec,
            completed=all(r.all_complete for r in reports.values()),
            metrics=metrics,
            stats=series,
            events=events,
            extras={"reports": reports},
        )

    return BuiltExperiment(spec=spec, kind="sweep", runner=run)


__all__ = ["ARMS", "adaptive_overlay"]
