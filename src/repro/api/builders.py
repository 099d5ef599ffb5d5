"""Scenario catalog: spec constructors and registered builders.

Each catalog entry has two halves:

* a **spec constructor** (e.g. :func:`flash_crowd`) mapping the
  scenario's natural parameters to a complete, declarative
  :class:`~repro.api.spec.ExperimentSpec` — the JSON-able value a user
  stores, diffs, and re-runs;
* a **builder** registered under the scenario's name
  (:func:`repro.api.registry.scenario`) that interprets such a spec:
  constructs topology, nodes, link models, strategies, and scheduled
  churn events, and returns a :class:`~repro.api.runner.
  BuiltExperiment` ready to :meth:`~repro.api.runner.BuiltExperiment.
  run`.

Every builder draws from one master-seeded RNG in a fixed order, so a
spec replays bit for bit; ``tests/api/test_api_parity.py`` pins the
seeded metrics of the default catalog runs.
"""

import math
import random
from typing import Callable, Dict, List, Optional

from repro.api.registry import scenario
from repro.api.result import RunResult
from repro.api.runner import BuiltExperiment, SimScenario
from repro.api.spec import (
    ChurnSpec,
    ExperimentSpec,
    LinkRuleSpec,
    LinkSpec,
    MeasurementSpec,
    NodeSpec,
    SpecError,
    StrategySpec,
    SwarmSpec,
)
from repro.delivery.orchestrator import CandidateSender, JoinPlan, plan_join
from repro.delivery.receiver import SimReceiver
from repro.delivery.scenarios import (
    COMPACT_MULTIPLIER,
    make_multi_sender_scenario,
    make_pair_scenario,
)
from repro.delivery.strategies import make_strategy
from repro.delivery.transfer import (
    simulate_multi_sender_transfer,
    simulate_p2p_transfer,
)
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import (
    OpenAdmission,
    RandomRewiring,
    SketchAdmission,
    SummaryScheme,
    UtilityRewiring,
    default_scheme,
)
from repro.overlay.simulator import OverlaySimulator
from repro.overlay.topology import PathCharacteristics, VirtualTopology
from repro.protocol.peer import CodeParameters, ProtocolPeer
from repro.protocol.session import TransferSession
from repro.seeding import derive_rng
from repro.sim.engine import EventScheduler
from repro.sim.links import (
    ConstantRateLink,
    GilbertElliottLink,
    GilbertElliottProcess,
    LatencyJitterLink,
    LinkModel,
)
from repro.sim.sessions import (
    DEFAULT_PACKET_BUDGET_FACTOR,
    ScheduledSession,
    run_sessions,
)
from repro.sim.stats import StatsRecorder
from repro.transport import BottleneckLink, BottleneckQueue, TransportManager


# ---------------------------------------------------------------------------
# Shared construction helpers
# ---------------------------------------------------------------------------

#: The receiver's request margin over an even deficit split (decoding
#: overhead allowance plus slack for sender-domain overlap) — one
#: constant shared by the spec constructors, the builders' fallbacks,
#: and the figure sweeps in :mod:`repro.experiments.fig5678`.
DEFAULT_DESIRED_MARGIN = 1.15


def _require_swarm(spec: ExperimentSpec) -> SwarmSpec:
    if spec.swarm is None:
        raise SpecError(f"scenario {spec.scenario!r} requires a swarm spec")
    return spec.swarm


def _summary_policy(spec: ExperimentSpec):
    """The spec's summary policy, or None for the legacy hardcoded pair.

    ``None`` keeps :func:`~repro.delivery.strategies.make_strategy`,
    :class:`~repro.protocol.peer.ProtocolPeer`, and
    :class:`~repro.protocol.session.TransferSession` on their
    bit-identical historical paths — the parity tests depend on it.
    """
    if spec.strategy.summary is None:
        return None
    return spec.strategy.summary.policy()


def _source_group(swarm: SwarmSpec) -> NodeSpec:
    """The swarm's single source group (the builders honour its name
    and link-rule class; multi-source swarms are not yet expressible)."""
    sources = [g for g in swarm.nodes if g.role == "source"]
    if len(sources) != 1 or sources[0].count != 1:
        raise SpecError(
            "swarm scenarios require exactly one source group with count=1; "
            f"got {[(g.name, g.count) for g in sources]}"
        )
    return sources[0]


def _expect_groups(swarm: SwarmSpec, *names: str) -> None:
    """Require the swarm's peer groups to be exactly ``names``.

    A declared group the builder would not consume is a spec error, not
    something to drop silently.
    """
    peer_groups = [g.name for g in swarm.nodes if g.role != "source"]
    if sorted(peer_groups) != sorted(names) or len(set(peer_groups)) != len(peer_groups):
        raise SpecError(
            f"this scenario expects exactly the peer groups {sorted(names)}; "
            f"the swarm declares {peer_groups}"
        )


def _rounds_cap(max_packets: int, senders_per_round: int) -> Optional[int]:
    """Translate a total data-packet budget into a round cap.

    ``simulate_multi_sender_transfer`` caps *rounds*, and every round
    moves up to ``senders_per_round`` packets — flooring keeps the
    packet total within the spec's budget.  A budget smaller than one
    round cannot be honoured and is rejected rather than exceeded.
    """
    if not max_packets:
        return None
    if max_packets < senders_per_round:
        raise SpecError(
            f"max_packets={max_packets} is smaller than one round of "
            f"{senders_per_round} senders; raise the budget or drop senders"
        )
    return max_packets // senders_per_round


def reconfig_scheme(spec: ExperimentSpec) -> SummaryScheme:
    """The :class:`SummaryScheme` a spec's reconfig selection names.

    ``reconfig.summary`` unset resolves to the historical min-wise
    calling card every overlay node publishes
    (:func:`~repro.overlay.reconfiguration.default_scheme`), so an
    informed run under the default scheme replays the pre-spec
    behaviour bit for bit.
    """
    rc = spec.reconfig
    if rc is None or rc.summary is None:
        return default_scheme()
    return SummaryScheme(rc.summary.kind, rc.summary.params_dict())


def _reconfig_policies(
    spec: ExperimentSpec, rng: random.Random, policy: Optional[str] = None
):
    """(admission, rewiring) for a swarm spec's reconfig selection.

    ``None`` reconfig keeps the historical informed defaults; an
    explicit selection picks the arm: ``informed`` (summary-driven
    thresholds and utility swaps), ``random`` (uninformed rewiring),
    or ``static`` (no rewiring, structural admission only).  ``policy``
    overrides the spec's own arm — the ``adaptive_overlay`` scenario
    uses it to construct every arm from one spec.
    """
    rc = spec.reconfig
    if policy is None:
        policy = rc.policy if rc is not None else "informed"
    if policy == "informed":
        if rc is None:
            from repro.api.spec import ReconfigSpec

            rc = ReconfigSpec()
        scheme = reconfig_scheme(spec)
        return (
            SketchAdmission(scheme, min_usefulness=rc.min_usefulness),
            UtilityRewiring(scheme, hysteresis=rc.hysteresis, rng=rng),
        )
    if policy == "random":
        return OpenAdmission(), RandomRewiring(rng=rng)
    return OpenAdmission(), None  # static


def _reconfig_sim_kwargs(spec: ExperimentSpec, swarm: SwarmSpec) -> Dict[str, float]:
    """The epoch-scheduling kwargs every overlay builder hands the simulator."""
    rc = spec.reconfig
    return {
        "reconfigure_every": (
            rc.interval if rc is not None and rc.interval > 0 else swarm.reconfigure_every
        ),
        "reconfig_jitter": rc.jitter if rc is not None else 0.0,
        "reconfig_budget": rc.scan_budget if rc is not None else 0,
    }


def _transport_setup(
    spec: ExperimentSpec,
    stats: Optional[StatsRecorder],
    link_factory: Optional[Callable[..., LinkModel]] = None,
):
    """(extra simulator kwargs, link factory) for the spec's transport.

    ``transport`` unset returns the inputs untouched — the builders
    stay on their bit-identical historical paths.  Set, it assembles
    the subsystem: an explicit :class:`EventScheduler` (the bottleneck
    queue reads its clock), a shared :class:`BottleneckQueue` when
    ``bottleneck_rate > 0``, a :class:`TransportManager` handing each
    connection its own congestion controller, and a link factory
    wrapping every constructed link in a :class:`BottleneckLink` so all
    senders contend for the one queue.
    """
    ts = spec.transport
    if ts is None:
        return {}, link_factory
    scheduler = EventScheduler()
    queue = None
    if ts.bottleneck_rate > 0:
        queue = BottleneckQueue(
            ts.bottleneck_rate,
            ts.bottleneck_buffer,
            clock=scheduler,
            stats=stats,
        )
        base_factory = link_factory

        def bottlenecked(
            chars: PathCharacteristics, sender_id: str, receiver_id: str
        ) -> LinkModel:
            if base_factory is not None:
                inner = base_factory(chars, sender_id, receiver_id)
            else:
                inner = ConstantRateLink(chars.bandwidth, chars.loss_rate)
            return BottleneckLink(inner, queue)

        link_factory = bottlenecked
    manager = TransportManager(
        ts.policy,
        ts.params_dict(),
        rto_min=ts.rto_min,
        rto_max=ts.rto_max,
        queue=queue,
    )
    return {"scheduler": scheduler, "transport": manager}, link_factory


def _reject_reconfig(spec: ExperimentSpec) -> None:
    """Refuse a reconfig selection on a scenario with no overlay to adapt."""
    if spec.reconfig is not None:
        raise SpecError(
            f"scenario {spec.scenario!r} has no adaptive overlay; a reconfig "
            "spec applies to the swarm scenarios (flash_crowd, "
            "source_departure, asymmetric_bandwidth, correlated_regional_loss, "
            "figure1, random_overlay, adaptive_overlay)"
        )


def simulator_class(spec: ExperimentSpec):
    """The engine class ``spec.measurement.engine`` selects.

    ``"reference"`` is the event-faithful default; ``"columnar"`` is
    the batched large-swarm engine, seeded-metric-identical (the parity
    suite pins it) but built for 1k-10k node runs.
    """
    if spec.measurement.engine == "columnar":
        from repro.overlay.columnar import ColumnarOverlaySimulator

        return ColumnarOverlaySimulator
    return OverlaySimulator


def _base_simulator(
    spec: ExperimentSpec,
    rng: random.Random,
    link_factory: Optional[Callable[..., LinkModel]] = None,
    topology: Optional[VirtualTopology] = None,
    policies=None,
):
    """The shared simulator assembly every swarm builder starts from.

    ``policies`` overrides the spec's ``(admission, rewiring)`` pair.
    """
    swarm = _require_swarm(spec)
    stats = (
        StatsRecorder(resolution=spec.measurement.resolution)
        if spec.measurement.record_series
        else None
    )
    admission, rewiring = policies or _reconfig_policies(spec, rng)
    transport_kwargs, link_factory = _transport_setup(spec, stats, link_factory)
    sim = simulator_class(spec)(
        topology if topology is not None else VirtualTopology(),
        admission=admission,
        rewiring=rewiring,
        strategy_name=spec.strategy.name,
        summary_policy=_summary_policy(spec),
        rng=rng,
        link_factory=link_factory,
        stats=stats,
        **transport_kwargs,
        **_reconfig_sim_kwargs(spec, swarm),
    )
    return sim, stats


def _seeded_count(rule: NodeSpec, target: int, distinct: int) -> int:
    """The (upper bound on the) initial symbol count a seeding rule yields.

    ``int(basis * fraction + 1e-9)`` reproduces the legacy integer
    arithmetic (``target // 2``, ``distinct // 2``, ``target // 3``)
    for the fractions the catalog stores.
    """
    basis = target if rule.seed_basis == "target" else distinct
    return int(basis * rule.seed_fraction + 1e-9)


def _initial_ids(
    rng: random.Random, rule: NodeSpec, target: int, distinct: int
) -> List[int]:
    """Draw one member's initial working set per the group's seeding rule."""
    if rule.seeding == "empty":
        return []
    bound = _seeded_count(rule, target, distinct)
    if bound <= 0:
        return []  # a fraction too small to seed a single symbol
    if rule.seeding == "fixed":
        return rng.sample(range(distinct), bound)
    # "uniform": a uniform count in [0, bound).
    return rng.sample(range(distinct), rng.randrange(0, bound))


def _shared_process(
    link_spec: LinkSpec, shared: Dict[str, GilbertElliottProcess]
) -> GilbertElliottProcess:
    """The keyed loss chain for a spec, created once per shared key."""
    process = shared.get(link_spec.shared_key)
    if process is None:
        process = GilbertElliottProcess(
            link_spec.p_good_bad,
            link_spec.p_bad_good,
            loss_good=link_spec.loss_good,
            loss_bad=link_spec.loss_bad,
        )
        shared[link_spec.shared_key] = process
    return process


def _build_link(
    link_spec: LinkSpec, shared: Dict[str, GilbertElliottProcess]
) -> LinkModel:
    """Instantiate a link model from its spec (sharing keyed processes)."""
    if link_spec.kind == "constant":
        return ConstantRateLink(
            link_spec.rate, loss_rate=link_spec.loss_rate, latency=link_spec.latency
        )
    if link_spec.kind == "latency_jitter":
        return LatencyJitterLink(
            link_spec.rate,
            latency=link_spec.latency,
            jitter=link_spec.jitter,
            loss_rate=link_spec.loss_rate,
        )
    # gilbert_elliott
    process = _shared_process(link_spec, shared) if link_spec.shared_key else None
    return GilbertElliottLink(
        link_spec.rate,
        p_good_bad=link_spec.p_good_bad,
        p_bad_good=link_spec.p_bad_good,
        loss_good=link_spec.loss_good,
        loss_bad=link_spec.loss_bad,
        latency=link_spec.latency,
        process=process,
    )


def _node_classes(swarm: SwarmSpec) -> Dict[str, str]:
    """Concrete node id -> link-rule class, from the group definitions."""
    classes: Dict[str, str] = {}
    for group in swarm.nodes:
        for node_id in group.member_ids():
            classes[node_id] = group.node_class
    return classes


def _link_factory_from_rules(
    swarm: SwarmSpec, shared: Dict[str, GilbertElliottProcess]
) -> Optional[Callable[[PathCharacteristics, str, str], LinkModel]]:
    """A per-connection link factory applying the swarm's link rules."""
    if not swarm.links:
        return None
    classes = _node_classes(swarm)

    def factory(
        chars: PathCharacteristics, sender_id: str, receiver_id: str
    ) -> LinkModel:
        link_spec = swarm.link_for(
            classes.get(sender_id, ""), classes.get(receiver_id, "")
        )
        if link_spec is None:
            return ConstantRateLink(chars.bandwidth, chars.loss_rate)
        return _build_link(link_spec, shared)

    return factory


def _shared_processes(swarm: SwarmSpec) -> Dict[str, GilbertElliottProcess]:
    """Pre-create every keyed shared loss process the link rules name."""
    shared: Dict[str, GilbertElliottProcess] = {}
    for rule in swarm.links:
        if rule.link.kind == "gilbert_elliott" and rule.link.shared_key:
            _shared_process(rule.link, shared)
    return shared


def _schedule_shared_process_steps(
    sim: OverlaySimulator,
    scenario_obj: SimScenario,
    rng: random.Random,
    shared: Dict[str, GilbertElliottProcess],
) -> None:
    """Step each shared loss chain once per tick, logging transitions."""
    for key in sorted(shared):
        process = shared[key]
        if scenario_obj.stats is not None:
            process.attach_stats(
                scenario_obj.stats, entity=f"loss:{key}", clock=sim.scheduler
            )

        def step(process=process, key=key) -> None:
            was_bad = process.bad
            process.step(rng)
            if process.bad != was_bad:
                state = "bad" if process.bad else "good"
                scenario_obj.events.append(
                    f"t={sim.scheduler.now:g} {key} -> {state}"
                )

        sim.scheduler.schedule_every(1.0, step, first=0.5)


def _schedule_departure(
    sim: OverlaySimulator, scenario_obj: SimScenario, churn: ChurnSpec
) -> None:
    """Schedule the churn spec's departure event, if any."""
    if not churn.depart_node:
        return

    def depart() -> None:
        node = sim.remove_node(churn.depart_node)
        label = "source" if node is not None and node.is_source else churn.depart_node
        scenario_obj.events.append(f"t={sim.scheduler.now:g} {label} departed")

    sim.scheduler.schedule_at(churn.depart_at, depart)


def _swarm_metrics(report) -> Dict[str, float]:
    delivered = report.packets_sent - report.packets_lost
    metrics = {
        "ticks": float(report.ticks),
        "packets_sent": float(report.packets_sent),
        "packets_lost": float(report.packets_lost),
        "packets_useful": float(report.packets_useful),
        "reconfigurations": float(report.reconfigurations),
        "efficiency": report.efficiency,
    }
    if report.packets_useful:
        metrics["overhead"] = delivered / report.packets_useful
    finished = [t for t in report.completion_ticks.values() if t is not None]
    if finished:
        metrics["last_completion_tick"] = float(max(finished))
    return metrics


def _run_swarm(built: BuiltExperiment) -> RunResult:
    """Shared run/collect path for every swarm scenario."""
    scenario_obj = built.scenario
    assert scenario_obj is not None
    report = scenario_obj.run(max_ticks=built.spec.measurement.max_ticks)
    metrics = _swarm_metrics(report)
    if built.spec.reconfig is not None:
        # Control-plane accounting appears only under an explicit
        # reconfig selection, so default-run metric keys stay exactly
        # the pre-refactor set (parity-pinned).
        metrics["reconfig_epochs"] = float(report.reconfig_epochs)
        metrics["reconfig_control_bytes"] = float(report.control_bytes)
    if built.spec.transport is not None:
        manager = scenario_obj.simulator.transport
        if manager is not None:
            metrics.update(manager.totals())
    return RunResult(
        spec=built.spec,
        completed=report.all_complete,
        metrics=metrics,
        report=report,
        stats=scenario_obj.stats,
        events=list(scenario_obj.events),
        extras=dict(scenario_obj.extras),
    )


# ---------------------------------------------------------------------------
# Flash crowd
# ---------------------------------------------------------------------------


def flash_crowd(
    num_peers: int = 48,
    target: int = 100,
    initial_seeded: int = 4,
    waves: int = 4,
    wave_interval: float = 20,
    max_connections: int = 3,
    seed: int = 11,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: waves of empty peers rush a small seeded swarm."""
    if initial_seeded >= num_peers:
        raise SpecError("need at least one non-seeded peer")
    if waves < 1:
        raise SpecError("need at least one join wave")
    return ExperimentSpec(
        scenario="flash_crowd",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.2,
            nodes=(
                NodeSpec(name="src", count=1, role="source"),
                NodeSpec(
                    name="seed",
                    count=initial_seeded,
                    seeding="fixed",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=max_connections,
                ),
                NodeSpec(
                    name="p",
                    count=num_peers - initial_seeded,
                    max_connections=max_connections,
                ),
            ),
        ),
        strategy=StrategySpec(name=strategy_name),
        churn=ChurnSpec(join_waves=waves, wave_interval=wave_interval),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )


@scenario(
    "flash_crowd",
    small_spec=lambda: flash_crowd(
        num_peers=10, target=40, initial_seeded=2, waves=2, wave_interval=5, seed=1
    ),
    description="Waves of empty peers rush a small seeded swarm",
    supports_transport=True,
)
def build_flash_crowd(spec: ExperimentSpec) -> BuiltExperiment:
    """Joiners run the Section 4 join decision at their scheduled time."""
    return _build_join_swarm(spec, _run_swarm)


def _join(
    sim: OverlaySimulator,
    scheme: SummaryScheme,
    node: OverlayNode,
    src_name: str,
    rng: random.Random,
) -> JoinPlan:
    """Add a joiner and connect it the way its min-wise cards plan.

    Every non-source peer holding symbols is a candidate; the plan's
    senders are connected in order and, when none accepts, the joiner
    falls back to the source.
    """
    sim.add_node(node)
    pid = node.node_id
    candidates = [
        CandidateSender(n.node_id, scheme.card_of(n), len(n.working_set))
        for n in sim.nodes.values()
        if not n.is_source and n.node_id != pid and len(n.working_set) > 0
    ]
    plan = plan_join(
        scheme.card_of(node),
        len(node.working_set),
        candidates,
        max_senders=node.max_connections,
        symbols_desired=node.target,
        rng=rng,
        now=sim.scheduler.now,
    )
    connected = [s for s in plan.selection.chosen if sim.connect(s, pid)]
    if not connected:
        sim.connect(src_name, pid)
    return plan


def _build_join_swarm(
    spec: ExperimentSpec, runner: Callable[[BuiltExperiment], RunResult]
) -> BuiltExperiment:
    """A source plus seeded peers, then waves of joiners (groups ``seed``/``p``).

    The flash_crowd construction, shared by congested_swarm.  Joiners
    draw their group's seeding rule (none for an ``empty`` group) and
    plan their senders from min-wise calling cards as they arrive.
    """
    swarm = _require_swarm(spec)
    _expect_groups(swarm, "seed", "p")
    src_name = _source_group(swarm).member_ids()[0]
    seeds = swarm.group("seed")
    joiners = swarm.group("p")
    churn = spec.churn
    if churn is None or churn.join_waves < 1:
        raise SpecError(
            f"{spec.scenario} requires a churn spec with join_waves >= 1"
        )
    target, distinct = swarm.target, swarm.distinct_symbols

    rng = random.Random(spec.seed)
    shared = _shared_processes(swarm)
    sim, stats = _base_simulator(
        spec, rng, link_factory=_link_factory_from_rules(swarm, shared)
    )
    scenario_obj = SimScenario(spec.scenario, sim, stats, target)
    scheme = default_scheme()

    sim.add_node(OverlayNode(src_name, target, is_source=True))
    for name in seeds.member_ids():
        ids = _initial_ids(rng, seeds, target, distinct)
        sim.add_node(
            OverlayNode(
                name, target, initial_ids=ids, max_connections=seeds.max_connections
            )
        )
        sim.connect(src_name, name)

    joiner_ids = list(joiners.member_ids())
    per_wave = math.ceil(len(joiner_ids) / churn.join_waves)

    def make_wave(batch: List[str]) -> Callable[[], None]:
        def join_wave() -> None:
            scenario_obj.events.append(
                f"t={sim.scheduler.now:g} wave of {len(batch)} joins"
            )
            plans = scenario_obj.extras.setdefault("join_plans", {})
            for pid in batch:
                node = OverlayNode(
                    pid,
                    target,
                    initial_ids=_initial_ids(rng, joiners, target, distinct),
                    max_connections=joiners.max_connections,
                )
                plans[pid] = _join(sim, scheme, node, src_name, rng)

        return join_wave

    # Waves land mid-tick (t = k*interval + 0.5): unambiguously after
    # tick k's delivery pass and before tick k+1's, so joiners' first
    # packets flow on the next tick.
    for w in range(churn.join_waves):
        batch = joiner_ids[w * per_wave : (w + 1) * per_wave]
        if batch:
            sim.scheduler.schedule_at(
                (w + 1) * float(churn.wave_interval) + 0.5, make_wave(batch)
            )
    _schedule_departure(sim, scenario_obj, churn)
    _schedule_shared_process_steps(sim, scenario_obj, rng, shared)
    return BuiltExperiment(
        spec=spec, kind="swarm", scenario=scenario_obj, runner=runner
    )


# ---------------------------------------------------------------------------
# Source departure
# ---------------------------------------------------------------------------


def source_departure(
    num_peers: int = 12,
    target: int = 120,
    depart_at: float = 10.0,
    seed: int = 23,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: the only source leaves mid-transfer; the swarm finishes alone."""
    return ExperimentSpec(
        scenario="source_departure",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.3,
            reconfigure_every=10,
            nodes=(
                NodeSpec(name="src", count=1, role="source"),
                NodeSpec(
                    name="p",
                    count=num_peers,
                    seeding="fixed",
                    seed_fraction=0.5,
                    seed_basis="distinct",
                    max_connections=3,
                ),
            ),
        ),
        strategy=StrategySpec(name=strategy_name),
        churn=ChurnSpec(depart_node="src", depart_at=depart_at),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )


@scenario(
    "source_departure",
    small_spec=lambda: source_departure(num_peers=6, target=60, depart_at=5.0, seed=2),
    description="The only source leaves mid-transfer; the swarm finishes alone",
    supports_transport=True,
)
def build_source_departure(spec: ExperimentSpec) -> BuiltExperiment:
    """Completion after the departure needs peer-to-peer reconciliation."""
    swarm = _require_swarm(spec)
    _expect_groups(swarm, "p")
    if spec.churn is not None and spec.churn.join_waves:
        raise SpecError(
            "source_departure does not support join waves; use flash_crowd"
        )
    src_name = _source_group(swarm).member_ids()[0]
    peers = swarm.group("p")
    target, distinct = swarm.target, swarm.distinct_symbols

    rng = random.Random(spec.seed)
    shared = _shared_processes(swarm)
    sim, stats = _base_simulator(
        spec, rng, link_factory=_link_factory_from_rules(swarm, shared)
    )
    scenario_obj = SimScenario("source_departure", sim, stats, target)

    sim.add_node(OverlayNode(src_name, target, is_source=True))
    peer_ids = list(peers.member_ids())
    for pid in peer_ids:
        ids = _initial_ids(rng, peers, target, distinct)
        sim.add_node(
            OverlayNode(
                pid, target, initial_ids=ids, max_connections=peers.max_connections
            )
        )
        sim.connect(src_name, pid)
    # A sparse peer mesh so perpendicular capacity exists on day one.
    for i, pid in enumerate(peer_ids):
        sim.connect(peer_ids[(i + 1) % len(peer_ids)], pid)

    if spec.churn is not None:
        _schedule_departure(sim, scenario_obj, spec.churn)
    _schedule_shared_process_steps(sim, scenario_obj, rng, shared)
    return BuiltExperiment(
        spec=spec, kind="swarm", scenario=scenario_obj, runner=_run_swarm
    )


# ---------------------------------------------------------------------------
# Asymmetric bandwidth
# ---------------------------------------------------------------------------


def asymmetric_bandwidth(
    num_fast: int = 6,
    num_slow: int = 6,
    target: int = 100,
    fast_rate: float = 4.0,
    slow_rate: float = 0.7,
    slow_latency: float = 2.0,
    slow_jitter: float = 1.5,
    seed: int = 31,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: a fast backbone class and a slow, jittery edge class."""
    return ExperimentSpec(
        scenario="asymmetric_bandwidth",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.2,
            nodes=(
                NodeSpec(name="src", count=1, role="source", node_class="fast"),
                NodeSpec(
                    name="fast",
                    count=num_fast,
                    node_class="fast",
                    seeding="uniform",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=3,
                ),
                NodeSpec(
                    name="slow",
                    count=num_slow,
                    node_class="slow",
                    seeding="uniform",
                    seed_fraction=1.0 / 3.0,
                    seed_basis="target",
                    max_connections=3,
                ),
            ),
            links=(
                LinkRuleSpec(
                    sender_class="fast",
                    link=LinkSpec(kind="constant", rate=fast_rate, loss_rate=0.005),
                ),
                LinkRuleSpec(
                    link=LinkSpec(
                        kind="latency_jitter",
                        rate=slow_rate,
                        latency=slow_latency,
                        jitter=slow_jitter,
                        loss_rate=0.02,
                    ),
                ),
            ),
        ),
        strategy=StrategySpec(name=strategy_name),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )


@scenario(
    "asymmetric_bandwidth",
    small_spec=lambda: asymmetric_bandwidth(
        num_fast=3, num_slow=3, target=40, seed=3
    ),
    description="A fast backbone class and a slow, jittery edge class in one swarm",
    supports_transport=True,
)
def build_asymmetric_bandwidth(spec: ExperimentSpec) -> BuiltExperiment:
    """Heterogeneous per-connection link models from the swarm's rules."""
    swarm = _require_swarm(spec)
    _expect_groups(swarm, "fast", "slow")
    if spec.churn is not None and spec.churn.join_waves:
        raise SpecError(
            "asymmetric_bandwidth does not support join waves; use flash_crowd"
        )
    src_name = _source_group(swarm).member_ids()[0]
    fast = swarm.group("fast")
    slow = swarm.group("slow")
    target, distinct = swarm.target, swarm.distinct_symbols

    rng = random.Random(spec.seed)
    shared = _shared_processes(swarm)
    sim, stats = _base_simulator(
        spec, rng, link_factory=_link_factory_from_rules(swarm, shared)
    )
    scenario_obj = SimScenario("asymmetric_bandwidth", sim, stats, target)
    fast_ids = list(fast.member_ids())
    scenario_obj.extras["fast_class"] = {src_name} | set(fast_ids)

    sim.add_node(OverlayNode(src_name, target, is_source=True))
    for name in fast_ids:
        ids = _initial_ids(rng, fast, target, distinct)
        sim.add_node(
            OverlayNode(
                name, target, initial_ids=ids, max_connections=fast.max_connections
            )
        )
        sim.connect(src_name, name)
    for i, name in enumerate(slow.member_ids()):
        ids = _initial_ids(rng, slow, target, distinct)
        sim.add_node(
            OverlayNode(
                name, target, initial_ids=ids, max_connections=slow.max_connections
            )
        )
        # Edge peers bootstrap from the backbone when one exists.
        sim.connect(fast_ids[i % len(fast_ids)] if fast_ids else src_name, name)
    if spec.churn is not None:
        _schedule_departure(sim, scenario_obj, spec.churn)
    _schedule_shared_process_steps(sim, scenario_obj, rng, shared)
    return BuiltExperiment(
        spec=spec, kind="swarm", scenario=scenario_obj, runner=_run_swarm
    )


# ---------------------------------------------------------------------------
# Correlated regional loss
# ---------------------------------------------------------------------------


def correlated_regional_loss(
    peers_per_region: int = 6,
    target: int = 100,
    intra_rate: float = 2.0,
    trunk_rate: float = 2.0,
    p_good_bad: float = 0.04,
    p_bad_good: float = 0.25,
    loss_bad: float = 0.6,
    seed: int = 48,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: two regions bridged by a trunk with shared bursty loss."""
    trunk = LinkSpec(
        kind="gilbert_elliott",
        rate=trunk_rate,
        latency=1.0,
        p_good_bad=p_good_bad,
        p_bad_good=p_bad_good,
        loss_good=0.0,
        loss_bad=loss_bad,
        shared_key="trunk",
    )
    return ExperimentSpec(
        scenario="correlated_regional_loss",
        seed=seed,
        swarm=SwarmSpec(
            target=target,
            distinct_multiplier=1.2,
            nodes=(
                NodeSpec(name="src", count=1, role="source", node_class="A"),
                NodeSpec(
                    name="a",
                    count=peers_per_region,
                    node_class="A",
                    seeding="uniform",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=3,
                ),
                NodeSpec(
                    name="b",
                    count=peers_per_region,
                    node_class="B",
                    seeding="uniform",
                    seed_fraction=0.5,
                    seed_basis="target",
                    max_connections=3,
                ),
            ),
            links=(
                LinkRuleSpec(sender_class="A", receiver_class="B", link=trunk),
                LinkRuleSpec(sender_class="B", receiver_class="A", link=trunk),
                LinkRuleSpec(
                    link=LinkSpec(kind="constant", rate=intra_rate, loss_rate=0.005)
                ),
            ),
        ),
        strategy=StrategySpec(name=strategy_name),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )


@scenario(
    "correlated_regional_loss",
    small_spec=lambda: correlated_regional_loss(peers_per_region=3, target=40, seed=4),
    description="Two regions bridged by a trunk with shared bursty loss",
    supports_transport=True,
)
def build_correlated_regional_loss(spec: ExperimentSpec) -> BuiltExperiment:
    """All inter-region links share one Gilbert-Elliott chain."""
    swarm = _require_swarm(spec)
    _expect_groups(swarm, "a", "b")
    if spec.churn is not None and spec.churn.join_waves:
        raise SpecError(
            "correlated_regional_loss does not support join waves; use flash_crowd"
        )
    src_name = _source_group(swarm).member_ids()[0]
    region_a = swarm.group("a")
    region_b = swarm.group("b")
    if region_a.count != region_b.count:
        raise SpecError(
            "correlated_regional_loss requires equal-sized region groups; "
            f"got a={region_a.count}, b={region_b.count}"
        )
    target, distinct = swarm.target, swarm.distinct_symbols

    rng = random.Random(spec.seed)
    shared = _shared_processes(swarm)
    sim, stats = _base_simulator(
        spec, rng, link_factory=_link_factory_from_rules(swarm, shared)
    )
    scenario_obj = SimScenario("correlated_regional_loss", sim, stats, target)
    if "trunk" in shared:
        scenario_obj.extras["trunk"] = shared["trunk"]

    sim.add_node(OverlayNode(src_name, target, is_source=True))
    a_ids = list(region_a.member_ids())
    b_ids = list(region_b.member_ids())
    for a_name, b_name in zip(a_ids, b_ids):
        a_init = _initial_ids(rng, region_a, target, distinct)
        b_init = _initial_ids(rng, region_b, target, distinct)
        sim.add_node(
            OverlayNode(
                a_name,
                target,
                initial_ids=a_init,
                max_connections=region_a.max_connections,
            )
        )
        sim.add_node(
            OverlayNode(
                b_name,
                target,
                initial_ids=b_init,
                max_connections=region_b.max_connections,
            )
        )
        sim.connect(src_name, a_name)
    # Region B reaches content through the trunk initially.
    for i, b_name in enumerate(b_ids):
        sim.connect(src_name if i == 0 else a_ids[i], b_name)
        if i > 0:
            sim.connect(b_ids[i - 1], b_name)

    if spec.churn is not None:
        _schedule_departure(sim, scenario_obj, spec.churn)
    _schedule_shared_process_steps(sim, scenario_obj, rng, shared)
    return BuiltExperiment(
        spec=spec, kind="swarm", scenario=scenario_obj, runner=_run_swarm
    )


# ---------------------------------------------------------------------------
# Delivery transfers (Figures 5-8 setups)
# ---------------------------------------------------------------------------


def pair_transfer(
    target: int = 1_000,
    multiplier: float = COMPACT_MULTIPLIER,
    correlation: float = 0.0,
    strategy_name: str = "Recode/BF",
    seed: int = 0,
    full_senders: int = 0,
    desired_margin: float = DEFAULT_DESIRED_MARGIN,
    symbols_desired: Optional[int] = None,
    bloom_bits_per_element: int = 8,
    max_packets: int = 0,
) -> ExperimentSpec:
    """Spec: the Figure 5/6 pair layout — one partial sender, one receiver.

    ``full_senders > 0`` adds equal-rate full-content senders (the
    Figure 6 speedup setting); otherwise the single partial sender runs
    to completion (the Figure 5 overhead setting).
    """
    params = {
        "correlation": correlation,
        "full_senders": full_senders,
        "desired_margin": desired_margin,
    }
    if symbols_desired is not None:
        params["symbols_desired"] = symbols_desired
    return ExperimentSpec(
        scenario="pair_transfer",
        seed=seed,
        swarm=SwarmSpec(target=target, distinct_multiplier=multiplier),
        strategy=StrategySpec(
            name=strategy_name, bloom_bits_per_element=bloom_bits_per_element
        ),
        measurement=MeasurementSpec(max_packets=max_packets),
        params=params,
    )


def _transfer_metrics(result) -> Dict[str, float]:
    return {
        "overhead": result.overhead,
        "speedup": result.speedup,
        "rounds": float(result.rounds),
        "packets_sent": float(result.packets_sent),
        "useful_needed": float(result.useful_needed),
        "receiver_final_count": float(result.receiver_final_count),
    }


@scenario(
    "pair_transfer",
    small_spec=lambda: pair_transfer(target=120, correlation=0.2, seed=5),
    description="Figure 5/6 pair layout: one partial sender, one receiver",
    small_grid=lambda: {"params.correlation": [0.0, 0.3]},
)
def build_pair_transfer(spec: ExperimentSpec) -> BuiltExperiment:
    """Compact/stretched pair layout + strategy + transfer loop."""
    swarm = _require_swarm(spec)
    _reject_reconfig(spec)

    def run(built: BuiltExperiment) -> RunResult:
        rng = random.Random(spec.seed)
        layout = make_pair_scenario(
            swarm.target,
            swarm.distinct_multiplier,
            spec.param("correlation", 0.0),
            rng,
        )
        receiver = SimReceiver(layout.receiver.ids, layout.target)
        full_senders = int(spec.param("full_senders", 0))
        deficit = layout.target - len(layout.receiver)
        desired = spec.param("symbols_desired")
        if desired is None:
            if full_senders == 0:
                desired = deficit
            else:
                desired = int(
                    math.ceil(
                        deficit / (1 + full_senders) * spec.param("desired_margin", DEFAULT_DESIRED_MARGIN)
                    )
                )
        strategy = make_strategy(
            spec.strategy.name,
            layout.sender,
            layout.receiver,
            rng,
            bloom_bits_per_element=spec.strategy.bloom_bits_per_element,
            symbols_desired=int(desired),
            summary_policy=_summary_policy(spec),
        )
        if full_senders == 0:
            result = simulate_p2p_transfer(
                receiver, strategy, max_packets=spec.measurement.max_packets or None
            )
        else:
            result = simulate_multi_sender_transfer(
                receiver,
                [strategy],
                full_senders=full_senders,
                max_rounds=_rounds_cap(
                    spec.measurement.max_packets, 1 + full_senders
                ),
            )
        return RunResult(
            spec=spec,
            completed=result.completed,
            metrics=_transfer_metrics(result),
            transfer=result,
            extras={"layout": layout, "realised_correlation": layout.correlation},
        )

    return BuiltExperiment(spec=spec, kind="transfer", runner=run)


def multi_sender_transfer(
    target: int = 1_000,
    multiplier: float = COMPACT_MULTIPLIER,
    correlation: float = 0.0,
    num_senders: int = 2,
    strategy_name: str = "Recode/BF",
    seed: int = 0,
    full_senders: int = 0,
    desired_margin: float = DEFAULT_DESIRED_MARGIN,
    bloom_bits_per_element: int = 8,
    max_packets: int = 0,
) -> ExperimentSpec:
    """Spec: the Figure 7/8 layout — parallel partial senders, shared core."""
    if num_senders < 1:
        raise SpecError("need at least one sender")
    return ExperimentSpec(
        scenario="multi_sender_transfer",
        seed=seed,
        swarm=SwarmSpec(target=target, distinct_multiplier=multiplier),
        strategy=StrategySpec(
            name=strategy_name, bloom_bits_per_element=bloom_bits_per_element
        ),
        measurement=MeasurementSpec(max_packets=max_packets),
        params={
            "correlation": correlation,
            "num_senders": num_senders,
            "full_senders": full_senders,
            "desired_margin": desired_margin,
        },
    )


@scenario(
    "multi_sender_transfer",
    small_spec=lambda: multi_sender_transfer(
        target=120, correlation=0.2, num_senders=2, seed=6
    ),
    description="Figure 7/8 layout: parallel partial senders over a shared core",
    small_grid=lambda: {"strategy.name": ["Random", "Recode/BF"]},
)
def build_multi_sender_transfer(spec: ExperimentSpec) -> BuiltExperiment:
    """Shared-core layout + per-sender strategies + round-robin loop."""
    swarm = _require_swarm(spec)
    _reject_reconfig(spec)

    def run(built: BuiltExperiment) -> RunResult:
        rng = random.Random(spec.seed)
        num_senders = int(spec.param("num_senders", 2))
        layout = make_multi_sender_scenario(
            swarm.target,
            swarm.distinct_multiplier,
            spec.param("correlation", 0.0),
            num_senders,
            rng,
        )
        receiver = SimReceiver(layout.receiver.ids, layout.target)
        deficit = layout.target - len(layout.receiver)
        desired = int(
            math.ceil(deficit / num_senders * spec.param("desired_margin", DEFAULT_DESIRED_MARGIN))
        )
        strategies = [
            make_strategy(
                spec.strategy.name,
                sender_set,
                layout.receiver,
                rng,
                bloom_bits_per_element=spec.strategy.bloom_bits_per_element,
                symbols_desired=desired,
                summary_policy=_summary_policy(spec),
            )
            for sender_set in layout.senders
        ]
        full_senders = int(spec.param("full_senders", 0))
        result = simulate_multi_sender_transfer(
            receiver,
            strategies,
            full_senders=full_senders,
            max_rounds=_rounds_cap(
                spec.measurement.max_packets, num_senders + full_senders
            ),
        )
        return RunResult(
            spec=spec,
            completed=result.completed,
            metrics=_transfer_metrics(result),
            transfer=result,
            extras={"layout": layout, "realised_correlation": layout.correlation},
        )

    return BuiltExperiment(spec=spec, kind="transfer", runner=run)


# ---------------------------------------------------------------------------
# Protocol sessions on the event clock
# ---------------------------------------------------------------------------


def session_swarm(
    num_receivers: int = 2,
    num_blocks: int = 80,
    block_size: int = 32,
    rate: float = 2.0,
    latency: float = 0.0,
    seed: int = 0,
    max_time: float = 100_000.0,
) -> ExperimentSpec:
    """Spec: one source serving N receivers with full byte-level sessions.

    Every receiver runs the complete informed protocol (handshake,
    summary, recoded payload streaming) as a
    :class:`~repro.sim.sessions.ScheduledSession` on one shared clock;
    the result carries per-node :class:`~repro.protocol.session.
    SessionStats`.
    """
    if num_receivers < 1:
        raise SpecError("need at least one receiver")
    if float(max_time) != int(max_time) or max_time < 1:
        raise SpecError(
            f"max_time must be a positive whole number of time units, got {max_time!r}"
        )
    return ExperimentSpec(
        scenario="session_swarm",
        seed=seed,
        swarm=SwarmSpec(
            target=num_blocks,
            distinct_multiplier=1.0,
            nodes=(
                NodeSpec(name="src", count=1, role="source"),
                NodeSpec(name="dst", count=num_receivers),
            ),
            links=(
                LinkRuleSpec(
                    link=LinkSpec(kind="constant", rate=rate, latency=latency)
                ),
            ),
        ),
        measurement=MeasurementSpec(max_ticks=int(max_time)),
        params={"block_size": block_size},
    )


@scenario(
    "session_swarm",
    small_spec=lambda: session_swarm(num_receivers=2, num_blocks=40, seed=7),
    description="One source serving N receivers with byte-level protocol sessions",
    supports_transport=True,
)
def build_session_swarm(spec: ExperimentSpec) -> BuiltExperiment:
    """Full-protocol sessions paced by link models on a shared clock."""
    swarm = _require_swarm(spec)
    _expect_groups(swarm, "dst")
    _reject_reconfig(spec)
    if spec.churn is not None:
        raise SpecError("session_swarm does not support churn")
    session_cap = None
    if spec.measurement.max_packets:
        # The spec's budget is a swarm total, split evenly per session.
        session_cap = spec.measurement.max_packets // max(1, swarm.group("dst").count)
        if session_cap < 1:
            raise SpecError(
                f"max_packets={spec.measurement.max_packets} is smaller than "
                f"one packet per receiver"
            )
    else:
        # The per-session budget default, spec-addressable: a multiple
        # of the recovery target rather than a magic constant.
        factor = float(
            spec.param("packet_budget_factor", DEFAULT_PACKET_BUDGET_FACTOR)
        )
        if factor <= 0:
            raise SpecError(
                f"packet_budget_factor must be positive, got {factor!r}"
            )
        session_cap = max(1, int(factor * swarm.target))
    src_group = _source_group(swarm)
    src_name = src_group.member_ids()[0]
    receivers = swarm.group("dst")
    link_spec = swarm.link_for(
        src_group.node_class, receivers.node_class
    ) or LinkSpec(kind="constant", rate=2.0)

    def run(built: BuiltExperiment) -> RunResult:
        params = CodeParameters(
            num_blocks=swarm.target,
            block_size=int(spec.param("block_size", 32)),
            stream_seed=spec.seed,
        )
        content_rng = derive_rng(spec.seed, "session_swarm", "content")
        content = bytes(
            content_rng.randrange(256)
            for _ in range(params.num_blocks * params.block_size)
        )
        scheduler = EventScheduler()
        stats = (
            StatsRecorder(resolution=spec.measurement.resolution)
            if spec.measurement.record_series
            else None
        )
        policy = _summary_policy(spec)
        source = ProtocolPeer(
            src_name,
            params,
            content=content,
            rng=derive_rng(spec.seed, "session_swarm", src_name),
            summary_policy=policy,
        )
        ts = spec.transport
        queue = None
        manager = None
        if ts is not None:
            if ts.bottleneck_rate > 0:
                queue = BottleneckQueue(
                    ts.bottleneck_rate,
                    ts.bottleneck_buffer,
                    clock=scheduler,
                    stats=stats,
                )
            manager = TransportManager(
                ts.policy,
                ts.params_dict(),
                rto_min=ts.rto_min,
                rto_max=ts.rto_max,
                queue=queue,
            )
        drivers = []
        sessions = {}
        shared: Dict[str, GilbertElliottProcess] = {}
        for name in receivers.member_ids():
            peer = ProtocolPeer(
                name,
                params,
                rng=derive_rng(spec.seed, "session_swarm", name),
                summary_policy=policy,
            )
            session = TransferSession(
                source,
                peer,
                bloom_bits_per_element=spec.strategy.bloom_bits_per_element,
                rng=derive_rng(spec.seed, "session_swarm", name, "session"),
            )
            sessions[name] = session
            link = _build_link(link_spec, shared)
            if queue is not None:
                link = BottleneckLink(link, queue)
            ctrl = manager.attach(name) if manager is not None else None
            drivers.append(
                ScheduledSession(
                    scheduler,
                    session,
                    link,
                    name=name,
                    stats=stats,
                    max_packets=session_cap,
                    transport=ctrl,
                    rng=(
                        derive_rng(spec.seed, "session_swarm", name, "transport")
                        if ctrl is not None
                        else None
                    ),
                ).start()
            )
        # Keyed Gilbert-Elliott chains are shared across the sessions'
        # links and stepped once per time unit, as in the swarm builders.
        loss_rng = derive_rng(spec.seed, "session_swarm", "loss")
        for key in sorted(shared):
            process = shared[key]
            if stats is not None:
                process.attach_stats(stats, entity=f"loss:{key}", clock=scheduler)
            scheduler.schedule_every(
                1.0, lambda process=process: process.step(loss_rng), first=0.5
            )
        run_sessions(scheduler, drivers, max_time=float(spec.measurement.max_ticks))
        node_sessions = {name: s.stats for name, s in sessions.items()}
        completed = all(s.completed for s in node_sessions.values())
        durations = [
            s.duration for s in node_sessions.values() if s.duration is not None
        ]
        control = sum(s.control_bytes for s in node_sessions.values())
        data = sum(s.data_bytes for s in node_sessions.values())
        metrics = {
            "completed_sessions": float(
                sum(1 for s in node_sessions.values() if s.completed)
            ),
            "control_bytes": float(control),
            "data_bytes": float(data),
            "control_fraction": control / (control + data) if control + data else 0.0,
            "packets_sent": float(sum(d.packets_sent for d in drivers)),
        }
        if durations:
            metrics["mean_duration"] = sum(durations) / len(durations)
            metrics["max_duration"] = max(durations)
        if manager is not None:
            metrics.update(manager.totals())
        return RunResult(
            spec=spec,
            completed=completed,
            metrics=metrics,
            node_sessions=node_sessions,
            stats=stats,
            events=[
                f"t={s.finished_at:g} {name} "
                + ("decoded" if s.completed else "stopped")
                for name, s in sorted(node_sessions.items())
                if s.finished_at is not None
            ],
        )

    return BuiltExperiment(spec=spec, kind="sessions", runner=run)


# ---------------------------------------------------------------------------
# Overlay catalog: Figure 1 and the randomised adaptive overlay
# ---------------------------------------------------------------------------


def figure1(
    target: int = 400,
    seed: int = 5,
    with_perpendicular: bool = True,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: the paper's Figure 1 topology with working sets as captioned.

    Working sets: S full; A, B different halves; C, D, E quarters with
    C and D disjoint.  ``with_perpendicular`` adds the collaborative
    edges of Figure 1(c), subject to sketch admission.
    """
    return ExperimentSpec(
        scenario="figure1",
        seed=seed,
        swarm=SwarmSpec(target=target),
        strategy=StrategySpec(name=strategy_name),
        measurement=MeasurementSpec(max_ticks=max_ticks),
        params={"with_perpendicular": with_perpendicular},
    )


@scenario(
    "figure1",
    small_spec=lambda: figure1(target=120, seed=5),
    description="The paper's Figure 1 layout: tree vs perpendicular transfers",
    supports_transport=True,
)
def build_figure1(spec: ExperimentSpec) -> BuiltExperiment:
    """Captioned working sets + the figure's tree/perpendicular edges."""
    swarm = _require_swarm(spec)
    if spec.churn is not None:
        raise SpecError("figure1 does not support churn")
    target = swarm.target
    rng = random.Random(spec.seed)
    distinct = list(range(target))
    rng.shuffle(distinct)
    half = target // 2
    quarter = target // 4
    sets = {
        "A": distinct[:half],
        "B": distinct[half:],
        "C": distinct[:quarter],
        "D": distinct[quarter : 2 * quarter],  # disjoint from C
        "E": distinct[half : half + quarter],
    }
    policies = None
    if spec.reconfig is None:
        # The figure contrasts fixed layouts: admission only, no
        # rewiring (the historical construction).
        policies = (SketchAdmission(default_scheme()), None)
    sim, stats = _base_simulator(spec, rng, policies=policies)
    scenario_obj = SimScenario("figure1", sim, stats, target)
    sim.add_node(OverlayNode("S", target, is_source=True))
    for name, ids in sets.items():
        sim.add_node(OverlayNode(name, target, initial_ids=ids))
    # Figure 1(a): the initial multicast tree.
    for parent, child in (("S", "A"), ("S", "B"), ("A", "C"), ("A", "D"), ("B", "E")):
        sim.connect(parent, child)
    if spec.param("with_perpendicular", True):
        # Figure 1(c/d): collaborative transfers between complementary
        # working sets (the legend's beneficial exchanges).
        for sender, receiver in (
            ("B", "A"), ("A", "B"),
            ("C", "D"), ("D", "C"),
            ("B", "C"), ("D", "E"), ("E", "D"), ("C", "E"),
        ):
            sim.connect(sender, receiver)
    return BuiltExperiment(
        spec=spec, kind="swarm", scenario=scenario_obj, runner=_run_swarm
    )


def random_overlay(
    num_peers: int = 12,
    target: int = 400,
    num_sources: int = 1,
    initial_fraction_lo: float = 0.0,
    initial_fraction_hi: float = 0.6,
    max_connections: int = 3,
    seed: int = 17,
    strategy_name: str = "Recode/BF",
    with_physical: bool = True,
    max_ticks: int = 10_000,
) -> ExperimentSpec:
    """Spec: a randomised adaptive overlay — sources plus seeded peers.

    Peers start with random slices of the symbol space sized uniformly
    in ``[initial_fraction_lo, initial_fraction_hi)`` of the target;
    every peer bootstraps from a source and the reconfiguration policy
    discovers perpendicular bandwidth on its own — the Section 2
    environment.
    """
    if num_sources < 1:
        raise SpecError("need at least one source")
    if not 0.0 <= initial_fraction_lo <= initial_fraction_hi <= 1.0:
        raise SpecError("initial fractions must satisfy 0 <= lo <= hi <= 1")
    return ExperimentSpec(
        scenario="random_overlay",
        seed=seed,
        swarm=SwarmSpec(target=target, distinct_multiplier=1.2),
        strategy=StrategySpec(name=strategy_name),
        measurement=MeasurementSpec(max_ticks=max_ticks),
        params={
            "num_peers": num_peers,
            "num_sources": num_sources,
            "initial_fraction_lo": initial_fraction_lo,
            "initial_fraction_hi": initial_fraction_hi,
            "max_connections": max_connections,
            "with_physical": with_physical,
        },
    )


@scenario(
    "random_overlay",
    small_spec=lambda: random_overlay(num_peers=6, target=100, seed=8),
    description="Randomised adaptive overlay: seeded peers discover each other",
    supports_transport=True,
)
def build_random_overlay(spec: ExperimentSpec) -> BuiltExperiment:
    """The legacy randomised construction, RNG-order-identical."""
    from repro.overlay.topology import PhysicalNetwork

    swarm = _require_swarm(spec)
    if spec.churn is not None:
        raise SpecError(
            "random_overlay schedules no churn itself; drive a ChurnProcess "
            "against the built simulator instead"
        )
    target = swarm.target
    num_peers = int(spec.param("num_peers", 12))
    num_sources = int(spec.param("num_sources", 1))
    lo = float(spec.param("initial_fraction_lo", 0.0))
    hi = float(spec.param("initial_fraction_hi", 0.6))
    max_connections = int(spec.param("max_connections", 3))
    with_physical = bool(spec.param("with_physical", True))

    rng = random.Random(spec.seed)
    physical = None
    if with_physical:
        physical = PhysicalNetwork.random_network(
            num_routers=max(4, num_peers // 2), seed=spec.seed
        )
    sim, stats = _base_simulator(spec, rng, topology=VirtualTopology(physical))
    scenario_obj = SimScenario("random_overlay", sim, stats, target)
    nodes: Dict[str, OverlayNode] = {}
    routers = physical.routers() if physical is not None else []
    distinct = swarm.distinct_symbols
    for i in range(num_sources):
        node = OverlayNode(
            f"src{i}", target, is_source=True,
            fresh_id_start=(1 << 40) + i * (1 << 20),
        )
        nodes[node.node_id] = node
    for i in range(num_peers):
        frac = rng.uniform(lo, hi)
        count = int(frac * target)
        ids = rng.sample(range(distinct), count) if count else []
        nodes[f"p{i}"] = OverlayNode(
            f"p{i}", target, initial_ids=ids, max_connections=max_connections
        )
    for node in nodes.values():
        if physical is not None and routers:
            physical.attach_host(
                node.node_id,
                rng.choice(routers),
                bandwidth=rng.uniform(2.0, 6.0),
                loss_rate=rng.uniform(0.0, 0.01),
            )
        sim.add_node(node)
    # Seed the overlay: every peer connects to a source, then rewiring
    # discovers perpendicular bandwidth on its own.
    source_ids = [n.node_id for n in nodes.values() if n.is_source]
    for node in nodes.values():
        if not node.is_source:
            sim.connect(rng.choice(source_ids), node.node_id)
    return BuiltExperiment(
        spec=spec, kind="swarm", scenario=scenario_obj, runner=_run_swarm
    )


__all__ = [
    "flash_crowd",
    "source_departure",
    "asymmetric_bandwidth",
    "correlated_regional_loss",
    "pair_transfer",
    "multi_sender_transfer",
    "session_swarm",
    "figure1",
    "random_overlay",
    "reconfig_scheme",
    "simulator_class",
]
