"""The ``congested_swarm`` scenario: a flash crowd behind one bottleneck.

The other swarm scenarios give every connection its own private link,
so senders never contend; this one routes *every* connection through a
single shared FIFO drop-tail :class:`~repro.transport.queue.
BottleneckQueue`, making congestion control consequential: an open-loop
swarm overdrives the queue and burns its budget on drops, while an
AIMD or BBR-lite swarm backs off and keeps the useful-delivery rate up.

The scenario therefore *requires* a transport spec with a positive
``bottleneck_rate`` — the arms of its campaign grid are transport
policy × reconfiguration policy, reproducing the paper's informed-vs-
uninformed comparison under contention rather than over ideal links.
"""

from repro.api.builders import _build_join_swarm, _run_swarm
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
    TransportSpec,
)


def congested_swarm(
    num_peers: int = 24,
    target: int = 80,
    initial_seeded: int = 4,
    waves: int = 3,
    wave_interval: float = 10,
    max_connections: int = 3,
    bottleneck_rate: float = 12.0,
    bottleneck_buffer: int = 32,
    transport_policy: str = "aimd",
    reconfig_policy: str = "informed",
    seed: int = 29,
    strategy_name: str = "Recode/BF",
    max_ticks: int = 2_000,
) -> ExperimentSpec:
    """Spec: a flash crowd whose every connection shares one bottleneck.

    ``transport_policy`` picks the congestion controller
    (:func:`repro.transport.transport_policies` lists them);
    ``reconfig_policy`` picks the overlay arm (``informed`` / ``random``
    / ``static``).  Both are plain spec axes, so a campaign sweeps the
    full policy × policy grid.
    """
    if initial_seeded >= num_peers:
        raise SpecError("need at least one non-seeded peer")
    if waves < 1:
        raise SpecError("need at least one join wave")
    return ExperimentSpec(
        scenario="congested_swarm",
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
                # Joiners arrive with partial, random working sets —
                # under a shared bottleneck the interesting failure
                # mode is capacity burned on duplicates, which only
                # exists when peers already hold something.
                NodeSpec(
                    name="p",
                    count=num_peers - initial_seeded,
                    seeding="uniform",
                    seed_fraction=0.75,
                    seed_basis="target",
                    max_connections=max_connections,
                ),
            ),
        ),
        strategy=StrategySpec(name=strategy_name),
        churn=ChurnSpec(join_waves=waves, wave_interval=wave_interval),
        reconfig=ReconfigSpec(policy=reconfig_policy),
        transport=TransportSpec(
            policy=transport_policy,
            bottleneck_rate=bottleneck_rate,
            bottleneck_buffer=bottleneck_buffer,
        ),
        measurement=MeasurementSpec(max_ticks=max_ticks),
    )


def _run_congested(built: BuiltExperiment) -> RunResult:
    """The swarm runner plus the scenario's headline contention metrics."""
    result = _run_swarm(built)
    metrics = result.metrics
    if metrics.get("ticks"):
        metrics["goodput"] = metrics["packets_useful"] / metrics["ticks"]
    if metrics.get("packets_sent"):
        metrics["useful_fraction"] = (
            metrics["packets_useful"] / metrics["packets_sent"]
        )
    return result


@scenario(
    "congested_swarm",
    small_spec=lambda: congested_swarm(
        num_peers=10,
        target=40,
        initial_seeded=2,
        waves=2,
        wave_interval=5,
        bottleneck_rate=8.0,
        bottleneck_buffer=12,
        seed=9,
        max_ticks=400,
    ),
    description="A flash crowd contending for one shared bottleneck queue",
    small_grid=lambda: {
        "transport.policy": ["open_loop", "aimd"],
        "reconfig.policy": ["informed", "random"],
    },
    supports_transport=True,
)
def build_congested_swarm(spec: ExperimentSpec) -> BuiltExperiment:
    """The flash-crowd construction with a mandatory shared bottleneck.

    Waves land mid-tick exactly as in flash_crowd, so the two scenarios
    differ only in the shared queue every connection drains through.
    """
    if spec.transport is None or spec.transport.bottleneck_rate <= 0:
        raise SpecError(
            "congested_swarm requires a transport spec with bottleneck_rate "
            "> 0 — without a shared queue there is nothing to congest; use "
            "flash_crowd for uncontended runs"
        )
    return _build_join_swarm(spec, _run_congested)


__all__ = ["congested_swarm"]
