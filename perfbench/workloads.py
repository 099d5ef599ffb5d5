"""The four benchmark workloads, built through ``repro.api`` only.

Each workload splits into ``prepare`` (the set-up a user pays before an
experiment can start: spec construction, simulator build or campaign
expansion) and ``execute`` (the measured run).  ``execute`` returns an
:class:`Outcome` that carries the simulated counts the end-to-end
metrics are derived from, the output-check failures and the digest of
the simulated result.

Rep ``r`` of a run draws its input seed from :func:`rep_seed`, so
the reps of one run cover several inputs; rep 0 uses the ``--seed``
value itself, so the digest recorded for a workload's default seed is
checked whenever the benchmark runs at that seed.
"""

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Per-workload sizes.  ``full`` is the benchmark, ``mini`` the
#: self-test miniature.  ``rep_s`` is the nominal wall time of one
#: fresh-process rep; an untraced run makes ``--seconds / rep_s`` reps.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "adaptive_epoch": {
        "full": {"num_peers": 400, "rep_s": 3.4},
        "mini": {"num_peers": 40, "rep_s": 0.5},
    },
    "paper_grid": {
        "full": {"target": 4000, "seeds": 2, "rep_s": 5.5},
        "mini": {"target": 200, "seeds": 1, "rep_s": 0.5},
    },
    "congested_bloom": {
        "full": {"num_peers": 60, "target": 150, "initial_seeded": 6,
                 "bottleneck_rate": 30, "bottleneck_buffer": 72, "rep_s": 4.3},
        "mini": {"num_peers": 10, "target": 40, "initial_seeded": 2,
                 "bottleneck_rate": 12, "bottleneck_buffer": 32, "rep_s": 0.5},
    },
    "population_flow": {
        "full": {"population": 1_000_000, "objects": 32, "waves": 32, "rep_s": 3.4},
        "mini": {"population": 20_000, "objects": 4, "waves": 4, "rep_s": 0.5},
    },
}

#: Paper Figure 5/6 grid axes for ``paper_grid``.
CORRELATIONS = (0.0, 0.15, 0.3, 0.45)
STRATEGIES = ("Random", "Random/BF", "Recode", "Recode/BF")


def rep_seed(seed: int, rep: int) -> int:
    """Input seed of rep ``rep``; rep 0 uses ``seed`` itself."""
    return seed + 100_003 * rep


@dataclass
class Outcome:
    """What one measured run produced: simulated counts, check failures,
    the digest, and the tick and cell timings the harness took around it.

    ``instances`` counts the experiments run: 1 for a swarm or flow
    run, the cell count for a campaign.
    """

    instances: int = 0
    #: Processes the experiment ran on (campaign workers).
    workers: int = 1
    failures: List[str] = field(default_factory=list)
    digest: Dict[str, Any] = field(default_factory=dict)
    node_ticks: float = 0.0
    cells: int = 0
    peers: int = 0
    useful: float = 0.0
    sent: float = 0.0
    #: Mean of per-cell useful fractions (campaigns); None = useful/sent.
    useful_fraction: Optional[float] = None
    control_bytes: float = 0.0
    ticks: int = 0
    epochs: int = 0
    connects: int = 0
    events: int = 0
    transport: Dict[str, float] = field(default_factory=dict)
    #: Host durations (s) of ticks that ran no epoch / ran one.
    deliver_tick_s: List[float] = field(default_factory=list)
    epoch_tick_s: List[float] = field(default_factory=list)
    #: Per-cell host seconds (in-process campaigns only).
    cell_s: List[float] = field(default_factory=list)


# -- swarms -----------------------------------------------------------------


def _drive_swarm(sim, max_ticks: int, out: Outcome) -> None:
    """Tick to completion exactly as ``OverlaySimulator.run`` does, timing
    every ``tick()`` call and sorting it by whether an epoch ran."""
    nodes = sim.nodes
    scheduler = sim.scheduler
    clock = time.perf_counter
    while sim.tick_count < max_ticks and not (
        all(n.is_complete for n in nodes.values()) and scheduler.pending_oneshot == 0
    ):
        epochs = sim.reconfig_epochs
        out.node_ticks += len(nodes)
        t0 = clock()
        sim.tick()
        dt = clock() - t0
        if sim.reconfig_epochs != epochs:
            out.epoch_tick_s.append(dt)
        else:
            out.deliver_tick_s.append(dt)


def _collect_swarm(sim, out: Outcome) -> None:
    report = sim.report()
    out.instances = out.cells = 1
    out.peers += sum(1 for n in sim.nodes.values() if not n.is_source)
    out.useful = report.packets_useful
    out.sent = report.packets_sent
    out.control_bytes = report.control_bytes
    out.ticks = report.ticks
    out.epochs = report.reconfig_epochs
    out.connects = report.reconfigurations
    out.events = sim.scheduler.events_processed
    if sim.transport is not None:
        out.transport = sim.transport.totals()
    if not report.all_complete:
        incomplete = sum(1 for t in report.completion_ticks.values() if t is None)
        out.failures.append(f"{incomplete} peers incomplete")
    if report.packets_useful > report.packets_sent:
        out.failures.append(
            f"useful {report.packets_useful} > sent {report.packets_sent}"
        )
    out.digest = {
        "ticks": report.ticks,
        "sent": report.packets_sent,
        "lost": report.packets_lost,
        "useful": report.packets_useful,
        "reconfigurations": report.reconfigurations,
        "control_bytes": report.control_bytes,
    }


class SwarmWorkload:
    """One overlay-swarm spec, driven tick by tick."""

    def __init__(self, spec_of: Callable[[int, Dict[str, Any]], Any]):
        self.spec_of = spec_of

    def prepare(self, seed: int, rep: int, size: Dict[str, Any], scratch: str):
        from repro.api import build

        spec = self.spec_of(rep_seed(seed, rep), size)
        return spec, build(spec).scenario.simulator

    def execute(self, prepared, in_process: bool = False) -> Outcome:
        spec, sim = prepared
        out = Outcome()
        _drive_swarm(sim, spec.measurement.max_ticks, out)
        _collect_swarm(sim, out)
        return out


def adaptive_spec(seed: int, size: Dict[str, Any]):
    from repro.api import specs

    return (
        specs.random_overlay(
            num_peers=size["num_peers"], target=100, with_physical=False, seed=seed
        )
        .with_override("strategy.name", "Random")
        .with_override("reconfig.policy", "informed")
        .with_override("reconfig.interval", 5.0)
        .with_override("measurement.engine", "columnar")
        .with_override("measurement.record_series", False)
    )


def congested_spec(seed: int, size: Dict[str, Any]):
    from repro.api import specs

    return specs.congested_swarm(
        num_peers=size["num_peers"],
        target=size["target"],
        initial_seeded=size["initial_seeded"],
        waves=4,
        wave_interval=10,
        bottleneck_rate=size["bottleneck_rate"],
        bottleneck_buffer=size["bottleneck_buffer"],
        seed=seed,
    ).with_reconfig("informed", summary_kind="bloom", scan_budget=4)


# -- campaign -----------------------------------------------------------------


class CampaignWorkload:
    """The Figure 5/6 pair-transfer grid through ``run_campaign``."""

    def prepare(self, seed: int, rep: int, size: Dict[str, Any], scratch: str):
        from repro.api import specs
        from repro.campaign import CampaignSpec, GridAxis, expand

        campaign = CampaignSpec(
            base=specs.pair_transfer(target=size["target"], seed=rep_seed(seed, rep)),
            grid=(
                GridAxis("params.correlation", CORRELATIONS),
                GridAxis("strategy.name", STRATEGIES),
            ),
            seeds=size["seeds"],
            name="paper_grid",
        )
        expand(campaign)
        out_dir = os.path.join(scratch, f"campaign-{os.getpid()}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return campaign, out_dir

    def execute(self, prepared, in_process: bool = False) -> Outcome:
        from repro.campaign import CAMPAIGN_FILE, run_campaign

        campaign, out_dir = prepared
        out = Outcome(workers=1 if in_process else min(2, os.cpu_count() or 1))
        marks = [time.perf_counter()]
        try:
            result = run_campaign(
                campaign,
                workers=out.workers,
                out_dir=out_dir,
                on_cell=(lambda _cell: marks.append(time.perf_counter()))
                if out.workers == 1
                else None,
            )
            with open(os.path.join(out_dir, CAMPAIGN_FILE), "rb") as fh:
                digest_bytes = fh.read()
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if out.workers == 1:
            out.cell_s = [b - a for a, b in zip(marks, marks[1:])]
        out.digest = {"campaign_json_sha256": hashlib.sha256(digest_bytes).hexdigest()}
        fractions = []
        for cell in result.cells:
            out.instances += 1
            if not cell.completed:
                out.failures.append(f"cell {cell.cell_id}: {cell.status} {cell.error or 'incomplete'}")
                continue
            sent = cell.metric("packets_sent") or 0.0
            # Every needed symbol arrived in a useful packet (the cell
            # completed), so useful = needed.
            useful = cell.metric("useful_needed") or 0.0
            if useful > sent:
                out.failures.append(f"cell {cell.cell_id}: useful {useful} > sent {sent}")
            out.useful += useful
            out.sent += sent
            fractions.append(useful / sent if sent else 0.0)
            out.node_ticks += 2 * (cell.metric("rounds") or 0.0)
            out.peers += 2
            out.cells += 1
        out.useful_fraction = sum(fractions) / len(fractions) if fractions else 0.0
        return out


# -- flow ----------------------------------------------------------------------


class FlowWorkload:
    """A million-peer flash crowd on the flow-level population engine."""

    def prepare(self, seed: int, rep: int, size: Dict[str, Any], scratch: str):
        from repro.api import build, specs

        spec = specs.population_flash_crowd(
            population=size["population"],
            objects=size["objects"],
            waves=size["waves"],
            fidelity="flow",
            policy="informed",
            seed=rep_seed(seed, rep),
        )
        return build(spec)

    def execute(self, prepared, in_process: bool = False) -> Outcome:
        result = prepared.run()
        m = result.metrics
        out = Outcome(instances=1, cells=1)
        out.peers = int(m["population"])
        out.useful = m["packets_useful"]
        out.sent = m["packets_sent"]
        out.control_bytes = m["reconfig_control_bytes"]
        out.ticks = int(m["ticks"])
        out.epochs = int(m["reconfig_epochs"])
        out.connects = int(m["reconfigurations"])
        out.node_ticks = m["population"] * m["ticks"]
        if m["completed_fraction"] != 1.0 or not result.completed:
            out.failures.append(f"completed_fraction {m['completed_fraction']}")
        if out.useful > out.sent:
            out.failures.append(f"useful {out.useful} > sent {out.sent}")
        out.digest = {
            "ticks": out.ticks,
            "sent": m["packets_sent"],
            "lost": m["packets_lost"],
            "useful": m["packets_useful"],
            "reconfigurations": out.connects,
            "control_bytes": out.control_bytes,
        }
        return out


WORKLOADS = {
    "adaptive_epoch": SwarmWorkload(adaptive_spec),
    "paper_grid": CampaignWorkload(),
    "congested_bloom": SwarmWorkload(congested_spec),
    "population_flow": FlowWorkload(),
}

