"""Parity pins: the spec pipeline reproduces every legacy path exactly.

Three layers of protection:

* **Baseline pins** — the default-parameter catalog scenarios produce
  the exact seeded metrics the pre-API implementation produced (the
  constants below were captured from the legacy ``repro.sim.scenarios``
  before the refactor).
* **Miniature pins** — small non-default runs of the same catalog
  hold their seeded reports, completion ticks included (the numbers
  the retired legacy constructors produced for the same parameters).
* **Delivery/figure parity** — a ``pair_transfer`` /
  ``multi_sender_transfer`` spec run matches the hand-wired
  make-scenario + make-strategy + simulate loop it replaced, and
  ``run_fig5`` points equal direct spec runs.
"""

import math
import random

import pytest

from repro.api import run, specs
from repro.delivery import SimReceiver, make_strategy
from repro.delivery.scenarios import make_multi_sender_scenario, make_pair_scenario
from repro.delivery.transfer import (
    simulate_multi_sender_transfer,
    simulate_p2p_transfer,
)
from repro.seeding import derive_seed

#: Seeded default-run metrics captured from the legacy implementation
#: (ticks, sent, lost, useful, reconfigurations).  Packet totals were
#: re-recorded when SimulationReport counters became cumulative: the
#: legacy report summed live connections only, so scenarios that drop
#: connections (rewiring, churn, source departure) undercounted.  The
#: runs themselves are tick-for-tick unchanged — only the honest totals
#: grew.
LEGACY_BASELINES = {
    "flash_crowd": (160, 8905, 0, 1648, 65),
    "source_departure": (45, 837, 0, 220, 33),
    "asymmetric_bandwidth": (31, 1472, 8, 692, 15),
    "correlated_regional_loss": (42, 1623, 163, 666, 20),
}

SPEC_FACTORIES = {
    "flash_crowd": specs.flash_crowd,
    "source_departure": specs.source_departure,
    "asymmetric_bandwidth": specs.asymmetric_bandwidth,
    "correlated_regional_loss": specs.correlated_regional_loss,
}


class TestSwarmBaselinePins:
    @pytest.mark.parametrize("name", sorted(LEGACY_BASELINES))
    def test_spec_run_reproduces_legacy_seeded_metrics(self, name):
        result = run(SPEC_FACTORIES[name]())
        ticks, sent, lost, useful, reconf = LEGACY_BASELINES[name]
        report = result.report
        assert report.all_complete
        assert (
            report.ticks,
            report.packets_sent,
            report.packets_lost,
            report.packets_useful,
            report.reconfigurations,
        ) == (ticks, sent, lost, useful, reconf)
        # The flat metrics mirror the report.
        assert result.metrics["ticks"] == ticks
        assert result.completed


#: Seeded reports of small non-default runs (max_ticks=4000): ticks,
#: sent, lost, useful, reconfigurations, and every node's completion
#: tick — the numbers the retired legacy constructors produced for the
#: same parameters, so they pin the join-wave, departure, link-class and
#: shared-loss constructions beyond the default runs above.
MINIATURE_PINS = {
    "flash_crowd": (
        dict(num_peers=12, target=50, initial_seeded=2, waves=2, wave_interval=8, seed=3),
        (48, 834, 0, 329, 18),
        {
            "p0": 42, "p1": 42, "p2": 38, "p3": 37, "p4": 36, "p5": 44,
            "p6": 40, "p7": 48, "p8": 42, "p9": 40, "seed0": 23, "seed1": 25,
        },
    ),
    "source_departure": (
        dict(num_peers=6, target=60, depart_at=4.0, seed=5),
        (21, 243, 0, 62, 12),
        {"p0": 21, "p1": 18, "p2": 21, "p3": 21, "p4": 20, "p5": 16},
    ),
    "asymmetric_bandwidth": (
        dict(num_fast=3, num_slow=3, target=50, seed=7),
        (25, 507, 3, 196, 6),
        {"fast0": 10, "fast1": 13, "fast2": 9, "slow0": 24, "slow1": 25, "slow2": 24},
    ),
    "correlated_regional_loss": (
        dict(peers_per_region=3, target=50, seed=9),
        (29, 396, 29, 188, 4),
        {"a0": 18, "a1": 14, "a2": 22, "b0": 16, "b1": 27, "b2": 28},
    ),
}


class TestMiniaturePins:
    @pytest.mark.parametrize("name", sorted(MINIATURE_PINS))
    def test_seeded_miniature_report(self, name):
        kwargs, totals, completion = MINIATURE_PINS[name]
        spec = SPEC_FACTORIES[name](**kwargs, max_ticks=4000)
        assert spec == SPEC_FACTORIES[name](**kwargs, max_ticks=4000)  # pure
        report = run(spec).report
        assert report.all_complete
        assert (
            report.ticks,
            report.packets_sent,
            report.packets_lost,
            report.packets_useful,
            report.reconfigurations,
        ) == totals
        assert report.completion_ticks == completion


#: Seeded metrics of the registered small specs that have no other exact
#: pin (population_flash_crowd at packet fidelity): the arm comparisons,
#: the catalog run and the congested join swarm.  Any change to their
#: construction order — node ids, RNG draws, connects — moves a float.
SMALL_SPEC_PINS = {
    "adaptive_overlay": {
        "ticks[static]": 45.0,
        "packets_sent[static]": 320.0,
        "useful_fraction[static]": 1.0,
        "reconfigurations[static]": 0.0,
        "control_bytes[static]": 0.0,
        "ticks[random]": 24.0,
        "packets_sent[random]": 410.0,
        "useful_fraction[random]": 0.7804878048780488,
        "reconfigurations[random]": 40.0,
        "control_bytes[random]": 0.0,
        "ticks[informed]": 25.0,
        "packets_sent[informed]": 343.0,
        "useful_fraction[informed]": 0.9329446064139941,
        "reconfigurations[informed]": 38.0,
        "control_bytes[informed]": 261112.0,
        "informed_useful_gain": 0.15245680153594532,
    },
    "scale_free_swarm": {
        "ticks[random]": 30.0,
        "useful_fraction[random]": 0.38095238095238093,
        "reconfigurations[random]": 48.0,
        "control_bytes[random]": 0.0,
        "hub_load_fraction[random]": 0.3656462585034014,
        "ticks[informed]": 10.0,
        "useful_fraction[informed]": 0.8517110266159695,
        "reconfigurations[informed]": 28.0,
        "control_bytes[informed]": 334100.0,
        "hub_load_fraction[informed]": 0.2889733840304182,
        "informed_useful_gain": 0.4707586456635886,
        "hub_relief": 0.07667287447298315,
    },
    "cdn_catalog": {
        "ticks": 59.0,
        "useful_fraction": 0.4910891089108911,
        "reconfigurations": 29.0,
        "control_bytes": 412400.0,
        "completion_rank0": 24.25,
        "completion_rank1": 24.0,
        "completion_rank2": 48.5,
    },
    "congested_swarm": {
        "ticks": 62.0,
        "packets_sent": 538.0,
        "packets_lost": 122.0,
        "packets_useful": 133.0,
        "reconfigurations": 15.0,
        "efficiency": 0.31971153846153844,
        "overhead": 3.1278195488721803,
        "last_completion_tick": 61.0,
        "reconfig_epochs": 3.0,
        "reconfig_control_bytes": 138780.0,
        "transport_tracked": 538.0,
        "transport_acked": 416.0,
        "transport_timeouts": 108.0,
        "queue_offered": 538.0,
        "queue_drops": 122.0,
        "queue_drop_rate": 0.22676579925650558,
        "queue_delay_mean": 0.9119591346153846,
        "goodput": 2.1451612903225805,
        "useful_fraction": 0.24721189591078066,
    },
    "population_flash_crowd": {
        "population": 16.0,
        "peers_completed": 16.0,
        "completed_fraction": 1.0,
        "ticks": 26.0,
        "packets_sent": 772.0,
        "packets_lost": 10.0,
        "packets_useful": 672.0,
        "useful_fraction": 0.8818897637795275,
        "last_completion_tick": 26.0,
        "mean_completion_tick": 17.5,
        "reconfigurations": 47.0,
        "reconfig_epochs": 5.0,
        "reconfig_control_bytes": 411200.0,
    },
}


class TestSmallSpecPins:
    @pytest.mark.parametrize("name", sorted(SMALL_SPEC_PINS))
    def test_small_spec_metrics_are_pinned(self, name):
        from repro.api import registry

        spec = registry.small_spec(name)
        if name == "population_flash_crowd":
            spec = spec.with_override("measurement.fidelity", "packet")
        result = run(spec)
        assert result.completed
        assert result.metrics == SMALL_SPEC_PINS[name]


class TestDeliveryParity:
    def test_pair_transfer_matches_hand_wired_loop(self):
        seed = 1234
        target, multiplier, corr, name = 300, 1.1, 0.2, "Recode/BF"
        rng = random.Random(seed)
        layout = make_pair_scenario(target, multiplier, corr, rng)
        receiver = SimReceiver(layout.receiver.ids, layout.target)
        strategy = make_strategy(
            name, layout.sender, layout.receiver, rng,
            symbols_desired=layout.target - len(layout.receiver),
        )
        legacy = simulate_p2p_transfer(receiver, strategy)

        result = run(
            specs.pair_transfer(
                target=target, multiplier=multiplier, correlation=corr,
                strategy_name=name, seed=seed,
            )
        )
        assert result.completed == legacy.completed
        assert result.transfer.packets_sent == legacy.packets_sent
        assert result.metrics["overhead"] == legacy.overhead
        assert result.metrics["rounds"] == legacy.rounds

    def test_multi_sender_transfer_matches_hand_wired_loop(self):
        seed = 977
        target, multiplier, corr, senders, name = 300, 1.5, 0.25, 2, "Recode/BF"
        margin = 1.15
        rng = random.Random(seed)
        layout = make_multi_sender_scenario(target, multiplier, corr, senders, rng)
        receiver = SimReceiver(layout.receiver.ids, layout.target)
        deficit = layout.target - len(layout.receiver)
        desired = int(math.ceil(deficit / senders * margin))
        strategies = [
            make_strategy(name, s, layout.receiver, rng, symbols_desired=desired)
            for s in layout.senders
        ]
        legacy = simulate_multi_sender_transfer(receiver, strategies)

        result = run(
            specs.multi_sender_transfer(
                target=target, multiplier=multiplier, correlation=corr,
                num_senders=senders, strategy_name=name, seed=seed,
                desired_margin=margin,
            )
        )
        assert result.completed == legacy.completed
        assert result.metrics["speedup"] == legacy.speedup
        assert result.transfer.rounds == legacy.rounds


def _campaign_cell_seed(sweep_seed: int, correlation: float, strategy: str) -> int:
    """The seed the campaign engine derives for one figure cell.

    Pins the cross-layer contract: a figure point's cell seed is
    ``derive_seed(base seed, "campaign", the cell's (key, value)
    overrides in grid order, trial)`` — so any figure point can be
    replayed as a single direct spec run on any machine.
    """
    overrides = (
        ("params.correlation", correlation),
        ("strategy.name", strategy),
    )
    return derive_seed(sweep_seed, "campaign", overrides, 0)


class TestFigurePortParity:
    def test_fig5_points_equal_direct_spec_runs(self):
        from repro.experiments.fig5678 import fig5_spec, run_fig5

        points = run_fig5(
            target=200, trials=1, correlation_points=2, strategies=("Recode/BF",)
        )
        compact = [p for p in points if p.scenario == "compact"]
        assert compact
        for point in compact:
            seed = _campaign_cell_seed(7, point.correlation, "Recode/BF")
            direct = run(fig5_spec(200, 1.1, point.correlation, "Recode/BF", seed))
            assert direct.completed
            assert point.value == direct.metrics["overhead"]
            assert point.completed_fraction == 1.0

    def test_fig78_points_equal_direct_spec_runs(self):
        from repro.experiments.fig5678 import fig78_spec, run_fig78

        points = run_fig78(
            2, target=200, trials=1, correlation_points=2, strategies=("Recode/BF",)
        )
        stretched = [p for p in points if p.scenario == "stretched"]
        assert stretched
        for point in stretched:
            seed = _campaign_cell_seed(13, point.correlation, "Recode/BF")
            direct = run(
                fig78_spec(200, 1.5, point.correlation, "Recode/BF", 2, seed)
            )
            if direct.completed:
                assert point.value == direct.metrics["speedup"]


class TestJsonRoundTripRuns:
    """The acceptance property: spec → json → spec → run is identical."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: specs.flash_crowd(
                num_peers=10, target=40, initial_seeded=2, waves=2, wave_interval=5, seed=21
            ),
            lambda: specs.source_departure(num_peers=5, target=50, seed=22),
            lambda: specs.asymmetric_bandwidth(num_fast=2, num_slow=2, target=40, seed=23),
            lambda: specs.correlated_regional_loss(peers_per_region=2, target=40, seed=24),
            lambda: specs.pair_transfer(target=150, correlation=0.3, seed=25),
            lambda: specs.multi_sender_transfer(target=150, correlation=0.2, seed=26),
            lambda: specs.session_swarm(num_receivers=2, num_blocks=40, seed=27),
        ],
        ids=[
            "flash_crowd",
            "source_departure",
            "asymmetric_bandwidth",
            "correlated_regional_loss",
            "pair_transfer",
            "multi_sender_transfer",
            "session_swarm",
        ],
    )
    def test_round_tripped_spec_runs_identically(self, factory):
        from repro.api import ExperimentSpec

        spec = factory()
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        first = run(spec).to_dict(include_series=True)
        second = run(restored).to_dict(include_series=True)
        assert first == second

    def test_same_spec_twice_is_bit_identical(self):
        spec = specs.flash_crowd(
            num_peers=10, target=40, initial_seeded=2, waves=2, wave_interval=5, seed=31
        )
        assert run(spec).to_dict(include_series=True) == run(spec).to_dict(
            include_series=True
        )


class TestSpecFidelity:
    """Review-hardening pins: the spec's declarative fields are honoured."""

    def test_flash_crowd_honours_link_rules(self):
        import dataclasses

        from repro.api import LinkRuleSpec, LinkSpec, registry

        base = registry.small_spec("flash_crowd")
        lossy = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                links=(
                    LinkRuleSpec(
                        link=LinkSpec(kind="constant", rate=2.0, loss_rate=0.4)
                    ),
                ),
            ),
        )
        clean = run(base)
        noisy = run(lossy)
        assert clean.report.packets_lost == 0
        assert noisy.report.packets_lost > 0  # the rule actually applied

    def test_source_group_name_is_honoured(self):
        import dataclasses

        from repro.api import NodeSpec, registry

        base = registry.small_spec("flash_crowd")
        renamed = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                nodes=(NodeSpec(name="origin", count=1, role="source"),)
                + base.swarm.nodes[1:],
            ),
        )
        result = run(renamed)
        assert result.completed
        assert "origin" not in result.report.completion_ticks  # it is the source

    def test_multi_source_group_rejected(self):
        import dataclasses

        from repro.api import NodeSpec, SpecError, build, registry

        base = registry.small_spec("source_departure")
        doubled = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                nodes=(NodeSpec(name="src", count=2, role="source"),)
                + base.swarm.nodes[1:],
            ),
        )
        with pytest.raises(SpecError, match="source group"):
            build(doubled)

    def test_max_packets_is_a_total_budget_for_multi_sender(self):
        spec = specs.multi_sender_transfer(
            target=150, correlation=0.0, num_senders=4, seed=3, max_packets=40
        )
        result = run(spec)
        assert result.transfer.packets_sent <= 40

    def test_unequal_region_groups_rejected(self):
        import dataclasses

        from repro.api import SpecError, build, registry

        base = registry.small_spec("correlated_regional_loss")
        groups = {g.name: g for g in base.swarm.nodes}
        lopsided = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                nodes=(
                    groups["src"],
                    dataclasses.replace(groups["a"], count=5),
                    groups["b"],
                ),
            ),
        )
        with pytest.raises(SpecError, match="equal-sized region groups"):
            build(lopsided)

    def test_sub_round_packet_budget_rejected(self):
        from repro.api import SpecError

        spec = specs.multi_sender_transfer(
            target=150, correlation=0.0, num_senders=4, seed=3, max_packets=2
        )
        with pytest.raises(SpecError, match="smaller than one round"):
            run(spec)

    def test_session_swarm_honours_source_name(self):
        import dataclasses

        from repro.api import NodeSpec, registry

        base = registry.small_spec("session_swarm")
        renamed = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                nodes=(NodeSpec(name="origin", count=1, role="source"),)
                + base.swarm.nodes[1:],
            ),
        )
        result = run(renamed)
        assert result.completed
        assert set(result.node_sessions) == {"dst0", "dst1"}

    def test_undeclared_peer_group_rejected(self):
        import dataclasses

        from repro.api import NodeSpec, SpecError, build, registry

        base = registry.small_spec("flash_crowd")
        extra = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm,
                nodes=base.swarm.nodes + (NodeSpec(name="extra", count=5),),
            ),
        )
        with pytest.raises(SpecError, match="peer groups"):
            build(extra)

    def test_flash_crowd_honours_declared_departure(self):
        import dataclasses

        from repro.api import ChurnSpec, registry

        base = registry.small_spec("flash_crowd")
        with_departure = dataclasses.replace(
            base,
            churn=dataclasses.replace(
                base.churn, depart_node="src", depart_at=8.0
            ),
        )
        result = run(with_departure)
        assert any("departed" in e for e in result.events)
        assert ChurnSpec().depart_node == ""

    def test_unsupported_churn_rejected(self):
        import dataclasses

        from repro.api import ChurnSpec, SpecError, build, registry

        waves = ChurnSpec(join_waves=2, wave_interval=5.0)
        for name in ("source_departure", "asymmetric_bandwidth",
                     "correlated_regional_loss"):
            spec = dataclasses.replace(registry.small_spec(name), churn=waves)
            with pytest.raises(SpecError, match="join waves"):
                build(spec)
        session = dataclasses.replace(
            registry.small_spec("session_swarm"), churn=ChurnSpec()
        )
        with pytest.raises(SpecError, match="churn"):
            build(session)


def _with_links(spec, *rules):
    import dataclasses

    return dataclasses.replace(
        spec, swarm=dataclasses.replace(spec.swarm, links=tuple(rules))
    )


class TestSwarmSelectionsHonoured:
    """Every overlay swarm builds through one skeleton, so a swarm-level
    selection is either applied or refused — never silently dropped."""

    @pytest.mark.parametrize(
        "name",
        ["figure1", "random_overlay", "adaptive_overlay", "scale_free_swarm", "cdn_catalog"],
    )
    def test_link_rules_apply(self, name):
        from repro.api import LinkRuleSpec, LinkSpec, registry

        base = registry.small_spec(name).with_override("measurement.max_ticks", 300)
        lossy = _with_links(
            base, LinkRuleSpec(link=LinkSpec(kind="constant", rate=2.0, loss_rate=0.9))
        )
        clean, noisy = run(base), run(lossy)
        assert noisy.metrics != clean.metrics
        if noisy.report is not None:
            assert noisy.report.packets_lost > noisy.report.packets_sent / 2

    def test_shared_loss_chain_steps_on_fixed_overlays(self):
        from repro.api import LinkRuleSpec, LinkSpec, registry

        chain = LinkSpec(
            kind="gilbert_elliott", rate=2.0, p_good_bad=0.3, p_bad_good=0.3,
            loss_bad=0.8, shared_key="bursty",
        )
        result = run(_with_links(registry.small_spec("figure1"), LinkRuleSpec(link=chain)))
        assert any("bursty -> bad" in e for e in result.events)

    @pytest.mark.parametrize("name", ["figure1", "random_overlay"])
    def test_node_groups_rejected_on_fixed_overlays(self, name):
        import dataclasses

        from repro.api import NodeSpec, SpecError, build, registry

        base = registry.small_spec(name)
        extra = dataclasses.replace(
            base,
            swarm=dataclasses.replace(
                base.swarm, nodes=(NodeSpec(name="extra", count=3),)
            ),
        )
        with pytest.raises(SpecError, match="no node groups"):
            build(extra)

    @pytest.mark.parametrize("fidelity", ["packet", "flow"])
    def test_population_rejects_link_rules(self, fidelity):
        from repro.api import LinkRuleSpec, LinkSpec, SpecError, build, registry

        spec = registry.small_spec("population_flash_crowd").with_override(
            "measurement.fidelity", fidelity
        )
        lossy = _with_links(
            spec, LinkRuleSpec(link=LinkSpec(kind="constant", rate=2.0, loss_rate=0.9))
        )
        with pytest.raises(SpecError, match="no link rules"):
            build(lossy)

    def test_reconfig_rejection_names_exactly_the_accepting_scenarios(self):
        import re

        from repro.api import SpecError, build, registry

        accepting, rejections = set(), {}
        for name in registry.names():
            try:
                build(registry.small_spec(name).with_reconfig("informed"))
            except SpecError as exc:
                rejections[name] = str(exc)
            else:
                accepting.add(name)
        assert accepting and rejections
        for name, message in rejections.items():
            listed = re.search(r"applies to the overlay scenarios \(([^)]*)\)", message)
            assert listed, message
            assert set(listed.group(1).split(", ")) == accepting, name

    @pytest.mark.parametrize("name", ["adaptive_overlay", "cdn_catalog"])
    def test_departure_rejected_where_unsupported(self, name):
        import dataclasses

        from repro.api import SpecError, build, registry

        base = registry.small_spec(name)
        leaving = dataclasses.replace(
            base, churn=dataclasses.replace(base.churn, depart_node="src", depart_at=6.0)
        )
        with pytest.raises(SpecError, match="does not support departures"):
            build(leaving)
