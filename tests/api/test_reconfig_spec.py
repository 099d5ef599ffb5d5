"""ReconfigSpec: serialisation, overrides, parity pins, and the arms.

The tentpole contract of the adaptive-overlay refactor:

* ``ReconfigSpec`` is a frozen JSON-round-trippable component of
  :class:`~repro.api.ExperimentSpec`, addressable through
  ``with_override`` dotted paths;
* with ``reconfig`` unset — or set to the default min-wise informed
  policy — every swarm scenario's report is byte-identical to the
  pre-refactor behaviour (the policies flowed through the Summary
  interface without changing a single float);
* the ``adaptive_overlay`` scenario's informed arm beats the random
  arm on useful-symbol fraction, for every summary kind in its
  miniature campaign grid.
"""

import dataclasses
import json

import pytest

from repro.api import ExperimentSpec, ReconfigSpec, SpecError, build, registry, run, specs


class TestReconfigSpecValue:
    # JSON round-trip and unknown-key rejection live in the shared
    # contract (test_spec_roundtrip_property.py), not per-spec copies.

    def test_unknown_policy_rejected(self):
        with pytest.raises(SpecError, match="reconfig policy"):
            ReconfigSpec(policy="psychic")

    def test_informed_only_knobs_rejected_on_baseline_policies(self):
        # A selection the run would silently ignore is a spec error.
        with pytest.raises(SpecError, match="informed policy only"):
            ExperimentSpec.from_dict(
                {
                    "scenario": "flash_crowd",
                    "reconfig": {"policy": "static", "summary": {"kind": "bloom"}},
                }
            )
        with pytest.raises(SpecError, match="informed policy only"):
            ReconfigSpec(policy="random", min_usefulness=0.5)
        with pytest.raises(SpecError, match="informed policy only"):
            ReconfigSpec(policy="static", hysteresis=0.3)
        # interval/jitter/budget govern the epoch schedule of any arm.
        assert ReconfigSpec(policy="random", interval=10.0, jitter=1.0).jitter == 1.0

    def test_reconfig_rejected_on_scenarios_with_no_overlay(self):
        for factory in (
            lambda: specs.pair_transfer(target=120, seed=5),
            lambda: specs.multi_sender_transfer(target=120, seed=6),
            lambda: specs.session_swarm(num_receivers=2, num_blocks=40, seed=7),
            lambda: specs.summary_tradeoff(target=80, kinds="bloom", budgets="8"),
        ):
            spec = dataclasses.replace(factory(), reconfig=ReconfigSpec())
            with pytest.raises(SpecError, match="no adaptive overlay"):
                build(spec)

    def test_bad_fields_rejected(self):
        with pytest.raises(SpecError):
            ReconfigSpec(interval=-1.0)
        with pytest.raises(SpecError):
            ReconfigSpec(jitter=-0.5)
        with pytest.raises(SpecError):
            ReconfigSpec(scan_budget=-2)
        with pytest.raises(SpecError):
            ReconfigSpec(min_usefulness=1.5)
        with pytest.raises(SpecError):
            ReconfigSpec(hysteresis=-0.1)

    def test_from_dict_folds_bad_types_into_spec_error(self):
        base = specs.flash_crowd().to_dict()
        base["reconfig"] = {"policy": "informed", "scan_budget": 7.5}
        with pytest.raises(SpecError):
            ExperimentSpec.from_dict(base)
        base["reconfig"] = {"nonsense": True}
        with pytest.raises(SpecError, match="unknown"):
            ExperimentSpec.from_dict(base)

    def test_override_instantiates_default_reconfig(self):
        spec = specs.flash_crowd()
        assert spec.reconfig is None
        overridden = spec.with_override("reconfig.interval", 10.0)
        assert overridden.reconfig == ReconfigSpec(interval=10.0)
        swept = spec.with_override("reconfig.summary.kind", "modk")
        assert swept.reconfig.summary.kind == "modk"

    def test_with_reconfig_helper(self):
        spec = specs.flash_crowd().with_reconfig(
            "informed", summary_kind="bloom",
            summary_params={"bits_per_element": 4}, interval=10.0,
        )
        assert spec.reconfig.summary.kind == "bloom"
        assert spec.reconfig.summary.param("bits_per_element") == 4
        assert spec.reconfig.interval == 10.0


SWARM_FACTORIES = {
    "flash_crowd": lambda: specs.flash_crowd(
        num_peers=10, target=40, initial_seeded=2, waves=2, wave_interval=5, seed=1
    ),
    "source_departure": lambda: specs.source_departure(
        num_peers=6, target=60, depart_at=5.0, seed=2
    ),
    "asymmetric_bandwidth": lambda: specs.asymmetric_bandwidth(
        num_fast=3, num_slow=3, target=40, seed=3
    ),
    "correlated_regional_loss": lambda: specs.correlated_regional_loss(
        peers_per_region=3, target=40, seed=4
    ),
}


class TestDefaultPolicyParity:
    """ReconfigSpec() == the historical behaviour, bit for bit."""

    @pytest.mark.parametrize("name", sorted(SWARM_FACTORIES))
    def test_default_policy_report_is_byte_identical(self, name):
        base_spec = SWARM_FACTORIES[name]()
        explicit = dataclasses.replace(base_spec, reconfig=ReconfigSpec())
        base = run(base_spec)
        default = run(explicit)
        assert base.report == default.report
        # Same metric values; the explicit selection only *adds* the
        # control-plane accounting keys.
        extra = set(default.metrics) - set(base.metrics)
        assert extra == {"reconfig_epochs", "reconfig_control_bytes"}
        for key, value in base.metrics.items():
            assert default.metrics[key] == value
        assert default.metrics["reconfig_control_bytes"] > 0

    def test_unset_reconfig_emits_no_control_metrics(self):
        result = run(SWARM_FACTORIES["flash_crowd"]())
        assert "reconfig_control_bytes" not in result.metrics
        assert result.report.control_bytes > 0  # counted, just not emitted


class TestReconfigArms:
    def test_policies_actually_differ(self):
        base = SWARM_FACTORIES["flash_crowd"]()
        informed = run(dataclasses.replace(base, reconfig=ReconfigSpec()))
        random_arm = run(
            dataclasses.replace(base, reconfig=ReconfigSpec(policy="random"))
        )
        static = run(
            dataclasses.replace(base, reconfig=ReconfigSpec(policy="static"))
        )
        assert static.report.reconfigurations == 0
        assert static.metrics["reconfig_control_bytes"] == 0
        assert random_arm.report.reconfigurations > 0
        assert random_arm.metrics["reconfig_control_bytes"] == 0  # no cards
        assert informed.report.reconfigurations > 0
        assert informed.metrics["reconfig_control_bytes"] > 0

    def test_summary_kind_changes_control_cost(self):
        base = dataclasses.replace(
            SWARM_FACTORIES["flash_crowd"](), reconfig=ReconfigSpec()
        )
        minwise = run(base)
        bloom = run(base.with_override("reconfig.summary.kind", "bloom"))
        assert bloom.completed and minwise.completed
        # An 8-bit-per-element Bloom card is far cheaper than the 1KB
        # min-wise card on these tiny working sets.
        assert (
            bloom.metrics["reconfig_control_bytes"]
            < minwise.metrics["reconfig_control_bytes"]
        )

    def test_scan_budget_caps_control_cost(self):
        base = SWARM_FACTORIES["flash_crowd"]()
        full = run(dataclasses.replace(base, reconfig=ReconfigSpec()))
        capped = run(
            dataclasses.replace(base, reconfig=ReconfigSpec(scan_budget=2))
        )
        assert (
            capped.metrics["reconfig_control_bytes"]
            < full.metrics["reconfig_control_bytes"]
        )

    def test_jittered_epochs_still_run_deterministically(self):
        spec = dataclasses.replace(
            SWARM_FACTORIES["flash_crowd"](), reconfig=ReconfigSpec(jitter=1.5)
        )
        first = run(spec).to_dict(include_series=True)
        second = run(spec).to_dict(include_series=True)
        assert first == second


class TestAdaptiveOverlayScenario:
    def test_informed_beats_random_on_useful_fraction(self):
        result = run(registry.small_spec("adaptive_overlay"))
        assert result.completed
        assert result.metrics["informed_useful_gain"] > 0
        assert (
            result.metrics["useful_fraction[informed]"]
            > result.metrics["useful_fraction[random]"]
        )
        # Informed adaptation also beats the static tree on time.
        assert result.metrics["ticks[informed]"] < result.metrics["ticks[static]"]
        # And its control traffic is accounted, not free.
        assert result.metrics["control_bytes[informed]"] > 0
        assert result.metrics["control_bytes[random]"] == 0

    @pytest.mark.parametrize("kind", ["minwise", "bloom", "modk"])
    def test_informed_wins_under_every_grid_kind(self, kind):
        spec = registry.small_spec("adaptive_overlay").with_override(
            "reconfig.summary.kind", kind
        )
        result = run(spec)
        assert result.completed
        assert result.metrics["informed_useful_gain"] > 0

    def test_round_trip_runs_identically(self):
        spec = registry.small_spec("adaptive_overlay")
        restored = ExperimentSpec.from_json(spec.to_json())
        assert run(spec).to_dict(include_series=True) == run(restored).to_dict(
            include_series=True
        )

    def test_non_informed_reconfig_rejected(self):
        spec = registry.small_spec("adaptive_overlay")
        bad = dataclasses.replace(spec, reconfig=ReconfigSpec(policy="static"))
        with pytest.raises(SpecError, match="informed arm"):
            build(bad)

    def test_strategy_summary_rejected(self):
        spec = registry.small_spec("adaptive_overlay").with_summary("bloom")
        with pytest.raises(SpecError, match="reconfig.summary"):
            build(spec)


class TestOverlayPins:
    """Figure 1 and the random overlay hold their seeded reports."""

    def test_figure1_report(self):
        scenario = build(specs.figure1(target=200, seed=9)).scenario
        report = scenario.simulator.run(max_ticks=2000)
        assert report.all_complete
        assert (report.ticks, report.packets_sent, report.packets_lost) == (101, 1099, 0)
        assert (report.packets_useful, report.reconfigurations) == (237, 0)
        assert report.completion_ticks == {"A": 77, "B": 58, "C": 95, "D": 101, "E": 82}
        assert set(scenario.simulator.nodes) == {"S", "A", "B", "C", "D", "E"}

    def test_random_overlay_report(self):
        spec = specs.random_overlay(
            num_peers=8,
            target=80,
            seed=19,
            initial_fraction_lo=0.1,
            initial_fraction_hi=0.5,
        )
        report = build(spec).scenario.simulator.run(max_ticks=2000)
        assert report.all_complete
        assert (report.ticks, report.packets_sent, report.packets_lost) == (27, 541, 11)
        assert (report.packets_useful, report.reconfigurations) == (423, 16)
        assert (report.reconfig_epochs, report.control_bytes) == (1, 57568)
        assert report.completion_ticks == {
            "p0": 22, "p1": 21, "p2": 22, "p3": 26,
            "p4": 27, "p5": 21, "p6": 23, "p7": 27,
        }

    def test_scenario_exposes_all_nodes(self):
        scenario = build(specs.random_overlay(num_peers=5, target=60, seed=3)).scenario
        assert set(scenario.simulator.nodes) == {"src0"} | {f"p{i}" for i in range(5)}
        assert scenario.target == 60
