"""repro.api — the declarative experiment pipeline.

One shape for every experiment in the repo::

    from repro.api import specs, run

    spec = specs.flash_crowd(num_peers=64, seed=7)   # a frozen value
    text = spec.to_json()                             # archive / diff it
    result = run(spec)                                # -> RunResult
    print(result.metrics, result.overhead)

* :mod:`repro.api.spec` — frozen, JSON-round-trippable spec
  dataclasses (:class:`ExperimentSpec` composing :class:`SwarmSpec`,
  :class:`NodeSpec`, :class:`LinkSpec`, :class:`StrategySpec`,
  :class:`ChurnSpec`, :class:`MeasurementSpec`,
  :class:`PopulationSpec`).
* :mod:`repro.api.registry` — the string-keyed scenario registry
  (:func:`~repro.api.registry.scenario` decorator).
* :mod:`repro.api.builders` — the scenario catalog: spec constructors
  plus registered builders for the four event-driven swarm scenarios,
  the Figure 5-8 delivery layouts, and byte-level protocol sessions.
* :mod:`repro.api.runner` — :func:`build` / :func:`run`.
* :mod:`repro.api.result` — :class:`RunResult` and the shared JSON
  result schema.

``python -m repro.api --spec experiment.json`` runs a spec from disk;
``--list`` shows the registry.
"""

from repro.api import registry, specs
from repro.api.registry import UnknownScenarioError, scenario
from repro.api.result import RESULT_SCHEMA, RunResult
from repro.api.runner import BuiltExperiment, SimScenario, build, run
from repro.api.spec import (
    CatalogSpec,
    ChurnSpec,
    ExperimentSpec,
    LinkRuleSpec,
    LinkSpec,
    MeasurementSpec,
    NodeSpec,
    PopulationSpec,
    ReconfigSpec,
    SpecError,
    StrategySpec,
    SummarySpec,
    SwarmSpec,
    TopologySpec,
    TransportSpec,
)

__all__ = [
    "registry",
    "specs",
    "scenario",
    "UnknownScenarioError",
    "SpecError",
    "ExperimentSpec",
    "SwarmSpec",
    "TopologySpec",
    "CatalogSpec",
    "NodeSpec",
    "LinkSpec",
    "LinkRuleSpec",
    "StrategySpec",
    "SummarySpec",
    "ChurnSpec",
    "ReconfigSpec",
    "MeasurementSpec",
    "PopulationSpec",
    "TransportSpec",
    "BuiltExperiment",
    "SimScenario",
    "build",
    "run",
    "RunResult",
    "RESULT_SCHEMA",
]
