"""Spec constructors for every registered scenario, in one namespace.

``from repro.api import specs`` then ``specs.flash_crowd(...)``,
``specs.pair_transfer(...)``, etc. — each returns a complete
:class:`~repro.api.spec.ExperimentSpec` ready for
:func:`repro.api.run` or ``spec.to_json()``.

Every constructor's name matches its registry key exactly (one
canonical name everywhere).
"""

from repro.api.adaptive import adaptive_overlay
from repro.api.builders import (
    asymmetric_bandwidth,
    correlated_regional_loss,
    figure1,
    flash_crowd,
    multi_sender_transfer,
    pair_transfer,
    random_overlay,
    session_swarm,
    source_departure,
)
from repro.api.congested import congested_swarm
from repro.api.population import population_flash_crowd
from repro.api.structured import cdn_catalog, scale_free_swarm
from repro.api.tradeoff import summary_tradeoff

__all__ = [
    "flash_crowd",
    "source_departure",
    "asymmetric_bandwidth",
    "correlated_regional_loss",
    "pair_transfer",
    "multi_sender_transfer",
    "session_swarm",
    "summary_tradeoff",
    "figure1",
    "random_overlay",
    "adaptive_overlay",
    "congested_swarm",
    "population_flash_crowd",
    "scale_free_swarm",
    "cdn_catalog",
]
