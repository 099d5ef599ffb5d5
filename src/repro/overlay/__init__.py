"""Adaptive overlay network substrate (paper Sections 1-2).

The paper's delivery machinery assumes an overlay of unicast connections
that adapts to network conditions: multicast-style trees for initial
dissemination, "perpendicular" peer connections exploiting complementary
working sets (Figure 1), admission control via sketches (Section 4), and
reconfiguration when connections lose utility.

* :mod:`repro.overlay.topology` — virtual topology over a physical
  network model; tree embedding, perpendicular edge selection, rerouting
  around congested paths.
* :mod:`repro.overlay.node` — overlay end-systems: working set, one
  cached summary card per kind (the min-wise calling card included),
  connection slots.
* :mod:`repro.overlay.simulator` — event-driven simulation engine
  (built on :mod:`repro.sim`): connections deliver packets through
  pluggable link models (bandwidth-, loss- and latency-limited), nodes
  reconcile and adapt peering, metrics are collected per node.  The
  legacy tick API is preserved — a tick is a periodic event.
* :mod:`repro.overlay.reconfiguration` — peering policies: summary-based
  admission control and utility-driven rewiring, plus
  :func:`default_scheme`, the universally agreed min-wise card.

Canned overlays (the paper's Figure 1, the randomised adaptive
overlay) are scenarios of :mod:`repro.api`: ``specs.figure1(...)``,
``specs.random_overlay(...)``.
"""

from repro.overlay.topology import PhysicalNetwork, VirtualTopology
from repro.overlay.node import OverlayNode
from repro.overlay.simulator import Connection, OverlaySimulator, SimulationReport
from repro.overlay.reconfiguration import (
    AdmissionPolicy,
    OpenAdmission,
    RandomRewiring,
    ReconfigurationPolicy,
    SketchAdmission,
    SummaryScheme,
    UtilityRewiring,
    default_scheme,
)
from repro.overlay.churn import ChurnProcess, run_with_churn

__all__ = [
    "ChurnProcess",
    "run_with_churn",
    "PhysicalNetwork",
    "VirtualTopology",
    "OverlayNode",
    "Connection",
    "OverlaySimulator",
    "SimulationReport",
    "AdmissionPolicy",
    "SketchAdmission",
    "OpenAdmission",
    "ReconfigurationPolicy",
    "UtilityRewiring",
    "RandomRewiring",
    "SummaryScheme",
    "default_scheme",
]
