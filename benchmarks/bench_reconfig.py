"""Reconfiguration-epoch throughput: informed rewiring on a 256-node swarm.

Not a paper figure — this benchmarks the control plane the adaptive
overlay runs on: how fast a reconfiguration epoch scans candidate
summary cards and rewires a large swarm, per summary kind, and what
that scan costs on the wire.  Epoch throughput (receiver·candidate
scans per second) is the number that bounds how large a swarm the
informed policies can steer in real time; the ``scan_budget`` rows
show how the per-epoch budget trades steering quality for control cost.

With ``REPRO_BENCH_JSON=<dir>`` the benchmark emits
``BENCH_reconfig.json``: one ``repro.run_result/1`` entry for a seeded
adaptive_overlay miniature run plus ``repro.bench_meta/1`` timing
entries per summary kind — validated by ``scripts/validate_bench.py``.
"""

import time

from conftest import print_series, write_bench_json

from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import (
    SketchAdmission,
    SummaryScheme,
    UtilityRewiring,
)
from repro.overlay.simulator import OverlaySimulator
from repro.overlay.topology import VirtualTopology
from repro.seeding import derive_rng

#: Summary kinds whose cards drive the epoch sweep (cheap to exact-ish).
KINDS = (
    ("minwise", {"entries": 128}),
    ("bloom", {"bits_per_element": 8}),
    ("modk", {"modulus": 16}),
)

NUM_PEERS = 256
TARGET = 400


def _build_swarm(kind, params, scan_budget=0):
    """A 256-node partially seeded swarm ready for epoch timing."""
    rng = derive_rng(0, "bench_reconfig", kind, scan_budget)
    scheme = SummaryScheme(kind, params)
    sim = OverlaySimulator(
        VirtualTopology(),
        admission=SketchAdmission(scheme),
        rewiring=UtilityRewiring(scheme, rng=rng),
        reconfigure_every=10,
        reconfig_budget=scan_budget,
        rng=rng,
    )
    sim.add_node(OverlayNode("src", TARGET, is_source=True))
    distinct = int(TARGET * 1.2)
    for i in range(NUM_PEERS):
        ids = rng.sample(range(distinct), rng.randrange(0, TARGET // 2))
        sim.add_node(
            OverlayNode(f"p{i}", TARGET, initial_ids=ids, max_connections=3)
        )
        sim.connect("src", f"p{i}")
    return sim


def _time_epochs(sim, epochs=1):
    """Drive ``epochs`` rewiring passes directly; return (wall, scans)."""
    receivers = sum(
        1 for n in sim.nodes.values() if not n.is_source and not n.is_complete
    )
    t0 = time.perf_counter()
    for _ in range(epochs):
        sim._reconfigure()
    wall = time.perf_counter() - t0
    budget = sim.reconfig_budget or len(sim.nodes)
    scans = epochs * receivers * min(budget, len(sim.nodes))
    return wall, scans


def test_epoch_throughput_by_kind(benchmark):
    rows = []
    meta_entries = []

    def sweep():
        rows.clear()
        meta_entries.clear()
        for kind, params in KINDS:
            sim = _build_swarm(kind, params)
            wall, scans = _time_epochs(sim)
            rows.append(
                f"kind={kind:8s} epochs=1  scans={scans:7d}  "
                f"scans/s={scans / wall:9.0f}  rewires={sim.reconfigurations:4d}  "
                f"control={sim.control_bytes:10d}B  wall={wall:6.3f}s"
            )
            meta_entries.append(
                {
                    "schema": "repro.bench_meta/1",
                    "name": f"reconfig_epoch_{kind}",
                    "peers": NUM_PEERS,
                    "epochs": 1,
                    "scans": scans,
                    "scans_per_second": scans / wall,
                    "reconfigurations": sim.reconfigurations,
                    "control_bytes": sim.control_bytes,
                    "wall_seconds": wall,
                }
            )
            assert sim.reconfigurations > 0
            assert sim.control_bytes > 0
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series(f"reconfiguration epochs ({NUM_PEERS}-node swarm)", rows)

    from repro.api import registry, run

    result = run(registry.small_spec("adaptive_overlay"))
    assert result.completed
    write_bench_json("reconfig", [result] + meta_entries)


def test_scan_budget_bounds_epoch_cost(benchmark):
    """A budgeted epoch scans (and charges) proportionally less."""

    def budgets():
        out = []
        for budget in (0, 64, 16):
            sim = _build_swarm("minwise", {"entries": 128}, scan_budget=budget)
            wall, scans = _time_epochs(sim)
            out.append((budget, scans, wall, sim.control_bytes))
        return out

    results = benchmark.pedantic(budgets, rounds=1, iterations=1)
    rows = [
        f"budget={b or 'all':>4}  scans={s:7d}  control={c:10d}B  wall={w:6.3f}s"
        for b, s, w, c in results
    ]
    print_series("scan-budget sweep (minwise)", rows)
    full, mid, small = (r[3] for r in results)
    assert small < mid < full  # the budget really caps the control cost
