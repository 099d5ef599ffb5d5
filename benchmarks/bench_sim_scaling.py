"""Event-engine scaling: flash crowds to 256 nodes, swarms to 10k.

Not a paper figure — this benchmarks the `repro.sim` substrate the
scenario library runs on: how delivery throughput and wall time scale
with swarm size when demand arrives in waves and every joiner runs the
sketch-orchestrated join decision.  The 256-node point doubles as the
acceptance run for the event clock (a full flash crowd end-to-end).

The engine-scaling benches compare ``MeasurementSpec.engine`` choices
on an adaptive-overlay-style workload (informed rewiring every 5
ticks, uninformed ``Random`` senders — the adaptive_overlay scenario's
own defaults, which isolate the peering axis).  The 1k point runs in
the CI bench baseline and emits ``repro.bench_meta/1`` entries via
``REPRO_BENCH_JSON``; the 10k columnar point is marked ``slow``
(``--runslow``) and pins the headline claim: per node-tick, the
columnar engine at 10k nodes is >= 10x faster than the reference
engine at 1k.  That 10k run sets ``reconfig.scan_budget``, the knob
that keeps epochs linear in swarm size on either engine — see README
"Scaling up".

The rewire-kernel benches time the columnar reconfiguration epoch:
the 1k point (CI) runs the same window with the kernel and with numpy
gated off, asserts identical reports and dumps the within-run epoch
speedup; the ``slow`` 10k point runs one full-scan epoch (no
``scan_budget``) and reports its wall time.

The incremental-maintenance benches A/B the absorb path
(``OverlayNode.incremental_cards`` / ``OverlaySimulator.
incremental_refresh``) against whole-set rebuilds: the 1k curve runs
in CI (parity-asserted, speedup reported), the 10k point is ``slow``
and pins >= 3x per node-tick, and the 100k flash-crowd window pins
that the hot paths keep a six-figure swarm tickable — see README
"Performance".
"""

import time

import pytest
from conftest import print_series, write_bench_json

import repro.hashing.batch as batch
from repro.api import build, specs
from repro.overlay.node import OverlayNode
from repro.overlay.simulator import OverlaySimulator


def run_flash_crowd(num_peers, target=100, waves=None, wave_interval=15):
    if waves is None:
        waves = max(2, num_peers // 32)
    seeded = max(4, num_peers // 32)
    scenario = build(
        specs.flash_crowd(
            num_peers=num_peers,
            target=target,
            waves=waves,
            wave_interval=wave_interval,
            initial_seeded=seeded,
        )
    ).scenario
    t0 = time.perf_counter()
    report = scenario.run(max_ticks=20_000)
    wall = time.perf_counter() - t0
    return scenario, report, wall


def test_flash_crowd_scaling(benchmark):
    sizes = (32, 64, 128)
    rows = []

    def sweep():
        rows.clear()
        for n in sizes:
            scenario, report, wall = run_flash_crowd(n)
            assert report.all_complete, f"{n}-node crowd failed to complete"
            rows.append(
                f"peers={n:4d}  ticks={report.ticks:5d}  "
                f"sent={report.packets_sent:7d}  "
                f"useful={report.packets_useful:6d}  "
                f"eff={report.efficiency:5.2f}  "
                f"pkts/s={report.packets_sent / wall:9.0f}  "
                f"wall={wall:5.2f}s"
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("flash-crowd scaling (event engine)", rows)


def test_flash_crowd_256_nodes_end_to_end(benchmark):
    """Acceptance run: a 256-node flash crowd under the event clock."""

    def big():
        return run_flash_crowd(256, waves=8)

    scenario, report, wall = benchmark.pedantic(big, rounds=1, iterations=1)
    print_series(
        "256-node flash crowd",
        [
            f"complete={report.all_complete}  ticks={report.ticks}  "
            f"sent={report.packets_sent}  efficiency={report.efficiency:.2f}  "
            f"waves={len(scenario.events)}  wall={wall:.2f}s"
        ],
    )
    assert report.all_complete
    assert len(scenario.events) == 8  # every wave fired on the clock
    # Every joiner planned its connections from live calling cards.
    assert len(scenario.extras["join_plans"]) == 256 - 8


def test_scenario_catalog_under_event_clock(benchmark):
    """All four catalog scenarios complete on the shared event clock."""
    names = (
        "flash_crowd",
        "source_departure",
        "asymmetric_bandwidth",
        "correlated_regional_loss",
    )

    def catalog():
        return {
            name: build(getattr(specs, name)()).scenario.run(max_ticks=10_000)
            for name in names
        }

    results = benchmark.pedantic(catalog, rounds=1, iterations=1)
    rows = [
        f"{name:26s} complete={r.all_complete}  ticks={r.ticks:4d}  "
        f"efficiency={r.efficiency:.2f}"
        for name, r in results.items()
    ]
    print_series("scenario catalog", rows)
    assert all(r.all_complete for r in results.values())


# -- engine scaling: reference vs columnar ---------------------------------

ADAPTIVE_TICKS = 10  # two 5-tick reconfiguration epochs per window


def _adaptive_style_sim(engine, num_peers, scan_budget=0):
    """An adaptive_overlay-style swarm: informed rewiring, Random senders."""
    spec = (
        specs.random_overlay(
            num_peers=num_peers, target=100, seed=0, with_physical=False
        )
        .with_override("strategy.name", "Random")
        .with_override("reconfig.policy", "informed")
        .with_override("reconfig.interval", 5.0)
        .with_override("measurement.engine", engine)
    )
    if scan_budget:
        spec = spec.with_override("reconfig.scan_budget", scan_budget)
    return build(spec).scenario.simulator


def _timed_window(engine, num_peers, ticks=ADAPTIVE_TICKS, scan_budget=0):
    sim = _adaptive_style_sim(engine, num_peers, scan_budget)
    t0 = time.perf_counter()
    for _ in range(ticks):
        sim.tick()
    wall = time.perf_counter() - t0
    return wall, sim.report()


def _meta_entry(engine, num_peers, ticks, wall, report, scan_budget=0):
    return {
        "schema": "repro.bench_meta/1",
        "name": f"sim_scaling_{engine}_{num_peers}",
        "engine": engine,
        "peers": num_peers,
        "ticks": ticks,
        "scan_budget": scan_budget,
        "packets_sent": report.packets_sent,
        "us_per_node_tick": wall / ticks / num_peers * 1e6,
        "wall_seconds": wall,
    }


def test_engine_scaling_1k(benchmark):
    """CI point: both engines at 1k nodes, identical totals, columnar faster.

    Full candidate scans (the informed default) on both sides — the
    exact workload where the columnar card matrix pays off.
    """
    rows, entries, walls = [], [], {}

    def sweep():
        rows.clear(), entries.clear()
        for engine, n in (
            ("columnar", 250),
            ("columnar", 1000),
            ("reference", 1000),
        ):
            wall, report = _timed_window(engine, n)
            walls[(engine, n)] = (wall, report)
            entries.append(_meta_entry(engine, n, ADAPTIVE_TICKS, wall, report))
            rows.append(
                f"{engine:9s} peers={n:5d}  sent={report.packets_sent:7d}  "
                f"us/node-tick={wall / ADAPTIVE_TICKS / n * 1e6:7.1f}  "
                f"wall={wall:5.2f}s"
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("engine scaling, adaptive-style 1k (full scan)", rows)
    write_bench_json("sim_scaling", entries)

    ref_wall, ref_report = walls[("reference", 1000)]
    col_wall, col_report = walls[("columnar", 1000)]
    # Parity at scale: the engines must agree packet for packet...
    assert (
        col_report.packets_sent,
        col_report.packets_lost,
        col_report.packets_useful,
    ) == (
        ref_report.packets_sent,
        ref_report.packets_lost,
        ref_report.packets_useful,
    )
    # ...and the columnar engine must actually be the fast one.
    assert col_wall < ref_wall


# -- rewire kernel: vectorised epoch vs the scalar fallback -----------------
#
# The columnar engine decides informed min-wise rewiring from each
# receiver's match-count row (UtilityRewiring.decide).  Gating numpy
# off through repro.hashing.batch._numpy sends the same engine down the
# pure-Python path, whose scalar UtilityRewiring.rewire is the oracle:
# both runs share one process, so the epoch ratio cancels runner speed.


def _epoch_timed_window(num_peers, numpy_on, ticks=ADAPTIVE_TICKS, scan_budget=0):
    """(wall, epoch seconds, epochs, report) of a columnar window."""
    saved = batch._numpy
    if not numpy_on:
        batch._numpy = lambda: None
    try:
        sim = _adaptive_style_sim("columnar", num_peers, scan_budget)
        epochs = []
        epoch = sim._reconfigure

        def timed_epoch():
            t0 = time.perf_counter()
            epoch()
            epochs.append(time.perf_counter() - t0)

        sim._reconfigure = timed_epoch
        t0 = time.perf_counter()
        for _ in range(ticks):
            sim.tick()
        return time.perf_counter() - t0, sum(epochs), len(epochs), sim.report()
    finally:
        batch._numpy = saved


def test_rewire_kernel_1k(benchmark):
    """CI point: the kernel epoch is report-identical to the scalar one.

    The 1k adaptive-style window (full candidate scans) on the columnar
    engine, with the kernel and with numpy gated off.  The reports must
    agree field for field; the within-run epoch speedup is printed and
    dumped as a ``repro.bench_meta/1`` ratio entry.
    """
    results = {}

    def sweep():
        results["kernel"] = _epoch_timed_window(1000, numpy_on=True)
        results["scalar"] = _epoch_timed_window(1000, numpy_on=False)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    k_wall, k_epochs, k_count, k_report = results["kernel"]
    s_wall, s_epochs, s_count, s_report = results["scalar"]
    speedup = s_epochs / k_epochs
    print_series(
        "rewire kernel vs scalar epoch, adaptive-style 1k (full scan)",
        [
            f"kernel: epochs={k_count}  epoch_s={k_epochs:6.3f}  wall={k_wall:6.2f}s",
            f"scalar: epochs={s_count}  epoch_s={s_epochs:6.3f}  wall={s_wall:6.2f}s",
            f"within-run epoch speedup: {speedup:.1f}x",
        ],
    )
    write_bench_json(
        "sim_rewire_kernel",
        [
            {
                "schema": "repro.bench_meta/1",
                "name": "sim_rewire_kernel_columnar_1000",
                "engine": "columnar",
                "peers": 1000,
                "ticks": ADAPTIVE_TICKS,
                "epochs": k_count,
                "kernel_epoch_seconds": k_epochs,
                "scalar_epoch_seconds": s_epochs,
                "epoch_speedup": speedup,
                "unit": "ratio",
            }
        ],
    )
    assert k_count == s_count > 0
    assert k_report == s_report


@pytest.mark.slow
def test_full_scan_10k_epoch(benchmark):
    """Acceptance: one full-scan epoch at 10k peers, no ``scan_budget``.

    Every receiver scores every peer (10^8 card comparisons) through
    the blocked match counts and the rewire kernel; the epoch's wall
    time is reported.
    """
    results = {}

    def window():
        results["run"] = _epoch_timed_window(10_000, numpy_on=True, ticks=5)
        return results

    benchmark.pedantic(window, rounds=1, iterations=1)
    wall, epoch_s, count, report = results["run"]
    print_series(
        "full-scan epoch at 10k (columnar, no scan_budget)",
        [
            f"epochs={count}  epoch_s={epoch_s:6.2f}  wall={wall:6.2f}s  "
            f"reconfigurations={report.reconfigurations}"
        ],
    )
    write_bench_json(
        "sim_full_scan_10k",
        [
            {
                "schema": "repro.bench_meta/1",
                "name": "sim_full_scan_columnar_10k",
                "engine": "columnar",
                "peers": 10_000,
                "ticks": 5,
                "scan_budget": 0,
                "epochs": count,
                "epoch_seconds": epoch_s,
                "wall_seconds": wall,
            }
        ],
    )
    assert count == 1
    assert report.reconfigurations > 0


# -- incremental summary maintenance: absorb vs rebuild --------------------
#
# The incremental workload uses larger working sets (the regime where
# per-symbol absorption beats whole-set rebuilds), a budgeted candidate
# scan (so the epoch's cost is card maintenance, not the policy loop),
# and a warm-up window past the first epoch — the cold build is
# identical either way; the claim is about steady-state maintenance.

INCR_TARGET = 5_000
INCR_INTERVAL = 2.5
INCR_BUDGET = 16
INCR_WARMUP = 3
INCR_TICKS = 5


def _incremental_sim(engine, num_peers, target=INCR_TARGET):
    spec = (
        specs.random_overlay(
            num_peers=num_peers, target=target, seed=0, with_physical=False
        )
        .with_override("strategy.name", "Random")
        .with_override("reconfig.policy", "informed")
        .with_override("reconfig.interval", INCR_INTERVAL)
        .with_override("reconfig.scan_budget", INCR_BUDGET)
        .with_override("measurement.engine", engine)
        .with_override("measurement.record_series", False)
    )
    return build(spec).scenario.simulator


def _incremental_window(engine, num_peers, incremental, target=INCR_TARGET):
    """Steady-state wall clock with the incremental toggles set either way."""
    OverlayNode.incremental_cards = incremental
    OverlaySimulator.incremental_refresh = incremental
    try:
        sim = _incremental_sim(engine, num_peers, target)
        for _ in range(INCR_WARMUP):
            sim.tick()
        t0 = time.perf_counter()
        for _ in range(INCR_TICKS):
            sim.tick()
        wall = time.perf_counter() - t0
        return wall, sim.report()
    finally:
        OverlayNode.incremental_cards = True
        OverlaySimulator.incremental_refresh = True


def _incremental_entry(engine, num_peers, mode, wall, report):
    return {
        "schema": "repro.bench_meta/1",
        "name": f"sim_incremental_{engine}_{num_peers}_{mode}",
        "engine": engine,
        "peers": num_peers,
        "mode": mode,
        "ticks": INCR_TICKS,
        "packets_sent": report.packets_sent,
        "us_per_node_tick": wall / INCR_TICKS / num_peers * 1e6,
        "wall_seconds": wall,
    }


def test_incremental_vs_rebuild_1k(benchmark):
    """CI point: incremental maintenance is bit-identical to rebuilds.

    Both engines at 1k, absorb path against rebuild path — the reports
    must agree packet for packet (the parity suites pin the cards
    themselves; this pins the whole simulation).  Speedup is printed
    and dumped but not asserted here: CI runners are shared, and the
    hard >=3x claim lives in the slow 10k companion.
    """
    rows, entries, results = [], [], {}

    def sweep():
        rows.clear(), entries.clear()
        for engine in ("columnar", "reference"):
            for mode, incremental in (("incremental", True), ("rebuild", False)):
                wall, report = _incremental_window(engine, 1000, incremental)
                results[(engine, mode)] = (wall, report)
                entries.append(
                    _incremental_entry(engine, 1000, mode, wall, report)
                )
            inc_wall = results[(engine, "incremental")][0]
            reb_wall = results[(engine, "rebuild")][0]
            rows.append(
                f"{engine:9s} incremental={inc_wall:5.2f}s  "
                f"rebuild={reb_wall:5.2f}s  speedup={reb_wall / inc_wall:4.2f}x"
            )
        return rows

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_series("incremental vs rebuild, 1k steady state", rows)
    write_bench_json("sim_incremental", entries)

    for engine in ("columnar", "reference"):
        inc = results[(engine, "incremental")][1]
        reb = results[(engine, "rebuild")][1]
        assert (inc.packets_sent, inc.packets_lost, inc.packets_useful) == (
            reb.packets_sent,
            reb.packets_lost,
            reb.packets_useful,
        ), f"{engine}: incremental and rebuild paths diverged"


@pytest.mark.slow
def test_incremental_10k_speedup(benchmark):
    """Acceptance: absorb-path maintenance >= 3x faster per node-tick
    than rebuilds at the 10k adaptive-style point (columnar engine,
    budgeted scans, steady state past the first epoch)."""
    results = {}

    def sweep():
        results["inc"] = _incremental_window("columnar", 10_000, True)
        results["reb"] = _incremental_window("columnar", 10_000, False)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    inc_wall, inc_report = results["inc"]
    reb_wall, reb_report = results["reb"]
    inc_unit = inc_wall / INCR_TICKS / 10_000 * 1e6
    reb_unit = reb_wall / INCR_TICKS / 10_000 * 1e6
    print_series(
        "incremental 10k acceptance (adaptive-style)",
        [
            f"incremental: wall={inc_wall:6.2f}s  us/node-tick={inc_unit:7.1f}",
            f"rebuild:     wall={reb_wall:6.2f}s  us/node-tick={reb_unit:7.1f}",
            f"per-node-tick speedup: {reb_unit / inc_unit:.1f}x",
        ],
    )
    assert (inc_report.packets_sent, inc_report.packets_lost, inc_report.packets_useful) == (
        reb_report.packets_sent,
        reb_report.packets_lost,
        reb_report.packets_useful,
    )
    assert reb_unit / inc_unit >= 3.0


@pytest.mark.slow
def test_flash_crowd_100k_columnar(benchmark):
    """Acceptance: a 100k-peer flash-crowd window on the columnar engine.

    Flash-crowd demand profile — nearly-empty peers rushing a handful
    of sources — at 100k nodes, run as a bounded timed window (one
    reconfiguration epoch included) with a budgeted scan.  Pins that
    the incremental hot paths keep a 100k swarm tickable at all: the
    window covers delivery, strategy refresh, and one full budgeted
    epoch over every receiver.
    """
    results = {}

    def window():
        spec = (
            specs.random_overlay(
                num_peers=100_000,
                target=100,
                num_sources=16,
                initial_fraction_lo=0.0,
                initial_fraction_hi=0.05,
                seed=0,
                with_physical=False,
            )
            .with_override("strategy.name", "Random")
            .with_override("reconfig.policy", "informed")
            .with_override("reconfig.interval", 5.0)
            .with_override("reconfig.scan_budget", 8)
            .with_override("measurement.engine", "columnar")
            .with_override("measurement.record_series", False)
        )
        sim = build(spec).scenario.simulator
        t0 = time.perf_counter()
        for _ in range(8):
            sim.tick()
        results["wall"] = time.perf_counter() - t0
        results["report"] = sim.report()
        return results

    benchmark.pedantic(window, rounds=1, iterations=1)
    wall, report = results["wall"], results["report"]
    unit = wall / 8 / 100_000 * 1e6
    print_series(
        "100k flash crowd (columnar, 8-tick window)",
        [
            f"sent={report.packets_sent}  useful={report.packets_useful}  "
            f"us/node-tick={unit:.1f}  wall={wall:.1f}s"
        ],
    )
    write_bench_json(
        "sim_flash_100k",
        [
            {
                "schema": "repro.bench_meta/1",
                "name": "sim_scaling_columnar_100k_flash",
                "engine": "columnar",
                "peers": 100_000,
                "ticks": 8,
                "scan_budget": 8,
                "packets_sent": report.packets_sent,
                "us_per_node_tick": unit,
                "wall_seconds": wall,
            }
        ],
    )
    assert report.packets_sent > 0
    assert report.packets_useful > 0


@pytest.mark.slow
def test_columnar_10k_adaptive(benchmark):
    """Acceptance: columnar at 10k >= 10x faster per node-tick than
    the reference at 1k (both on the adaptive-style workload).

    The 10k run uses ``reconfig.scan_budget`` — at that size a full
    scan is quadratic in either engine and is exactly what the budget
    knob exists for.
    """
    results = {}

    def sweep():
        results["ref_1k"] = _timed_window("reference", 1000)
        results["col_10k"] = _timed_window(
            "columnar", 10_000, scan_budget=32
        )
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    ref_wall, ref_report = results["ref_1k"]
    col_wall, col_report = results["col_10k"]
    ref_unit = ref_wall / ADAPTIVE_TICKS / 1000 * 1e6
    col_unit = col_wall / ADAPTIVE_TICKS / 10_000 * 1e6
    print_series(
        "columnar 10k acceptance (adaptive-style)",
        [
            f"reference  1k: wall={ref_wall:6.2f}s  "
            f"us/node-tick={ref_unit:7.1f}  sent={ref_report.packets_sent}",
            f"columnar  10k: wall={col_wall:6.2f}s  "
            f"us/node-tick={col_unit:7.1f}  sent={col_report.packets_sent}",
            f"per-node-tick speedup: {ref_unit / col_unit:.1f}x",
        ],
    )
    assert col_report.packets_sent > 0
    assert ref_unit / col_unit >= 10.0
