"""The columnar rewire kernel against the scalar ``UtilityRewiring`` oracle.

The columnar engine decides informed min-wise rewiring straight from
each receiver's match-count row (:meth:`UtilityRewiring.decide` over
:class:`~repro.overlay.columnar._EpochScores` vectors) instead of
calling :meth:`UtilityRewiring.rewire` per receiver.  The scalar
``rewire`` stays the oracle:

* ``decide`` must return rewire's exact decision over random match rows
  with heavy ties (equal and zero utilities, sources, empty candidates
  and senders, empty receivers, free slots and full capacity,
  ``hysteresis=0``, budgeted candidate orders);
* the epoch's utility vectors must equal ``SummaryScheme.usefulness``
  bit for bit, on full and budgeted scans;
* whole runs must match the reference engine seed for seed, with and
  without numpy, and every configuration the kernel does not cover
  (catalog schemes, policy subclasses, non-min-wise kinds, universes
  past 2^62) must take the memo path with identical metrics.
"""

import math
import random

import pytest

from repro.api import build, run, specs
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import SummaryScheme, UtilityRewiring

import repro.hashing.batch as batch
import repro.overlay.columnar as columnar

np = batch._numpy()
needs_numpy = pytest.mark.skipif(np is None, reason="the kernel runs on numpy")


# -- decide() vs rewire() over random match rows -----------------------------


def _random_case(rng: random.Random):
    entries = rng.choice((1, 2, 3, 4, 8))
    scheme = SummaryScheme("minwise", {"entries": entries, "seed": 7})
    empty_receiver = rng.random() < 0.15
    receiver = OverlayNode(
        "r",
        target=1000,
        initial_ids=() if empty_receiver else (1, 2, 3),
        max_connections=rng.randint(0, 5),
    )
    pool = []
    for i in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.15:
            pool.append(OverlayNode(f"s{i}", 1000, is_source=True))
        elif roll < 0.3:
            pool.append(OverlayNode(f"e{i}", 1000))  # empty non-source
        else:
            pool.append(OverlayNode(f"n{i}", 1000, initial_ids=(10 + i,)))
    slots = rng.randint(0, receiver.max_connections + 1)
    current = rng.sample(pool, min(len(pool), slots))
    everyone = pool + [receiver]
    if rng.random() < 0.5:
        candidates = everyone[:]
        rng.shuffle(candidates)
    else:  # a budgeted scan's rng.sample order
        candidates = rng.sample(everyone, rng.randint(0, len(everyone)))
    # Match counts: piled onto 0 and `entries` (utilities 1.0 and 0.0)
    # plus a few values in between, so ties are the common case.  An
    # empty receiver matches nowhere.
    matches = {
        n.node_id: 0
        if empty_receiver
        else rng.choice((0, entries, rng.randint(0, entries), rng.randint(0, entries)))
        for n in everyone
    }
    hysteresis = rng.choice((0.0, 0.0, 0.1, 1.0 / entries, 0.5))
    return scheme, receiver, current, candidates, matches, entries, hysteresis


def _kernel(policy, receiver, current, candidates, matches, entries):
    """The kernel recipe: 1 - matches/entries, sources 1.0, masks -inf."""
    counts = np.array([matches[c.node_id] for c in candidates], dtype=np.int64)
    utilities = 1.0 - counts / entries
    blocked = {s.node_id for s in current} | {receiver.node_id}
    for i, c in enumerate(candidates):
        if c.node_id in blocked or not (c.is_source or len(c.working_set) > 0):
            utilities[i] = -math.inf
        elif c.is_source:
            utilities[i] = 1.0
    senders = [
        1.0
        if s.is_source or len(s.working_set) == 0
        else 1.0 - matches[s.node_id] / entries
        for s in current
    ]
    drop, picks, values = policy.decide(
        utilities, senders, receiver.max_connections - len(current)
    )
    drops = [] if drop is None else [current[drop]]
    return drops, [candidates[i] for i in picks], values


@needs_numpy
def test_decide_matches_rewire_decision_for_decision():
    rng = random.Random(20260)
    swaps = fills = idle = 0
    for _ in range(4000):
        scheme, receiver, current, candidates, matches, entries, h = _random_case(rng)
        policy = UtilityRewiring(scheme, hysteresis=h)
        # The scalar oracle reads non-empty peers' usefulness from the
        # memo; empty senders fall through to the real cards (1.0).
        scheme.set_memo(
            {
                ("r", nid): 1.0 - m / entries
                for nid, m in matches.items()
                if nid != "r" and not nid.startswith("e")
            }
        )
        want = policy.rewire(receiver, current, candidates)
        drops, adds, values = _kernel(
            policy, receiver, current, candidates, matches, entries
        )
        assert (drops, adds) == want
        assert values == [scheme.usefulness(receiver, a) for a in adds]
        if drops:
            swaps += 1
        elif adds:
            fills += 1
        else:
            idle += 1
    # The generator must actually exercise every branch.
    assert min(swaps, fills, idle) > 100


@needs_numpy
def test_decide_keeps_list_order_among_ties():
    policy = UtilityRewiring(SummaryScheme(), hysteresis=0.0)
    utilities = np.array([0.5, 1.0, -math.inf, 1.0, 0.5, 0.0, 1.0])
    assert policy.decide(utilities.copy(), [], 2) == (None, [1, 3], [1.0, 1.0])
    assert policy.decide(utilities.copy(), [], 9)[1] == [1, 3, 6, 0, 4]
    # At capacity: the first best candidate against the first worst
    # sender, and an exact hysteresis tie does not swap.
    assert policy.decide(utilities.copy(), [0.5, 0.25, 0.25], 0) == (1, [1], [1.0])
    tight = UtilityRewiring(SummaryScheme(), hysteresis=0.75)
    assert tight.decide(utilities.copy(), [0.25], 0) == (None, [], [])


@needs_numpy
def test_decide_without_usable_candidates():
    policy = UtilityRewiring(SummaryScheme())
    nothing = np.full(3, -math.inf)
    assert policy.decide(nothing.copy(), [0.0], 0) == (None, [], [])
    assert policy.decide(nothing.copy(), [], 2) == (None, [], [])
    assert policy.decide(np.zeros(2), [], 2) == (None, [], [])


# -- epoch utility vectors vs SummaryScheme.usefulness -----------------------


def _swarm(rng: random.Random):
    nodes = []
    for i in range(30):
        roll = rng.random()
        if roll < 0.1:
            nodes.append(OverlayNode(f"s{i}", 50, is_source=True))
        elif roll < 0.25:
            nodes.append(OverlayNode(f"e{i}", 50))
        else:
            # A 12-id universe: many identical minima, many ties.
            ids = rng.sample(range(12), rng.randint(1, 6))
            nodes.append(OverlayNode(f"n{i}", 50, initial_ids=ids))
    return nodes


@needs_numpy
@pytest.mark.parametrize("full_scan", [True, False], ids=["full", "budgeted"])
def test_epoch_scores_equal_scalar_usefulness(full_scan):
    rng = random.Random(7 if full_scan else 8)
    scheme = SummaryScheme("minwise", {"entries": 8, "seed": 3})
    nodes = _swarm(rng)
    cards = columnar._MinwiseCardMatrix(scheme, np)
    eligible = [n for n in nodes if not n.is_source and len(n.working_set) > 0]
    slots = [cards.slot_of(n) for n in eligible]
    rows = cards.matrix[slots]
    receivers = [n for n in nodes if not n.is_source]
    scores = columnar._EpochScores(np, nodes, eligible, rows, receivers, full_scan)
    for receiver in receivers:
        others = [n for n in nodes if n is not receiver]
        current = rng.sample(others, rng.randint(0, 4))
        candidates = nodes if full_scan else rng.sample(nodes, 10)
        utilities, senders, blocked = scores.score(receiver, current, candidates)
        assert senders == [scheme.usefulness(receiver, s) for s in current]
        masked = {c.node_id for c in current} | {receiver.node_id}
        assert sorted(blocked) == [
            i for i, c in enumerate(candidates) if c.node_id in masked
        ]
        for i, c in enumerate(candidates):
            if i in blocked:
                continue
            if c.is_source or len(c.working_set) > 0:
                assert utilities[i] == scheme.usefulness(receiver, c)
            else:
                assert utilities[i] == -math.inf


@needs_numpy
@pytest.mark.parametrize("full_scan", [True, False], ids=["full", "budgeted"])
def test_epoch_scores_without_any_card(full_scan):
    """Only sources and empty peers: no card rows at all."""
    nodes = [OverlayNode("src", 50, is_source=True)] + [
        OverlayNode(f"e{i}", 50) for i in range(4)
    ]
    receivers = nodes[1:]
    scores = columnar._EpochScores(np, nodes, [], None, receivers, full_scan)
    for receiver in receivers:
        current = [nodes[0], nodes[4]] if receiver is not nodes[4] else [nodes[0]]
        utilities, senders, _ = scores.score(receiver, current, nodes)
        assert utilities.tolist()[0] == 1.0
        masked = {receiver.node_id} | {s.node_id for s in current}
        assert all(
            v == -math.inf
            for n, v in zip(nodes[1:], utilities.tolist()[1:])
            if n.node_id not in masked
        )
        assert senders == [1.0] * len(current)


# -- engine parity and fallback pins ------------------------------------------


def _with_engine(spec, engine):
    return spec.with_override("measurement.engine", engine)


@pytest.fixture
def decisions(monkeypatch):
    """Counts kernel decisions and records each vectorised epoch's mode."""
    seen = {"decide": 0, "epochs": []}
    decide = UtilityRewiring.decide
    epoch = columnar.ColumnarOverlaySimulator._reconfigure_vectorized

    def counting_decide(self, *args, **kwargs):
        seen["decide"] += 1
        return decide(self, *args, **kwargs)

    def recording_epoch(self, scheme, memo, cards, kernel):
        seen["epochs"].append(kernel)
        return epoch(self, scheme, memo, cards, kernel)

    monkeypatch.setattr(UtilityRewiring, "decide", counting_decide)
    monkeypatch.setattr(
        columnar.ColumnarOverlaySimulator, "_reconfigure_vectorized", recording_epoch
    )
    return seen


@pytest.mark.parametrize(
    "numpy_on",
    [pytest.param(True, marks=needs_numpy), False],
    ids=["numpy", "no-numpy"],
)
@pytest.mark.parametrize("scan_budget", [0, 5], ids=["full", "budget5"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_engine_parity_random_overlay(
    seed, scan_budget, numpy_on, monkeypatch, decisions
):
    if not numpy_on:
        monkeypatch.setattr(batch, "_numpy", lambda: None)
    spec = (
        specs.random_overlay(num_peers=14, target=80, seed=seed)
        .with_override("reconfig.policy", "informed")
        .with_override("reconfig.interval", 3.0)
        .with_override("reconfig.scan_budget", scan_budget)
    )
    ref = run(_with_engine(spec, "reference"))
    col = run(_with_engine(spec, "columnar"))
    assert col.metrics == ref.metrics
    assert col.completed == ref.completed
    assert ref.metrics["reconfigurations"] > 0
    if numpy_on:
        assert decisions["epochs"] and all(decisions["epochs"])
        assert decisions["decide"] > 0
    else:
        assert decisions["epochs"] == [] and decisions["decide"] == 0


class _SubclassedRewiring(UtilityRewiring):
    """Same decisions, but an override the kernel must not second-guess."""

    def rewire(self, receiver, current_senders, candidates):
        return super().rewire(receiver, current_senders, candidates)


def _run_built(spec, engine, swap_policy):
    built = build(_with_engine(spec, engine))
    sim = built.scenario.simulator
    if swap_policy:
        old = sim.rewiring
        sim.rewiring = _SubclassedRewiring(
            old.scheme, hysteresis=old.hysteresis, rng=old.rng
        )
    return built.run()


class TestFallbacksKeepTheMemoPath:
    @needs_numpy
    def test_catalog_scheme(self, decisions):
        spec = specs.cdn_catalog(
            regionals=2, edge_peers=6, objects=3, target=36, seed=5
        )
        ref = run(_with_engine(spec, "reference"))
        col = run(_with_engine(spec, "columnar"))
        assert col.metrics == ref.metrics
        assert decisions["epochs"] and not any(decisions["epochs"])
        assert decisions["decide"] == 0

    @needs_numpy
    def test_rewire_override(self, decisions):
        spec = specs.random_overlay(num_peers=12, target=80, seed=6).with_override(
            "reconfig.interval", 3.0
        )
        ref = _run_built(spec, "reference", swap_policy=True)
        col = _run_built(spec, "columnar", swap_policy=True)
        assert col.metrics == ref.metrics
        assert decisions["epochs"] and not any(decisions["epochs"])
        assert decisions["decide"] == 0
        # The override changes nothing, so the kernel run agrees too.
        assert _run_built(spec, "columnar", swap_policy=False).metrics == ref.metrics
        assert decisions["decide"] > 0

    @pytest.mark.parametrize(
        "summary",
        [
            {"kind": "bloom"},
            {"kind": "minwise", "universe": (1 << 62) + 1},
        ],
        ids=["bloom", "universe-past-2^62"],
    )
    def test_cards_unavailable(self, summary, decisions):
        spec = (
            specs.random_overlay(num_peers=8, target=60, seed=3)
            .with_override("reconfig.policy", "informed")
            .with_override("reconfig.interval", 3.0)
            .with_override("reconfig.summary.kind", summary["kind"])
        )
        if "universe" in summary:
            spec = spec.with_override(
                "reconfig.summary.params.universe", summary["universe"]
            )
        ref = run(_with_engine(spec, "reference"))
        col = run(_with_engine(spec, "columnar"))
        assert col.metrics == ref.metrics
        assert ref.metrics["reconfig_epochs"] > 0
        assert decisions["epochs"] == [] and decisions["decide"] == 0


# -- card rows under churn -----------------------------------------------------


@needs_numpy
def test_card_rows_bounded_under_node_turnover():
    """Departed nodes' card rows are pruned, and their rows reused."""
    spec = (
        specs.random_overlay(num_peers=10, target=400, seed=4, with_physical=False)
        .with_override("reconfig.policy", "informed")
        .with_override("reconfig.interval", 1.0)
        .with_override("measurement.engine", "columnar")
    )
    sim = build(spec).scenario.simulator
    rng = random.Random(4)
    for wave in range(40):
        sim.tick()
        assert len(sim._cards) <= len(sim.nodes)
        # Churn with fresh ids: two peers leave, two new ones join.
        leaving = rng.sample([n for n in sim.nodes.values() if not n.is_source], 2)
        for node in leaving:
            sim.remove_node(node.node_id)
        for k in range(2):
            sim.add_node(
                OverlayNode(
                    f"w{wave}-{k}", 400, initial_ids=rng.sample(range(10_000), 20)
                )
            )
    assert sim.reconfig_epochs >= 40
    # Eighty ids came and went, yet freed rows were reused: the matrix
    # never outgrew its first 64-row allocation.
    assert sim._cards.matrix.shape[0] == 64
