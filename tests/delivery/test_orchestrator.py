"""Tests for calling-card-driven sender selection and load balancing."""

import random

import pytest

from repro.delivery.orchestrator import (
    CandidateSender,
    estimated_union_size,
    group_identical_senders,
    select_senders,
    split_demand,
)
from repro.hashing.permutations import PermutationFamily
from repro.reconcile.adapters import MinwiseSummary
from repro.sketches import MinwiseSketch

UNIVERSE = 1 << 32


@pytest.fixture(scope="module")
def family():
    """Min-wise card parameters: 192 permutations, family seed 55."""
    return {"entries": 192, "universe": UNIVERSE, "seed": 55}


def candidate(peer_id, ids, family):
    return CandidateSender(peer_id, MinwiseSummary.build(ids, **family), len(set(ids)))


class TestCardParity:
    """Min-wise cards agree with the MinwiseSketch reference bit for bit."""

    def test_minima_resemblance_and_merge_match_the_sketch(self, family):
        rng = random.Random(8)
        a = rng.sample(range(UNIVERSE), 300)
        b = a[:150] + rng.sample(range(UNIVERSE), 150)
        perms = PermutationFamily(192, UNIVERSE, seed=55)
        ref_a = MinwiseSketch.build_vectorized(a, perms)
        ref_b = MinwiseSketch.build_vectorized(b, perms)
        card_a = MinwiseSummary.build(a, **family)
        card_b = MinwiseSummary.build(b, **family)
        assert card_a.minima == ref_a.minima
        assert card_a.estimate_resemblance(card_b) == ref_a.estimate_resemblance(ref_b)
        assert card_a.merge(card_b).minima == ref_a.union(ref_b).minima

    def test_empty_cards(self, family):
        perms = PermutationFamily(192, UNIVERSE, seed=55)
        empty = MinwiseSummary.build([], **family)
        full = MinwiseSummary.build(range(50), **family)
        ref_empty = MinwiseSketch.build_vectorized([], perms)
        ref_full = MinwiseSketch.build_vectorized(range(50), perms)
        assert empty.estimate_resemblance(empty) == 0.0
        assert empty.estimate_resemblance(full) == ref_empty.estimate_resemblance(
            ref_full
        )


class TestUnionEstimate:
    def test_union_size_tracks_truth(self, family):
        rng = random.Random(1)
        shared = rng.sample(range(UNIVERSE), 500)
        a = set(shared + rng.sample(range(UNIVERSE), 500))
        b = set(shared + rng.sample(range(UNIVERSE), 500))
        est = estimated_union_size(
            MinwiseSummary.build(a, **family), len(a),
            MinwiseSummary.build(b, **family), len(b),
        )
        assert abs(est - len(a | b)) / len(a | b) < 0.1


class TestSelectSenders:
    def _receiver(self, ids, family):
        return MinwiseSummary.build(ids, **family), len(set(ids))

    def test_prefers_complementary_content(self, family):
        rng = random.Random(2)
        receiver_ids = set(rng.sample(range(0, 1 << 20), 800))
        card, size = self._receiver(receiver_ids, family)
        # c_same mostly overlaps receiver; c_new is disjoint.
        c_same = candidate(
            "same", list(receiver_ids)[:700] + rng.sample(range(1 << 21, 1 << 22), 100),
            family,
        )
        c_new = candidate("new", rng.sample(range(1 << 22, 1 << 23), 800), family)
        result = select_senders(card, size, [c_same, c_new], max_senders=1)
        assert result.chosen == ["new"]

    def test_rejects_identical_candidates(self, family):
        rng = random.Random(3)
        ids = rng.sample(range(UNIVERSE), 600)
        card, size = self._receiver(ids, family)
        twin = candidate("twin", ids, family)
        result = select_senders(card, size, [twin], max_senders=2)
        assert result.chosen == []
        assert result.rejected_identical == ["twin"]

    def test_greedy_covers_complementary_pair(self, family):
        rng = random.Random(4)
        receiver_ids = rng.sample(range(0, 1 << 18), 400)
        card, size = self._receiver(receiver_ids, family)
        half1 = candidate("h1", rng.sample(range(1 << 20, 1 << 21), 500), family)
        half2 = candidate("h2", rng.sample(range(1 << 22, 1 << 23), 500), family)
        # A near-duplicate of h1 that offers nothing extra once h1 chosen.
        dup = CandidateSender("dup", half1.card, half1.set_size)
        result = select_senders(card, size, [half1, dup, half2], max_senders=2)
        assert set(result.chosen) == {"h1", "h2"} or set(result.chosen) == {"dup", "h2"}
        # Coverage estimate approaches the true union.
        assert result.estimated_coverage == pytest.approx(1400, rel=0.1)

    def test_min_gain_stops_early(self, family):
        rng = random.Random(5)
        receiver_ids = rng.sample(range(UNIVERSE), 500)
        card, size = self._receiver(receiver_ids, family)
        tiny = candidate("tiny", list(receiver_ids)[:499], family)
        result = select_senders(card, size, [tiny], max_senders=3, min_gain=5.0)
        assert result.chosen == []

    def test_zero_slots(self, family):
        card = MinwiseSummary.build(range(100), **family)
        result = select_senders(card, 100, [], max_senders=0)
        assert result.chosen == []

    def test_negative_slots_rejected(self, family):
        card = MinwiseSummary.build(range(10), **family)
        with pytest.raises(ValueError):
            select_senders(card, 10, [], max_senders=-1)


class TestGrouping:
    def test_identical_sets_grouped(self, family):
        rng = random.Random(6)
        ids_a = rng.sample(range(UNIVERSE), 400)
        ids_b = rng.sample(range(UNIVERSE), 400)
        cands = [
            candidate("a1", ids_a, family),
            candidate("a2", ids_a, family),
            candidate("b1", ids_b, family),
        ]
        groups = {frozenset(g) for g in group_identical_senders(cands)}
        assert frozenset({"a1", "a2"}) in groups
        assert frozenset({"b1"}) in groups

    def test_distinct_sets_not_grouped(self, family):
        rng = random.Random(7)
        cands = [
            candidate(f"p{i}", rng.sample(range(UNIVERSE), 300), family)
            for i in range(4)
        ]
        groups = group_identical_senders(cands)
        assert len(groups) == 4


class TestSplitDemand:
    def test_total_conserved(self):
        groups = [["a", "b"], ["c"], ["d", "e", "f"]]
        alloc = split_demand(100, groups, rng=random.Random(1))
        assert sum(alloc.values()) == 100
        assert set(alloc) == {"a", "b", "c", "d", "e", "f"}

    def test_even_within_group(self):
        alloc = split_demand(90, [["a", "b", "c"]], rng=random.Random(2))
        assert all(v == 30 for v in alloc.values())

    def test_even_across_groups(self):
        alloc = split_demand(60, [["a"], ["b"], ["c"]], rng=random.Random(3))
        assert all(v == 20 for v in alloc.values())

    def test_empty_groups(self):
        assert split_demand(10, []) == {}

    def test_negative_demand_rejected(self):
        with pytest.raises(ValueError):
            split_demand(-1, [["a"]])
