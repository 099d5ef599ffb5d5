"""Tests for working sets and their calling cards."""

import random

import pytest

from repro.art import ApproximateReconciliationTree
from repro.delivery import WorkingSet
from repro.hashing.permutations import PermutationFamily
from repro.sketches import MinwiseSketch, ModKSketch, RandomSampleSketch


class TestWorkingSetBasics:
    def test_add_and_contains(self):
        ws = WorkingSet([1, 2, 3])
        assert ws.add(4)
        assert not ws.add(4)  # duplicate
        assert 4 in ws
        assert len(ws) == 4

    def test_update_counts_new(self):
        ws = WorkingSet([1, 2])
        assert ws.update([2, 3, 4]) == 2

    def test_discard(self):
        ws = WorkingSet([1])
        ws.discard(1)
        ws.discard(99)  # absent is fine
        assert len(ws) == 0

    def test_ids_returns_copy(self):
        ws = WorkingSet([1, 2])
        ids = ws.ids
        ids.add(3)
        assert 3 not in ws


class TestGroundTruthRelations:
    def test_containment(self):
        a = WorkingSet([1, 2, 3, 4])
        b = WorkingSet([3, 4, 5, 6])
        assert a.containment_in(b) == 0.5

    def test_containment_empty_self(self):
        assert WorkingSet().containment_in(WorkingSet([1])) == 1.0

    def test_resemblance(self):
        a = WorkingSet([1, 2, 3])
        b = WorkingSet([2, 3, 4])
        assert a.resemblance_with(b) == pytest.approx(2 / 4)

    def test_resemblance_both_empty(self):
        assert WorkingSet().resemblance_with(WorkingSet()) == 0.0


class TestCallingCards:
    def test_minwise_sketch_estimates(self):
        rng = random.Random(1)
        fam = PermutationFamily(128, 1 << 32, seed=5)
        shared = rng.sample(range(1 << 30), 500)
        a = WorkingSet(shared + rng.sample(range(1 << 31, 1 << 32), 500))
        b = WorkingSet(shared + rng.sample(range(1 << 30, 1 << 31), 500))
        est = MinwiseSketch.build_vectorized(a.ids, fam).estimate_resemblance(
            MinwiseSketch.build_vectorized(b.ids, fam)
        )
        assert abs(est - a.resemblance_with(b)) < 0.1

    def test_bloom_summary_membership(self):
        ws = WorkingSet(range(500))
        bf = ws.bloom_summary()
        assert all(x in bf for x in range(500))

    def test_art_roundtrip(self):
        rng = random.Random(2)
        a = WorkingSet(rng.sample(range(1 << 30), 400))
        b = WorkingSet(list(a.ids)[:350] + rng.sample(range(1 << 31, 1 << 32), 50))
        art_a = ApproximateReconciliationTree(a.ids, seed=3)
        art_b = ApproximateReconciliationTree(b.ids, seed=3)
        stats = art_b.difference_against(art_a.summary(), correction=4)
        assert set(stats.differences) <= b.ids - a.ids

    def test_sample_sketches(self):
        ws = WorkingSet(range(1000))
        assert len(RandomSampleSketch.build(ws.ids, 64, random.Random(1))) == 64
        mk = ModKSketch.build(ws.ids, 10)
        assert 50 <= len(mk) <= 200
