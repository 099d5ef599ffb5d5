"""Parity matrix for the vectorised Bloom difference estimate.

:meth:`BloomSummary.estimate_difference` counts the local ids another
card's filter holds.  Against a plain Bloom card it hashes the ids once
per seed and probes the filter in one numpy gather; every other case
keeps the scalar ``may_contain`` loop.  The estimate is an integer
count, so each case must equal the scalar loop exactly — with numpy
and with the numpy-free fallback.
"""

import random

import pytest

import repro.hashing.batch as batch
from repro.filters.bloom import BloomFilter
from repro.hashing.families import BloomHashes
from repro.reconcile import build_summary, summary_from_payload
from repro.reconcile.adapters import BloomSummary, CountingBloomSummary
from repro.reconcile.base import clamped_symmetric_difference


@pytest.fixture(params=["numpy", "scalar"])
def lane(request, monkeypatch):
    if request.param == "scalar":
        monkeypatch.setattr(batch, "_numpy", lambda: None)
    elif batch._numpy() is None:
        pytest.skip("numpy unavailable")
    return request.param


def scalar_estimate(local, other):
    """The reference: stream the ids through ``other.may_contain``."""
    present = sum(1 for key in local._local_ids if other.may_contain(key))
    return clamped_symmetric_difference(present, local.set_size, other.set_size)


def forbid_scalar_probes(monkeypatch):
    def probe(self, key):
        raise AssertionError("scalar probe on the kernel path")

    monkeypatch.setattr(BloomFilter, "__contains__", probe)


def overlapping(seed, n_a, n_b, shared, universe=1 << 32):
    rng = random.Random(seed)
    pool = rng.sample(range(universe), n_a + n_b - shared)
    return set(pool[:n_a]), set(pool[n_a - shared :])


CASES = {
    # Auto-sizing gives the two cards different m.
    "auto_sized_m_differs": ({}, {}, (120, 45, 30)),
    "pinned_m_bits": ({"m_bits": 1000}, {"m_bits": 777}, (150, 150, 90)),
    "explicit_k": ({"k_hashes": 2}, {"k_hashes": 7}, (90, 200, 40)),
    "different_seeds": ({"seed": 3}, {"seed": 11}, (100, 100, 50)),
    "empty_local": ({}, {}, (0, 60, 0)),
    "empty_other": ({}, {}, (70, 0, 0)),
    "heavy_load": ({}, {"bits_per_element": 1, "k_hashes": 1}, (300, 300, 100)),
}


class TestKernelParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_plain_bloom_pair(self, case, lane, monkeypatch):
        p_a, p_b, sizes = CASES[case]
        a, b = overlapping(case, *sizes)
        card_a = BloomSummary.build(a, **p_a)
        card_b = BloomSummary.build(b, **p_b)
        expected = (scalar_estimate(card_a, card_b), scalar_estimate(card_b, card_a))
        if lane == "numpy":
            forbid_scalar_probes(monkeypatch)
        assert (
            card_a.estimate_difference(card_b),
            card_b.estimate_difference(card_a),
        ) == expected

    def test_one_card_against_many_seeds(self, lane):
        """The per-seed cache never answers for a different seed."""
        a, _ = overlapping(1, 200, 10, 0)
        card_a = BloomSummary.build(a, seed=0)
        for round_ in range(2):
            for seed in (0, 5, 9, 5):
                b = set(random.Random(seed).sample(sorted(a), 120))
                card_b = BloomSummary.build(b, seed=seed, m_bits=512)
                assert card_a.estimate_difference(card_b) == scalar_estimate(
                    card_a, card_b
                )

    def test_wire_reconstructed_other(self, lane, monkeypatch):
        a, b = overlapping(2, 160, 140, 70)
        card_a = BloomSummary.build(a, seed=4)
        wire_b = summary_from_payload(BloomSummary.build(b, seed=4).to_payload())
        expected = scalar_estimate(card_a, wire_b)
        if lane == "numpy":
            forbid_scalar_probes(monkeypatch)
        assert card_a.estimate_difference(wire_b) == expected

    def test_counting_bloom_other_takes_the_scalar_loop(self, lane, monkeypatch):
        a, b = overlapping(3, 110, 130, 60)
        card_a = BloomSummary.build(a)
        card_b = CountingBloomSummary.build(b)
        expected = scalar_estimate(card_a, card_b)
        monkeypatch.setattr(
            BloomFilter,
            "count_members",
            lambda self, key_hashes: pytest.fail("kernel on a counting card"),
        )
        assert card_a.estimate_difference(card_b) == expected

    def test_counting_bloom_local_against_plain_other(self, lane):
        a, b = overlapping(4, 110, 130, 60)
        card_a = CountingBloomSummary.build(a)
        card_b = BloomSummary.build(b)
        assert card_a.estimate_difference(card_b) == scalar_estimate(card_a, card_b)

    def test_keys_outside_64_bits(self, lane):
        a = {-5, -1, 0, 7, 1 << 63, (1 << 64) - 1, 1 << 64, (1 << 70) + 3}
        b = {-1, 7, (1 << 64) - 1, (1 << 70) + 3, 12}
        card_a = BloomSummary.build(a, m_bits=64, k_hashes=3)
        card_b = BloomSummary.build(b, m_bits=64, k_hashes=3)
        assert card_a.estimate_difference(card_b) == scalar_estimate(card_a, card_b)
        assert card_b.estimate_difference(card_a) == scalar_estimate(card_b, card_a)

    def test_probe_overflow_guard(self, lane, monkeypatch):
        """Past the uint64 bound on ``m*(k+1)`` the scalar loop answers.

        No real filter reaches 2^63 bits, so the bound is lowered until
        these cards cross it.
        """
        a, b = overlapping(5, 90, 90, 45)
        card_a = BloomSummary.build(a, m_bits=800, k_hashes=4)
        card_b = BloomSummary.build(b, m_bits=800, k_hashes=4)
        monkeypatch.setattr(batch, "_PROBE_LIMIT", 800 * 5)
        assert card_b.bloom.count_members(card_b.bloom.key_hashes(a)) is None
        assert card_a.estimate_difference(card_b) == scalar_estimate(card_a, card_b)

    def test_absorb_then_estimate_equals_rebuild(self, lane):
        a, b = overlapping(6, 140, 120, 50)
        delta = set(random.Random(6).sample(range(1 << 32), 60)) | set(
            random.Random(7).sample(sorted(b), 30)
        )
        card_b = BloomSummary.build(b)
        for params in ({}, {"m_bits": 2048}):
            card_a = BloomSummary.build(a, **params)
            card_a.estimate_difference(card_b)  # fills the old card's cache
            absorbed = card_a.absorb(delta)
            rebuilt = BloomSummary.build(a | delta, **params)
            assert absorbed.estimate_difference(card_b) == rebuilt.estimate_difference(
                card_b
            ) == scalar_estimate(rebuilt, card_b)
            assert card_a.estimate_difference(card_b) == scalar_estimate(card_a, card_b)

    def test_registry_built_cards(self, lane):
        a, b = overlapping(8, 100, 100, 80)
        card_a = build_summary("bloom", a, bits_per_element=4, k_hashes=3)
        card_b = build_summary("bloom", b, bits_per_element=4, k_hashes=3)
        assert card_a.estimate_difference(card_b) == scalar_estimate(card_a, card_b)


class TestSplitHashing:
    """``bloom_index_matrix`` is the two halves composed."""

    def test_halves_match_the_scalar_indices(self):
        if batch._numpy() is None:
            pytest.skip("numpy unavailable")
        keys = random.Random(9).sample(range(1 << 40), 50) + [0, (1 << 64) - 1]
        for m, k in ((1, 1), (8, 3), (1000, 5), (12345, 11)):
            hashes = BloomHashes(k, m, seed=m)
            hashed = batch.bloom_key_hashes(hashes, keys)
            rows = batch.bloom_probe_indices(hashed, m, k)
            assert rows.tolist() == [hashes.indices(x) for x in keys]
            assert batch.bloom_index_matrix(hashes, keys).tolist() == rows.tolist()

    def test_probe_guard_at_the_uint64_bound(self):
        """``m*(k+1)`` just under 2^63 is still exact; at 2^63 it declines."""
        np = batch._numpy()
        if np is None:
            pytest.skip("numpy unavailable")
        keys = [0, 1, 2, 3, 1 << 40, (1 << 64) - 1]
        hashed = batch.bloom_key_hashes(BloomHashes(1, 1, seed=2), keys)
        assert batch.bloom_probe_indices(hashed, 1 << 62, 1) is None
        m = (1 << 62) - 1
        h1, h2 = (v.tolist() for v in hashed)
        rows = batch.bloom_probe_indices(hashed, m, 1)
        assert rows.tolist() == [[x % m] for x in h1]
        rows = batch.bloom_probe_indices(hashed, (1 << 61) - 1, 2)
        m = (1 << 61) - 1
        assert rows.tolist() == [[x % m, (x + y) % m] for x, y in zip(h1, h2)]

    def test_halves_decline_like_the_matrix(self, monkeypatch):
        hashes = BloomHashes(3, 64, seed=0)
        assert batch.bloom_key_hashes(hashes, []) is None
        assert batch.bloom_key_hashes(hashes, [1, -1]) is None
        assert batch.bloom_key_hashes(hashes, [1, 1 << 64]) is None
        monkeypatch.setattr(batch, "_numpy", lambda: None)
        assert batch.bloom_key_hashes(hashes, [1, 2]) is None
        assert batch.bloom_index_matrix(hashes, [1, 2]) is None
