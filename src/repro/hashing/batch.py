"""Vectorised hashing hot paths shared across summary adapters.

Every summary structure in the library reduces to one of two per-key
kernels: a linear permutation ``(a*x + b) mod u`` (min-wise sketches)
or the splitmix64 finaliser (:func:`repro.hashing.mix.mix64` — Bloom
indices, mod-k sampling, hash-set summaries, ART value hashes).
Building a summary evaluates one of them over the whole working set,
so this module provides numpy-batched versions that are *bit-identical*
to the scalar loops — adapters can switch freely between the two
without changing any wire value.

numpy is imported lazily so the scalar library stays importable in
minimal environments; every helper falls back to the scalar kernel
when numpy is unavailable or the inputs exceed 64-bit-safe ranges.
"""

from typing import Iterable, List, Optional, Sequence

from repro.hashing.mix import mix64

_MASK64 = (1 << 64) - 1

# splitmix64 constants, mirrored from repro.hashing.mix.
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MUL1 = 0xBF58476D1CE4E5B9
_SM_MUL2 = 0x94D049BB133111EB


def _numpy():
    """The numpy module, or None when the environment lacks it."""
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - exercised only without numpy
        return None
    return np


def _mix64_np(z, seed: int, np):
    """splitmix64 over a uint64 ndarray — the array-native mix kernel."""
    with np.errstate(over="ignore"):
        z = z + np.uint64(((seed + 1) * _SM_GAMMA) & _MASK64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_MUL1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_MUL2)
        return z ^ (z >> np.uint64(31))


def mix64_batch(keys: Sequence[int], seed: int = 0) -> List[int]:
    """Vectorised :func:`repro.hashing.mix.mix64` over many keys.

    Returns plain Python ints, identical to ``[mix64(x, seed) for x in
    keys]``.
    """
    np = _numpy()
    key_list = list(keys)
    if np is None or not key_list:
        return [mix64(x, seed) for x in key_list]
    if any(x < 0 or x > _MASK64 for x in key_list):
        # mix64 masks high bits implicitly via + seed*gamma & mask; keys
        # beyond 64 bits need Python-int arithmetic to match exactly.
        return [mix64(x, seed) for x in key_list]
    z = _mix64_np(np.asarray(key_list, dtype=np.uint64), seed, np)
    return [int(v) for v in z]


#: Key-chunk width for the permutation-minima matrix: bounds the
#: temporary at ``len(family) * 2^16 * 8`` bytes (64 MB at 128 maps).
_MINIMA_CHUNK = 1 << 16


def _family_columns(family, np):
    """Cached ``(a, b)`` uint64 coefficient vectors for a permutation family.

    Families are shared, long-lived objects (peers fix them off-line),
    so the coefficient vectors are built once and memoised on the
    instance.
    """
    cols = getattr(family, "_batch_columns", None)
    if cols is None:
        count = len(family)
        a = np.fromiter((p.a for p in family), dtype=np.uint64, count=count)
        b = np.fromiter((p.b for p in family), dtype=np.uint64, count=count)
        cols = (a, b)
        family._batch_columns = cols
    return cols


def _minima_array(family, key_list: List[int], np):
    """uint64 minima of a non-empty key list, or None off the numpy path.

    Evaluates every ``(a*x + b) mod u`` map over all keys at once: a
    keys-by-permutations matrix per chunk, transformed in place and
    reduced down its contiguous axis.  ``a*x + b`` stays below 2^64 for
    ``a, b, x < u <= 2^32``, so the uint64 arithmetic is exact; chunking
    the key axis caps the temporary, and the chunkwise elementwise
    minimum equals the single-pass minimum.  Returns None when the
    universe is too wide or a key does not fit uint64 (negative or
    wider than 64 bits) — the caller's scalar path then rejects it.

    Raises:
        ValueError: if any key falls outside ``[0, u)``.
    """
    u = family.universe_size
    if u > 1 << 32:
        return None
    try:
        keys64 = np.asarray(key_list, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError):
        return None
    # Vectorised range check replaces a per-key Python loop.
    if int(keys64.max()) >= u:
        raise ValueError("key outside the family's universe")
    a, b = _family_columns(family, np)
    modulus = np.uint64(u)
    minima = None
    for start in range(0, len(keys64), _MINIMA_CHUNK):
        block = np.multiply.outer(keys64[start : start + _MINIMA_CHUNK], a)
        block += b
        block %= modulus
        part = block.min(axis=0)
        minima = part if minima is None else np.minimum(minima, part, out=minima)
    return minima


def permutation_minima(family, keys: Iterable[int]) -> List[Optional[int]]:
    """Per-permutation minima of ``keys`` under a permutation family.

    The batched core of :meth:`repro.sketches.MinwiseSketch.
    build_vectorized`, shared with the reconcile adapters: one
    vectorised pass over all keys and maps rather than a per-map Python
    loop.  Identical to the scalar loop; an empty key set yields
    all-``None`` minima.

    Raises:
        ValueError: if any key falls outside ``[0, u)``.
    """
    key_list = list(keys)
    u = family.universe_size
    if not key_list:
        return [None] * len(family)
    np = _numpy()
    if np is not None:
        minima = _minima_array(family, key_list, np)
        if minima is not None:
            return minima.tolist()
    # Wide universes overflow uint64 (and no-numpy environments):
    # Python ints per permutation, still a single pass per map.
    for x in key_list:
        if not 0 <= x < u:
            raise ValueError("key outside the family's universe")
    return [min((p.a * x + p.b) % u for x in key_list) for p in family]


def permutation_minima_fold(
    family, keys: Iterable[int], floor: Sequence[Optional[int]]
) -> List[Optional[int]]:
    """Elementwise ``min(floor, permutation_minima(keys))`` in one pass.

    The incremental-absorb kernel: ``floor`` is an existing minima
    vector and ``keys`` the delta being folded in; min is associative,
    so the result equals a from-scratch build over the union — exact
    integers, so the numpy and scalar paths are bit-identical.  ``None``
    floor entries (an empty prior sketch) take the delta's value.  The
    fused path avoids materialising the delta's Python list when both
    sides are plain ints; mixed/None floors fall back to composing the
    two scalar steps.
    """
    if len(floor) != len(family):
        raise ValueError(
            f"floor vector has {len(floor)} entries, family expects "
            f"{len(family)}"
        )
    key_list = list(keys)
    if not key_list:
        return list(floor)
    np = _numpy()
    if np is not None and None not in floor:
        minima = _minima_array(family, key_list, np)
        if minima is not None:
            merged = np.array(floor, dtype=np.uint64)
            np.minimum(merged, minima, out=merged)
            return merged.tolist()
    delta = permutation_minima(family, key_list)
    return [
        d if m is None else (m if d is None else min(m, d))
        for m, d in zip(floor, delta)
    ]


#: Exclusive bound on ``m * (k + 1)`` for the uint64 probe arithmetic.
_PROBE_LIMIT = 1 << 63


def bloom_key_hashes(hashes, keys: Sequence[int]):
    """``(h1, h2 | 1)`` uint64 key-hash vectors, or None off the numpy path.

    The first half of :func:`bloom_index_matrix`: the two 64-bit
    splitmix64 hashes behind ``hashes.indices``, before any reduction
    modulo ``m``.  They depend only on the hash seed, so a caller that
    probes one key set against many filters of that seed hashes it once
    and reduces per filter with :func:`bloom_probe_indices`.  Returns
    None when numpy is unavailable, the key list is empty, or a key
    falls outside ``[0, 2^64)`` — callers then take the scalar loop.
    """
    key_list = list(keys)
    np = _numpy()
    if np is None or not key_list:
        return None
    if any(x < 0 or x > _MASK64 for x in key_list):
        return None
    keys64 = np.asarray(key_list, dtype=np.uint64)
    h1 = _mix64_np(keys64, hashes._seed1, np)
    h2 = _mix64_np(keys64, hashes._seed2, np) | np.uint64(1)
    return h1, h2


def bloom_probe_indices(key_hashes, m: int, k: int):
    """``(n, k)`` uint64 probe indices of hashed keys, or None.

    The second half of :func:`bloom_index_matrix`: row ``i`` holds
    ``[(h1 + j*h2) % m for j in range(k)]`` for the ``i``-th pair of
    :func:`bloom_key_hashes`.  Returns None when numpy is unavailable
    or the ``(k+1)*m`` intermediate would overflow uint64.
    """
    np = _numpy()
    if np is None or m * (k + 1) >= _PROBE_LIMIT:
        return None
    # The scalar loop computes (h1 + i*h2) % m in unbounded Python ints;
    # reducing h1 and h2 mod m first keeps every intermediate below
    # (k+1)*m — uint64-safe — while yielding the identical residues.
    h1, h2 = key_hashes
    modulus = np.uint64(m)
    steps = np.arange(k, dtype=np.uint64)
    return ((h1 % modulus)[:, None] + steps[None, :] * (h2 % modulus)[:, None]) % modulus


def bloom_index_matrix(hashes, keys: Sequence[int]):
    """``(n, k)`` uint64 probe-index matrix, or None off the numpy path.

    The array-native core of :func:`bloom_index_rows`: row ``i`` holds
    ``hashes.indices(keys[i])`` exactly.  It is
    :func:`bloom_key_hashes` followed by :func:`bloom_probe_indices`, so
    filter insertion and every batched query share one probe formula;
    None from either step means the caller takes the scalar loop.
    """
    key_hashes = bloom_key_hashes(hashes, keys)
    if key_hashes is None:
        return None
    return bloom_probe_indices(key_hashes, hashes.m, hashes.k)


def bloom_index_rows(hashes, keys: Sequence[int]) -> List[List[int]]:
    """Vectorised :meth:`repro.hashing.families.BloomHashes.indices` rows.

    One ``[g_0(x), ..., g_{k-1}(x)]`` row per key, identical to the
    scalar double-hashing loop.
    """
    key_list = list(keys)
    rows = bloom_index_matrix(hashes, key_list)
    if rows is None:
        return [hashes.indices(x) for x in key_list]
    return [[int(v) for v in row] for row in rows]


__all__ = [
    "mix64_batch",
    "permutation_minima",
    "permutation_minima_fold",
    "bloom_key_hashes",
    "bloom_probe_indices",
    "bloom_index_matrix",
    "bloom_index_rows",
]
