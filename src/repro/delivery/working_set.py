"""A peer's working set and its "calling card" summaries.

Section 3's framing: sketches are an end-system's lightweight calling
card; searchable summaries (Bloom filter, ART) cost more but enable
fine-grained reconciliation.  :class:`WorkingSet` owns the symbol-id set
and builds any registered summary of it (:meth:`WorkingSet.summary`),
plus the plain Bloom filter the sender strategies probe.

Every mutation bumps a monotonically increasing :attr:`WorkingSet.
version` stamp, and additions are journalled so a consumer holding a
summary stamped at version ``v`` can fetch exactly the ids added since
``v`` via :meth:`WorkingSet.added_since` and absorb them incrementally
(Section 4's O(1)-per-symbol maintenance) instead of rebuilding from
the full set.  Removals invalidate the journal — shrinking a sketch is
not incremental — so ``added_since`` then answers ``None`` and callers
fall back to a rebuild.
"""

from typing import Iterable, Iterator, List, Optional, Set

from repro.filters import BloomFilter

#: Default universe for symbol keys: 2^32 ids is "large" relative to any
#: simulated file while keeping minwise permutation arithmetic cheap.
DEFAULT_KEY_UNIVERSE = 1 << 32


class WorkingSet:
    """The set of encoded-symbol ids a peer currently holds."""

    def __init__(self, ids: Iterable[int] = ()):
        self._ids: Set[int] = set(ids)
        # Monotone change stamp: bumped once per successful mutation.
        # Initial content counts as version 0 — a summary built now and
        # stamped 0 can absorb everything added later.
        self._version = 0
        # Append-only journal of added ids; entry i was the add that
        # produced version _log_base + i + 1.  Cleared (and re-based) on
        # any removal, which no summary can absorb.
        self._log: List[int] = []
        self._log_base = 0

    # -- change tracking ---------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone stamp, bumped on every successful add or discard."""
        return self._version

    def added_since(self, version: int) -> Optional[List[int]]:
        """Ids added after ``version``, or ``None`` if unrecoverable.

        ``None`` means a removal intervened (or ``version`` predates the
        journal): the caller must rebuild from :attr:`ids`.  An empty
        list means nothing changed.  Ids are returned in insertion
        order, each exactly once.
        """
        if not self._log_base <= version <= self._version:
            return None
        return self._log[version - self._log_base:]

    # -- set behaviour ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, symbol_id: int) -> bool:
        return symbol_id in self._ids

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    @property
    def ids(self) -> Set[int]:
        """A copy of the id set."""
        return set(self._ids)

    def add(self, symbol_id: int) -> bool:
        """Insert; returns True if the symbol was new."""
        if symbol_id in self._ids:
            return False
        self._ids.add(symbol_id)
        self._version += 1
        self._log.append(symbol_id)
        return True

    def update(self, ids: Iterable[int]) -> int:
        """Insert many; returns how many were new."""
        return sum(1 for i in ids if self.add(i))

    def discard(self, symbol_id: int) -> None:
        if symbol_id not in self._ids:
            return
        self._ids.discard(symbol_id)
        self._version += 1
        # Removals cannot be absorbed into grown-only summaries.
        self._log.clear()
        self._log_base = self._version

    # -- ground-truth relations (used by scenario builders and tests) -----

    def containment_in(self, other: "WorkingSet") -> float:
        """True ``|self ∩ other| / |self|`` (1.0 for empty self)."""
        if not self._ids:
            return 1.0
        return len(self._ids & other._ids) / len(self._ids)

    def resemblance_with(self, other: "WorkingSet") -> float:
        """True ``|self ∩ other| / |self ∪ other|``."""
        union = self._ids | other._ids
        if not union:
            return 0.0
        return len(self._ids & other._ids) / len(union)

    # -- the generic summary surface ----------------------------------------

    def summary(self, kind: str, **params):
        """Build any registered :class:`~repro.reconcile.base.Summary`.

        One call covers the whole cost/precision spectrum::

            ws.summary("minwise", entries=128)        # 1KB calling card
            ws.summary("bloom", bits_per_element=8)   # searchable summary
            ws.summary("art", bits_per_element=8)     # reconciliation tree
            ws.summary("cpi", max_discrepancy=64)     # exact baseline

        This is the surface the protocol, the strategies, and the spec
        layer go through; callers that want a concrete structure build
        it directly (e.g. :meth:`~repro.sketches.MinwiseSketch.build`
        over ``ws.ids``).
        """
        from repro.reconcile import build_summary

        return build_summary(kind, self._ids, **params)

    # -- searchable summary --------------------------------------------------

    def bloom_summary(
        self, bits_per_element: int = 8, seed: int = 0
    ) -> BloomFilter:
        """Searchable Bloom summary of the working set (Section 5.2)."""
        return BloomFilter.for_elements(
            self._ids, bits_per_element=bits_per_element, seed=seed
        )
