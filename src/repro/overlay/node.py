"""Overlay end-systems.

A node owns a working set of encoded symbols, publishes its min-wise
calling card (Section 4), and tracks completion against the file's
recovery target.  Sources hold full content and mint fresh symbols;
partial nodes serve from what they hold.
"""

import itertools
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.delivery.working_set import DEFAULT_KEY_UNIVERSE, WorkingSet


class OverlayNode:
    """One end-system in the overlay.

    Args:
        node_id: unique name.
        target: distinct symbols needed to recover the file (decoding
            overhead included).
        initial_ids: working set at join time.
        is_source: sources hold the whole file and generate fresh
            encoding on demand (never run dry, never redundant).
        max_connections: inbound connection slots (download concurrency).

    Cached summary cards are stamped with the working set's
    :attr:`~repro.delivery.working_set.WorkingSet.version` and, when
    the set grew since the stamp, brought current by *absorbing* the
    journalled delta (Section 4's O(1)-per-symbol maintenance)
    rather than rebuilding — bit-identical either way, which the parity
    suites pin.  Kinds that cannot absorb, and working sets that shrank,
    fall back to the rebuild.
    """

    #: Class-wide switch for the absorb path.  Both paths publish
    #: identical cards; the toggle exists so parity tests and the
    #: incremental-vs-rebuild benchmarks can A/B them.
    incremental_cards: bool = True

    def __init__(
        self,
        node_id: str,
        target: int,
        initial_ids: Iterable[int] = (),
        is_source: bool = False,
        max_connections: int = 4,
        fresh_id_start: Optional[int] = None,
    ):
        if target < 1:
            raise ValueError("target must be positive")
        self.node_id = node_id
        self.target = target
        self.working_set = WorkingSet(initial_ids)
        self.is_source = is_source
        self.max_connections = max_connections
        #: (kind, sorted params) -> (working-set version at build, card).
        self._cards: Dict[
            Tuple[str, Tuple[Tuple[str, Any], ...]], Tuple[int, Any]
        ] = {}
        if is_source:
            start = fresh_id_start if fresh_id_start is not None else (1 << 40)
            self._fresh_ids = itertools.count(start)
        else:
            self._fresh_ids = None
        self.joined_at_tick = 0
        self.completed_at_tick: Optional[int] = None

    # -- content state ------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        """Sources are complete by definition; peers need ``target`` ids."""
        return self.is_source or len(self.working_set) >= self.target

    def receive_symbol(self, symbol_id: int) -> bool:
        """Add one symbol id; True if it was new.

        Cache invalidation is implicit: the working set bumps its
        version stamp, which the cached cards compare against —
        so even ids added to ``working_set`` directly (scenario seeding)
        invalidate correctly.
        """
        return self.working_set.add(symbol_id)

    def mint_fresh_id(self) -> int:
        """Sources only: a fresh encoded-symbol id nobody has seen."""
        if self._fresh_ids is None:
            raise RuntimeError(f"{self.node_id} is not a source")
        return next(self._fresh_ids)

    # -- calling card --------------------------------------------------------

    def summary_card(
        self, kind: str, params: Tuple[Tuple[str, Any], ...] = ()
    ) -> Any:
        """Current working-set summary of any registered kind, cached.

        The node's one card cache — the min-wise calling card of
        Section 4 included.  Builds a
        :class:`~repro.reconcile.base.Summary` through the adapter
        registry, stamps it with the working set's version, and — for
        kinds declaring ``supports_incremental`` — brings a stale card
        current by absorbing the journalled delta instead of rebuilding,
        so a reconfiguration epoch scanning many candidate pairs pays
        per *new symbol*, not per working-set size.  The cache key
        sorts ``params``, so permuted-but-equal tuples share one row.
        Min-wise cards fold ids into the family's ``universe`` first.
        """
        key = (kind, tuple(sorted(params)))
        ws = self.working_set
        version = ws.version
        entry = self._cards.get(key)
        if entry is not None:
            stamp, card = entry
            if stamp == version:
                return card
            if (
                OverlayNode.incremental_cards
                and getattr(card, "supports_incremental", False)
                and card.is_local
            ):
                delta = ws.added_since(stamp)
                if delta is not None:
                    if kind == "minwise":
                        universe = dict(params).get(
                            "universe", DEFAULT_KEY_UNIVERSE
                        )
                        delta = [i % universe for i in delta]
                    card = card.absorb(delta)
                    self._cards[key] = (version, card)
                    return card
        from repro.reconcile import build_summary

        kwargs = dict(params)
        ids: Iterable[int] = ws.ids
        if kind == "minwise":
            universe = kwargs.get("universe", DEFAULT_KEY_UNIVERSE)
            ids = (i % universe for i in ids)
        card = build_summary(kind, ids, **kwargs)
        self._cards[key] = (version, card)
        return card

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "source" if self.is_source else "peer"
        return (
            f"OverlayNode({self.node_id}, {kind}, "
            f"{len(self.working_set)}/{self.target})"
        )
