"""Peering policies: admission control and utility-driven rewiring.

Section 4's closing point: "Equipped with similarity estimation, overlay
management may explicitly avoid connecting nodes with identical content."
These policies plug into :class:`~repro.overlay.simulator.OverlaySimulator`
and make the overlay *adaptive* in the paper's sense — connections form,
are judged by their informed utility, and are replaced when better-suited
peers exist.

The utility signal is pluggable: a :class:`SummaryScheme` names any
registered :class:`~repro.reconcile.base.Summary` kind (min-wise, Bloom,
mod-k, CPI, ...) and estimates peer usefulness through that structure's
own reconciliation surface, with the control bytes each exchanged card
would cost reported honestly via ``wire_bytes``.  :func:`default_scheme`
is the historical min-wise calling card every overlay node publishes.
"""

import math
import random
from typing import Any, Dict, List, Mapping, Optional, Protocol, Tuple

from repro.overlay.node import OverlayNode
from repro.reconcile.base import Summary
from repro.reconcile.registry import summary_class
from repro.seeding import default_rng


class SummaryScheme:
    """Which summary kind estimates peer utility, and how.

    The overlay's counterpart of :class:`~repro.reconcile.SummaryPolicy`:
    one scheme is shared by a simulator's admission and rewiring policies
    so every utility judgement in a run flows through the same summary
    structure.  Cards are built through
    :meth:`~repro.overlay.node.OverlayNode.summary_card`, which stamps
    each card with the working set's version and brings a stale card
    current by absorbing the journalled delta when the kind supports
    incremental updates — so a reconfiguration epoch scanning many
    candidate pairs pays per new symbol, not per working-set size.

    Args:
        kind: registered summary kind (``"minwise"``, ``"bloom"``, ...).
        params: that adapter's build parameters.
    """

    def __init__(self, kind: str = "minwise", params: Optional[Mapping[str, Any]] = None):
        summary_class(kind)  # fail fast on unknown kinds
        self.kind = kind
        self.params: Tuple[Tuple[str, Any], ...] = (
            tuple(sorted(params.items())) if params else ()
        )
        self._memo: Optional[Dict[Tuple[str, str], float]] = None

    def set_memo(self, memo: Optional[Dict[Tuple[str, str], float]]) -> None:
        """Install (or clear, with ``None``) a usefulness memo.

        The memo maps ``(receiver_id, candidate_id)`` to the exact
        float :meth:`usefulness` would compute; misses are computed and
        cached.  Batched engines prefill it with vectorised values and
        share one dict across the admission and rewiring schemes of an
        epoch, so the scan-once-decide-many pattern stops recomputing
        identical card comparisons.  The caller owns validity: the memo
        must be cleared (or replaced) whenever any working set may have
        changed since it was filled.
        """
        self._memo = memo

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def card_of(self, node: OverlayNode) -> Summary:
        """The node's (cached) summary card under this scheme."""
        return node.summary_card(self.kind, self.params)

    def resemblance(self, ours: Summary, theirs: Summary) -> float:
        """Estimated ``|A ∩ B| / |A ∪ B|`` between two same-scheme cards.

        Min-wise cards use their native matching-positions estimator —
        the exact float :class:`~repro.sketches.MinwiseSketch` computes.
        Every other kind derives resemblance from its symmetric-difference
        estimate by inclusion-exclusion (the inverse map, so an unclamped
        estimate round-trips exactly); an exceeded CPI bound reads as
        resemblance 0.0 — a discrepancy too large to reconcile *is*
        evidence of low overlap.
        """
        if self.kind == "minwise":
            return ours.estimate_resemblance(theirs)  # type: ignore[attr-defined]
        from repro.exact.cpi import DiscrepancyExceeded

        try:
            d = ours.estimate_difference(theirs)
        except DiscrepancyExceeded:
            return 0.0
        total = ours.set_size + theirs.set_size
        union = (total + d) / 2.0
        if union <= 0:
            return 0.0
        intersection = (total - d) / 2.0
        return min(1.0, max(0.0, intersection / union))

    def usefulness(self, receiver: OverlayNode, candidate: OverlayNode) -> float:
        """1 - resemblance: how much new content ``candidate`` offers.

        Sources are always maximally useful (they mint fresh symbols);
        this is the admission-control signal from Section 4.
        """
        if candidate.is_source:
            return 1.0
        memo = self._memo
        if memo is not None:
            key = (receiver.node_id, candidate.node_id)
            hit = memo.get(key)
            if hit is not None:
                return hit
            value = 1.0 - self.resemblance(
                self.card_of(receiver), self.card_of(candidate)
            )
            memo[key] = value
            return value
        return 1.0 - self.resemblance(
            self.card_of(receiver), self.card_of(candidate)
        )

    def card_wire_bytes(self, node: OverlayNode) -> int:
        """Honest wire cost of shipping the node's card once."""
        return self.card_of(node).wire_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SummaryScheme(kind={self.kind!r}, params={dict(self.params)!r})"


def default_scheme() -> SummaryScheme:
    """The universally agreed min-wise calling card (peers agree off-line).

    128 permutations over the 2^32 key universe, family seed 99.  A
    fresh scheme per call: a scheme carries the usefulness memo its
    simulator installs, so sharing one instance would share the memo.
    """
    return SummaryScheme("minwise", {"entries": 128, "universe": 1 << 32, "seed": 99})


class AdmissionPolicy(Protocol):
    """Decides whether a receiver should accept a candidate sender."""

    def admit(
        self, receiver: OverlayNode, candidate: OverlayNode
    ) -> bool: ...


class SketchAdmission:
    """Admit a sender iff its estimated usefulness clears a threshold.

    A threshold of 0 admits everyone except exact-duplicate working sets
    (up to summary noise); the paper's "simple admission control".  Any
    :class:`SummaryScheme` supplies the estimate.
    """

    def __init__(self, scheme: SummaryScheme, min_usefulness: float = 0.02):
        if not 0.0 <= min_usefulness <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        self.scheme = scheme
        self.min_usefulness = min_usefulness

    def admit(self, receiver: OverlayNode, candidate: OverlayNode) -> bool:
        if candidate.is_source:
            return True
        if len(candidate.working_set) == 0:
            return False
        return self.scheme.usefulness(receiver, candidate) >= self.min_usefulness


class OpenAdmission:
    """Admit every candidate that has anything to offer.

    The uninformed baseline (the paper's static and random arms): no
    summaries are consulted, only the structural guards — empty
    candidates cannot serve, sources always can.
    """

    def admit(self, receiver: OverlayNode, candidate: OverlayNode) -> bool:
        return candidate.is_source or len(candidate.working_set) > 0


class ReconfigurationPolicy(Protocol):
    """Periodically rewires a receiver's sender slots."""

    def rewire(
        self,
        receiver: OverlayNode,
        current_senders: List[OverlayNode],
        candidates: List[OverlayNode],
    ) -> Tuple[List[OverlayNode], List[OverlayNode]]: ...


def _usable_candidates(
    receiver: OverlayNode,
    current_senders: List[OverlayNode],
    candidates: List[OverlayNode],
) -> List[OverlayNode]:
    """Candidates a rewiring pass may consider: not self, not already a
    sender, and holding something to send (zero-working-set peers are
    rejected outright)."""
    current_ids = {s.node_id for s in current_senders}
    return [
        c
        for c in candidates
        if c.node_id != receiver.node_id
        and c.node_id not in current_ids
        and (c.is_source or len(c.working_set) > 0)
    ]


class UtilityRewiring:
    """Drop the least-useful sender when a clearly better candidate exists.

    Utility is the scheme's usefulness estimate; a swap happens only when
    the best candidate beats the worst current sender by ``hysteresis``
    (avoiding the oscillation the paper's "frequent reconnections" warn
    about).  Returns (senders_to_drop, senders_to_add).  Sources are
    never dropped: their utility is the 1.0 maximum, which no candidate
    can exceed by any non-negative hysteresis.
    """

    def __init__(
        self,
        scheme: SummaryScheme,
        hysteresis: float = 0.1,
        rng: Optional[random.Random] = None,
    ):
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        self.scheme = scheme
        self.hysteresis = hysteresis
        self.rng = rng if rng is not None else default_rng("overlay.reconfiguration")

    def rewire(
        self,
        receiver: OverlayNode,
        current_senders: List[OverlayNode],
        candidates: List[OverlayNode],
    ) -> Tuple[List[OverlayNode], List[OverlayNode]]:
        usable = _usable_candidates(receiver, current_senders, candidates)
        if not usable:
            return [], []

        def utility(node: OverlayNode) -> float:
            return self.scheme.usefulness(receiver, node)

        # Fill empty slots first.
        free_slots = receiver.max_connections - len(current_senders)
        additions: List[OverlayNode] = []
        if free_slots > 0:
            ranked = sorted(usable, key=utility, reverse=True)
            additions = [c for c in ranked[:free_slots] if utility(c) > 0]
            return [], additions

        if not current_senders:
            return [], []
        worst = min(current_senders, key=utility)
        best = max(usable, key=utility)
        if utility(best) > utility(worst) + self.hysteresis:
            return [worst], [best]
        return [], []

    def decide(
        self,
        utilities,
        sender_utilities: List[float],
        free_slots: int,
    ) -> Tuple[Optional[int], List[int], List[float]]:
        """:meth:`rewire`'s decision over precomputed utilities.

        Batched engines call this instead of :meth:`rewire` when they
        can produce every utility at once.  ``utilities`` is a float64
        numpy vector over the candidate list, with ``-inf`` wherever
        :meth:`rewire` would not consider the candidate (the receiver
        itself, a current sender, an empty non-source); the call
        overwrites it.
        ``sender_utilities`` holds each current sender's usefulness as a
        Python float and ``free_slots`` is ``max_connections`` minus the
        current sender count.

        Returns ``(drop, adds, add_utilities)``: the index of the sender
        to drop (or None), the candidate indices to add in :meth:`rewire`'s
        order, and their utilities.  Ties resolve exactly as in
        :meth:`rewire`: repeated first-wins argmax reproduces the stable
        descending ``sorted`` (keeping only utilities > 0), and the swap
        takes the first-wins ``max`` candidate and ``min`` sender, with
        the hysteresis compare done in Python floats.
        """
        if len(utilities) == 0:
            return None, [], []
        best = int(utilities.argmax())
        top = float(utilities[best])
        if top == -math.inf:
            return None, [], []  # no usable candidate
        if free_slots > 0:
            adds: List[int] = []
            values: List[float] = []
            while top > 0.0:
                adds.append(best)
                values.append(top)
                if len(adds) == free_slots:
                    break
                utilities[best] = -math.inf
                best = int(utilities.argmax())
                top = float(utilities[best])
            return None, adds, values
        if not sender_utilities:
            return None, [], []
        worst = min(range(len(sender_utilities)), key=sender_utilities.__getitem__)
        if top > sender_utilities[worst] + self.hysteresis:
            return worst, [best], [top]
        return None, [], []


class RandomRewiring:
    """The uninformed baseline: swap a random sender for a random peer.

    Fills free slots with uniformly drawn candidates; at capacity, drops
    one uniformly chosen non-source sender for one uniformly chosen
    candidate.  No summaries are consulted — this is the control arm the
    paper's informed policies are measured against.
    """

    def __init__(self, rng: Optional[random.Random] = None):
        self.rng = rng if rng is not None else default_rng("overlay.reconfiguration")

    def rewire(
        self,
        receiver: OverlayNode,
        current_senders: List[OverlayNode],
        candidates: List[OverlayNode],
    ) -> Tuple[List[OverlayNode], List[OverlayNode]]:
        usable = _usable_candidates(receiver, current_senders, candidates)
        if not usable:
            return [], []
        free_slots = receiver.max_connections - len(current_senders)
        if free_slots > 0:
            return [], self.rng.sample(usable, min(free_slots, len(usable)))
        droppable = [s for s in current_senders if not s.is_source]
        if not droppable:
            return [], []
        return [self.rng.choice(droppable)], [self.rng.choice(usable)]
