"""Columnar swarm engine: batched execution for 10k-node overlays.

:class:`ColumnarOverlaySimulator` runs the exact simulation
:class:`~repro.overlay.simulator.OverlaySimulator` defines, but keeps
the per-tick hot state in flat arrays and refreshes per-receiver
artefacts once per receiver instead of once per connection:

* **Per-link credit/loss columns** — every auto-built constant-rate
  link's fractional credit, rate, and loss probability live in float64
  arrays; one vectorised :func:`~repro.sim.links.drain_credit` pass
  replaces N per-object ``packet_budget`` calls each tick.  Custom
  links (jitter, Gilbert-Elliott, traces) keep their per-object path
  untouched.
* **Bulk strategy refresh** — a receiver's Bloom filter / policy
  summary is identical for all of its senders, so the periodic refresh
  builds it once per receiver and fans it out (the reference engine
  rebuilds it per connection).
* **Rewire kernel** — min-wise cards live as rows of a persistent
  int64 matrix, rewritten in place when a node's set changes; an
  informed epoch counts every receiver's matching minima against every
  candidate in blocked numpy batches and hands the resulting utility
  vector to :meth:`~repro.overlay.reconfiguration.UtilityRewiring.decide`,
  which replays :meth:`~repro.overlay.reconfiguration.UtilityRewiring.
  rewire`'s decision (ties included) without a per-candidate Python
  call.  The kernel runs only for a plain ``UtilityRewiring`` over a
  plain min-wise ``SummaryScheme`` whose universe fits int64 rows;
  policy or scheme subclasses (e.g. ``CatalogScheme``) keep their own
  ``rewire()`` and read the same vectorised values through a
  :meth:`~repro.overlay.reconfiguration.SummaryScheme.set_memo` memo,
  and other kinds take the reference epoch under that memo.

Numpy is optional, following the :mod:`repro.hashing.batch` contract:
without it the tick loop falls back to the reference implementation,
the epoch to the reference loop under the usefulness memo (the scalar
``rewire()`` is the kernel's oracle), and the refresh pass keeps its
per-receiver dedup, which is pure Python.

**Parity.** Every branch preserves the reference engine's RNG
consumption order and float arithmetic bit-for-bit: seeded runs
produce identical reports on either engine, which
``tests/overlay/test_columnar_parity.py`` pins across the scenario
catalog.  The one sharp edge: connections are only eligible for the
credit columns while they use their auto-built constant-rate link, and
mid-run retuning must go through the ``Connection.bandwidth`` /
``loss_rate`` / ``link`` setters (which stamp
``Connection.mutations``) — mutating a link object directly behind an
eligible connection's back leaves its column stale.

**Scaling.** A full candidate scan is still O(N²) card comparisons
per epoch, but they run as narrow-integer numpy compares: a 10k-peer
full-scan epoch is affordable (``benchmarks/bench_sim_scaling.py``
reports its wall time).  ``reconfig.scan_budget`` samples candidates
instead and keeps the epoch O(N × budget).
"""

import math
from typing import Dict, List, Optional, Tuple

from repro.hashing import batch as _batch
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import SummaryScheme, UtilityRewiring
from repro.overlay.simulator import Connection, OverlaySimulator
from repro.sim.links import CREDIT_EPS, ConstantRateLink

#: Default min-wise key universe (mirrors repro.reconcile.adapters).
_DEFAULT_UNIVERSE = 1 << 32


class _MinwiseCardMatrix:
    """Persistent int64 card rows for one min-wise scheme.

    Every non-empty node owns one row of :attr:`matrix` holding its
    card's minima (a non-empty set has no empty positions, so rows need
    no sentinel).  Rows are dirty-stamped by the working set's *version*
    (and object identity, guarding node-id reuse across churn): an epoch
    over a mostly idle swarm rewrites, in place, only the rows whose
    sets actually changed — and those through the card's incremental
    absorb path, so the per-epoch cost tracks new symbols, not swarm
    size.  Rows of departed nodes return to a free list (:meth:`prune`),
    so the matrix is bounded by the peak live population.
    """

    def __init__(self, scheme: SummaryScheme, np):
        self.scheme = scheme
        self.np = np
        self.matrix = None
        self._slots: Dict[str, Tuple[object, int, int]] = {}
        self._free: List[int] = []

    def __len__(self) -> int:
        return len(self._slots)

    def _grow(self, width: int) -> None:
        np = self.np
        old = self.matrix
        size = 0 if old is None else old.shape[0]
        grown = np.empty((max(64, 2 * size), width), dtype=np.int64)
        if old is not None:
            grown[:size] = old
        self.matrix = grown
        self._free.extend(range(grown.shape[0] - 1, size - 1, -1))

    def slot_of(self, node: OverlayNode) -> int:
        """Row index of a non-empty node's current card."""
        ws = node.working_set
        cached = self._slots.get(node.node_id)
        if cached is not None and cached[0] is ws and cached[1] == ws.version:
            return cached[2]
        minima = self.scheme.card_of(node).minima
        if cached is not None:
            slot = cached[2]
        else:
            if not self._free:
                self._grow(len(minima))
            slot = self._free.pop()
        self.matrix[slot] = minima
        self._slots[node.node_id] = (ws, ws.version, slot)
        return slot

    def prune(self, live) -> None:
        """Free the rows of nodes not in ``live`` (lazy, only when oversized)."""
        if len(self._slots) > len(live):
            for nid in [n for n in self._slots if n not in live]:
                self._free.append(self._slots.pop(nid)[2])


class _EpochScores:
    """One epoch's usefulness vectors, straight from min-wise match counts.

    :meth:`score` gives a receiver's utility over its candidate list as
    a float64 vector: ``1.0 - matches / entries`` for non-empty peers
    (bit-identical to :meth:`MinwiseSummary.estimate_resemblance`'s
    complement, via a lookup table over the possible match counts),
    ``1.0`` for sources and ``-inf`` for empty non-sources.  Working
    sets cannot change inside an epoch, so a full scan computes the
    match counts of every receiver up front, a block of receivers at a
    time; a budgeted scan compares each receiver against its sampled
    candidates only.
    """

    def __init__(self, np, all_nodes, eligible, rows, receivers, full_scan):
        self.np = np
        self.column = {n.node_id: i for i, n in enumerate(eligible)}
        self.rows = rows
        if rows is not None:
            entries = rows.shape[1]
            # lut[m] is exactly usefulness()'s 1.0 - m / entries.
            self.lut = 1.0 - np.arange(entries + 1) / entries
        self._vectors = None
        if full_scan:
            self.position = {n.node_id: i for i, n in enumerate(all_nodes)}
            self._vectors = self._full_scan_vectors(all_nodes, receivers)

    def _group_ids(self):
        """``(entries, E)`` per-position ids: equal minima, equal ids.

        Recoding each column's minima to small dense ids lets the match
        count run on narrow integers instead of int64.
        """
        np = self.np
        minima = self.rows.T
        count = minima.shape[1]
        dtype = np.min_scalar_type(count)
        order = np.argsort(minima, axis=1)
        ordered = np.take_along_axis(minima, order, axis=1)
        ranked = np.zeros(minima.shape, dtype=dtype)
        np.cumsum(
            ordered[:, 1:] != ordered[:, :-1], axis=1, dtype=dtype, out=ranked[:, 1:]
        )
        ids = np.empty(minima.shape, dtype=dtype)
        np.put_along_axis(ids, order, ranked, axis=1)
        return ids

    def _full_scan_vectors(self, all_nodes, receivers):
        """Yield each receiver's utility vector over ``all_nodes``.

        The match counts span every node's column: sources and empty
        peers carry an id no receiver holds, so they match nowhere
        (utility 1.0, exact for sources; empties are then masked), and
        an empty receiver carries another id that matches nowhere.
        """
        np = self.np
        count = len(all_nodes)
        position = self.position
        empty = [
            i
            for i, n in enumerate(all_nodes)
            if not n.is_source and n.node_id not in self.column
        ]
        if self.rows is None:
            vector = np.ones(count)
            vector[empty] = -math.inf
            for _ in receivers:
                yield vector.copy()
            return
        ids = self._group_ids()
        unmatched = len(self.column)  # above every group id
        padded = np.full(
            (ids.shape[0], count + 1),
            unmatched + 1,
            dtype=np.min_scalar_type(unmatched + 1),
        )
        padded[:, [position[nid] for nid in self.column]] = ids
        padded[:, count] = unmatched
        columns = padded[:, :count]
        own = {nid: position[nid] for nid in self.column}
        tally = np.min_scalar_type(ids.shape[0])
        block = max(16, (1 << 20) // count)
        for start in range(0, len(receivers), block):
            chunk = receivers[start : start + block]
            mine = padded[:, [own.get(r.node_id, count) for r in chunk]]
            counts = np.zeros((len(chunk), count), dtype=tally)
            same = np.empty(counts.shape, dtype=bool)
            for j in range(ids.shape[0]):
                np.equal(mine[j][:, None], columns[j], out=same)
                counts += same.view(np.uint8)
            vectors = self.lut[counts]
            vectors[:, empty] = -math.inf
            yield from vectors

    def score(self, receiver, current, candidates):
        """``(utilities, sender_utilities, blocked)`` for one receiver.

        ``utilities`` covers every candidate, the receiver itself and
        current senders included; ``blocked`` lists those positions for
        the caller to mask.  A full scan must call this once per
        receiver, in the order the epoch was built with.
        """
        if self._vectors is not None:
            utilities = next(self._vectors)
            position = self.position
            at = [position[s.node_id] for s in current]
            values = utilities[at].tolist()
            at.append(position[receiver.node_id])
            blocked = at
        else:
            count = len(candidates)
            peers = candidates + current
            values = [1.0 if p.is_source else -math.inf for p in peers]
            column = self.column
            cols, at = [], []
            for i, p in enumerate(peers):
                col = None if p.is_source else column.get(p.node_id)
                if col is not None:
                    cols.append(col)
                    at.append(i)
            if cols:
                own = column.get(receiver.node_id)
                if own is None:
                    found = [1.0] * len(cols)  # an empty receiver matches nowhere
                else:
                    rows = self.rows
                    matches = (rows.take(cols, axis=0) == rows[own]).sum(axis=1)
                    found = self.lut[matches].tolist()
                for i, v in zip(at, found):
                    values[i] = v
            utilities = self.np.array(values[:count])
            values = values[count:]
            masked = {s.node_id for s in current}
            masked.add(receiver.node_id)
            blocked = [i for i, c in enumerate(candidates) if c.node_id in masked]
        # Empty senders read -inf as candidates but 1.0 as senders.
        senders = [v if v > -math.inf else 1.0 for v in values]
        return utilities, senders, blocked


class ColumnarOverlaySimulator(OverlaySimulator):
    """Batched engine, seeded-metric-identical to the reference.

    Construction and public API match :class:`OverlaySimulator`
    exactly; select it per experiment via
    ``MeasurementSpec(engine="columnar")``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Tick columns over the live connection list, rebuilt when the
        # list or any connection's link parameters change.
        self._col_conns: List[Connection] = []
        self._col_fast: List[bool] = []
        self._col_loss: List[float] = []
        self._col_rate = None
        self._col_credit = None
        self._col_stamp = -1
        # Min-wise card rows, shared across reconfiguration epochs.
        self._cards: Optional[_MinwiseCardMatrix] = None
        # Receiver artefacts (Bloom filters / policy summaries) cached
        # *across* refreshes, stamped (working-set object, version):
        # a receiver whose set did not change between refreshes reuses
        # its filter instead of rebuilding it.
        self._receiver_filters: Dict[str, Tuple[object, int, object]] = {}
        self._receiver_summaries: Dict[str, Tuple[object, int, object]] = {}

    # -- tick loop -----------------------------------------------------------

    def _flush_credits(self) -> None:
        """Write owned credit back into the links.

        Called before columns rebuild (and before any fallback to the
        reference loop) so a link leaving the fast set carries its
        exact fractional credit with it.
        """
        credit = self._col_credit
        if credit is None:
            return
        for i, (conn, fast) in enumerate(zip(self._col_conns, self._col_fast)):
            if fast:
                conn.link._credit = float(credit[i])

    def _sync_columns(self, conns: List[Connection], np) -> None:
        if self._col_conns == conns and self._col_stamp == Connection.mutations:
            return
        self._flush_credits()
        fast = [c._auto_link and type(c.link) is ConstantRateLink for c in conns]
        self._col_conns = list(conns)
        self._col_fast = fast
        self._col_stamp = Connection.mutations
        self._col_loss = [
            c.link.loss_rate if f else 0.0 for c, f in zip(conns, fast)
        ]
        self._col_rate = np.array(
            [c.link.rate if f else 0.0 for c, f in zip(conns, fast)],
            dtype=np.float64,
        )
        self._col_credit = np.array(
            [c.link._credit if f else 0.0 for c, f in zip(conns, fast)],
            dtype=np.float64,
        )

    def _on_tick(self) -> None:
        if self.transport is not None:
            # Congestion-gated sends are inherently sequential (cwnd
            # and pacing evolve packet by packet within the tick), so
            # transport runs drive the reference loop; flushing the
            # credit columns first hands each link its exact fractional
            # state.  Engine parity under transport is therefore
            # trivially bit-identical.
            if self._col_credit is not None:
                self._flush_credits()
                self._col_conns, self._col_credit = [], None
            OverlaySimulator._on_tick(self)
            return
        np = _batch._numpy()
        if np is None:
            if self._col_credit is not None:
                # numpy vanished mid-run (monkeypatched environments):
                # hand the authoritative credit back to the links.
                self._flush_credits()
                self._col_conns, self._col_credit = [], None
            super()._on_tick()
            return
        self.tick_count += 1
        now = self.scheduler.now
        conns = list(self.connections.values())
        self._sync_columns(conns, np)
        # One vectorised drain_credit over the fast columns.  The exact
        # reference arithmetic, element-wise in float64: add capacity,
        # clamp at zero, floor with the epsilon, carry the remainder.
        credit = self._col_credit
        window = now - (now - 1.0)
        tentative = credit + self._col_rate * window
        np.maximum(tentative, 0.0, out=tentative)
        whole = np.floor(tentative + CREDIT_EPS)
        remainder = tentative - whole
        np.maximum(remainder, 0.0, out=remainder)
        budgets = whole.astype(np.int64)
        fast = self._col_fast
        losses = self._col_loss
        rng = self.rng
        stats = self.stats
        for i, conn in enumerate(conns):
            receiver = conn.receiver
            if receiver.is_complete:
                continue  # skipped connections are never charged credit
            if not conn.sender.is_source and conn.strategy is None:
                continue
            if fast[i]:
                credit[i] = remainder[i]  # commit this link's drain
                budget = int(budgets[i])
                loss = losses[i]
                for _ in range(budget):
                    packet = self._compose(conn)
                    conn.packets_sent += 1
                    self.packets_sent += 1
                    if stats is not None:
                        stats.count(now, conn.stats_name, "sent")
                    # Inlined ConstantRateLink.transmit: one draw per
                    # packet, zero latency on auto links.
                    if rng.random() < loss:
                        conn.packets_lost += 1
                        self.packets_lost += 1
                        if stats is not None:
                            stats.count(now, conn.stats_name, "lost")
                        continue
                    self._arrive(conn, packet)
                    if receiver.is_complete:
                        break
            else:
                for _ in range(conn.link.packet_budget(now - 1.0, now)):
                    packet = self._compose(conn)
                    conn.packets_sent += 1
                    self.packets_sent += 1
                    if stats is not None:
                        stats.count(now, conn.stats_name, "sent")
                    delay = conn.link.transmit(rng)
                    if delay is None:
                        conn.packets_lost += 1
                        self.packets_lost += 1
                        if stats is not None:
                            stats.count(now, conn.stats_name, "lost")
                        continue
                    if delay <= 0.0:
                        self._arrive(conn, packet)
                    else:
                        self.scheduler.schedule(
                            delay, lambda c=conn, p=packet: self._arrive(c, p)
                        )
                    if receiver.is_complete:
                        break
        if self.refresh_every and self.tick_count % self.refresh_every == 0:
            self._refresh_strategies()

    # -- bulk strategy refresh ----------------------------------------------

    def _cached_receiver_artifact(
        self,
        cache: Dict[str, Tuple[object, int, object]],
        receiver: OverlayNode,
        build,
    ):
        """A receiver's filter/summary, rebuilt only when its set changed.

        The artefact is a deterministic, RNG-free function of the
        receiver's working set, so reuse across refreshes is exact while
        the set object and its version stamp are both unchanged (object
        identity guards node-id reuse across churn).
        """
        ws = receiver.working_set
        cached = cache.get(receiver.node_id)
        if cached is not None and cached[0] is ws and cached[1] == ws.version:
            return cached[2]
        artifact = build(ws)
        cache[receiver.node_id] = (ws, ws.version, artifact)
        return artifact

    def _prune_receiver_caches(self) -> None:
        """Drop artefacts and card rows for departed nodes (lazy, only
        when oversized)."""
        for attr in ("_receiver_filters", "_receiver_summaries"):
            cache = getattr(self, attr)
            if len(cache) > len(self.nodes):
                setattr(
                    self,
                    attr,
                    {k: v for k, v in cache.items() if k in self.nodes},
                )
        if self._cards is not None:
            self._cards.prune(self.nodes)

    def _refresh_strategies(self) -> None:
        """Per-receiver summary builds, fanned out to every connection.

        Iteration order (and therefore the RNG stream consumed by
        strategy construction) is identical to the reference loop; only
        the receiver-side artefact builds are deduplicated, which is
        safe because they are deterministic functions of the receiver's
        working set.  With :attr:`incremental_refresh` on, the dedup
        extends *across* refreshes (a receiver whose set is version-
        unchanged keeps its filter) and connections whose endpoints are
        both unchanged skip the rebuild outright — the same criterion
        as the reference engine, so both engines consume identical RNG.
        """
        name = self.strategy_name
        policy = self.summary_policy
        need_filter = policy is None and name in ("Random/BF", "Recode/BF")
        need_summary = policy is not None and name not in ("Random", "Recode")
        incremental = self.incremental_refresh
        filters: Dict[str, object] = {}
        summaries: Dict[str, object] = {}
        for key, conn in list(self.connections.items()):
            if conn.sender.is_source or conn.receiver.is_complete:
                continue
            if incremental and self._strategy_fresh(conn):
                continue
            receiver = conn.receiver
            rid = receiver.node_id
            receiver_filter = receiver_summary = None
            if need_filter:
                receiver_filter = filters.get(rid)
                if receiver_filter is None:
                    if incremental:
                        receiver_filter = self._cached_receiver_artifact(
                            self._receiver_filters,
                            receiver,
                            # Same build make_strategy performs (8 bits/elt).
                            lambda ws: ws.bloom_summary(bits_per_element=8),
                        )
                    else:
                        receiver_filter = receiver.working_set.bloom_summary(
                            bits_per_element=8
                        )
                    filters[rid] = receiver_filter
            elif need_summary:
                receiver_summary = summaries.get(rid)
                if receiver_summary is None:
                    if incremental:
                        receiver_summary = self._cached_receiver_artifact(
                            self._receiver_summaries,
                            receiver,
                            policy.build,
                        )
                    else:
                        receiver_summary = policy.build(receiver.working_set)
                    summaries[rid] = receiver_summary
            conn.strategy = self._build_strategy(
                conn.sender,
                receiver,
                receiver_filter=receiver_filter,
                receiver_summary=receiver_summary,
            )
            if conn.strategy is None:
                self.disconnect(*key)
        if incremental:
            self._prune_receiver_caches()

    # -- reconfiguration epochs ----------------------------------------------

    def _card_matrix(self, scheme: SummaryScheme) -> Optional[_MinwiseCardMatrix]:
        np = _batch._numpy()
        if np is None or scheme.kind != "minwise":
            return None
        if scheme.params_dict().get("universe", _DEFAULT_UNIVERSE) > 1 << 62:
            return None  # minima would overflow int64 rows
        cards = self._cards
        if cards is None or cards.scheme is not scheme:
            cards = _MinwiseCardMatrix(scheme, np)
            self._cards = cards
        return cards

    def _reconfigure(self) -> None:
        if self.rewiring is None:
            return
        schemes = [
            s
            for s in (
                getattr(self.rewiring, "scheme", None),
                getattr(self.admission, "scheme", None),
            )
            if isinstance(s, SummaryScheme)
        ]
        if not schemes:
            super()._reconfigure()
            return
        # One memo per distinct (kind, params): equal schemes share a
        # dict even when they are separate objects (the default-policy
        # construction builds two), so the admission check inside
        # connect() reuses the rewiring pass's values.
        memos: Dict[Tuple[str, tuple], Dict[Tuple[str, str], float]] = {}
        for s in schemes:
            s.set_memo(memos.setdefault((s.kind, s.params), {}))
        try:
            rewiring_scheme = getattr(self.rewiring, "scheme", None)
            cards = (
                self._card_matrix(rewiring_scheme)
                if isinstance(rewiring_scheme, SummaryScheme)
                else None
            )
            if cards is None:
                # Memo-only fallback: the scan-once-decide-many pattern
                # still stops recomputing identical comparisons.
                super()._reconfigure()
            else:
                # The kernel replays exactly UtilityRewiring.rewire over
                # plain SummaryScheme usefulness; a policy or scheme
                # subclass may decide differently, so it keeps rewire()
                # and reads the vectorised values through the memo.
                kernel = (
                    type(self.rewiring) is UtilityRewiring
                    and type(rewiring_scheme) is SummaryScheme
                )
                self._reconfigure_vectorized(
                    rewiring_scheme,
                    memos[(rewiring_scheme.kind, rewiring_scheme.params)],
                    cards,
                    kernel,
                )
        finally:
            # Working sets change as soon as ticks resume; the memo
            # must not outlive the epoch.
            for s in schemes:
                s.set_memo(None)

    def _reconfigure_vectorized(
        self,
        scheme: SummaryScheme,
        memo: Dict[Tuple[str, str], float],
        cards: _MinwiseCardMatrix,
        kernel: bool,
    ) -> None:
        """The reference epoch loop over vectorised usefulness.

        Control flow, RNG draws (budget sampling), control-byte
        accounting, and rewiring order replicate
        :meth:`OverlaySimulator._reconfigure` exactly.  Each receiver's
        utilities come from :class:`_EpochScores`; with ``kernel`` they
        go straight into :meth:`UtilityRewiring.decide`, and the memo
        holds only the chosen additions (for the admission check inside
        ``connect()``).  Without it they prefill the memo that the
        policy's own ``rewire()`` reads back.
        """
        self.reconfig_epochs += 1
        all_nodes = list(self.nodes.values())
        budget = self.reconfig_budget
        full_scan = not (budget and budget < len(all_nodes))
        eligible = [
            n for n in all_nodes if not n.is_source and len(n.working_set) > 0
        ]
        rows = None
        if eligible:
            slots = [cards.slot_of(n) for n in eligible]  # may grow the matrix
            rows = cards.matrix[slots]
        self._prune_receiver_caches()
        receivers = [n for n in all_nodes if not (n.is_source or n.is_complete)]
        scores = _EpochScores(cards.np, all_nodes, eligible, rows, receivers, full_scan)
        # Card wire sizes cannot change mid-epoch (no deliveries run
        # between rewiring passes), so the per-candidate accounting
        # loop collapses to precomputed sums — the eligibility guard
        # (non-source, non-empty) is exactly membership in `wire`.
        wire = {n.node_id: scheme.card_wire_bytes(n) for n in eligible}
        wire_total = sum(wire.values())
        for receiver in receivers:
            rid = receiver.node_id
            current = [
                self.nodes[s] for s in self.topology.senders_of(rid) if s in self.nodes
            ]
            candidates = all_nodes
            if full_scan:
                self.control_bytes += wire_total - wire.get(rid, 0)
            else:
                candidates = self.rng.sample(all_nodes, budget)
                self.control_bytes += sum(
                    wire.get(c.node_id, 0) for c in candidates if c.node_id != rid
                )
            utilities, sender_utilities, blocked = scores.score(
                receiver, current, candidates
            )
            if kernel:
                utilities[blocked] = -math.inf
                drop, picks, values = self.rewiring.decide(
                    utilities,
                    sender_utilities,
                    receiver.max_connections - len(current),
                )
                drops = [] if drop is None else [current[drop]]
                adds = [candidates[i] for i in picks]
                for a, v in zip(adds, values):
                    memo[(rid, a.node_id)] = v
            else:
                for c, v in zip(candidates, utilities.tolist()):
                    if v > -math.inf:
                        memo[(rid, c.node_id)] = v
                for s, v in zip(current, sender_utilities):
                    memo[(rid, s.node_id)] = v
                drops, adds = self.rewiring.rewire(receiver, current, candidates)
            for d in drops:
                self.disconnect(d.node_id, rid)
            for a in adds:
                if self.connect(a.node_id, rid):
                    self.reconfigurations += 1


__all__ = ["ColumnarOverlaySimulator"]
