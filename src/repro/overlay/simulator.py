"""Event-driven overlay delivery simulation.

The simulator is built on :mod:`repro.sim`: a heap-scheduled
:class:`~repro.sim.engine.EventScheduler` carries every process — the
per-tick delivery pass, latency-delayed packet arrivals, scenario
events (join waves, departures, loss-regime changes) — on one shared
clock.  The legacy tick API survives unchanged because *a tick is just
a periodic event*: ``tick()`` advances the clock one unit, firing the
delivery event plus anything scheduled between ticks.

Each connection carries a pluggable :class:`~repro.sim.links.LinkModel`
deciding its packet budget per window, per-packet loss, and arrival
latency.  The default :class:`~repro.sim.links.ConstantRateLink`
reproduces the historic tick behaviour exactly (one RNG draw per
packet, credit-carried fractional bandwidth), which the tick-parity
regression in ``tests/sim/test_parity.py`` pins.  Heterogeneous links
(jitter, Gilbert-Elliott bursts, bandwidth traces) plug in through
``link_factory`` without touching the delivery loop.

The engine exercises the paper's full loop: encode → sketch → admit →
summarise → informed transfer → adapt.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.coding.peeler import RecodedPeeler
from repro.coding.symbol import RecodedSymbol
from repro.delivery.packets import Packet
from repro.delivery.strategies import SenderStrategy, make_strategy
from repro.overlay.node import OverlayNode
from repro.overlay.reconfiguration import AdmissionPolicy, ReconfigurationPolicy
from repro.overlay.topology import PathCharacteristics, VirtualTopology
from repro.sim.engine import EventScheduler
from repro.sim.links import ConstantRateLink, LinkModel, drain_credit
from repro.sim.stats import StatsRecorder
from repro.seeding import default_rng
from repro.transport.controller import TransportController, TransportManager

#: Builds a link model for a new connection; receives the physical path
#: characteristics and the endpoint ids.
LinkFactory = Callable[[PathCharacteristics, str, str], LinkModel]


class Connection:
    """A live virtual connection with its sender strategy and link model.

    ``bandwidth`` and ``loss_rate`` mirror the physical path
    characteristics.  While the connection uses its auto-built
    constant-rate link, assigning either re-steers that link (legacy
    callers tweak connections mid-run, e.g. degradation tests);
    installing a custom ``link`` ends the coupling.
    """

    #: Class-wide stamp bumped on any mid-run bandwidth/loss/link
    #: reassignment; batched engines compare it to know their cached
    #: per-connection rate/loss columns went stale.
    mutations = 0

    def __init__(
        self,
        sender: OverlayNode,
        receiver: OverlayNode,
        strategy: Optional[SenderStrategy],  # None for sources
        bandwidth: float,
        loss_rate: float,
        established_tick: int,
        link: Optional[LinkModel] = None,
    ):
        self.sender = sender
        self.receiver = receiver
        self.strategy = strategy
        self.established_tick = established_tick
        self.packets_sent = 0
        self.packets_lost = 0
        self.packets_useful = 0
        self.stats_name = f"{sender.node_id}->{receiver.node_id}"
        #: Congestion controller installed by a transport-enabled
        #: simulator (None = historical open-loop sending).
        self.transport: Optional[TransportController] = None
        self._bandwidth = bandwidth
        self._loss_rate = loss_rate
        self._auto_link = link is None
        self._link = (
            link if link is not None else ConstantRateLink(bandwidth, loss_rate)
        )
        self._legacy_credit = 0.0

    @property
    def bandwidth(self) -> float:
        return self._bandwidth

    @bandwidth.setter
    def bandwidth(self, value: float) -> None:
        self._bandwidth = value
        Connection.mutations += 1
        if self._auto_link:
            self._link.rate = value

    @property
    def loss_rate(self) -> float:
        return self._loss_rate

    @loss_rate.setter
    def loss_rate(self, value: float) -> None:
        self._loss_rate = value
        Connection.mutations += 1
        if self._auto_link:
            self._link.loss_rate = value

    @property
    def link(self) -> LinkModel:
        return self._link

    @link.setter
    def link(self, value: LinkModel) -> None:
        self._link = value
        self._auto_link = False
        Connection.mutations += 1

    def packets_this_tick(self) -> int:
        """Integer packets for a possibly fractional bandwidth.

        Standalone per-tick accounting over ``bandwidth`` for callers
        driving a connection by hand: the same epsilon-floored,
        never-negative credit rule the link models use, but on a
        private accumulator — hand-driving a connection never drains
        budget the event engine is charging against the live link.
        Deterministic and RNG-free under any seeding.
        """
        whole, self._legacy_credit = drain_credit(
            self._legacy_credit, self._bandwidth
        )
        return whole

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Connection({self.sender.node_id}->{self.receiver.node_id}, "
            f"bw={self._bandwidth:g}, loss={self._loss_rate:g})"
        )


@dataclass
class SimulationReport:
    """Aggregate outcome of an overlay simulation run.

    Packet counters are **cumulative over the whole run**: a packet sent
    on a connection that was later dropped by rewiring or churn still
    counts, and ``completion_ticks`` retains nodes that completed and
    then departed.  (Before the columnar-engine release these counters
    summed live connections only, silently erasing history on every
    disconnect.)
    """

    ticks: int
    all_complete: bool
    completion_ticks: Dict[str, Optional[int]]
    packets_sent: int
    packets_lost: int
    packets_useful: int
    reconfigurations: int
    #: Reconfiguration epochs executed (0 when no rewiring policy ran).
    reconfig_epochs: int = 0
    #: Honest control-plane cost of the epochs: every candidate card a
    #: receiver scanned, priced at the summary's own ``wire_bytes``.
    control_bytes: int = 0

    @property
    def efficiency(self) -> float:
        """Useful packets / delivered packets (1.0 = no redundancy)."""
        delivered = self.packets_sent - self.packets_lost
        return self.packets_useful / delivered if delivered else 0.0


class OverlaySimulator:
    """Drives nodes, connections, and adaptation policies on an event clock.

    The periodic strategy refresh is *incremental*: a connection whose
    sender and receiver working sets are both unchanged since its
    strategy was built (same set object, same version stamp) is
    skipped, because rebuilding from identical inputs yields an
    identical strategy — unless construction itself drew from the
    shared RNG (Recode/BF domain truncation), in which case skipping
    would desynchronise the stream and the rebuild always runs.  Set
    the class attribute ``incremental_refresh = False`` to force the
    historical rebuild-everything pass (parity A/B, benchmarks).

    Args:
        topology: the virtual overlay (optionally over a physical net).
        admission/rewiring: peering policies (Section 4); their
            :class:`~repro.overlay.reconfiguration.SummaryScheme` names
            the calling cards nodes publish.
        strategy_name: sender strategy legend name (Figures 5-8).
        summary_policy: optional :class:`~repro.reconcile.SummaryPolicy`
            the per-connection strategies reconcile through; ``None``
            keeps the hardcoded min-wise/Bloom structures bit-identically.
        reconfigure_every / refresh_every: control-plane periods, in
            ticks.  Reconfiguration epochs are their own periodic event
            on the shared scheduler (so they compose with churn,
            scenario events, and ``remove_node``), scheduled right
            after the delivery event at each epoch boundary — order-
            identical to the historical end-of-tick pass.
        reconfig_jitter: each epoch's rewiring pass is deferred by a
            uniform draw in ``[0, jitter)`` simulated time units (0 =
            fire exactly on the boundary, the deterministic legacy
            cadence).
        reconfig_budget: candidate-scan budget per receiver per epoch
            (0 = scan every node); budgeted epochs sample the candidate
            list from the simulator RNG.
        rng: the single randomness source — seeded runs replay exactly.
        link_factory: builds a :class:`LinkModel` per connection from
            its path characteristics; defaults to a constant-rate link
            matching the physical path (legacy behaviour).
        stats: optional :class:`StatsRecorder` capturing per-connection
            and per-node time series (zero overhead when omitted).
        scheduler: an external event clock to share; a private one is
            created by default.
        transport: optional :class:`~repro.transport.controller.
            TransportManager`; when set, every connection gets a
            congestion controller that caps its per-tick sends (cwnd +
            pacing) and learns from acks/timeouts.  ``None`` keeps the
            historical open-loop behaviour bit-identically.
    """

    #: Skip strategy rebuilds for connections whose endpoints' working
    #: sets are version-unchanged (see the class docstring).  Both
    #: settings produce bit-identical runs; False restores the
    #: rebuild-everything refresh for A/B measurement.
    incremental_refresh: bool = True

    def __init__(
        self,
        topology: VirtualTopology,
        admission: Optional[AdmissionPolicy] = None,
        rewiring: Optional[ReconfigurationPolicy] = None,
        strategy_name: str = "Recode/BF",
        summary_policy=None,
        reconfigure_every: int = 20,
        refresh_every: int = 20,
        reconfig_jitter: float = 0.0,
        reconfig_budget: int = 0,
        rng: Optional[random.Random] = None,
        link_factory: Optional[LinkFactory] = None,
        stats: Optional[StatsRecorder] = None,
        scheduler: Optional[EventScheduler] = None,
        transport: Optional[TransportManager] = None,
    ):
        if reconfig_jitter < 0:
            raise ValueError("reconfig_jitter must be non-negative")
        if reconfig_budget < 0:
            raise ValueError("reconfig_budget must be non-negative")
        self.topology = topology
        self.admission = admission
        self.rewiring = rewiring
        self.strategy_name = strategy_name
        self.summary_policy = summary_policy
        self.reconfigure_every = reconfigure_every
        self.refresh_every = refresh_every
        self.reconfig_jitter = reconfig_jitter
        self.reconfig_budget = reconfig_budget
        self.rng = rng if rng is not None else default_rng("overlay.simulator")
        self.link_factory = link_factory
        self.stats = stats
        self.scheduler = scheduler or EventScheduler()
        self.transport = transport
        self.nodes: Dict[str, OverlayNode] = {}
        self.connections: Dict[tuple, Connection] = {}
        self._peelers: Dict[str, RecodedPeeler] = {}
        self.tick_count = 0
        self.reconfigurations = 0
        self.reconfig_epochs = 0
        self.control_bytes = 0
        # Cumulative packet totals owned by the simulator.  Per-
        # connection counters die with their Connection on disconnect
        # or churn (and a latency-delayed packet can land on an
        # already-dropped connection), so every send/loss/useful event
        # also bumps these — report() reads them, never the live
        # connection map.
        self.packets_sent = 0
        self.packets_lost = 0
        self.packets_useful = 0
        # node_id -> completed_at_tick for nodes that departed; keeps
        # completion history visible after remove_node().
        self._completion_tombstones: Dict[str, Optional[int]] = {}
        # The legacy tick loop as one periodic event; a shared clock
        # may already read past zero, so ticks count from its epoch.
        self._epoch = self.scheduler.now
        self._tick_handle = self.scheduler.schedule_every(
            1.0, self._on_tick, first=self._epoch + 1.0
        )
        # Reconfiguration epochs ride the same heap.  Scheduled *after*
        # the tick handle, an epoch boundary that coincides with a tick
        # fires right after that tick's delivery pass (FIFO at equal
        # times) — exactly where the historical end-of-tick pass ran.
        self._reconfig_handle = None
        if self.reconfigure_every and self.reconfigure_every > 0:
            self._reconfig_handle = self.scheduler.schedule_every(
                float(self.reconfigure_every),
                self._on_reconfig_epoch,
                first=self._epoch + float(self.reconfigure_every),
            )

    # -- membership ----------------------------------------------------------

    def add_node(self, node: OverlayNode) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        node.joined_at_tick = self.tick_count
        self.nodes[node.node_id] = node
        self.topology.add_peer(node.node_id)
        if not node.is_source:
            self._peelers[node.node_id] = RecodedPeeler(
                known_ids=node.working_set.ids
            )
        if self.stats is not None:
            self.stats.gauge(
                self.scheduler.now, node.node_id, "symbols", len(node.working_set)
            )

    def remove_node(self, node_id: str) -> Optional[OverlayNode]:
        """Detach a node and all its connections (departure/failure).

        Returns the node object (its working set intact — encoded
        content never goes stale, Section 2.3) or None if unknown.
        """
        node = self.nodes.pop(node_id, None)
        if node is None:
            return None
        if not node.is_source:
            self._completion_tombstones[node_id] = node.completed_at_tick
        for sender in list(self.topology.senders_of(node_id)):
            self.disconnect(sender, node_id)
        for receiver in list(self.topology.receivers_of(node_id)):
            self.disconnect(node_id, receiver)
        self._peelers.pop(node_id, None)
        if node_id in self.topology.graph:
            self.topology.graph.remove_node(node_id)
        return node

    def connect(self, sender_id: str, receiver_id: str) -> bool:
        """Establish a connection, subject to admission control.

        Returns True if the connection was admitted and created.
        """
        sender = self.nodes[sender_id]
        receiver = self.nodes[receiver_id]
        if receiver.is_source:
            return False
        if (sender_id, receiver_id) in self.connections:
            return False
        if self.admission is not None and not self.admission.admit(receiver, sender):
            return False
        chars = self.topology.connect(sender_id, receiver_id)
        strategy = self._build_strategy(sender, receiver)
        link = (
            self.link_factory(chars, sender_id, receiver_id)
            if self.link_factory is not None
            else None
        )
        conn = Connection(
            sender=sender,
            receiver=receiver,
            strategy=strategy,
            bandwidth=chars.bandwidth,
            loss_rate=chars.loss_rate,
            established_tick=self.tick_count,
            link=link,
        )
        if self.transport is not None:
            # A new connection is a new flow: fresh congestion state.
            conn.transport = self.transport.attach(conn.stats_name)
        self.connections[(sender_id, receiver_id)] = conn
        return True

    def disconnect(self, sender_id: str, receiver_id: str) -> None:
        self.connections.pop((sender_id, receiver_id), None)
        self.topology.disconnect(sender_id, receiver_id)

    # -- simulation ---------------------------------------------------------------

    def tick(self) -> None:
        """Advance one time unit: fire the delivery event plus anything
        scheduled between ticks (arrivals, scenario events)."""
        self.scheduler.run_until(self._epoch + self.tick_count + 1.0)

    def _on_tick(self) -> None:
        """The periodic delivery/adaptation pass (the legacy tick body)."""
        self.tick_count += 1
        now = self.scheduler.now
        for conn in list(self.connections.values()):
            if conn.receiver.is_complete:
                continue
            if not conn.sender.is_source and conn.strategy is None:
                continue  # sender has nothing to offer yet
            budget = conn.link.packet_budget(now - 1.0, now)
            ctrl = conn.transport
            if ctrl is not None:
                budget = ctrl.allowance(now, budget)
            for _ in range(budget):
                packet = self._compose(conn)
                conn.packets_sent += 1
                self.packets_sent += 1
                if self.stats is not None:
                    self.stats.count(now, conn.stats_name, "sent")
                delay = conn.link.transmit(self.rng)
                seq = ctrl.on_send(now) if ctrl is not None else 0
                if delay is None:
                    # Wire loss or tail drop: the controller tracked the
                    # packet, so it occupies window until its timeout
                    # fires and becomes an on_loss signal.
                    conn.packets_lost += 1
                    self.packets_lost += 1
                    if self.stats is not None:
                        self.stats.count(now, conn.stats_name, "lost")
                    continue
                if ctrl is not None:
                    self._schedule_ack(ctrl, seq, now, delay, conn.link.latency)
                if delay <= 0.0:
                    self._arrive(conn, packet)
                else:
                    self.scheduler.schedule(
                        delay, lambda c=conn, p=packet: self._arrive(c, p)
                    )
                if conn.receiver.is_complete:
                    break
        if self.refresh_every and self.tick_count % self.refresh_every == 0:
            self._refresh_strategies()

    def run(self, max_ticks: int = 10_000) -> SimulationReport:
        """Tick until every non-source node completes (or the cap hits).

        Completion also requires the heap to hold no one-shot events:
        a pending join wave, departure, or in-flight arrival is
        scheduled work the simulation has not finished — early
        completion of the current membership must not skip it.
        """
        while self.tick_count < max_ticks and not (
            self._all_complete() and self.scheduler.pending_oneshot == 0
        ):
            self.tick()
        return self.report()

    def report(self) -> SimulationReport:
        completion: Dict[str, Optional[int]] = dict(self._completion_tombstones)
        completion.update(
            (nid, n.completed_at_tick)
            for nid, n in self.nodes.items()
            if not n.is_source
        )
        return SimulationReport(
            ticks=self.tick_count,
            all_complete=self._all_complete(),
            completion_ticks=completion,
            packets_sent=self.packets_sent,
            packets_lost=self.packets_lost,
            packets_useful=self.packets_useful,
            reconfigurations=self.reconfigurations,
            reconfig_epochs=self.reconfig_epochs,
            control_bytes=self.control_bytes,
        )

    # -- internals -------------------------------------------------------------------

    def _all_complete(self) -> bool:
        return all(n.is_complete for n in self.nodes.values())

    def _build_strategy(
        self,
        sender: OverlayNode,
        receiver: OverlayNode,
        receiver_filter=None,
        receiver_summary=None,
    ) -> Optional[SenderStrategy]:
        """Strategy for a partial sender; sources mint fresh ids instead.

        ``receiver_filter`` / ``receiver_summary`` forward pre-built
        receiver artefacts to :func:`make_strategy` — a receiver's
        summary is the same for all its senders, so batched engines
        build it once per receiver per refresh instead of once per
        connection.  ``None`` rebuilds them per call (the reference
        behaviour; the artefacts are deterministic, so both paths
        produce identical strategies and RNG streams).
        """
        if sender.is_source:
            return None
        if len(sender.working_set) == 0:
            return None
        deficit = max(1, receiver.target - len(receiver.working_set))
        slots = max(1, receiver.max_connections)
        strategy = make_strategy(
            self.strategy_name,
            sender.working_set,
            receiver.working_set,
            self.rng,
            symbols_desired=int(math.ceil(deficit / slots * 1.15)),
            summary_policy=self.summary_policy,
            receiver_summary=receiver_summary,
            receiver_filter=receiver_filter,
        )
        # Endpoint stamp: a later refresh may skip the rebuild while
        # both working sets are the same *objects* at the same version
        # (object identity guards node-id reuse across churn).
        strategy._endpoint_stamp = (
            sender.working_set,
            sender.working_set.version,
            receiver.working_set,
            receiver.working_set.version,
        )
        return strategy

    def _strategy_fresh(self, conn: Connection) -> bool:
        """True when rebuilding ``conn``'s strategy would change nothing.

        A strategy is a deterministic function of (sender set, receiver
        set, receiver target/slots, strategy name, policy); with both
        sets version-unchanged the rebuild reproduces it exactly —
        *except* when construction drew from the shared RNG, which a
        skip must never suppress.
        """
        s = conn.strategy
        if s is None or getattr(s, "construction_drew_rng", False):
            return False
        stamp = getattr(s, "_endpoint_stamp", None)
        if stamp is None:
            return False
        sender_ws, sender_v, receiver_ws, receiver_v = stamp
        return (
            sender_ws is conn.sender.working_set
            and sender_v == sender_ws.version
            and receiver_ws is conn.receiver.working_set
            and receiver_v == receiver_ws.version
        )

    def _refresh_strategies(self) -> None:
        """Periodic control-message exchange (Section 6.1).

        "In a full system, these estimates as well as other messages,
        including sketches, summaries or other control information, would
        be passed periodically."  Rebuilding a connection's strategy
        refreshes both the sender's recoding domain (new content becomes
        shareable) and the receiver's summary (delivered content stops
        being offered) — so connections whose endpoints are both
        unchanged since the last build are skipped (nothing to refresh),
        unless :attr:`incremental_refresh` is off.
        """
        incremental = self.incremental_refresh
        for key, conn in list(self.connections.items()):
            if conn.sender.is_source or conn.receiver.is_complete:
                continue
            if incremental and self._strategy_fresh(conn):
                continue
            conn.strategy = self._build_strategy(conn.sender, conn.receiver)
            if conn.strategy is None:
                self.disconnect(*key)

    def _compose(self, conn: Connection) -> Packet:
        if conn.sender.is_source:
            return Packet.encoded(conn.sender.mint_fresh_id())
        assert conn.strategy is not None
        return conn.strategy.next_packet()

    def _schedule_ack(
        self,
        ctrl: TransportController,
        seq: int,
        now: float,
        delay: float,
        reverse_latency: float,
    ) -> None:
        """Return the ack for a delivered packet after the reverse path.

        Acks are tiny control packets: they cross the reverse
        propagation delay but never queue or drop (the loss signal the
        policies react to is a *missing* ack — the rtx timeout).
        """
        ack_delay = delay + reverse_latency
        if ack_delay <= 0.0:
            ctrl.on_ack(now, seq)
        else:
            self.scheduler.schedule(
                ack_delay,
                lambda: ctrl.on_ack(self.scheduler.now, seq),
            )

    def _arrive(self, conn: Connection, packet: Packet) -> None:
        """A packet reaches its receiver (inline or latency-delayed)."""
        receiver = conn.receiver
        if receiver.node_id not in self._peelers:
            return  # receiver departed while the packet was in flight
        if receiver.is_complete:
            return  # late arrival after completion: nothing to add
        if self._deliver(receiver, packet):
            # The simulator-level total owns this increment: the
            # connection may already have been dropped mid-flight, in
            # which case its own counter is a dead object's field.
            conn.packets_useful += 1
            self.packets_useful += 1
            if self.stats is not None:
                now = self.scheduler.now
                self.stats.count(now, conn.stats_name, "useful")
                self.stats.gauge(
                    now, receiver.node_id, "symbols", len(receiver.working_set)
                )
        if receiver.is_complete and receiver.completed_at_tick is None:
            receiver.completed_at_tick = self.tick_count

    def _deliver(self, receiver: OverlayNode, packet: Packet) -> bool:
        """Feed a packet through the receiver's peeler; True if useful."""
        peeler = self._peelers[receiver.node_id]
        if packet.is_recoded:
            assert packet.recoded_ids is not None
            recovered = peeler.add_recoded(RecodedSymbol(packet.recoded_ids))
        else:
            assert packet.encoded_id is not None
            recovered = peeler.add_encoded(packet.encoded_id)
        for symbol_id in recovered:
            receiver.receive_symbol(symbol_id)
        return bool(recovered)

    def _on_reconfig_epoch(self) -> None:
        """One epoch boundary: run (or jitter-defer) the rewiring pass."""
        if self.rewiring is None:
            return  # no policy installed (yet) — boundaries are free
        # A tick due at this exact timestamp must deliver first (the
        # historical end-of-tick ordering).  The periodic epoch handle
        # keeps its construction-time heap sequence until it fires, so
        # it can pop ahead of the tick; requeueing at the same time
        # takes a fresh sequence number and lands behind it.
        if self.tick_count < math.floor(self.scheduler.now - self._epoch + 1e-9):
            self.scheduler.schedule(0.0, self._start_epoch)
            return
        self._start_epoch()

    def _start_epoch(self) -> None:
        if self.rewiring is None:
            return
        if self.reconfig_jitter > 0:
            delay = self.rng.uniform(0.0, self.reconfig_jitter)
            if delay > 0.0:
                self.scheduler.schedule(delay, self._reconfigure)
                return
        self._reconfigure()

    def _reconfigure(self) -> None:
        if self.rewiring is None:
            return  # policy removed between scheduling and firing
        self.reconfig_epochs += 1
        scheme = getattr(self.rewiring, "scheme", None)
        all_nodes = list(self.nodes.values())
        budget = self.reconfig_budget
        for receiver in all_nodes:
            if receiver.is_source or receiver.is_complete:
                continue
            current = [
                self.nodes[s]
                for s in self.topology.senders_of(receiver.node_id)
                if s in self.nodes
            ]
            candidates = all_nodes
            if budget and budget < len(all_nodes):
                candidates = self.rng.sample(all_nodes, budget)
            if scheme is not None:
                # Each scanned candidate's card crosses the wire once
                # per receiver per epoch — the control traffic an
                # informed policy actually costs.
                for c in candidates:
                    if (
                        c.node_id == receiver.node_id
                        or c.is_source
                        or len(c.working_set) == 0
                    ):
                        continue
                    self.control_bytes += scheme.card_wire_bytes(c)
            drops, adds = self.rewiring.rewire(receiver, current, candidates)
            for d in drops:
                self.disconnect(d.node_id, receiver.node_id)
            for a in adds:
                if self.connect(a.node_id, receiver.node_id):
                    self.reconfigurations += 1
