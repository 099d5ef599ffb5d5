"""Run-time tracing of the ``repro`` layers from outside the program.

:func:`install` patches the public entry points of each layer module
(plus the epoch bodies and the campaign's per-cell function, which
have no public name) with timing wrappers; nothing under ``src/``
changes.  Every wrapped call is one
frame on a stack, so each layer's self time is its duration minus the
time its wrapped children took.  Calls at coarse boundaries (runs,
ticks, epochs, rewiring passes, summary builds, campaign cells) are
also kept as spans, in memory, for the Chrome trace-event export; hot
per-packet and per-probe calls are only aggregated.

:func:`ladder` turns the aggregates into the per-layer metrics named in
``BENCHMARK.json``.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import median, percentile, tail

#: Spans kept for the Chrome trace; later ones are only aggregated.
MAX_SPANS = 200_000


class Tracer:
    """In-memory frames, aggregates, samples and spans of wrapped calls."""

    def __init__(self):
        self.stack: List[list] = []
        #: name -> [calls, total ns, self ns]
        self.agg: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.samples: Dict[str, List[int]] = defaultdict(list)
        self.counts: Counter = Counter()
        #: (span id, name, start ns, end ns, parent span id)
        self.spans: List[Tuple[int, str, int, int, int]] = []
        self.dropped = 0
        self._next_id = 1
        self._undo: List[Callable[[], None]] = []

    # -- wrappers -------------------------------------------------------------

    def timed(
        self,
        fn: Callable,
        name: str,
        span: bool = False,
        sample: bool = False,
        on_exit: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` wrapped as one frame named ``name``.

        A call made directly inside a frame of the same name (a subclass
        body calling ``super()``) is not a new frame.
        """
        stack, spans, tracer = self.stack, self.spans, self
        agg = self.agg[name]
        samples = self.samples[name] if sample else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [name, clock(), 0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[2]
                if samples is not None:
                    samples.append(dur)
                if span:
                    if len(spans) < MAX_SPANS:
                        spans.append(
                            (sid, name, frame[1], end, parent[3] if parent else 0)
                        )
                    else:
                        tracer.dropped += 1
            if on_exit is not None:
                on_exit(args, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)``.

        Methods, classmethods, staticmethods and property getters are
        wrapped in place; a module-level function is also replaced in
        every loaded ``repro`` module that imported it by name.
        """
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new: Any = classmethod(make(raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__))
            elif isinstance(raw, property):
                new = property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__)
            else:
                new = make(raw)
            setattr(owner, attr, new)
            self._undo.append(lambda: setattr(owner, attr, raw))
            return
        raw = getattr(owner, attr)
        new = make(raw)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, attr, None) is raw
            ):
                setattr(module, attr, new)
                self._undo.append(lambda m=module: setattr(m, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- export -----------------------------------------------------------------

    def chrome_trace(self, meta: Dict[str, Any]) -> Dict[str, Any]:
        """Chrome trace-event JSON (complete events), loadable in Perfetto."""
        origin = min((s[2] for s in self.spans), default=0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"id": sid, "parent": parent},
            }
            for sid, name, start, end, parent in sorted(self.spans, key=lambda s: s[2])
        ]
        meta = dict(meta, spans=len(self.spans), spans_dropped=self.dropped)
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}

    def self_time_table(self, run_ns: int) -> List[Dict[str, Any]]:
        """Per wrapped name: calls, total and self time, self share of run."""
        rows = [
            {
                "name": name,
                "calls": calls,
                "total_ms": total / 1e6,
                "self_ms": self_ns / 1e6,
                "self_share": self_ns / run_ns if run_ns else 0.0,
            }
            for name, (calls, total, self_ns) in self.agg.items()
            if calls
        ]
        rows.sort(key=lambda r: r["self_ms"], reverse=True)
        return rows


# -- the layer ladder ---------------------------------------------------------------


def _keys_weight(tracer: Tracer, name: str, position: int) -> Callable:
    """An ``on_exit`` hook adding ``len(args[position])`` to a counter."""

    def hook(args: tuple, _result: Any) -> None:
        if len(args) > position:
            tracer.counts[name] += len(args[position])

    return hook


def _listify(fn: Callable, position: int) -> Callable:
    """``fn`` with its ``position``-th argument materialised as a list, so a
    counting hook can take its length (iteration order is unchanged)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if len(args) > position and not hasattr(args[position], "__len__"):
            args = args[:position] + (list(args[position]),) + args[position + 1:]
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Patch every layer's entry points; the workloads' modules must be
    importable (they are imported here first)."""
    from repro.campaign import executor
    from repro.coding import peeler
    from repro.delivery import orchestrator, receiver, strategies
    from repro.filters import bloom
    from repro.flow import engine as flow_engine
    from repro.hashing import batch
    from repro.overlay import columnar, reconfiguration, simulator
    from repro.reconcile import adapters
    from repro.transport import controller, queue

    def timed(name, **kw):
        return lambda fn: tracer.timed(fn, name, **kw)

    # engine tick and reconfiguration epoch
    tracer.patch(simulator.OverlaySimulator, "tick", timed("tick", span=True))
    for cls in (simulator.OverlaySimulator, columnar.ColumnarOverlaySimulator):
        tracer.patch(cls, "_reconfigure", timed("epoch", span=True, sample=True))
    tracer.patch(flow_engine.FlowSimulator, "_reconfigure", timed("epoch", span=True, sample=True))
    tracer.patch(flow_engine.FlowSimulator, "run", timed("flow.run", span=True))
    candidates = _keys_weight(tracer, "epoch.candidates", 3)
    for cls in (reconfiguration.UtilityRewiring, reconfiguration.RandomRewiring):
        tracer.patch(
            cls, "rewire", timed("epoch.rewire", span=True, sample=True, on_exit=candidates)
        )
    tracer.patch(reconfiguration.SummaryScheme, "usefulness", timed("epoch.usefulness"))

    # summaries
    for kind, cls, estimators in (
        ("minwise", adapters.MinwiseSummary, ("estimate_resemblance", "estimate_difference")),
        ("bloom", adapters.BloomSummary, ("estimate_difference",)),
    ):
        tracer.patch(cls, "build", timed(f"summary.{kind}.build", span=True))
        tracer.patch(cls, "absorb", timed(f"summary.{kind}.absorb", span=True))
        for attr in estimators:
            tracer.patch(cls, attr, timed(f"summary.{kind}.estimate", sample=True))

    # Bloom filters
    tracer.patch(bloom.BloomFilter, "bulk_update", timed("bloom.filter_build"))
    tracer.patch(bloom.BloomFilter, "update", timed("bloom.filter_build"))

    def one_probe(_args, _result):
        tracer.counts["bloom.probe_keys"] += 1

    tracer.patch(bloom.BloomFilter, "__contains__", timed("bloom.probe", on_exit=one_probe))
    tracer.patch(
        bloom.BloomFilter,
        "contains_many",
        lambda fn: _listify(
            tracer.timed(fn, "bloom.probe", on_exit=_keys_weight(tracer, "bloom.probe_keys", 1)),
            1,
        ),
    )

    # hashing kernels
    for attr, name, position in (
        ("permutation_minima", "hashing.minima", 1),
        ("permutation_minima_fold", "hashing.minima", 1),
        ("bloom_index_matrix", "hashing.bloom_index", 1),
        ("bloom_index_rows", "hashing.bloom_index", 1),
    ):
        tracer.patch(
            batch,
            attr,
            lambda fn, name=name, position=position: _listify(
                tracer.timed(fn, name, on_exit=_keys_weight(tracer, name + ".keys", position)),
                position,
            ),
        )

    # coding and peeling
    def peeled(kind):
        def hook(_args, recovered):
            tracer.counts["coding.peel." + kind] += 1
            if recovered:
                tracer.counts["coding.peel.useful"] += 1

        return hook

    tracer.patch(peeler.RecodedPeeler, "add_encoded", timed("coding.peel", sample=True, on_exit=peeled("encoded")))
    tracer.patch(peeler.RecodedPeeler, "add_recoded", timed("coding.peel", sample=True, on_exit=peeled("recoded")))

    # delivery
    tracer.patch(strategies, "make_strategy", timed("delivery.strategy_build", span=True))
    for cls in _subclasses(strategies.SenderStrategy):
        if "next_packet" in cls.__dict__:
            tracer.patch(cls, "next_packet", timed("delivery.compose"))
    tracer.patch(receiver.SimReceiver, "receive", timed("delivery.receive"))
    tracer.patch(receiver.SimReceiver, "is_complete", timed("delivery.completion_check"))
    tracer.patch(orchestrator, "plan_join", timed("join.plan", span=True))

    # transport
    for attr in ("allowance", "on_send", "on_ack"):
        tracer.patch(controller.TransportController, attr, timed("transport"))
    tracer.patch(queue.BottleneckQueue, "enqueue", timed("transport"))

    # campaign
    tracer.patch(executor, "run_campaign", timed("campaign.run", span=True))
    tracer.patch(executor, "_run_payload", timed("campaign.cell", span=True, sample=True))


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


# -- per-layer metrics ----------------------------------------------------------------


def _ms(ns: float) -> float:
    return ns / 1e6


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def ladder(
    tracer: Tracer,
    traced: Dict[str, Any],
    untraced: List[Dict[str, Any]],
    run_s_untraced: float,
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, str]]:
    """Per-layer metrics as ``{name: (value, unit)}`` plus notes.

    ``traced`` is the traced rep's outcome summary; ``untraced`` the
    untraced reps' summaries (tick timings and simulated counters come
    from those); ``run_s_untraced`` is the untraced run time of the same
    input as the traced rep.
    """
    agg, counts, samples = tracer.agg, tracer.counts, tracer.samples
    out: Dict[str, Tuple[float, str]] = {}
    notes: Dict[str, str] = {}

    def dist(prefix: str, values: List[float], unit: str) -> None:
        value, pct = tail(values)
        out[prefix + "_p50"] = (percentile(values, 50.0) if values else 0.0, unit)
        out[prefix + "_tail"] = (value, unit)
        notes[prefix + "_tail"] = (
            f"p{pct:g}" if pct is not None else "max"
        ) + f" of n={len(values)}"

    def total_ns(name: str) -> int:
        return agg[name][1] if name in agg else 0

    def calls(name: str) -> int:
        return agg[name][0] if name in agg else 0

    run_s = traced["run_s"]
    flow = traced["ticks_timed"] == 0 and traced["epochs"] > 0

    # engine tick: untraced tick timings
    deliver = [t * 1e3 for rep in untraced for t in rep["deliver_tick_s"]]
    epoch_ticks = [t * 1e3 for rep in untraced for t in rep["epoch_tick_s"]]
    dist("tick.deliver_ms", deliver, "ms")
    out["tick.count"] = (float(traced["ticks_timed"]), "count")

    # reconfiguration epoch
    if flow:
        # The flow engine has no tick loop to time from outside: its
        # epochs come from the traced epoch spans.
        epoch_ms = [d / 1e6 for d in samples.get("epoch", [])]
        share = _ratio(total_ns("epoch") / 1e9, run_s)
        notes["epoch.ms_p50"] = "traced epoch spans (flow engine)"
    else:
        epoch_ms = epoch_ticks
        share = median([sum(r["epoch_tick_s"]) / r["run_s"] for r in untraced])
        notes["epoch.ms_p50"] = "untraced ticks that ran an epoch"
    dist("epoch.ms", epoch_ms, "ms")
    out["epoch.count"] = (float(traced["epochs"]), "count")
    out["epoch.share"] = (share, "ratio")
    dist("epoch.rewire_us", [d / 1e3 for d in samples.get("epoch.rewire", [])], "us")
    epoch_total = total_ns("epoch")
    out["epoch.prefill_share"] = (
        _ratio(epoch_total - total_ns("epoch.rewire"), epoch_total), "ratio"
    )
    scanned = counts["epoch.candidates"]
    out["epoch.candidates_scanned"] = (float(scanned), "count")
    out["epoch.usefulness_calls"] = (float(calls("epoch.usefulness")), "count")
    out["epoch.connects"] = (float(traced["connects"]), "count")
    out["epoch.accept_ratio"] = (_ratio(traced["connects"], scanned), "ratio")
    out["epoch.control_bytes_per_useful"] = (
        _ratio(traced["control_bytes"], traced["useful"]), "B"
    )

    # summaries
    for kind in ("minwise", "bloom"):
        p = f"summary.{kind}"
        builds, absorbs = calls(p + ".build"), calls(p + ".absorb")
        out[p + ".builds"] = (float(builds), "count")
        out[p + ".absorbs"] = (float(absorbs), "count")
        out[p + ".absorb_ratio"] = (_ratio(absorbs, builds + absorbs), "ratio")
        out[p + ".build_ms"] = (_ms(total_ns(p + ".build")), "ms")
        out[p + ".absorb_ms"] = (_ms(total_ns(p + ".absorb")), "ms")
        out[p + ".estimates"] = (float(calls(p + ".estimate")), "count")
        dist(p + ".estimate_us", [d / 1e3 for d in samples.get(p + ".estimate", [])], "us")
    out["bloom.filter_builds"] = (float(calls("bloom.filter_build")), "count")
    out["bloom.filter_build_ms"] = (_ms(total_ns("bloom.filter_build")), "ms")
    out["bloom.probe_keys"] = (float(counts["bloom.probe_keys"]), "count")
    out["bloom.probe_ms"] = (_ms(total_ns("bloom.probe")), "ms")

    # hashing kernels
    for name in ("minima", "bloom_index"):
        keys = counts[f"hashing.{name}.keys"]
        out[f"hashing.{name}_keys"] = (float(keys), "count")
        out[f"hashing.{name}_ns_per_key"] = (_ratio(total_ns(f"hashing.{name}"), keys), "ns/key")

    # coding and peeling
    peels = calls("coding.peel")
    out["coding.peel_calls"] = (float(peels), "count")
    dist("coding.peel_us", [d / 1e3 for d in samples.get("coding.peel", [])], "us")
    out["coding.peel_useful_ratio"] = (_ratio(counts["coding.peel.useful"], peels), "ratio")
    out["coding.recoded_share"] = (_ratio(counts["coding.peel.recoded"], peels), "ratio")

    # delivery
    out["delivery.strategy_builds"] = (float(calls("delivery.strategy_build")), "count")
    out["delivery.strategy_build_ms"] = (_ms(total_ns("delivery.strategy_build")), "ms")
    out["delivery.compose_calls"] = (float(calls("delivery.compose")), "count")
    out["delivery.compose_ms"] = (_ms(total_ns("delivery.compose")), "ms")
    out["delivery.receive_ms"] = (_ms(total_ns("delivery.receive")), "ms")
    out["delivery.completion_check_ms"] = (_ms(total_ns("delivery.completion_check")), "ms")
    out["join.plans"] = (float(calls("join.plan")), "count")
    out["join.plan_ms"] = (_ms(total_ns("join.plan")), "ms")

    # transport
    tr = traced["transport"]
    out["transport.calls"] = (float(calls("transport")), "count")
    out["transport.us_per_packet"] = (
        _ratio(total_ns("transport") / 1e3, traced["sent"]) if tr else 0.0, "us"
    )
    out["transport.queue_drops"] = (tr.get("queue_drops", 0.0), "count")
    out["transport.drop_rate"] = (
        _ratio(tr.get("queue_drops", 0.0), tr.get("queue_offered", 0.0)), "ratio"
    )
    out["transport.rtx_timeouts"] = (tr.get("transport_timeouts", 0.0), "count")

    # event engine
    out["engine.events"] = (float(traced["events"]), "count")
    out["engine.events_per_tick"] = (_ratio(traced["events"], traced["ticks"]), "count")

    # flow engine
    out["flow.run_ms"] = (_ms(total_ns("flow.run")), "ms")
    out["flow.reconcile_share"] = (
        _ratio(total_ns("epoch"), total_ns("flow.run")) if flow else 0.0, "ratio"
    )

    # campaign: cell seconds from the untraced in-process rep
    cell_s = [c for rep in untraced for c in rep["cell_s"]]
    dist("campaign.cell_s", cell_s, "s")
    parallel = [rep for rep in untraced if not rep["in_process"]]
    if cell_s and parallel:
        overhead = median([r["run_s"] for r in parallel]) - sum(cell_s) / parallel[0]["workers"]
    else:
        overhead = 0.0
    out["campaign.overhead_s"] = (overhead, "s")
    out["campaign.cells_failed"] = (float(traced["cells_failed"]), "count")

    out["trace.overhead"] = (_ratio(run_s, run_s_untraced), "ratio")
    return out, notes


def write_exports(tracer: Tracer, path_prefix: str, meta: Dict[str, Any], run_ns: int) -> None:
    """``<prefix>.trace.json`` (Perfetto) and ``<prefix>.selftime.txt``."""
    with open(path_prefix + ".trace.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.chrome_trace(meta), fh)
    rows = tracer.self_time_table(run_ns)
    with open(path_prefix + ".selftime.txt", "w", encoding="utf-8") as fh:
        fh.write(f"# self time by layer; run {run_ns / 1e6:.1f} ms\n")
        fh.write(f"{'name':32s} {'calls':>10s} {'total_ms':>12s} {'self_ms':>12s} {'self_share':>10s}\n")
        for r in rows:
            fh.write(
                f"{r['name']:32s} {r['calls']:10d} {r['total_ms']:12.2f} "
                f"{r['self_ms']:12.2f} {r['self_share']:10.4f}\n"
            )
