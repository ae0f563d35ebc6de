"""Per-layer spans recorded from outside the program.

The traced run wraps the public entry points of ``repro.sim``,
``repro.core``, ``repro.obs``, ``repro.net`` and ``repro.sanitize`` in
span-recording shims (:func:`instrumented`), runs one workload, and
restores every original on exit, so untraced runs in the same process
are never instrumented.  Nothing under ``src/`` changes.

Every layer here runs synchronously in one thread, so spans nest
properly: a layer's *self time* is its span's duration minus the
durations of the spans opened directly inside it, and wait time is zero
by construction.  Spans are aggregated in memory as they close (per
name: calls, total, self; per parent/child pair: time) and written out
by the caller when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Spans whose per-call durations are kept for percentiles.
PERCENTILE_SPANS = ("net.node.tick",)


class SpanRecorder:
    """Aggregates properly nested spans as they close."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_durations: tuple[str, ...] = ()) -> None:
        self.clock = clock
        #: Open spans, innermost last: ``[name, start, child seconds]``.
        self.stack: list[list] = []
        #: Span name -> ``[calls, total seconds, self seconds]``.
        self.spans: dict[str, list] = {}
        #: ``(parent, child)`` -> seconds the child span covered.
        self.edges: Counter = Counter()
        #: Work counts taken at the same boundaries as the spans.
        self.counts: Counter = Counter()
        #: Per-call durations for the names that need percentiles.
        self.durations: dict[str, list[float]] = {
            name: [] for name in keep_durations
        }

    def open(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def close(self) -> None:
        name, start, child = self.stack.pop()
        duration = self.clock() - start
        tally = self.spans.get(name)
        if tally is None:
            tally = self.spans[name] = [0, 0.0, 0.0]
        tally[0] += 1
        tally[1] += duration
        tally[2] += duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
            self.edges[(parent[0], name)] += duration
        kept = self.durations.get(name)
        if kept is not None:
            kept.append(duration)

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def record(self) -> dict:
        """JSON-ready dump of everything recorded."""
        return {
            "spans": {
                name: {"calls": calls, "total_s": total, "self_s": own}
                for name, (calls, total, own) in sorted(self.spans.items())
            },
            "edges": [
                {"parent": parent, "child": child, "seconds": seconds}
                for (parent, child), seconds in sorted(self.edges.items())
            ],
            "counts": dict(sorted(self.counts.items())),
        }


def span(recorder: SpanRecorder, name: str, fn: Callable,
         count: Callable | None = None) -> Callable:
    """``fn`` wrapped in a span called ``name``.

    ``count(counts, args, result)`` adds the call's work to the
    recorder's counters.  A call made while a span of the same name is
    innermost (an override calling ``super()``) joins that span instead
    of opening and counting a second one.
    """
    stack = recorder.stack

    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close()
        if count is not None:
            count(recorder.counts, args, result)
        return result

    return functools.update_wrapper(wrapper, fn)


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, module: str, attr: str,
                 make: Callable[[Callable], Callable]) -> None:
        """Replace a module function at every ``repro`` binding of it.

        ``from module import name`` copies the function into the
        importer's namespace, so each copy is replaced too.
        """
        original = getattr(importlib.import_module(module), attr)
        replacement = make(original)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, binding, replacement)

    def attribute(self, owner: Any, attr: str,
                  make: Callable[[Callable], Callable]) -> None:
        """Replace one attribute of one class or module."""
        self._set(owner, attr, make(owner.__dict__[attr]))

    def method(self, module: str, qualname: str,
               make: Callable[[Callable], Callable]) -> None:
        """Replace a method on its class and on every loaded subclass
        that overrides it."""
        class_name, attr = qualname.split(".")
        cls = getattr(importlib.import_module(module), class_name)
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            if attr in klass.__dict__:
                self.attribute(klass, attr, make)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


#: Modules whose classes and functions the traced run wraps.  They are
#: imported before patching so that subclasses defined in them (chaos
#: networks, the array engine) exist when overrides are looked up.
TRACED_MODULES = (
    "repro.chaos.campaign",
    "repro.core.array_stepper",
    "repro.core.gridbox",
    "repro.core.hierarchical_gossip",
    "repro.core.messages",
    "repro.core.protocol",
    "repro.experiments.runner",
    "repro.net.codec",
    "repro.net.loopback",
    "repro.net.node",
    "repro.obs.telemetry",
    "repro.sanitize",
    "repro.sim.array_engine",
    "repro.sim.engine",
    "repro.sim.network",
    "repro.sim.sampling",
    "repro.sim.trace",
)


def _count_matrix_draws(counts, args, result):
    counts["sim.sampling.draws"] += len(args[1]) * args[2]


def _count_pick_draws(counts, args, result):
    counts["sim.sampling.draws"] += args[2]


def _count_block_plan(counts, args, result):
    if result is not None:  # None: the engine falls back per message
        counts["sim.network.planned"] += len(args[1])
        counts["sim.network.delivered"] += int(result[0].sum())


def _count_message_plan(counts, args, result):
    counts["sim.network.planned"] += 1
    counts["sim.network.delivered"] += type(result) is int


def _count_absorb(counts, args, result):
    counts["core.absorb.payloads"] += len(args[1])
    counts["core.absorb.changed"] += bool(result)


def _count_encode(counts, args, result):
    counts["net.codec.bytes"] += len(result)


#: ``(module, function or Class.method, span name, count hook)``.
WRAPPED_FUNCTIONS = (
    ("repro.core.gridbox", "shared_dense_assignment", "setup.assignment",
     None),
    ("repro.core.hierarchical_gossip", "build_hierarchical_gossip_group",
     "setup.processes", None),
    ("repro.core.protocol", "measure_completeness", "core.measure", None),
    ("repro.net.codec", "encode", "net.codec.encode", _count_encode),
    ("repro.net.codec", "decode", "net.codec.decode", None),
    ("repro.sanitize", "check_compose", "sanitize.check_compose", None),
)
WRAPPED_METHODS = (
    ("repro.net.node", "NetNode.__init__", "setup.net_nodes", None),
    ("repro.net.node", "NetNode.datagram_received", "net.node.rx", None),
    ("repro.net.node", "NetNode.tick", "net.node.tick", None),
    ("repro.sim.engine", "SimulationEngine.run", "sim.engine", None),
    ("repro.sim.sampling", "SamplerBank.draw_matrix", "sim.sampling",
     _count_matrix_draws),
    ("repro.sim.sampling", "BlockedSampler.pick_distinct", "sim.sampling",
     _count_pick_draws),
    ("repro.sim.network", "Network.plan_delivery_block", "sim.network.plan",
     _count_block_plan),
    ("repro.sim.network", "Network.plan_delivery", "sim.network.plan",
     _count_message_plan),
    ("repro.sim.network", "Network.inject", "chaos.inject", None),
    ("repro.sim.array_engine", "ArraySteppedEngine.submit_block",
     "sim.engine.submit", None),
    ("repro.core.hierarchical_gossip",
     "HierarchicalGossipProcess.absorb_payloads", "core.absorb",
     _count_absorb),
    ("repro.core.hierarchical_gossip", "HierarchicalGossipProcess.on_message",
     "core.on_message", None),
    ("repro.core.hierarchical_gossip", "HierarchicalGossipProcess.on_round",
     "core.on_round", None),
    ("repro.core.hierarchical_gossip",
     "HierarchicalGossipProcess.build_round_payload", "core.payload", None),
    ("repro.core.messages", "GossipBatch.wire_size", "core.wire_size", None),
    ("repro.core.messages", "GossipValue.wire_size", "core.wire_size", None),
    ("repro.core.array_stepper", "HierarchicalArrayStepper.step",
     "core.stepper", None),
    ("repro.sim.trace", "Tracer.record", "obs.trace.record", None),
    ("repro.obs.telemetry", "RunTelemetry.finish", "obs.finish", None),
    ("repro.obs.telemetry", "RunTelemetry.summary", "obs.finish", None),
)


@contextmanager
def instrumented(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every traced boundary for the duration of the block."""
    for module in TRACED_MODULES:
        importlib.import_module(module)
    sanitize = importlib.import_module("repro.sanitize")
    patches = Patches()

    def traced(name, count=None):
        return lambda fn: span(recorder, name, fn, count)

    def sink_with_spans(phase_sink):
        # The sink the runner attaches: its emit gets a span per event.
        def attached(self):
            sink = phase_sink(self)
            if sink is not None:
                sink.emit = span(recorder, "obs.phase.emit", sink.emit)
            return sink
        return functools.update_wrapper(attached, phase_sink)

    def screen_with_spans(set_adversary):
        # SCREEN is rebound per run; wrap whatever it is bound to.
        def armed(planner):
            set_adversary(planner)
            if sanitize.SCREEN is not None:
                sanitize.SCREEN = span(
                    recorder, "sanitize.screen", sanitize.SCREEN
                )
        return functools.update_wrapper(armed, set_adversary)

    try:
        for module, attr, name, count in WRAPPED_FUNCTIONS:
            patches.function(module, attr, traced(name, count))
        for module, qualname, name, count in WRAPPED_METHODS:
            patches.method(module, qualname, traced(name, count))
        patches.method("repro.obs.telemetry", "RunTelemetry.phase_sink",
                       sink_with_spans)
        patches.function("repro.sanitize", "set_adversary",
                         screen_with_spans)
        yield recorder
    finally:
        patches.restore()
        if hasattr(sanitize.SCREEN, "__wrapped__"):
            sanitize.SCREEN = sanitize.SCREEN.__wrapped__


def _percentile_ms(durations: list[float], q: int) -> float:
    if len(durations) < 2:
        return 1000.0 * durations[0] if durations else 0.0
    return 1000.0 * statistics.quantiles(durations, n=100)[q - 1]


def layer_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced run.

    Layers that did no work in the run report 0.  The two overhead
    fractions need an untraced run as well and are added by the caller.
    """
    r, counts = recorder, recorder.counts
    planned = counts["sim.network.planned"]
    absorbs = r.calls("core.absorb")
    frames = r.calls("net.codec.encode")
    ticks = r.durations.get("net.node.tick", [])
    return {
        "setup.assignment_s": r.total("setup.assignment"),
        "setup.processes_s": r.total("setup.processes"),
        "setup.net_nodes_s": r.total("setup.net_nodes"),
        "sim.engine.self_s": r.self_time("sim.engine"),
        "sim.sampling.self_s": r.self_time("sim.sampling"),
        "sim.sampling.draws": counts["sim.sampling.draws"],
        "sim.network.plan_s": r.total("sim.network.plan"),
        "sim.network.planned": planned,
        "sim.network.delivered_frac": (
            counts["sim.network.delivered"] / planned if planned else 0.0
        ),
        "sim.engine.submit_self_s": r.self_time("sim.engine.submit"),
        "core.absorb.self_s": r.self_time("core.absorb"),
        "core.absorb.payloads": counts["core.absorb.payloads"],
        "core.absorb.changed_frac": (
            counts["core.absorb.changed"] / absorbs if absorbs else 0.0
        ),
        "core.on_message.self_s": r.self_time("core.on_message"),
        "core.on_round.self_s": r.self_time("core.on_round"),
        "core.payload.self_s": r.self_time("core.payload"),
        "core.payload.builds": r.calls("core.payload"),
        "core.wire_size.self_s": r.self_time("core.wire_size"),
        "core.wire_size.calls": r.calls("core.wire_size"),
        "core.stepper.self_s": r.self_time("core.stepper"),
        "core.measure_s": r.total("core.measure"),
        "obs.trace.record_s": r.total("obs.trace.record"),
        "obs.trace.events": r.calls("obs.trace.record"),
        "obs.phase.emit_s": r.total("obs.phase.emit"),
        "obs.phase.events": r.calls("obs.phase.emit"),
        "obs.finish_s": r.total("obs.finish"),
        "net.codec.encode_s": r.total("net.codec.encode"),
        "net.codec.decode_s": r.total("net.codec.decode"),
        "net.codec.frames": frames,
        "net.codec.bytes_per_frame": (
            counts["net.codec.bytes"] / frames if frames else 0.0
        ),
        "net.node.rx_self_s": r.self_time("net.node.rx"),
        "net.node.tick_self_s": r.self_time("net.node.tick"),
        "net.node.tick_ms_p50": _percentile_ms(ticks, 50),
        "net.node.tick_ms_p99": _percentile_ms(ticks, 99),
        "net.node.tick_samples": len(ticks),
        "sanitize.screen_s": r.total("sanitize.screen"),
        "sanitize.screens": r.calls("sanitize.screen"),
        "sanitize.check_compose_s": r.total("sanitize.check_compose"),
        "chaos.injected": r.calls("chaos.inject"),
    }
