"""Unified run telemetry: one object composing every instrumentation layer.

:class:`RunTelemetry` bundles the engine-level
:class:`~repro.sim.trace.Tracer`, the per-round
:class:`~repro.sim.metrics.RoundMetrics`, the protocol-level
:class:`~repro.obs.phase.PhaseTrace` and the sanitizer outcome into one
handle that :func:`repro.experiments.runner.run_once` knows how to wire
into a run.  Two shapes:

* **Full** (``RunTelemetry()``) — stores events for JSONL export
  (:mod:`repro.obs.export`), reports (:mod:`repro.obs.report`) and the
  ``repro trace`` CLI.  Both round engines feed the tracer and round
  metrics identically, so telemetry never picks the engine.
* **Compact** (``RunTelemetry.compact()``) — phase counters only: no
  tracer, no round metrics, no stored events.  This is what
  ``RunConfig.collect_telemetry=True`` attaches inside
  :class:`~repro.experiments.parallel.ParallelRunner` workers; its
  :class:`TelemetrySummary` is a small frozen dataclass that pickles
  back across the worker boundary, so sweeps and chaos campaigns can
  aggregate phase/bump-up/timeout statistics.

The summary's engine counters (sends, losses, deliveries, crashes, ...)
come from the finished engine's own ``EngineStats``/``NetworkStats`` in
both shapes, recorded by :meth:`RunTelemetry.finish`; a tracer only
adds the stored events.  Neither shape draws randomness or mutates
simulation state, so results are byte-identical with telemetry attached
or not (golden-tested).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.observe import PhaseSink
from repro.obs.phase import PhaseTrace
from repro.sim.metrics import RoundMetrics
from repro.sim.trace import Tracer

__all__ = ["RunTelemetry", "TelemetrySummary", "merge_summaries"]


@dataclass(frozen=True)
class TelemetrySummary:
    """Compact, picklable aggregate of one (or several merged) runs.

    All fields are totals over the merged runs; ``phase_timeouts`` /
    ``phase_early`` are sorted ``(phase, count)`` pairs (tuples, not
    dicts, so the record hashes and pickles cheaply and renders
    deterministically).
    """

    runs: int = 1
    rounds: int = 0
    # -- protocol-phase events (see repro.core.observe) ----------------
    phase_enter: int = 0
    representative_elected: int = 0
    subtree_complete: int = 0
    bump_up_early: int = 0
    bump_up_timeout: int = 0
    finalize: int = 0
    #: finalize events whose self-assessed coverage was < 1.
    incomplete_finalizes: int = 0
    phase_timeouts: tuple[tuple[int, int], ...] = ()
    phase_early: tuple[tuple[int, int], ...] = ()
    dropped_phase_events: int = 0
    # -- engine events (see repro.sim.trace) ---------------------------
    sends: int = 0
    sends_lost: int = 0
    sends_rejected: int = 0
    delivers: int = 0
    crashes: int = 0
    recoveries: int = 0
    terminates: int = 0
    dropped_engine_events: int = 0
    # -- sanitizer outcome (see repro.sanitize) ------------------------
    #: Whether the runtime aggregation sanitizer was active; an active
    #: sanitizer that let the run complete certifies the invariants held
    #: (it raises on the first violation).
    sanitizer_active: bool = False

    def phase_timeout_map(self) -> dict[int, int]:
        return dict(self.phase_timeouts)

    def phase_early_map(self) -> dict[int, int]:
        return dict(self.phase_early)

    def to_record(self) -> dict:
        """JSON-ready dict (the ``summary`` record of ``repro-trace/1``)."""
        record = dataclasses.asdict(self)
        record["phase_timeouts"] = {
            str(phase): count for phase, count in self.phase_timeouts
        }
        record["phase_early"] = {
            str(phase): count for phase, count in self.phase_early
        }
        return record


def _merge_pairs(
    pair_lists: list[tuple[tuple[int, int], ...]]
) -> tuple[tuple[int, int], ...]:
    totals: dict[int, int] = {}
    for pairs in pair_lists:
        for key, count in pairs:
            totals[key] = totals.get(key, 0) + count
    return tuple(sorted(totals.items()))


def merge_summaries(
    summaries: list[TelemetrySummary],
) -> TelemetrySummary:
    """Sum summaries across runs (e.g. all seeded runs of a sweep cell)."""
    if not summaries:
        return TelemetrySummary(runs=0)
    kwargs: dict = {}
    for f in dataclasses.fields(TelemetrySummary):
        values = [getattr(s, f.name) for s in summaries]
        if f.name in ("phase_timeouts", "phase_early"):
            kwargs[f.name] = _merge_pairs(values)
        elif f.name == "sanitizer_active":
            kwargs[f.name] = all(values)
        else:
            kwargs[f.name] = sum(values)
    return TelemetrySummary(**kwargs)


@dataclass
class RunTelemetry:
    """Everything observable about one run, behind one handle.

    Pass an instance to :func:`repro.experiments.runner.run_once`; the
    runner wires ``tracer``/``metrics`` into whichever round engine the
    configuration selects, ``phase_trace`` into the protocol processes,
    and calls :meth:`finish` with the run's identity so exports are
    self-contained.
    """

    tracer: Tracer | None = field(default_factory=Tracer)
    metrics: RoundMetrics | None = field(default_factory=RoundMetrics)
    phase_trace: PhaseTrace = field(default_factory=PhaseTrace)
    # -- run identity, set by finish() ---------------------------------
    config_record: dict | None = None
    result_record: dict | None = None
    #: The finished engine's rounds and event totals as a summary whose
    #: other fields are left at zero (set by :meth:`finish`).
    engine_summary: TelemetrySummary = field(
        default_factory=TelemetrySummary
    )
    #: (group_size, k) of the Grid Box Hierarchy, when the protocol has
    #: one — lets the explain query reconstruct subtree membership.
    hierarchy: tuple[int, int] | None = None
    #: member id -> grid box (full address integer), when available.
    boxes: dict[int, int] | None = None
    sanitizer_active: bool = False

    @classmethod
    def compact(cls) -> "RunTelemetry":
        """Counters-only shape: cheap to run, cheap to pickle back.

        No tracer, no per-round metrics samples and no stored phase
        events (phase counters keep counting) — exactly what a
        ``ParallelRunner`` worker should pay for a sweep that only wants
        aggregate statistics.
        """
        return cls(
            tracer=None,
            metrics=None,
            phase_trace=PhaseTrace(store_events=False),
        )

    def phase_sink(self) -> PhaseSink:
        """The sink the runner wires into the protocol processes."""
        return self.phase_trace

    def finish(
        self,
        config=None,
        result_record: dict | None = None,
        engine=None,
        assignment=None,
    ) -> None:
        """Record the finished run's identity for exports and reports.

        ``config`` is any dataclass (``RunConfig`` in practice —
        duck-typed so this package never imports ``repro.experiments``);
        ``engine`` the finished
        :class:`~repro.sim.engine.SimulationEngine` (either stepping),
        whose ``stats``/``network.stats`` counters become the summary's
        engine counts; ``assignment`` a
        :class:`~repro.core.gridbox.GridAssignment` or ``None`` for
        protocols without a hierarchy.
        """
        import repro.sanitize as sanitize

        if config is not None:
            self.config_record = {
                key: value
                for key, value in dataclasses.asdict(config).items()
                if not callable(value)
            }
        if result_record is not None:
            self.result_record = result_record
        if engine is not None:
            stats, network = engine.stats, engine.network.stats
            self.engine_summary = TelemetrySummary(
                rounds=stats.rounds_executed,
                sends=network.sent - network.dropped,
                sends_lost=network.dropped,
                sends_rejected=stats.sends_rejected,
                delivers=stats.messages_delivered,
                crashes=stats.crashes,
                recoveries=stats.recoveries,
                terminates=engine.terminated_count,
            )
        if assignment is not None:
            hierarchy = assignment.hierarchy
            self.hierarchy = (hierarchy.group_size, hierarchy.k)
            self.boxes = {
                member: assignment.box_of(member)
                for member in assignment.member_ids
            }
        self.sanitizer_active = sanitize.ACTIVE

    def summary(self) -> TelemetrySummary:
        """The compact picklable aggregate of this run."""
        phase = self.phase_trace
        return dataclasses.replace(
            self.engine_summary,
            phase_enter=phase.counts.get("phase_enter", 0),
            representative_elected=phase.counts.get(
                "representative_elected", 0
            ),
            subtree_complete=phase.counts.get("subtree_complete", 0),
            bump_up_early=phase.counts.get("bump_up_early", 0),
            bump_up_timeout=phase.counts.get("bump_up_timeout", 0),
            finalize=phase.counts.get("finalize", 0),
            incomplete_finalizes=phase.incomplete_finalizes,
            phase_timeouts=tuple(
                sorted(phase.by_phase("bump_up_timeout").items())
            ),
            phase_early=tuple(
                sorted(phase.by_phase("bump_up_early").items())
            ),
            dropped_phase_events=phase.dropped_events,
            dropped_engine_events=(
                self.tracer.dropped_events
                if self.tracer is not None else 0
            ),
            sanitizer_active=self.sanitizer_active,
        )
