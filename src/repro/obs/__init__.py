"""Run observability: phase tracing, telemetry, exports, live metrics.

This package is a *pure consumer* of the simulation and protocol layers:
``repro/sim``, ``repro/core`` and ``repro/chaos`` never import it (CI
greps for that), and attaching any of its collectors never changes a
run's results — telemetry draws no randomness and mutates no simulation
state, so a traced run is byte-identical to an untraced one.

Layers, bottom-up:

* :mod:`repro.obs.phase` — :class:`PhaseTrace`, the collector behind the
  protocol's ``phase_sink`` (events defined in :mod:`repro.core.observe`);
* :mod:`repro.obs.telemetry` — :class:`RunTelemetry` (one handle over
  Tracer + RoundMetrics + PhaseTrace + sanitizer outcome, in a full and
  a compact shape) and the picklable :class:`TelemetrySummary`, whose
  engine counters come from the finished engine's own stats, that
  crosses ``ParallelRunner`` worker boundaries;
* :mod:`repro.obs.export` — deterministic ``repro-trace/1`` JSONL
  export/load/validate and the shared ``repro-run/1`` result record;
* :mod:`repro.obs.report` — the phase-by-phase report and the causal
  ``explain`` query;
* :mod:`repro.obs.metrics` — the dependency-free live metrics registry
  (Counter/Gauge/Histogram, canonical ``repro-metrics/1`` snapshots),
  fed live by the UDP runtime, after the run by the simulator
  (``feed_run_record``), and exposed over HTTP by
  :mod:`repro.net.exposition`;
* :mod:`repro.obs.budgets` — the per-phase round-budget report
  (``repro trace --budgets``, schema ``repro-budgets/1``).

See ``docs/OBSERVABILITY.md`` and the ``repro trace`` CLI verb.
"""

from repro.obs.export import (
    RUN_SCHEMA,
    TRACE_SCHEMA,
    TraceDocument,
    iter_trace_records,
    load_trace,
    run_result_record,
    validate_trace_lines,
    write_trace,
)
from repro.obs.budgets import BudgetReport, budget_report
from repro.obs.metrics import METRICS_SCHEMA, MetricsRegistry
from repro.obs.phase import PhaseTrace
from repro.obs.report import explain, render_phase_report
from repro.obs.telemetry import (
    RunTelemetry,
    TelemetrySummary,
    merge_summaries,
)

__all__ = [
    "TRACE_SCHEMA",
    "RUN_SCHEMA",
    "METRICS_SCHEMA",
    "BudgetReport",
    "MetricsRegistry",
    "budget_report",
    "PhaseTrace",
    "RunTelemetry",
    "TelemetrySummary",
    "merge_summaries",
    "TraceDocument",
    "iter_trace_records",
    "write_trace",
    "load_trace",
    "validate_trace_lines",
    "run_result_record",
    "render_phase_report",
    "explain",
]
