"""The benchmark's workloads, and the worker that runs one of them once.

``run.py`` starts this file as a fresh process for every iteration, so
each iteration builds its world cold (no ``shared_dense_assignment``
memo, no warm caches) and reports its own peak RSS::

    python3 perfbench/workloads.py --workload sim-array --case 3 [--trace]

The worker prints one JSON object: the iteration's timings, its work
counts, the row of numbers the correctness gate checks and, with
``--trace``, the per-layer metrics and span tallies.  ``--setup-only``
stops at the first round and reports only ``setup_s``.

Inputs come from the case number alone: the program receives a
``RunConfig`` (simulated workloads) or the ``run_loopback_group``
arguments (``net-loopback``) with ``seed=case``.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import resource
import sys
import time
from contextlib import nullcontext

from tracing import (
    PERCENTILE_SPANS,
    Patches,
    SpanRecorder,
    instrumented,
    layer_metrics,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: What a worker can run: the benchmark's workloads, plus ``sim-observed``
#: (``sim-array``'s inputs with compact telemetry attached), which the
#: traced ``sim-array`` run uses for the observation layer.
VARIANTS = ("sim-array", "sim-observed", "net-loopback", "chaos-tamper")

#: Input cases with a pinned checksum; ``--seed s`` selects case
#: ``s % CASES``.
CASES = 16

#: Hierarchical gossip at the paper's defaults (M=2, ucastl 0.25,
#: pf 0.001) in the large-N regime of the committed history.
SIM_N, SIM_K = 8192, 8
#: The tamper-forge campaign, which forces the sanitizer on.
CHAOS_N, CHAOS_K, CHAOS_CAMPAIGN = 1024, 8, "tamper-forge"
#: A lossless loopback group over the deterministic in-memory router.
NET_N, NET_K = 384, 4


class SetupDone(Exception):
    """Raised at the first round of a ``--setup-only`` iteration."""


class FirstRound:
    """Stamps the moment a run reaches its first round."""

    def __init__(self, stop: bool = False) -> None:
        self.at: float | None = None
        self.stop = stop

    def stamp(self, fn):
        def first_round(*args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
                if self.stop:
                    raise SetupDone
            return fn(*args, **kwargs)
        return functools.update_wrapper(first_round, fn)


def entry_call(workload: str, case: int):
    """The program's entry call for ``workload`` on case ``case``.

    Imports and input generation happen here, before any timing; the
    returned callable runs the program and returns its result.
    """
    if workload == "net-loopback":
        from repro.net.loopback import run_loopback_group

        return functools.partial(run_loopback_group, NET_N, k=NET_K,
                                 seed=case)
    from repro.experiments.params import with_params
    from repro.experiments.runner import run_once
    from repro.obs.telemetry import RunTelemetry

    if workload == "chaos-tamper":
        config = with_params(n=CHAOS_N, k=CHAOS_K, seed=case,
                             campaign=CHAOS_CAMPAIGN)
    else:
        config = with_params(n=SIM_N, k=SIM_K, seed=case)
    if workload == "sim-observed":
        return lambda: run_once(config, telemetry=RunTelemetry.compact())
    return functools.partial(run_once, config)


def result_row(result) -> list:
    """Every number a run produced, in a fixed order.

    The first seven fields are ``run_bench.py::_checksum``'s row, so the
    pinned ``sim`` rows reproduce the committed history's checksum.
    """
    row = [
        result.incompleteness, result.completeness, result.messages_sent,
        result.messages_dropped, result.rounds, result.crashes,
        result.bytes_sent, result.true_value, result.mean_estimate_error,
        result.mean_coverage, result.recoveries, result.messages_rejected,
    ]
    adversarial = getattr(result, "adversarial", None)
    if adversarial is not None:
        row += [value for __, value in sorted(adversarial.to_record().items())]
    net = getattr(result, "net", None)
    if net is not None:
        row += [value for __, value in sorted(net.items())]
    return row


def run_iteration(workload: str, case: int, trace: bool = False,
                  setup_only: bool = False) -> dict:
    """One iteration of ``workload``; see the module docstring."""
    from repro.net.loopback import LoopbackRouter
    from repro.sim.engine import SimulationEngine

    boundary = FirstRound(stop=setup_only)
    patches = Patches()
    if workload == "net-loopback":
        patches.attribute(LoopbackRouter, "take", boundary.stamp)
    else:
        patches.attribute(SimulationEngine, "run", boundary.stamp)
    recorder = SpanRecorder(keep_durations=PERCENTILE_SPANS)
    program = entry_call(workload, case)
    try:
        with instrumented(recorder) if trace else nullcontext():
            start = time.perf_counter()
            try:
                result = program()
            except SetupDone:
                result = None
            end = time.perf_counter()
    finally:
        patches.restore()
    if boundary.at is None:
        raise RuntimeError(f"{workload}: the run never reached a round")
    outcome = {"setup_s": boundary.at - start}
    if result is None:
        return outcome
    adversarial = getattr(result, "adversarial", None)
    outcome.update(
        run_s=end - boundary.at,
        n=result.config.n,
        messages=result.messages_sent,
        bytes=result.bytes_sent,
        completeness=result.completeness,
        converged=getattr(result, "converged", True),
        reached=adversarial.reached if adversarial else 0,
        detected=adversarial.detected if adversarial else 0,
        false_positives=adversarial.false_positives if adversarial else 0,
        peak_rss_mb=(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        row=result_row(result),
    )
    if trace:
        outcome["layers"] = layer_metrics(recorder)
        outcome["trace"] = recorder.record()
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=VARIANTS, required=True)
    parser.add_argument("--case", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    outcome = run_iteration(args.workload, args.case, trace=args.trace,
                            setup_only=args.setup_only)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
