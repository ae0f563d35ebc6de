"""Determinism regressions: parallel == serial, round queue == heap.

Every optimization in this repository must be invisible in the numbers:
the parallel executor fans out independently seeded runs, and the
engines' per-round delivery queue delivers in the order a ``(round,
seq)`` heap would.  These tests pin both equivalences end-to-end through
:func:`run_once`, and pin the two round engines equal under jittered
latency.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import replace

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.params import with_params
from repro.experiments.runner import incompleteness_samples, run_once
from repro.experiments.sweep import Sweep
from repro.obs.telemetry import RunTelemetry
from repro.sim.engine import SimulationEngine
from repro.sim.failures import NoFailures
from repro.sim.network import JitterNetwork, LossyNetwork
from repro.sim.rng import RngRegistry

BASE = with_params(n=64, seed=11)


def _result_fingerprint(result):
    """Every number a RunResult carries, in comparable form."""
    return (
        result.rounds,
        result.messages_sent,
        result.messages_dropped,
        result.bytes_sent,
        result.crashes,
        result.report.mean_completeness,
        result.report.mean_completeness_initial,
        dict(result.report.per_member),
        result.true_value,
        # nan != nan, so compare through a tuple that normalizes it
        None if math.isnan(result.mean_estimate_error)
        else result.mean_estimate_error,
    )


class TestParallelMatchesSerial:
    def test_incompleteness_samples(self):
        serial = incompleteness_samples(BASE, runs=6, jobs=1)
        parallel = incompleteness_samples(BASE, runs=6, jobs=4)
        assert parallel == serial  # bit-identical, not approximately

    def test_sweep_run(self):
        cells = [{"ucastl": 0.1}, {"ucastl": 0.3}]
        serial = Sweep(BASE, runs=4).run(cells, jobs=1)
        parallel = Sweep(BASE, runs=4).run(cells, jobs=4)
        assert parallel.headers == serial.headers
        assert parallel.rows == serial.rows  # bit-identical table

    def test_sweep_rejects_heterogeneous_cells(self):
        with pytest.raises(ValueError, match="cell 1"):
            Sweep(BASE, runs=1).run([{"ucastl": 0.1}, {"pf": 0.01}])


class _HeapQueueEngine(SimulationEngine):
    """Reference delivery order: one ``(round, seq)`` heap for all rounds."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._heap = []

    def _enqueue(self, delivery_round, entry):
        self._seq += 1
        heapq.heappush(self._heap, (delivery_round, self._seq, entry))

    def _deliver_due(self):
        while self._heap and self._heap[0][0] <= self.round:
            self._dispatch(heapq.heappop(self._heap)[2])


class TestQueueMatchesHeap:
    """The per-round delivery queue keeps the heap's ``(round, seq)`` order.

    Each side runs with full telemetry, so the engine-event streams and
    per-round samples are compared along with every result number.
    """

    @pytest.mark.parametrize(
        "config",
        [
            BASE,
            with_params(n=200, seed=2, pf=0.004),
            with_params(n=64, seed=5, push_pull=True),
            with_params(n=64, seed=7, protocol="flat_gossip"),
            with_params(n=64, seed=3, campaign="latency-spike"),
        ],
        ids=["default", "crashy", "push_pull", "flat_gossip",
             "latency_spike"],
    )
    def test_run_once_identical(self, config, monkeypatch):
        queued, queued_telemetry = _traced(config)
        monkeypatch.setattr(runner_module, "SimulationEngine",
                            _HeapQueueEngine)
        heap, heap_telemetry = _traced(replace(config, engine="object"))
        assert _result_fingerprint(queued) == _result_fingerprint(heap)
        assert queued_telemetry == heap_telemetry


def _traced(config):
    telemetry = RunTelemetry()
    result = run_once(config, telemetry=telemetry)
    return result, (telemetry.tracer.events, telemetry.metrics.samples)


def _jitter_run(engine):
    """A hierarchical-gossip world over per-message jittered latency."""
    config = with_params(n=64, seed=3, engine=engine)
    rngs = RngRegistry(seed=config.seed)
    votes = runner_module._make_votes(config, rngs)
    processes, max_rounds = runner_module._build_processes(
        config, votes, rngs
    )
    network = JitterNetwork(
        ucastl=0.2, mean_extra_latency=1.5,
        max_message_size=config.max_message_size,
    )
    telemetry = RunTelemetry()
    world = runner_module._make_engine(
        config, telemetry, processes, network, NoFailures(), rngs,
        max_rounds,
    )
    world.add_processes(processes)
    world.run()
    return type(world).__name__, (
        [(p.node_id, p.result, p.phase) for p in processes],
        network.stats,
        world.stats,
        telemetry.tracer.events,
        telemetry.metrics.samples,
    )


class TestEnginesAgreeOnJitter:
    def test_object_matches_array(self):
        object_name, object_run = _jitter_run("object")
        array_name, array_run = _jitter_run("array")
        assert (object_name, array_name) == (
            "SimulationEngine", "ArraySteppedEngine"
        )
        assert object_run[3]  # the trace saw the run
        assert array_run == object_run
