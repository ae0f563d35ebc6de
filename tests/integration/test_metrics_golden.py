"""Registry determinism goldens for the simulator's run-record feed.

The simulator feeds a :class:`MetricsRegistry` after the run, from the
finished ``repro-run/1`` record (``feed_run_record``).  Two guarantees,
each load-bearing for "leave metrics on in production":

1. **Snapshots are canonical** — two registries fed the same seeded run
   produce byte-identical ``snapshot_json()`` output, and the run
   totals they hold are the record's;
2. **Job count is invisible** — per-run records collected through
   ``run_many`` feed a registry to the same bytes at ``jobs=1`` and
   ``jobs=2``, because the records themselves are bit-identical and the
   feed is order-preserving.
"""

from repro.experiments.params import with_params
from repro.experiments.parallel import run_many
from repro.experiments.runner import run_once
from repro.obs.export import run_result_record
from repro.obs.metrics import MetricsRegistry, feed_run_record

CONFIG = dict(n=128, seed=5, ucastl=0.4)


def _fed(config) -> tuple[MetricsRegistry, object]:
    registry = MetricsRegistry()
    result = run_once(config)
    feed_run_record(registry, run_result_record(result))
    return registry, result


class TestRegistryIsPureObservation:
    def test_registry_run_totals_match_the_record(self):
        registry, result = _fed(with_params(**CONFIG))
        assert registry.counter(
            "repro_sim_messages_sent_total"
        ).value == result.messages_sent
        assert registry.counter(
            "repro_sim_rounds_total"
        ).value == result.rounds
        assert registry.gauge(
            "repro_run_completeness"
        ).value == result.completeness


class TestSnapshotDeterminism:
    def test_same_seed_same_bytes(self):
        snapshots = [
            _fed(with_params(**CONFIG))[0].snapshot_json()
            for __ in range(2)
        ]
        assert snapshots[0] == snapshots[1]

    def test_different_seed_different_bytes(self):
        first, __ = _fed(with_params(n=128, seed=1, ucastl=0.4))
        second, __ = _fed(with_params(n=128, seed=2, ucastl=0.4))
        assert first.snapshot_json() != second.snapshot_json()


class TestAcrossJobs:
    def test_registry_bytes_are_job_count_invariant(self):
        configs = [
            with_params(n=64, seed=seed, ucastl=0.4)
            for seed in range(4)
        ]
        snapshots = []
        for jobs in (1, 2):
            registry = MetricsRegistry()
            for result in run_many(configs, jobs=jobs):
                feed_run_record(registry, run_result_record(result))
            snapshots.append(registry.snapshot_json())
        assert snapshots[0] == snapshots[1]
        registry = MetricsRegistry()
        # Sanity: the fed registry saw all four runs.
        for result in run_many(configs, jobs=1):
            feed_run_record(registry, run_result_record(result))
        assert registry.counter("repro_runs_total").value == 4
