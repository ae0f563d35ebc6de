#!/usr/bin/env python
"""Wall-clock benchmark harness: time canonical workloads, track them.

Times a small set of canonical simulation workloads and *appends* a
per-revision record to ``BENCH_core.json`` at the repository root, so
every future PR has a perf trajectory to compare against.  Each entry
records the workload's config, wall-clock seconds, and the git revision
that produced it; parallel workloads additionally record the
serial/parallel split, the speedup, and a checksum proving the parallel
numbers are bit-identical to serial.

Each new run is compared against the most recent comparable record
(same ``--quick`` flag): any workload more than 20% slower is flagged
as a wall-clock regression in the output, and ``--fail-on-regression``
turns the flag into a nonzero exit for CI gating on stable hardware.
Legacy single-document ``BENCH_core.json`` files (schema
``repro-bench/1``) are converted to the first history record in place.

Canonical workloads:

* ``fig6_n_sweep``      — a Figure-6-style scalability sweep (N up to
  4096, 8 seeded runs per point), serial vs parallel.
* ``fig10_crash_sweep`` — the Figure-10 crash-rate sweep at N=200,
  serial vs parallel.
* ``single_n4096``      — one large hierarchical run (N=4096), the pure
  simulator hot path (no parallelism involved).
* ``n8192``             — two seeded runs at N=8192/K=8 executed
  in-process, the large-N regime where `GridAssignment` construction
  and per-round bookkeeping dominate; the two runs share one cached
  assignment, so this workload tracks both the raw hot path and the
  large-N caching.  Same size under ``--quick`` on purpose: shrinking
  it would measure a different regime.  Runs on the array-stepped
  engine (``engine="auto"``); the checksum pins bit-identity against
  the object-stepped history.
* ``n65536``            — step an N=65536/K=8 world for 12 rounds (full
  bench only), the regime the array-stepped engine exists for;
  round-capped because converged masks cost O(N^2) memory at this size
  (see ``N65536_ROUNDS``).
* ``n1m_smoke``         — opt-in (``--n1m``): build a 10^6-member world
  on the array engine, step a few rounds, record peak RSS.

Usage::

    make bench                                # full run, writes BENCH_core.json
    python benchmarks/perf/run_bench.py --quick   # CI smoke (small sizes)
    python benchmarks/perf/run_bench.py --jobs 8  # force a worker count

The serial and parallel legs assert checksum equality: a nonzero exit
means the parallel executor changed the numbers, which is a bug.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.parallel import resolve_jobs, run_many  # noqa: E402
from repro.experiments.params import with_params  # noqa: E402
from repro.experiments.runner import run_once  # noqa: E402


#: A workload is flagged when its wall-clock exceeds the baseline by this
#: factor (the ROADMAP's ">20% regression" check).
REGRESSION_FACTOR = 1.20

#: History records kept in BENCH_core.json (oldest dropped first).
HISTORY_LIMIT = 100


def _load_history(path: pathlib.Path) -> list:
    """Existing history records, converting the legacy single-doc schema."""
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema == "repro-bench/1":
        record = {k: v for k, v in document.items() if k != "schema"}
        return [record]
    if schema == "repro-bench/2":
        history = document.get("history", [])
        return list(history) if isinstance(history, list) else []
    return []


def _find_regressions(record: dict, history: list) -> list[str]:
    """Workloads >20% slower than the latest comparable history record."""
    baseline = next(
        (past for past in reversed(history)
         if past.get("quick") == record["quick"]),
        None,
    )
    if baseline is None:
        return []
    past_seconds = {
        entry["workload"]: entry["seconds"]
        for entry in baseline.get("entries", [])
        if entry.get("seconds")
    }
    flags = []
    for entry in record["entries"]:
        old = past_seconds.get(entry["workload"])
        if old and entry["seconds"] > old * REGRESSION_FACTOR:
            slowdown = (entry["seconds"] / old - 1.0) * 100.0
            flags.append(
                f"{entry['workload']}: {entry['seconds']}s vs {old}s at "
                f"{baseline.get('git_revision', 'unknown')[:12]} "
                f"(+{slowdown:.0f}%)"
            )
    return flags


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _checksum(results) -> str:
    """Stable digest over every number a sweep produces."""
    payload = json.dumps(
        [
            [r.incompleteness, r.completeness, r.messages_sent,
             r.messages_dropped, r.rounds, r.crashes, r.bytes_sent]
            for r in results
        ],
        sort_keys=True,
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _sweep_configs(kind: str, quick: bool):
    """(config list, human-readable config dict) for a sweep workload."""
    if kind == "fig6_n_sweep":
        n_values = (256, 512) if quick else (512, 1024, 2048, 4096)
        runs = 2 if quick else 8
        configs = [
            with_params(n=n, seed=0).with_seed(offset)
            for n in n_values
            for offset in range(runs)
        ]
        described = {"n_values": list(n_values), "runs_per_point": runs,
                     "ucastl": 0.25, "pf": 0.001, "k": 4, "fanout_m": 2}
    elif kind == "fig10_crash_sweep":
        pf_values = (0.002, 0.008) if quick else (0.002, 0.004, 0.006, 0.008)
        runs = 4 if quick else 16
        configs = [
            with_params(n=200, pf=pf, seed=0).with_seed(offset)
            for pf in pf_values
            for offset in range(runs)
        ]
        described = {"n": 200, "pf_values": list(pf_values),
                     "runs_per_point": runs, "ucastl": 0.25}
    else:
        raise ValueError(f"unknown sweep {kind!r}")
    return configs, described


def bench_sweep(kind: str, jobs: int, quick: bool) -> dict:
    """Time one sweep serially and in parallel; verify bit-identity."""
    configs, described = _sweep_configs(kind, quick)

    start = time.perf_counter()
    serial = run_many(configs, jobs=1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_many(configs, jobs=jobs)
    parallel_seconds = time.perf_counter() - start

    serial_sum, parallel_sum = _checksum(serial), _checksum(parallel)
    if serial_sum != parallel_sum:
        raise AssertionError(
            f"{kind}: parallel results diverged from serial "
            f"({parallel_sum} != {serial_sum})"
        )
    return {
        "workload": kind,
        "config": {**described, "total_runs": len(configs)},
        "seconds": round(parallel_seconds, 3),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "jobs": jobs,
        "speedup": round(serial_seconds / max(parallel_seconds, 1e-9), 2),
        "checksum": serial_sum,
        "bit_identical": True,
    }


def bench_single(quick: bool) -> dict:
    """Time one large hierarchical run: the raw simulator hot path.

    Always unobserved, so ``single_n*`` history records stay comparable
    with each other.
    """
    n = 1024 if quick else 4096
    config = with_params(n=n, seed=3)
    start = time.perf_counter()
    result = run_once(config)
    seconds = time.perf_counter() - start
    return {
        "workload": f"single_n{n}",
        "config": {"n": n, "seed": 3, "ucastl": 0.25, "pf": 0.001, "k": 4},
        "seconds": round(seconds, 3),
        "rounds": result.rounds,
        "messages_sent": result.messages_sent,
        "incompleteness": result.incompleteness,
    }


def bench_large(quick: bool) -> dict:
    """Time the N=8192 regime: two seeded runs, one cached assignment.

    Runs in-process (``jobs=1``) so the second run can reuse the
    memoized ``GridAssignment`` the way ``Sweep``/``ParallelRunner``
    workers do; the checksum pins the numbers against the goldens.
    Engine selection is ``auto`` — the array-stepped engine on this
    configuration — and the checksum proves it bit-identical to the
    object-stepped history records.
    """
    configs = [with_params(n=8192, k=8, seed=0).with_seed(offset)
               for offset in range(2)]
    start = time.perf_counter()
    results = run_many(configs, jobs=1)
    seconds = time.perf_counter() - start
    return {
        "workload": "n8192",
        "config": {"n": 8192, "k": 8, "seeds": [0, 1], "ucastl": 0.25,
                   "pf": 0.001, "total_runs": len(configs),
                   "engine": "auto"},
        "seconds": round(seconds, 3),
        "rounds": [r.rounds for r in results],
        "messages_sent": sum(r.messages_sent for r in results),
        "incompleteness": max(r.incompleteness for r in results),
        "checksum": _checksum(results),
    }


#: Rounds executed by the n65536 workload.  The run is deliberately
#: round-capped rather than run to convergence: completed aggregates
#: carry member masks whose cardinality approaches N, so a *converged*
#: N=65536 world costs O(N^2) memory (tens of GB) in the current mask
#: representation — a known limit documented in benchmarks/perf/README.md.
#: Twelve rounds keeps masks at early-phase (subtree-sized) cardinality
#: while still exercising every batched primitive for minutes of the
#: exact regime the array engine targets.
N65536_ROUNDS = 12


def bench_n65536() -> dict:
    """Step a capped N=65536 world — the regime the array engine targets.

    Full-bench only (skipped under ``--quick``): per-round cost at this
    size is seconds even on the array engine, which is exactly why the
    workload did not exist before it.  The checksum digests the network
    statistics and liveness counters after ``N65536_ROUNDS`` rounds, so
    any protocol or stream drift at 64k members is caught.
    """
    from repro.experiments import runner as runner_mod
    from repro.sim.rng import RngRegistry

    config = with_params(n=65536, k=8, seed=0)
    start = time.perf_counter()
    rngs = RngRegistry(seed=config.seed)
    votes = runner_mod._make_votes(config, rngs)
    processes, max_rounds = runner_mod._build_processes(config, votes, rngs)
    network = runner_mod._make_network(config)
    failure_model = runner_mod._make_failures(config)
    engine = runner_mod._make_engine(
        config, None, processes, network, failure_model, rngs, max_rounds
    )
    engine.add_processes(processes)
    stats = engine.run(until=lambda: engine.round >= N65536_ROUNDS)
    seconds = time.perf_counter() - start
    net = engine.network.stats
    digest = hashlib.sha256(json.dumps(
        [stats.rounds_executed, net.sent, net.dropped, net.bytes_sent,
         engine.live_count, engine.active_count,
         engine.terminated_count],
        sort_keys=True,
    ).encode()).hexdigest()[:16]
    return {
        "workload": "n65536",
        "config": {"n": 65536, "k": 8, "seed": 0, "ucastl": 0.25,
                   "pf": 0.001, "engine": "auto",
                   "rounds_limit": N65536_ROUNDS},
        "seconds": round(seconds, 3),
        "rounds": stats.rounds_executed,
        "messages_sent": net.sent,
        "checksum": digest,
    }


#: Rounds executed by the million-member smoke (enough to exercise the
#: full send/deliver/advance block path — deliveries land from round 2
#: — without running the whole protocol horizon).
N1M_SMOKE_ROUNDS = 3


def bench_n1m_smoke() -> dict:
    """Memory-layout smoke at 10**6 members: build + a few array rounds.

    Proves the array engine's record layout holds a million-member
    group in laptop-class memory (``peak_rss_mb``) and steps it; it is
    not a full protocol run (``--n1m`` opt-in, minutes of wall-clock).
    """
    import resource

    from repro.experiments import runner as runner_mod
    from repro.sim.rng import RngRegistry

    config = with_params(n=1_000_000, k=16, seed=0)
    start = time.perf_counter()
    rngs = RngRegistry(seed=config.seed)
    votes = runner_mod._make_votes(config, rngs)
    processes, max_rounds = runner_mod._build_processes(config, votes, rngs)
    network = runner_mod._make_network(config)
    failure_model = runner_mod._make_failures(config)
    engine = runner_mod._make_engine(
        config, None, processes, network, failure_model, rngs, max_rounds
    )
    engine.add_processes(processes)
    build_seconds = time.perf_counter() - start
    start = time.perf_counter()
    stats = engine.run(until=lambda: engine.round >= N1M_SMOKE_ROUNDS)
    step_seconds = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "workload": "n1m_smoke",
        "config": {"n": 1_000_000, "k": 16, "seed": 0, "ucastl": 0.25,
                   "pf": 0.001, "engine": "auto",
                   "rounds_limit": N1M_SMOKE_ROUNDS},
        "seconds": round(build_seconds + step_seconds, 3),
        "build_seconds": round(build_seconds, 3),
        "step_seconds": round(step_seconds, 3),
        "rounds": stats.rounds_executed,
        "messages_sent": engine.network.stats.sent,
        "peak_rss_mb": round(peak_rss_mb, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", default=None,
        help="worker processes for the parallel legs "
             "(default: $REPRO_JOBS, else one per core)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke runs (~tens of seconds)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_core.json"),
        help="output path (default: BENCH_core.json at the repo root)",
    )
    parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit nonzero when any workload regresses >20% against the "
             "latest comparable history record (use on stable hardware)",
    )
    parser.add_argument(
        "--n1m", action="store_true",
        help="also run the million-member memory-layout smoke (builds a "
             "10^6-member world on the array engine and steps a few "
             "rounds; records peak RSS)",
    )
    args = parser.parse_args(argv)
    # The harness default is one worker per core ("auto"), not the library
    # default of serial — a benchmark run wants the machine saturated.
    jobs = resolve_jobs(args.jobs if args.jobs is not None else "auto")

    entries = []
    for kind in ("fig6_n_sweep", "fig10_crash_sweep"):
        print(f"[bench] {kind} (jobs={jobs}"
              f"{', quick' if args.quick else ''}) ...", flush=True)
        entry = bench_sweep(kind, jobs, args.quick)
        print(f"[bench]   serial {entry['serial_seconds']}s, parallel "
              f"{entry['parallel_seconds']}s, speedup {entry['speedup']}x, "
              f"bit-identical ok", flush=True)
        entries.append(entry)
    print("[bench] single large run ...", flush=True)
    entry = bench_single(args.quick)
    print(f"[bench]   {entry['workload']}: {entry['seconds']}s "
          f"({entry['messages_sent']} messages)", flush=True)
    entries.append(entry)
    print("[bench] n8192 large-N workload ...", flush=True)
    entry = bench_large(args.quick)
    print(f"[bench]   {entry['workload']}: {entry['seconds']}s "
          f"({entry['messages_sent']} messages, "
          f"checksum {entry['checksum']})", flush=True)
    entries.append(entry)
    if not args.quick:
        print("[bench] n65536 array-engine workload ...", flush=True)
        entry = bench_n65536()
        print(f"[bench]   {entry['workload']}: {entry['seconds']}s "
              f"({entry['messages_sent']} messages, "
              f"checksum {entry['checksum']})", flush=True)
        entries.append(entry)
    if args.n1m:
        print("[bench] million-member memory smoke ...", flush=True)
        entry = bench_n1m_smoke()
        print(f"[bench]   {entry['workload']}: build {entry['build_seconds']}s"
              f" + {entry['rounds']} rounds {entry['step_seconds']}s, "
              f"peak RSS {entry['peak_rss_mb']} MB", flush=True)
        entries.append(entry)

    record = {
        "git_revision": _git_revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "available_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "quick": args.quick,
        "entries": entries,
    }
    output = pathlib.Path(args.output)
    history = _load_history(output)
    regressions = _find_regressions(record, history)
    for flag in regressions:
        print(f"[bench] REGRESSION {flag}", flush=True)
    if not regressions and history:
        print("[bench] no >20% wall-clock regressions vs latest "
              "comparable record", flush=True)
    history.append(record)
    document = {
        "schema": "repro-bench/2",
        "history": history[-HISTORY_LIMIT:],
    }
    output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"[bench] wrote {output} ({len(document['history'])} record(s))")
    if regressions and args.fail_on_regression:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
