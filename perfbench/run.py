"""Run one benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sim-array --seed 0 --seconds 30 --trace 0

Iterations run one after another (``jobs=1``), each in a fresh worker
process (``perfbench/workloads.py``), until ``--seconds`` have passed;
the last one may end past it.  Every iteration passes the
correctness gate (``perfbench/gate.py``) or counts as failed.

``--trace 0`` reports the end-to-end metrics as medians over the
iterations; ``setup_s`` takes extra set-up-only iterations so that it is
a median of at least ``SETUP_SAMPLES`` cold builds.  ``--trace 1`` runs
one untraced and one traced iteration and reports only the per-layer
metrics, under their own names, plus the tracing overhead; on
``sim-array`` it also runs ``sim-observed`` untraced and traced, for the
observation overhead and the observation layer.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record, with the machine fingerprint and every
iteration, is written to ``.perfbench/`` in the checkout.  The exit code
is nonzero when any iteration failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from gate import check, load_pins
from workloads import CASES, ROOT

#: The benchmark's workloads.  ``sim-observed`` is not one of them: a
#: run of it is one ~24 s iteration, and on a 2-core shared machine its
#: spread over ten seeds reached the 0.25 bound.  Its layers are traced
#: on ``sim-array`` instead (see :meth:`Bench.per_layer`).
WORKLOADS = ("sim-array", "net-loopback", "chaos-tamper")

#: Observation-layer metrics, which ``sim-array``'s traced run takes from
#: a traced ``sim-observed`` iteration of the same inputs.
OBS_LAYERS = ("obs.trace.record_s", "obs.trace.events", "obs.phase.emit_s",
              "obs.phase.events", "obs.finish_s")

HERE = pathlib.Path(__file__).resolve().parent

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "msgs_per_s": "msg/s",
    "peak_rss_mb": "MB",
    "bytes_per_member": "B",
    "completeness": "fraction",
    "detection_rate": "fraction",
}

#: Cold set-up samples behind one ``setup_s`` median.
SETUP_SAMPLES = 3

#: Every worker has ended by this many seconds after the start.
DEADLINE_S = 170.0

OUT_DIR = ROOT / ".perfbench"


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("bytes_per_frame"):
        return "B"
    return "count"


class Bench:
    """One invocation: its workers, their outcomes, the gate's verdicts."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.case = seed % CASES
        self.pins = load_pins()
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.iterations: list[dict] = []

    def worker(self, workload: str, *flags: str) -> dict:
        command = [
            sys.executable, str(HERE / "workloads.py"),
            "--workload", workload, "--case", str(self.case), *flags,
        ]
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"worker exited {done.returncode}: "
                f"{done.stderr.strip()[-2000:]}"
            )
        return json.loads(done.stdout.strip().splitlines()[-1])

    def iteration(self, workload: str, *flags: str) -> dict | None:
        """One gated iteration; None when it failed."""
        self.attempted += 1
        try:
            outcome = self.worker(workload, *flags)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            problems = [str(err)]
        else:
            outcome["workload"] = workload
            self.iterations.append(outcome)
            problems = (
                [] if "--setup-only" in flags
                else check(workload, self.case, outcome, self.pins)
            )
        if problems:
            self.failed += 1
            self.failures += [f"{workload}: {problem}" for problem in problems]
            return None
        return outcome

    def end_to_end(self, seconds: float) -> dict[str, tuple[float, int]]:
        """Median of each end-to-end metric, with its sample count."""
        good = []
        start = time.monotonic()
        while True:
            outcome = self.iteration(self.workload)
            if outcome is not None:
                good.append(outcome)
            if time.monotonic() - start >= seconds:
                break
        if not good:
            return {}
        setups = [outcome["setup_s"] for outcome in good]
        while len(setups) < SETUP_SAMPLES:
            probe = self.iteration(self.workload, "--setup-only")
            if probe is None:
                return {}
            setups.append(probe["setup_s"])
        samples = {
            "setup_s": setups,
            "run_s": [o["run_s"] for o in good],
            "msgs_per_s": [o["messages"] / o["run_s"] for o in good],
            "peak_rss_mb": [o["peak_rss_mb"] for o in good],
            "bytes_per_member": [o["bytes"] / o["n"] for o in good],
            "completeness": [o["completeness"] for o in good],
            # Workloads that plant no forged traffic miss none of it.
            "detection_rate": [
                o["detected"] / o["reached"] if o["reached"] else 1.0
                for o in good
            ],
        }
        return {
            name: (statistics.median(values), len(values))
            for name, values in samples.items()
        }

    def per_layer(self) -> dict[str, tuple[float, int]]:
        """Per-layer metrics from one traced iteration."""
        plain = self.iteration(self.workload)
        traced = self.iteration(self.workload, "--trace")
        if plain is None or traced is None:
            return {}
        layers = dict(traced["layers"])
        layers["trace.overhead_frac"] = traced["run_s"] / plain["run_s"] - 1
        layers["obs.overhead_frac"] = 0.0
        if self.workload == "sim-array":
            observed = self.iteration("sim-observed")
            observed_traced = self.iteration("sim-observed", "--trace")
            if observed is None or observed_traced is None:
                return {}
            layers["obs.overhead_frac"] = (
                observed["run_s"] / plain["run_s"] - 1
            )
            for name in OBS_LAYERS:
                layers[name] = observed_traced["layers"][name]
        return {name: (value, 1) for name, value in layers.items()}


def fingerprint() -> dict:
    """What produced a result: CPU, cores, Python and numpy versions."""
    import numpy

    model = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    machine = fingerprint()
    bench = Bench(args.workload, args.seed)
    if args.trace:
        measured = bench.per_layer()
        units = {name: layer_unit(name) for name in measured}
    else:
        measured = bench.end_to_end(args.seconds)
        units = END_TO_END

    print(f"perfbench {args.workload} seed={args.seed} case={bench.case} "
          f"trace={args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for name, (value, count) in measured.items():
        note = "one traced run" if args.trace else f"median of {count}"
        print(f"  {name:28s} {value:>16.6g} {units[name]:9s} ({note})")
    print(f"  {'failed_frac':28s} {bench.failed / bench.attempted:>16.6g} "
          f"{'fraction':9s} ({bench.failed} of {bench.attempted} runs)")
    for failure in bench.failures:
        print(f"FAILED {failure}")

    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, (value, __) in measured.items()
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "case": bench.case,
        "seconds": args.seconds, "trace": args.trace, "machine": machine,
        "metrics": metrics, "failures": bench.failures,
        "iterations": bench.iterations,
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
