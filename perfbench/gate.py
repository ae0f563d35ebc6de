"""The benchmark's correctness gate.

Every run is checked against a checksum pinned for its inputs, in the
style of ``benchmarks/perf/run_bench.py::_checksum``: a digest over
every number the run produced, ``bytes_sent`` included.  ``pins.json``
holds the pinned rows, one per input case; it is written by
``perfbench/pin.py``.  On top of the checksum:

* the simulated workloads meet Theorem 1's ``1 - 1/N`` completeness
  floor, and ``sim-observed`` must reproduce ``sim-array``'s pinned
  row, so attaching telemetry cannot change a result.  The theorem
  bounds *expected* completeness, and single runs may fall below it
  (case 7 does, at 0.999873 against 0.999878), so, as in
  ``repro.experiments.robustness``, the floor applies to the mean: the
  mean over the pinned cases, with this run's value in place of its
  case's;
* ``net-loopback`` converges at completeness 1.0;
* ``chaos-tamper`` detects every forged contribution that reached the
  detection oracle, with no false positives.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

PINS_PATH = pathlib.Path(__file__).resolve().parent / "pins.json"

#: Which pinned table each workload is checked against.
PIN_TABLE = {
    "sim-array": "sim",
    "sim-observed": "sim",
    "net-loopback": "net-loopback",
    "chaos-tamper": "chaos-tamper",
}

#: Workloads inside Theorem 1's model (independent loss and crashes).
FLOOR_WORKLOADS = ("sim-array", "sim-observed")

#: Checksum of ``sim-array``'s first seven row fields over cases 0 and 1:
#: the ``n8192`` digest in the committed ``BENCH_core.json`` history.
HISTORY_CHECKSUM = "d3375ff194d37979"


def checksum(rows: list[list]) -> str:
    """Stable digest over every number in ``rows``."""
    payload = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def load_pins(path: pathlib.Path = PINS_PATH) -> dict:
    return json.loads(path.read_text())


def check(workload: str, case: int, outcome: dict, pins: dict) -> list[str]:
    """Every reason ``outcome`` is wrong (empty when it is right)."""
    failures = []
    table = pins.get(PIN_TABLE[workload], {})
    pinned = table.get(str(case))
    got = checksum([outcome["row"]])
    if pinned is None:
        failures.append(f"no pinned row for case {case}")
    elif got != checksum([pinned]):
        failures.append(
            f"checksum {got} differs from the pinned "
            f"{checksum([pinned])} for case {case}"
        )
    completeness = outcome["completeness"]
    if workload in FLOOR_WORKLOADS:
        floor = 1.0 - 1.0 / outcome["n"]
        values = [completeness] + [
            row[1] for key, row in table.items() if key != str(case)
        ]
        mean = sum(values) / len(values)
        if not mean >= floor:
            failures.append(
                f"mean completeness {mean!r} over the pinned cases, with "
                f"this run's {completeness!r}, is below the 1 - 1/N floor "
                f"{floor!r}"
            )
    if workload == "net-loopback":
        if not outcome["converged"] or completeness != 1.0:
            failures.append(
                f"loopback group did not converge at completeness 1.0 "
                f"(converged={outcome['converged']}, "
                f"completeness={completeness!r})"
            )
    if workload == "chaos-tamper":
        reached = outcome["reached"]
        detected = outcome["detected"]
        false_positives = outcome["false_positives"]
        if reached == 0 or detected != reached or false_positives != 0:
            failures.append(
                f"detection failed: reached={reached} detected={detected} "
                f"false_positives={false_positives}"
            )
    return failures
