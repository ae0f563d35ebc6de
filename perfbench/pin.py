"""Write ``perfbench/pins.json``: the rows the correctness gate expects.

    python3 perfbench/pin.py

Runs every input case of each pinned table once, in this process, and
records the numbers it produced.  ``sim`` is pinned from ``sim-array``
(the array engine); ``sim-observed`` must then reproduce it with
telemetry attached.  Re-pin only when a change is meant to alter
results, and say so: a performance change must leave every row as it
is.
"""

from __future__ import annotations

import json
import sys

from gate import PINS_PATH
from workloads import CASES, ROOT, entry_call, result_row

#: Pinned table -> the workload that produces it.
TABLES = {
    "sim": "sim-array",
    "net-loopback": "net-loopback",
    "chaos-tamper": "chaos-tamper",
}


def main() -> int:
    pins = {}
    for table, workload in TABLES.items():
        pins[table] = {}
        for case in range(CASES):
            pins[table][str(case)] = result_row(entry_call(workload, case)())
            print(f"{table} case {case}: {pins[table][str(case)][:7]}",
                  flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
