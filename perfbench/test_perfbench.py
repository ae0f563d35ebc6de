"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from tracing import SpanRecorder, instrumented, layer_metrics  # noqa: E402
from workloads import result_row  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_OVERHEADS = {"trace.overhead_frac", "obs.overhead_frac"}


# -- metric names -----------------------------------------------------------

def test_metric_names_are_well_formed():
    names = (
        [w["name"] for w in SPEC["workloads"]]
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names + list(layer_metrics(SpanRecorder())):
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_spec_lists_exactly_the_metrics_the_runs_report():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    reported = set(layer_metrics(SpanRecorder())) | RUN_OVERHEADS
    assert {m["name"] for m in SPEC["per_layer"]} == reported
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


# -- self time --------------------------------------------------------------

class ScriptedClock:
    def __init__(self, *times: float) -> None:
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    recorder = SpanRecorder(clock=ScriptedClock(0, 1, 2, 3, 4, 5, 9, 10))
    recorder.open("outer")
    recorder.open("a")
    recorder.open("b")
    recorder.close()
    recorder.close()
    recorder.open("c")
    recorder.close()
    recorder.close()
    assert recorder.total("outer") == 10
    assert recorder.self_time("outer") == 10 - 3 - 4
    assert recorder.self_time("a") == 3 - 1
    assert recorder.self_time("b") == 1
    assert recorder.self_time("c") == 4
    assert recorder.edges[("outer", "a")] == 3
    assert recorder.edges[("a", "b")] == 1
    assert recorder.stack == []


def test_repeated_spans_accumulate_and_keep_durations():
    recorder = SpanRecorder(clock=ScriptedClock(0, 2, 3, 8),
                            keep_durations=("tick",))
    for __ in range(2):
        recorder.open("tick")
        recorder.close()
    assert recorder.calls("tick") == 2
    assert recorder.total("tick") == recorder.self_time("tick") == 7
    assert recorder.durations["tick"] == [2, 5]
    assert recorder.calls("never") == 0 and recorder.self_time("never") == 0


# -- the gate ---------------------------------------------------------------

PINS = gate.load_pins()


def _outcome(table: str, case: int = 0, **changes) -> dict:
    row = list(PINS[table][str(case)])
    outcome = {
        "row": row, "n": 8192, "completeness": row[1], "converged": True,
        "reached": 0, "detected": 0, "false_positives": 0,
    }
    outcome.update(changes)
    return outcome


def test_pins_reproduce_the_committed_history_checksum():
    rows = [PINS["sim"][str(case)][:7] for case in (0, 1)]
    assert gate.checksum(rows) == gate.HISTORY_CHECKSUM


def test_gate_passes_pinned_outcomes():
    assert gate.check("sim-array", 0, _outcome("sim"), PINS) == []
    assert gate.check("sim-observed", 0, _outcome("sim"), PINS) == []
    assert gate.check("net-loopback", 0,
                      _outcome("net-loopback", n=384), PINS) == []


def test_gate_fails_a_tampered_checksum():
    outcome = _outcome("sim")
    outcome["row"][6] += 1  # bytes_sent
    problems = gate.check("sim-array", 0, outcome, PINS)
    assert len(problems) == 1 and "checksum" in problems[0]


def test_gate_fails_a_run_checked_against_another_case():
    assert gate.check("sim-observed", 1, _outcome("sim", 0), PINS)


def test_gate_fails_completeness_below_the_floor():
    # One run this incomplete pulls the mean over the 16 cases below
    # 1 - 1/8192.
    problems = gate.check(
        "sim-array", 0, _outcome("sim", completeness=0.998), PINS
    )
    assert any("floor" in problem for problem in problems)


def test_single_runs_below_the_floor_pass_when_the_mean_holds():
    case_7 = _outcome("sim", 7)
    assert case_7["completeness"] < 1 - 1 / 8192
    assert gate.check("sim-array", 7, case_7, PINS) == []


def test_gate_fails_an_unconverged_loopback_group():
    outcome = _outcome("net-loopback", n=384, converged=False)
    assert any("converge" in p
               for p in gate.check("net-loopback", 0, outcome, PINS))


@pytest.mark.parametrize("reached,detected,false_positives", [
    (0, 0, 0), (5, 4, 0), (5, 5, 1),
])
def test_gate_fails_missed_or_false_detections(reached, detected,
                                               false_positives):
    outcome = _outcome("chaos-tamper", n=1024, reached=reached,
                       detected=detected, false_positives=false_positives)
    assert any("detection" in p
               for p in gate.check("chaos-tamper", 0, outcome, PINS))


# -- the traced run leaves nothing behind -----------------------------------

def _functions() -> dict:
    """Every function bound in a repro module or class namespace."""
    found = {}
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType):
                found[(name, attr)] = value
            elif isinstance(value, type) and value.__module__ == name:
                for method, member in vars(value).items():
                    if isinstance(member, types.FunctionType):
                        found[(name, attr, method)] = member
    return found


def _small_runs():
    from repro.experiments.params import with_params
    from repro.experiments.runner import run_once
    from repro.net.loopback import run_loopback_group
    from repro.obs.telemetry import RunTelemetry

    sim = with_params(n=64, k=4, seed=1)
    return [
        result_row(run_once(sim)),
        result_row(run_once(sim, telemetry=RunTelemetry.compact())),
        result_row(run_once(with_params(n=128, k=4, seed=0,
                                        campaign="tamper-forge"))),
        result_row(run_loopback_group(16, k=4, seed=0)),
    ]


def test_wrappers_are_removed_after_the_traced_run():
    from repro import sanitize

    untraced = _small_runs()
    before = _functions()
    recorder = SpanRecorder()
    with instrumented(recorder):
        assert _functions() != before
        traced = _small_runs()
    assert _functions() == before
    assert sanitize.SCREEN is None
    assert traced == untraced  # tracing never changes a result
    for name in ("core.absorb", "core.on_message", "obs.phase.emit",
                 "net.codec.encode", "sanitize.screen", "core.measure"):
        assert recorder.calls(name) > 0, name
    spans = {name: list(tally) for name, tally in recorder.spans.items()}
    _small_runs()
    assert recorder.spans == spans


# -- the command ------------------------------------------------------------

def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sim-array",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
