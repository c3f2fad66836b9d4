"""Toy-scale self-test of the benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Every workload runs tiny, traced and untraced, on one seed; the output
checks must pass, every metric ``BENCHMARK.json`` names must be printed
with its unit, and the simulated-outcome digest must repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import clock, run
from perfbench.spans import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main([
            "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--size", "smoke",
        ])
    assert code == 0
    lines = buf.getvalue().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_metric_lists_match_benchmark_json():
    assert run.WORKLOADS == tuple(w["name"] for w in BENCHMARK["workloads"])
    assert run.END_TO_END == [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert run.PER_LAYER == [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_smoke(workload):
    plain, digest = _run(workload, 5, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert _units(plain) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced, traced_digest = _run(workload, 5, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert _units(traced) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert traced_digest == digest
    assert traced["metrics"]["sim.outcome_digest"]["value"] == int(digest[:13], 16)


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):  # 0 .. 7
        with tracer.span("inner"):  # 1 .. 4
            with tracer.span("inner"):  # 2 .. 3: re-entry adds no busy time
                pass
        with tracer.span("leaf"):  # 5 .. 6
            pass
    busy, own = tracer.busy_and_self()
    assert busy == {"outer": 7.0, "inner": 3.0, "leaf": 1.0}
    assert own == {"outer": 3.0, "inner": 3.0, "leaf": 1.0}
    assert tracer.busy_under("leaf", "outer") == 1.0


def test_stopwatch_scales_each_lap_by_its_bracketing_reference():
    references = iter([1.0, 3.0, 1.0])
    ticks = iter([0.0, 4.0, 5.0, 7.0, 7.0])
    watch = clock.Stopwatch(
        clock=lambda: next(ticks),
        reference=lambda: clock.REFERENCE_S * next(references),
    )
    assert watch.lap() == 0.5  # 4 s at half the reference speed
    assert watch.lap() == 0.5  # 2 s, bracketed by 3x and 1x
    assert (watch.raw_s, watch.scaled_s) == (6.0, 3.0)
