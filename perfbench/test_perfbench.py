"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

* Each workload runs twice at one seed: quality sums and the counts
  later changes will cite must repeat exactly, and the layer isolation
  the workloads are built for must hold.
* A second seed changes the generated inputs; the same seed does not.
* The output check flags a deliberately broken circuit.
* Each timed request is scaled by the calibration slices next to it.

Running every workload twice takes a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from repro.compile_api import caqr_compile  # noqa: E402
from repro.hardware import backend_to_json, ibm_mumbai  # noqa: E402
from repro.workloads import bv_circuit, bv_expected_bitstring, multiply_13  # noqa: E402

from checks import broken, compiled_ok, report_signature  # noqa: E402
from speed import REFERENCE_SLICE_S, Speed  # noqa: E402
from workloads import band_groups, cold_circuits, warm_backends  # noqa: E402

REPEATED_COUNTS = (
    "service.cache.misses",
    "transpiler.baseline_transpile_calls",
    "transpiler.point_transpile_calls",
    "core.tradeoff.sweep_calls",
)


def traced_run(workload: str, seed: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench_out", f"run-{workload}-seed{seed}-trace1.json")
    with open(path) as handle:
        record = json.load(handle)
    assert result["correct"] and result["failed"] == 0, record
    return {name: entry["value"] for name, entry in result["metrics"].items()}, record


@pytest.mark.parametrize("workload", ["cold-compile", "warm-http", "fleet-drift"])
def test_counts_repeat_at_one_seed(workload):
    first, first_record = traced_run(workload, 7)
    second, second_record = traced_run(workload, 7)
    assert first_record["quality"] == second_record["quality"]
    for name in REPEATED_COUNTS:
        assert first[name] == second[name], name
    if workload == "cold-compile":
        assert first["layer.service_calls"] == 0
        assert first["trace.coverage_ratio"] >= 0.9
    if workload == "warm-http":
        assert first["layer.core_calls"] == 0 and first["layer.transpiler_calls"] == 0
        assert first["service.cache.hit_ratio"] == 1.0
    if workload == "fleet-drift":
        assert 0 < first["service.cache.misses"] < 0.5


def test_second_seed_changes_inputs():
    def qaoa(seed):
        return cold_circuits(seed)[2][0].data

    def warm(seed):
        return [backend_to_json(b) for b in warm_backends(seed, 4)]

    def fleet(seed):
        return [backend_to_json(g[0]) for g in band_groups(seed, 3, 2, 0.01, 6)]

    for inputs in (qaoa, warm, fleet):
        assert inputs(1) == inputs(1)
        assert inputs(1) != inputs(2)


def test_check_flags_broken_circuits():
    backend = ibm_mumbai()
    qaoa = cold_circuits(1)[2][0]
    cases = [(qaoa, None), (multiply_13(), None), (bv_circuit(8), bv_expected_bitstring(8))]
    for circuit, expected in cases:
        report = caqr_compile(circuit, backend, strategy="chain")
        assert compiled_ok(circuit, report.circuit, expected)
        assert not compiled_ok(circuit, broken(report.circuit), expected)
    signature = report_signature(report)
    report.metrics = replace(report.metrics, depth=report.metrics.depth + 1)
    assert report_signature(report) != signature


def test_requests_scale_by_neighbouring_slices():
    speed = Speed()
    speed.slices = [REFERENCE_SLICE_S] * 4 + [2 * REFERENCE_SLICE_S] * 4
    speed.first_after = [2, 6]  # one request in the fast stretch, one in the slow
    assert speed.scaled([1.0, 1.0]) == [1.0, 0.5]
    assert abs(speed.factor() - 2 / 3) < 1e-12
