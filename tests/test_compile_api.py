"""Tests for the top-level caqr_compile entry point."""

import pytest

from repro.compile_api import caqr_compile
from repro.exceptions import ReuseError
from repro.hardware import ibm_mumbai
from repro.sim import run_counts
from repro.workloads import bv_circuit, random_graph


class TestRegularModes:
    def test_qubit_budget(self):
        report = caqr_compile(bv_circuit(6), mode="qubit_budget", qubit_limit=2)
        assert report.metrics.qubits_used == 2
        assert report.qubit_saving == pytest.approx(4 / 6)
        assert report.reuse_beneficial

    def test_qubit_budget_infeasible(self):
        with pytest.raises(ReuseError):
            caqr_compile(bv_circuit(4), mode="qubit_budget", qubit_limit=1)

    def test_qubit_budget_needs_limit(self):
        with pytest.raises(ReuseError):
            caqr_compile(bv_circuit(4), mode="qubit_budget")

    def test_max_reuse_logical(self):
        report = caqr_compile(bv_circuit(8), mode="max_reuse")
        assert report.metrics.qubits_used == 2
        assert report.baseline_metrics is None

    def test_min_depth_with_backend(self):
        backend = ibm_mumbai()
        report = caqr_compile(bv_circuit(6), backend=backend, mode="min_depth")
        assert report.baseline_metrics is not None
        assert report.metrics.depth <= report.baseline_metrics.depth

    def test_min_swap_requires_backend(self):
        with pytest.raises(ReuseError):
            caqr_compile(bv_circuit(4), mode="min_swap")

    def test_min_swap_on_backend(self):
        backend = ibm_mumbai()
        report = caqr_compile(bv_circuit(8), backend=backend, mode="min_swap")
        assert report.metrics.swap_count <= report.baseline_metrics.swap_count

    def test_unknown_mode(self):
        with pytest.raises(ReuseError):
            caqr_compile(bv_circuit(4), mode="teleport")

    def test_compiled_circuit_still_correct(self):
        report = caqr_compile(bv_circuit(5), mode="max_reuse")
        counts = run_counts(report.circuit, shots=60, seed=2)
        projected = {}
        for key, value in counts.items():
            projected[key[:4]] = projected.get(key[:4], 0) + value
        assert projected == {"1111": 60}


class TestGraphTarget:
    def test_graph_qubit_budget(self):
        graph = random_graph(8, 0.3, seed=4)
        report = caqr_compile(graph, mode="qubit_budget", qubit_limit=6)
        assert report.metrics.qubits_used == 6

    def test_graph_min_swap(self):
        backend = ibm_mumbai()
        graph = random_graph(8, 0.3, seed=4)
        report = caqr_compile(graph, backend=backend, mode="min_swap")
        assert report.baseline_metrics is not None
        assert report.metrics.swap_count <= report.baseline_metrics.swap_count + 2


class TestSerialCompile:
    """``parallel=False`` must keep every transpile's layout search
    in-process, not only the SR router's."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "min_depth"},
            {"mode": "min_swap"},
            {"mode": "qubit_budget", "qubit_limit": 2},
            {"strategy": "chain"},
        ],
        ids=["min_depth", "min_swap", "qubit_budget", "chain"],
    )
    def test_no_layout_pool(self, kwargs, monkeypatch):
        def _no_pool(*args, **kwargs):
            raise AssertionError("serial compile forked a layout pool")

        monkeypatch.setattr("repro.transpiler.sabre.ProcessPoolExecutor", _no_pool)
        report = caqr_compile(
            bv_circuit(16), backend=ibm_mumbai(), parallel=False, **kwargs
        )
        assert report.baseline_metrics is not None
