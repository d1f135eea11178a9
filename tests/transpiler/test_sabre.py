"""Tests for SABRE routing and layout: hardware compliance + semantics."""

import pytest

from repro.circuit import QuantumCircuit
from repro.circuit.random import random_circuit
from repro.exceptions import TranspilerError
from repro.hardware import CouplingMap, falcon_27, grid, line, ring
from repro.sim import run_counts
from repro.transpiler import sabre_layout, sabre_route, trivial_layout


def assert_hardware_compliant(circuit: QuantumCircuit, coupling: CouplingMap):
    for instruction in circuit.data:
        if len(instruction.qubits) == 2 and not instruction.is_directive():
            a, b = instruction.qubits
            assert coupling.are_adjacent(a, b), f"{instruction} not on an edge"


class TestSabreRoute:
    def test_adjacent_gates_untouched(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        result = sabre_route(circuit, line(2))
        assert result.swap_count == 0
        assert result.circuit.count_ops()["cx"] == 1

    def test_distant_gate_needs_swaps(self):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 3)
        result = sabre_route(circuit, line(4))
        assert result.swap_count >= 1
        assert_hardware_compliant(result.circuit, line(4))

    def test_three_qubit_gate_rejected(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(TranspilerError):
            sabre_route(circuit, line(3))

    def test_too_wide_circuit_rejected(self):
        circuit = QuantumCircuit(5)
        with pytest.raises(TranspilerError):
            sabre_route(circuit, line(3))

    def test_compliance_on_random_circuits(self):
        coupling = grid(3, 3)
        for seed in range(5):
            circuit = random_circuit(8, 40, seed=seed)
            result = sabre_route(circuit, coupling, seed=seed)
            assert_hardware_compliant(result.circuit, coupling)

    def test_all_gates_preserved(self):
        coupling = ring(5)
        circuit = random_circuit(5, 30, seed=3)
        result = sabre_route(circuit, coupling)
        original = circuit.count_ops()
        routed = result.circuit.count_ops()
        for name, count in original.items():
            if name != "swap":
                assert routed[name] == count

    def test_semantic_equivalence_small(self):
        """Routed circuit must produce the same output distribution."""
        circuit = QuantumCircuit(3, 3)
        circuit.h(0)
        circuit.cx(0, 2)  # non-adjacent on a line
        circuit.cx(0, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        circuit.measure(2, 2)
        coupling = line(3)
        result = sabre_route(circuit, coupling, seed=5)
        assert_hardware_compliant(result.circuit, coupling)
        counts_logical = run_counts(circuit, shots=4000, seed=42)
        counts_routed = run_counts(result.circuit, shots=4000, seed=42)
        for key in set(counts_logical) | set(counts_routed):
            assert abs(
                counts_logical.get(key, 0) - counts_routed.get(key, 0)
            ) < 300

    def test_measures_remapped_to_physical(self):
        circuit = QuantumCircuit(2, 2)
        circuit.measure(1, 1)
        layout = trivial_layout(2, 3)
        layout.swap_physical(1, 2)
        result = sabre_route(circuit, line(3), initial_layout=layout)
        measure = [i for i in result.circuit.data if i.name == "measure"][0]
        assert measure.qubits == (2,)
        assert measure.clbits == (1,)

    def test_final_layout_tracks_swaps(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        result = sabre_route(circuit, line(3), seed=1)
        # final layout must be a permutation of the initial
        mapped = result.final_layout.as_dict()
        assert sorted(mapped.keys()) == [0, 1, 2]
        assert len(set(mapped.values())) == 3


class TestSabreLayout:
    def test_layout_reduces_swaps_for_star_program(self):
        """BV-style star interaction: a good layout centres the hub."""
        n = 3
        circuit = QuantumCircuit(n + 1)
        for q in range(n):
            circuit.cx(q, n)
        coupling = CouplingMap(4, [(0, 1), (1, 2), (1, 3)])  # star on 1
        layout = sabre_layout(circuit, coupling, seed=3)
        routed = sabre_route(circuit, coupling, layout, seed=3)
        trivial = sabre_route(circuit, coupling, seed=3)
        assert routed.swap_count <= trivial.swap_count
        assert routed.swap_count == 0  # hub fits on physical qubit 1

    def test_layout_on_falcon(self):
        circuit = random_circuit(6, 30, seed=9)
        coupling = falcon_27()
        layout = sabre_layout(circuit, coupling, seed=9, iterations=2, trials=2)
        result = sabre_route(circuit, coupling, layout, seed=9)
        assert_hardware_compliant(result.circuit, coupling)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_wider_than_device_raises_before_any_pool(self, parallel, monkeypatch):
        def _no_pool(*args, **kwargs):
            raise AssertionError("a rejected layout search must not fork")

        monkeypatch.setattr(
            "repro.transpiler.sabre.ProcessPoolExecutor", _no_pool
        )
        with pytest.raises(TranspilerError, match="exceed device size"):
            sabre_layout(random_circuit(5, 10, seed=1), line(3), parallel=parallel)

    @pytest.mark.parametrize("parallel", [False, True])
    def test_zero_trials_raises(self, parallel, monkeypatch):
        def _no_pool(*args, **kwargs):
            raise AssertionError("a rejected layout search must not fork")

        monkeypatch.setattr(
            "repro.transpiler.sabre.ProcessPoolExecutor", _no_pool
        )
        with pytest.raises(TranspilerError, match="at least one trial"):
            sabre_layout(
                random_circuit(3, 10, seed=1), line(3), trials=0, parallel=parallel
            )
