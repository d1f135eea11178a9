"""Cache-key contract: what keeps a fingerprint stable, what invalidates it."""

import networkx as nx
import pytest

from repro.circuit import QuantumCircuit
from repro.exceptions import ServiceError
from repro.hardware import ibm_mumbai, scaled_heavy_hex_backend
from repro.service import (
    CALIB_BANDS_ENV,
    backend_digest,
    band_value,
    banded_backend_digest,
    circuit_digest,
    circuit_normal_form,
    graph_digest,
    request_fingerprint,
    resolve_calib_bands,
)
from repro.service.service import CompileRequest
from repro.workloads import bv_circuit, random_graph


class TestCircuitDigest:
    def test_stable_across_rebuilds(self):
        assert circuit_digest(bv_circuit(6)) == circuit_digest(bv_circuit(6))

    def test_gate_change_invalidates(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(2)
        b.x(0)
        assert circuit_digest(a) != circuit_digest(b)

    def test_wire_change_invalidates(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(2)
        b.h(1)
        assert circuit_digest(a) != circuit_digest(b)

    def test_param_change_invalidates(self):
        a = QuantumCircuit(1)
        a.rz(0.5, 0)
        b = QuantumCircuit(1)
        b.rz(0.5 + 1e-15, 0)
        assert circuit_digest(a) != circuit_digest(b)

    def test_unused_width_is_significant(self):
        a = QuantumCircuit(2)
        a.h(0)
        b = QuantumCircuit(3)
        b.h(0)
        assert circuit_digest(a) != circuit_digest(b)

    def test_condition_and_label_are_significant(self):
        a = QuantumCircuit(1, 1)
        a.x(0)
        b = QuantumCircuit(1, 1)
        b.x(0).c_if(0, 1)
        c = QuantumCircuit(1, 1)
        c.x(0).label = "tagged"
        digests = {circuit_digest(a), circuit_digest(b)}
        c_digest = circuit_digest(c)
        assert len(digests) == 2 and c_digest not in digests

    def test_normal_form_is_line_per_instruction(self):
        circuit = bv_circuit(4)
        lines = circuit_normal_form(circuit).strip().split("\n")
        assert lines[0] == f"qubits {circuit.num_qubits}"
        assert len(lines) == 2 + len(circuit.data)


class TestGraphDigest:
    def test_node_order_independent(self):
        a = nx.Graph([(0, 1), (1, 2)])
        b = nx.Graph([(1, 2), (1, 0)])
        assert graph_digest(a) == graph_digest(b)

    def test_edge_change_invalidates(self):
        assert graph_digest(nx.path_graph(4)) != graph_digest(nx.cycle_graph(4))

    def test_weights_are_significant(self):
        a = nx.Graph()
        a.add_edge(0, 1, weight=1.0)
        b = nx.Graph()
        b.add_edge(0, 1, weight=2.0)
        assert graph_digest(a) != graph_digest(b)


class TestBackendDigest:
    def test_none_backend(self):
        assert backend_digest(None) is None

    def test_stable_for_same_snapshot(self):
        assert backend_digest(ibm_mumbai()) == backend_digest(ibm_mumbai())

    def test_calibration_drift_invalidates(self):
        fresh = ibm_mumbai()
        before = backend_digest(fresh)
        edge = next(iter(fresh.calibration.cx_error))
        fresh.calibration.cx_error[edge] *= 1.001
        assert backend_digest(fresh) != before

    def test_different_topology_invalidates(self):
        assert backend_digest(ibm_mumbai()) != backend_digest(
            scaled_heavy_hex_backend(2)
        )


def _band_center(band: int, bands: int) -> float:
    """The log-scale midpoint of *band* with *bands* bands per decade."""
    return 10.0 ** ((band + 0.5) / bands)


def _band_edge(band: int, bands: int) -> float:
    """The upper boundary of *band* (first value of the next band)."""
    return 10.0 ** ((band + 1) / bands)


class TestBandValue:
    def test_center_values_share_a_band(self):
        center = _band_center(-5, 2)  # ~0.0056, a plausible CX error
        assert band_value(center, 2) == band_value(center * 1.05, 2) == -5

    def test_boundary_crossing_changes_band(self):
        edge = _band_edge(-5, 2)
        assert band_value(edge * 0.999, 2) != band_value(edge * 1.001, 2)

    def test_wider_bands_absorb_more_drift(self):
        # a 2.5x swing crosses a bands=4 boundary but not a bands=1 one
        assert band_value(1e-3, 1) == band_value(2.5e-3, 1)
        assert band_value(1e-3, 4) != band_value(2.5e-3, 4)

    def test_non_positive_and_non_finite_pass_through_exact(self):
        assert band_value(0.0, 2) == repr(0.0)
        assert band_value(-1.5, 2) == repr(-1.5)
        assert band_value(float("nan"), 2) == repr(float("nan"))
        assert band_value(float("inf"), 2) == repr(float("inf"))


class TestResolveCalibBands:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(CALIB_BANDS_ENV, "8")
        assert resolve_calib_bands(3) == 3

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv(CALIB_BANDS_ENV, "4")
        assert resolve_calib_bands(None) == 4

    def test_off_spellings_collapse(self, monkeypatch):
        monkeypatch.delenv(CALIB_BANDS_ENV, raising=False)
        assert resolve_calib_bands(None) is None
        assert resolve_calib_bands(0) is None
        monkeypatch.setenv(CALIB_BANDS_ENV, "0")
        assert resolve_calib_bands(None) is None

    def test_bad_values_raise(self, monkeypatch):
        with pytest.raises(ServiceError):
            resolve_calib_bands(-1)
        with pytest.raises(ServiceError):
            resolve_calib_bands("two")
        monkeypatch.setenv(CALIB_BANDS_ENV, "not-a-number")
        with pytest.raises(ServiceError):
            resolve_calib_bands(None)


class TestBandedBackendDigest:
    def test_none_backend(self):
        assert banded_backend_digest(None, 2) is None

    def test_banding_off_equals_exact_digest(self):
        backend = ibm_mumbai()
        exact = backend_digest(backend)
        assert banded_backend_digest(backend, None) == exact
        assert banded_backend_digest(backend, 0) == exact

    def test_in_band_drift_shares_digest(self):
        bands = 2
        a, b = ibm_mumbai(), ibm_mumbai()
        edge = next(iter(a.calibration.cx_error))
        # pin the value to a band center in both snapshots, then drift
        # one of them within the band
        band = band_value(a.calibration.cx_error[edge], bands)
        a.calibration.cx_error[edge] = _band_center(band, bands)
        b.calibration.cx_error[edge] = _band_center(band, bands) * 1.05
        assert backend_digest(a) != backend_digest(b)
        assert banded_backend_digest(a, bands) == banded_backend_digest(b, bands)

    def test_cross_boundary_drift_invalidates(self):
        bands = 2
        a, b = ibm_mumbai(), ibm_mumbai()
        edge = next(iter(a.calibration.cx_error))
        band = band_value(a.calibration.cx_error[edge], bands)
        boundary = _band_edge(band, bands)
        a.calibration.cx_error[edge] = boundary * 0.999
        b.calibration.cx_error[edge] = boundary * 1.001
        assert banded_backend_digest(a, bands) != banded_backend_digest(b, bands)

    def test_band_count_feeds_the_digest(self):
        backend = ibm_mumbai()
        assert banded_backend_digest(backend, 2) != banded_backend_digest(backend, 4)

    def test_duration_drift_always_invalidates(self):
        # durations are not banded: any change must produce a new digest
        a, b = ibm_mumbai(), ibm_mumbai()
        edge = next(iter(a.calibration.cx_duration))
        b.calibration.cx_duration[edge] += 1
        assert banded_backend_digest(a, 2) != banded_backend_digest(b, 2)


class TestRequestFingerprint:
    def test_semantic_knobs_invalidate(self):
        circuit = bv_circuit(5)
        base = request_fingerprint(circuit)
        assert request_fingerprint(circuit, mode="max_reuse") != base
        assert request_fingerprint(circuit, qubit_limit=3) != base
        assert request_fingerprint(circuit, reset_style="builtin") != base
        assert request_fingerprint(circuit, seed=12) != base
        assert request_fingerprint(circuit, auto_commuting=False) != base
        assert request_fingerprint(circuit, backend=ibm_mumbai()) != base

    def test_graph_and_circuit_targets_never_collide(self):
        # same digest text in a different kind must yield a different key
        graph = random_graph(6, 0.4, seed=3)
        circuit = bv_circuit(6)
        assert request_fingerprint(graph) != request_fingerprint(circuit)

    @pytest.mark.parametrize("mode", ["min_depth", "max_reuse", "min_swap"])
    def test_repeatable(self, mode):
        circuit = bv_circuit(4)
        backend = ibm_mumbai()
        assert request_fingerprint(circuit, backend, mode=mode) == (
            request_fingerprint(circuit, backend, mode=mode)
        )

    def test_banding_off_preserves_legacy_keys(self, monkeypatch):
        # the calib_bands payload entry only appears when banding is on,
        # so existing cache entries stay addressable
        monkeypatch.delenv(CALIB_BANDS_ENV, raising=False)
        circuit = bv_circuit(5)
        backend = ibm_mumbai()
        legacy = request_fingerprint(circuit, backend)
        assert request_fingerprint(circuit, backend, calib_bands=0) == legacy
        assert request_fingerprint(circuit, backend, calib_bands=2) != legacy

    def test_in_band_drift_shares_fingerprint(self):
        circuit = bv_circuit(5)
        a, b = ibm_mumbai(), ibm_mumbai()
        edge = next(iter(a.calibration.cx_error))
        band = band_value(a.calibration.cx_error[edge], 2)
        a.calibration.cx_error[edge] = _band_center(band, 2)
        b.calibration.cx_error[edge] = _band_center(band, 2) * 1.05
        assert request_fingerprint(circuit, a) != request_fingerprint(circuit, b)
        assert request_fingerprint(circuit, a, calib_bands=2) == (
            request_fingerprint(circuit, b, calib_bands=2)
        )

    def test_env_bands_apply_when_unset(self, monkeypatch):
        circuit = bv_circuit(5)
        backend = ibm_mumbai()
        explicit = request_fingerprint(circuit, backend, calib_bands=2)
        monkeypatch.setenv(CALIB_BANDS_ENV, "2")
        assert request_fingerprint(circuit, backend) == explicit


class TestGoldenDigests:
    """Pinned values: a changed digest re-keys every disk cache and the ring."""

    def test_backend_digest(self):
        assert backend_digest(ibm_mumbai()) == (
            "cc0ca4d08ede797841de58d2b54f6a72c4c4306e9d4b1418c4f230553924ee36"
        )

    def test_banded_backend_digest(self):
        assert banded_backend_digest(ibm_mumbai(), 2) == (
            "5c37427477e08e44480c075da7123dc45d3ded2632d389b6788d6a60b7934a73"
        )

    @pytest.mark.parametrize(
        "bands, expected",
        [
            (2, "b878c61aa6d89e83bc1762309ea3b6d193aaf86548dfe43645b8e222c65ede70"),
            (0, "91f16000f723f012940b7f83068c8287d2fb8b2fd157bfa9fa4dca5380093d06"),
        ],
    )
    def test_request_fingerprint(self, bands, expected):
        assert (
            request_fingerprint(bv_circuit(16), ibm_mumbai(), calib_bands=bands)
            == expected
        )
        request = CompileRequest(bv_circuit(16), ibm_mumbai(), calib_bands=bands)
        assert request.keys() == (expected, request.shard())


class TestRequestKeys:
    @pytest.mark.parametrize("bands", [None, 0, 2, 4])
    def test_keys_match_fingerprint_and_shard(self, bands, monkeypatch):
        monkeypatch.setenv(CALIB_BANDS_ENV, "3")
        for target in (bv_circuit(6), random_graph(6, 0.4, seed=3)):
            for backend in (None, ibm_mumbai()):
                request = CompileRequest(
                    target, backend, mode="min_swap", calib_bands=bands
                )
                assert request.keys() == (request.fingerprint(), request.shard())
                assert request.keys()[0] == request_fingerprint(
                    target, backend, mode="min_swap", calib_bands=bands
                )

    def test_one_backend_digest_per_call(self, monkeypatch):
        import repro.service.service as service_module

        calls = []
        real = service_module.banded_backend_digest

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "banded_backend_digest", counted)
        CompileRequest(bv_circuit(5), ibm_mumbai(), calib_bands=2).keys()
        assert len(calls) == 1
