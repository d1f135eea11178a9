"""Tests for calibration / backend JSON serialization."""

import json

import pytest

from repro.exceptions import HardwareError
from repro.hardware import drift_series, ibm_mumbai, generic_backend, line
from repro.hardware.serialization import (
    backend_from_dict,
    backend_from_json,
    backend_to_dict,
    backend_to_json,
    calibration_from_dict,
    calibration_to_dict,
)


class TestCalibrationRoundtrip:
    def test_roundtrip_exact(self):
        backend = generic_backend(line(5), seed=9)
        payload = calibration_to_dict(backend.calibration)
        restored = calibration_from_dict(payload)
        assert restored.cx_error == backend.calibration.cx_error
        assert restored.cx_duration == backend.calibration.cx_duration
        assert restored.readout_error == backend.calibration.readout_error
        assert restored.t1_dt == backend.calibration.t1_dt

    def test_payload_is_json_compatible(self):
        backend = generic_backend(line(3), seed=9)
        text = json.dumps(calibration_to_dict(backend.calibration))
        assert isinstance(text, str)

    def test_malformed_rejected(self):
        with pytest.raises(HardwareError):
            calibration_from_dict({"cx_error": {}})


class TestBackendRoundtrip:
    def test_mumbai_roundtrip(self):
        original = ibm_mumbai()
        restored = backend_from_json(backend_to_json(original))
        assert restored.name == original.name
        assert restored.num_qubits == original.num_qubits
        assert restored.coupling.edges == original.coupling.edges
        assert restored.calibration.cx_error == original.calibration.cx_error
        assert restored.supports_dynamic_circuits

    def test_restored_backend_compiles(self):
        from repro.core import SRCaQR
        from repro.workloads import bv_circuit

        restored = backend_from_json(backend_to_json(ibm_mumbai()))
        result = SRCaQR(restored).run(bv_circuit(5))
        assert result.circuit.num_qubits == 27

    def test_invalid_json_rejected(self):
        with pytest.raises(HardwareError):
            backend_from_json("not json {")

    def test_wrong_version_rejected(self):
        payload = json.loads(backend_to_json(ibm_mumbai()))
        payload["version"] = 99
        with pytest.raises(HardwareError):
            backend_from_json(json.dumps(payload))

    def test_missing_field_rejected(self):
        payload = json.loads(backend_to_json(ibm_mumbai()))
        del payload["edges"]
        with pytest.raises(HardwareError):
            backend_from_json(json.dumps(payload))


class TestBackendDict:
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_dict_is_the_parsed_json(self, index):
        # the wire ships backend_to_dict; it must carry exactly what the
        # JSON text (and so every digest) carries
        backend = drift_series(ibm_mumbai(), 3, volatility=0.05, seed=4)[index]
        record = backend_to_dict(backend)
        assert record == json.loads(backend_to_json(backend))
        assert backend_to_json(backend) == json.dumps(
            record, indent=2, sort_keys=True
        )

    def test_roundtrip(self):
        original = ibm_mumbai()
        restored = backend_from_dict(backend_to_dict(original))
        assert backend_to_json(restored) == backend_to_json(original)

    def test_record_is_not_shared(self):
        backend = ibm_mumbai()
        record = backend_to_dict(backend)
        record["calibration"]["cx_error"].clear()
        assert backend_to_dict(backend)["calibration"]["cx_error"]

    def test_malformed_rejected(self):
        with pytest.raises(HardwareError):
            backend_from_dict(["not", "a", "dict"])
        record = backend_to_dict(ibm_mumbai())
        record["version"] = 99
        with pytest.raises(HardwareError):
            backend_from_dict(record)
        record = backend_to_dict(ibm_mumbai())
        del record["num_qubits"]
        with pytest.raises(HardwareError):
            backend_from_dict(record)
