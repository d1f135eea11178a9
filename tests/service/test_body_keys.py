"""The server's body-digest fast path: a repeat compile body costs one sha256.

A compile body the server has decoded before maps, through
:class:`~repro.service.net.http1.BodyKeyCache`, straight to its
``(fingerprint, shard, strategy)``; the envelope check behind it is the
same one a first-seen body goes through.  These tests pin that the
shortcut changes cost only: invalidation, TTL, auth, cache-only probes
and the counters behave exactly as on the decoding path.
"""

import http.client
import json
import threading
import time
import types

import pytest

import repro.service.cache as cache_module
import repro.service.fingerprint as fingerprint_module
import repro.service.net.server as server_module
import repro.service.net.wire as wire_module
from repro.hardware import drift_series, ibm_mumbai
from repro.service import CompileService, RemoteCompileService, start_server_thread
from repro.service.net.http1 import BodyKeyCache
from repro.service.net.wire import request_from_wire, request_to_wire
from repro.service.service import CompileRequest
from repro.workloads import bv_circuit


def _body(request, indent=None):
    # indent gives the same envelope different bytes: a body the fast
    # path has never seen, so the server decodes it
    return json.dumps(request_to_wire(request), indent=indent).encode()


def _post(server, body, path="/v1/compile", headers=None):
    conn = http.client.HTTPConnection(server.server.host, server.server.port)
    try:
        conn.request("POST", path, body=body, headers=headers or {})
        response = conn.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


def _compile(server, body, headers=None):
    status, headers, _ = _post(server, body, headers=headers)
    assert status == 200
    return headers["X-CaQR-Cache"], headers["X-CaQR-Fingerprint"]


def _invalidate(server, payload):
    status, _, _ = _post(server, json.dumps(payload).encode(), "/v1/cache/invalidate")
    assert status == 200


@pytest.fixture
def server():
    handle = start_server_thread(service=CompileService())
    yield handle
    handle.stop()


REQUEST = CompileRequest(target=bv_circuit(5), backend=ibm_mumbai(), calib_bands=2)


class TestBodyKeyCache:
    def test_get_put_and_lru_order(self):
        cache = BodyKeyCache(2)
        digest_a, value = cache.get(b"a")
        assert value is None
        cache.put(digest_a, "A")
        digest_b, _ = cache.get(b"b")
        cache.put(digest_b, "B")
        assert cache.get(b"a") == (digest_a, "A")  # a is now most recent
        digest_c, _ = cache.get(b"c")
        cache.put(digest_c, "C")
        assert len(cache) == 2
        assert cache.get(b"b")[1] is None
        assert cache.get(b"a")[1] == "A"
        assert cache.get(b"c")[1] == "C"


class TestFastPath:
    def test_repeat_body_skips_decode(self, server):
        body = _body(REQUEST)
        assert _compile(server, body)[0] == "miss"
        assert _compile(server, body)[0] == "hit"  # stores the envelope
        counters = server.server.stats.counters
        assert counters["key_cache_misses"] == 1
        assert counters["key_cache_hits"] == 1
        status, fingerprint = _compile(server, body)
        assert status == "hit"
        assert fingerprint == REQUEST.fingerprint()
        assert counters["key_cache_hits"] == 2
        assert counters["envelope_hits"] == 1

    def test_counters_match_the_decoding_path(self):
        fast = start_server_thread(service=CompileService())
        slow = start_server_thread(service=CompileService())
        try:
            for indent in (None, 1, 2, 3):
                assert _compile(fast, _body(REQUEST)) == _compile(
                    slow, _body(REQUEST, indent)
                )
            fast_counters = fast.server.stats.counters
            slow_counters = slow.server.stats.counters
            assert fast_counters["key_cache_hits"] == 3
            assert slow_counters.get("key_cache_hits", 0) == 0
            for name in ("requests", "hits", "misses", "envelope_hits", "envelope_stores"):
                assert fast_counters.get(name) == slow_counters.get(name), name
        finally:
            fast.stop()
            slow.stop()

    @pytest.mark.parametrize("scope", ["key", "all"])
    def test_invalidation_makes_a_repeat_body_miss(self, server, scope):
        body = _body(REQUEST)
        for expected in ("miss", "hit", "hit"):
            status, fingerprint = _compile(server, body)
            assert status == expected
        if scope == "key":
            _invalidate(server, {"fingerprint": fingerprint})
        else:
            _invalidate(server, {"all": True})
        assert _compile(server, body)[0] == "miss"
        assert server.server.stats.counters["misses"] == 2
        assert _compile(server, body)[0] == "hit"

    def test_ttl_expiry_makes_a_repeat_body_miss(self, monkeypatch):
        shift = [0.0]
        clock = types.SimpleNamespace(
            monotonic=lambda: time.monotonic() + shift[0],
            time=lambda: time.time() + shift[0],
        )
        monkeypatch.setattr(cache_module, "time", clock)
        handle = start_server_thread(service=CompileService(ttl=60.0))
        try:
            body = _body(REQUEST)
            for expected in ("miss", "hit", "hit"):
                assert _compile(handle, body)[0] == expected
            shift[0] = 120.0
            assert _compile(handle, body)[0] == "miss"
            assert handle.server.stats.counters["key_cache_hits"] == 3
        finally:
            handle.stop()

    def test_repeat_body_still_needs_the_token(self):
        handle = start_server_thread(service=CompileService(), auth_token="s3cret")
        try:
            body = _body(REQUEST)
            auth = {"Authorization": "Bearer s3cret"}
            for expected in ("miss", "hit", "hit"):
                assert _compile(handle, body, auth)[0] == expected
            status, _, payload = _post(handle, body)
            assert status == 401
            assert json.loads(payload)["error"]["code"] == "unauthorized"
            status, _, _ = _post(handle, body, headers={"Authorization": "Bearer nope"})
            assert status == 401
        finally:
            handle.stop()

    def test_calib_bands_change_the_key(self, server):
        keys = set()
        for bands in (0, 2, 4):
            request = CompileRequest(
                target=bv_circuit(5), backend=ibm_mumbai(), calib_bands=bands
            )
            body = _body(request)
            status, fingerprint = _compile(server, body)
            assert status == "miss"
            assert _compile(server, body) == ("hit", fingerprint)
            assert fingerprint == request.fingerprint()
            keys.add(fingerprint)
        assert len(keys) == 3

    def test_cache_only_probe_of_a_known_body(self, server):
        body = _body(REQUEST)
        probe = {server_module.CACHE_ONLY_HEADER: "1"}
        status, headers, _ = _post(server, body, headers=probe)
        assert status == 404
        fingerprint = headers["X-CaQR-Fingerprint"]
        assert fingerprint == REQUEST.fingerprint()
        _compile(server, body)  # miss: compiles and stores
        for _ in range(2):  # the first probe encodes, the second replays
            status, headers, payload = _post(server, body, headers=probe)
            assert status == 200
            assert headers["X-CaQR-Cache"] == "hit"
            assert headers["X-CaQR-Strategy"] == REQUEST.strategy
            assert json.loads(payload)["fingerprint"] == fingerprint
        _invalidate(server, {"fingerprint": fingerprint})
        status, headers, _ = _post(server, body, headers=probe)
        assert status == 404
        counters = server.server.stats.counters
        assert counters["cache_only_hits"] == 2
        assert counters["cache_only_misses"] == 2
        assert counters["key_cache_misses"] == 1

    def test_malformed_bodies_stay_bad_requests(self, server):
        for path in ("/v1/compile", "/v1/compile_batch"):
            for _ in range(2):
                status, _, payload = _post(server, b"not json", path)
                assert status == 400
                assert json.loads(payload)["error"]["code"] == "bad_request"
        batch = json.dumps({"schema": 4, "requests": [{"schema": 999}]}).encode()
        assert _post(server, batch, "/v1/compile_batch")[0] == 400

    def test_lru_stays_within_envelope_cache_entries(self):
        handle = start_server_thread(
            service=CompileService(), envelope_cache_entries=2
        )
        try:
            bodies = [_body(CompileRequest(target=bv_circuit(n))) for n in (3, 4, 5, 6)]
            for body in bodies + bodies:
                _compile(handle, body)
                assert len(handle.server._body_keys) <= 2
            # every body was evicted before its repeat: all decoded again
            assert handle.server.stats.counters["key_cache_misses"] == 8
            assert _compile(handle, bodies[-1])[0] == "hit"
        finally:
            handle.stop()

    def test_disabled_with_the_envelope_cache(self):
        handle = start_server_thread(
            service=CompileService(), envelope_cache_entries=0
        )
        try:
            body = _body(REQUEST)
            assert [_compile(handle, body)[0] for _ in range(3)] == ["miss", "hit", "hit"]
            assert "key_cache_hits" not in handle.server.stats.counters
        finally:
            handle.stop()


class _Counter:
    """Counts calls of wrapped functions, split by client vs server thread."""

    def __init__(self):
        self.calls = []

    def wrap(self, fn, name):
        def counted(*args, **kwargs):
            side = "server" if threading.current_thread().name.startswith("caqr") else "client"
            self.calls.append((name, side))
            return fn(*args, **kwargs)

        return counted

    def count(self, name, side):
        return sum(1 for call in self.calls if call == (name, side))


class TestSerialisationCalls:
    def test_repeat_body_serialises_no_backend(self, server, monkeypatch):
        counter = _Counter()
        for module, name in (
            (wire_module, "backend_to_json"),
            (wire_module, "backend_to_dict"),
            (fingerprint_module, "backend_to_json"),
            (fingerprint_module, "backend_to_dict"),
            (server_module, "request_from_wire"),
        ):
            monkeypatch.setattr(module, name, counter.wrap(getattr(module, name), name))
        with RemoteCompileService(server.url, timeout=120) as client:
            for _ in range(2):  # miss, hit (stores the envelope)
                client.compile_request(REQUEST)
            counter.calls.clear()
            for _ in range(3):
                _, _, status = client.compile_classified(REQUEST)
                assert status == "hit"
        assert counter.count("backend_to_json", "server") == 0
        assert counter.count("backend_to_dict", "server") == 0
        assert counter.count("request_from_wire", "server") == 0
        assert counter.count("backend_to_json", "client") == 0
        assert counter.count("backend_to_dict", "client") == 3
        assert server.server.stats.counters["envelope_hits"] == 3

    def test_batch_keys_each_member_once(self, server, monkeypatch):
        calls = []
        real = CompileRequest.keys

        def counted(request):
            calls.append(threading.current_thread().name)
            return real(request)

        monkeypatch.setattr(CompileRequest, "keys", counted)
        requests = [
            CompileRequest(target=bv_circuit(5)),
            CompileRequest(target=bv_circuit(6)),
            CompileRequest(target=bv_circuit(5)),
        ]
        with RemoteCompileService(server.url, timeout=120) as client:
            reports = client.compile_batch(requests)
        assert len(reports) == 3
        # one keys() per member, all on a worker thread (not the loop)
        assert len(calls) == 3
        assert all(name.startswith("caqr-compile") for name in calls)


class TestWireKeys:
    @pytest.mark.parametrize("bands", [0, 1, 2, 4])
    def test_keys_survive_the_wire(self, bands):
        for backend in drift_series(ibm_mumbai(), 4, volatility=0.05, seed=5):
            request = CompileRequest(
                target=bv_circuit(6), backend=backend, mode="min_swap",
                calib_bands=bands,
            )
            decoded = request_from_wire(json.loads(json.dumps(request_to_wire(request))))
            assert decoded.keys() == request.keys()
