"""Compile-service warm-hit latency: the encoded-envelope cache.

Repeated ``/v1/compile`` for one warm fingerprint against a server with
the encoded-envelope cache on vs. off.  The envelope path skips
``report_to_dict`` + JSON per hit; the gate is soft (within
``ENVELOPE_SLACK`` of the non-envelope median and at least one counted
``envelope_hits``) because small-circuit serialization is already cheap.

The pooled re-dispatch gate (one executor across re-dispatches; records
ship once per worker) is the tier-1 test
``tests/service/test_workers.py::TestServiceIntegration::
test_redispatch_builds_one_executor_and_ships_records_once_per_worker``.

Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_service_latency.py``.
"""

import statistics
import time

from conftest import emit, once

from repro.analysis import format_table
from repro.service import (
    CompileRequest,
    CompileService,
    RemoteCompileService,
    start_server_thread,
)
from repro.workloads import bv_circuit

#: Soft gate: envelope-on warm hits may not be slower than envelope-off
#: by more than this factor (they should be faster; the bar caps noise).
ENVELOPE_SLACK = 1.25

WARM_HITS = 150


def _warm_hit_latencies(handle, request):
    client = RemoteCompileService(handle.url, timeout=120)
    try:
        client.compile_classified(request)  # miss
        client.compile_classified(request)  # genuine hit (stores envelope)
        samples = []
        for _ in range(WARM_HITS):
            start = time.perf_counter()
            client.compile_classified(request)
            samples.append(time.perf_counter() - start)
    finally:
        client.close()
    samples.sort()
    return samples


def test_envelope_cache_warm_hit_latency(benchmark):
    request = CompileRequest(target=bv_circuit(12))

    def run():
        with_handle = start_server_thread(service=CompileService())
        try:
            with_samples = _warm_hit_latencies(with_handle, request)
            envelope_hits = with_handle.server.stats.counters.get(
                "envelope_hits", 0
            )
        finally:
            with_handle.stop()
        without_handle = start_server_thread(
            service=CompileService(), envelope_cache_entries=0
        )
        try:
            without_samples = _warm_hit_latencies(without_handle, request)
        finally:
            without_handle.stop()
        return with_samples, without_samples, envelope_hits

    with_samples, without_samples, envelope_hits = once(benchmark, run)
    with_median = statistics.median(with_samples)
    without_median = statistics.median(without_samples)

    def p99(samples):
        return samples[min(len(samples) - 1, int(0.99 * len(samples)))]

    rows = [
        [
            "envelope off",
            f"{without_median * 1000:.2f}",
            f"{p99(without_samples) * 1000:.2f}",
        ],
        [
            "envelope on",
            f"{with_median * 1000:.2f}",
            f"{p99(with_samples) * 1000:.2f}",
        ],
    ]
    text = format_table(["warm-hit path", "p50 (ms)", "p99 (ms)"], rows) + (
        f"\n{WARM_HITS} warm hits of bv_{request.target.num_qubits}; "
        f"envelope_hits counted: {envelope_hits}"
    )
    emit("bench_service_latency_envelope", text)

    assert envelope_hits >= WARM_HITS, "warm hits must ride the envelope cache"
    assert with_median <= without_median * ENVELOPE_SLACK, (
        f"envelope-on warm hits regressed: {with_median * 1000:.2f}ms vs "
        f"{without_median * 1000:.2f}ms off"
    )
