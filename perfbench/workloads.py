"""The three workloads: inputs drawn from the seed, one pass at a time.

Each workload is a closed loop from one client thread with one
connection, because every caller of ``caqr_compile`` and of
``RemoteCompileService`` waits for its reply.  A workload

* ``prepare()`` builds its inputs and starts its servers;
* ``warm_up()`` runs one untimed pass (imports, lazy state, caches);
* ``run_pass(run)`` sends one pass of requests through ``run.call``, or
  through ``ctx.untimed`` when *run* is None (cache prefill, warm-up);
* ``check(run)`` runs the simulator checks once the timed phase is over;
* ``stats()`` reads the server's counters (``None`` when there is none);
* ``reports()`` returns one report per distinct request, for the
  output-quality sums.
"""

from __future__ import annotations

import os
import random
import shutil
from typing import Dict, List, Optional

from repro.circuit import to_qasm
from repro.circuit.random import random_circuit
from repro.compile_api import caqr_compile
from repro.hardware import DriftSimulator, drift_series, ibm_mumbai
from repro.service import (
    CompileRequest,
    RemoteCompileService,
    banded_backend_digest,
    start_server_thread,
)
from repro.workloads import bv_circuit, bv_expected_bitstring, cc_circuit, multiply_13
from repro.workloads.extra import cuccaro_adder
from repro.workloads.qaoa import qaoa_maxcut_circuit
from repro.workloads.graphs import random_graph

from checks import compiled_ok, report_signature

# a request that takes this long fails, so a hung server cannot hold the
# run past its time limit
CLIENT_TIMEOUT_S = 60.0
COLD_MODES = ({"mode": "min_depth"}, {"mode": "min_swap"}, {"strategy": "chain"})


def service_circuits():
    """Small circuits for the served workloads, each with its compile knobs.

    Fixed circuits, so the quality sums move only with the drifted
    calibrations the seed draws.  Each mode was checked to insert SWAPs
    on ``ibm_mumbai`` so every quality sum is non-zero.
    """
    qaoa6 = qaoa_maxcut_circuit(random_graph(6, 0.6, seed=1))
    return [
        (random_circuit(6, 30, seed=1000, measure=True), {"strategy": "chain"}),
        (cuccaro_adder(2), {"mode": "min_swap"}),
        (qaoa6, {"strategy": "chain"}),
        (random_circuit(6, 30, seed=1002, measure=True), {"strategy": "chain"}),
        (random_circuit(6, 30, seed=1000, measure=True), {"mode": "min_swap"}),
        (qaoa6, {"mode": "min_swap"}),
    ]


def cold_circuits(seed: int) -> List:
    """``(circuit, expected BV bitstring or None)``; the seed draws the QAOA graph."""
    return [
        (bv_circuit(16), bv_expected_bitstring(16)),
        (multiply_13(), None),
        (qaoa_maxcut_circuit(random_graph(12, 0.3, seed=seed)), None),
        (cc_circuit(13), None),
    ]


def warm_backends(seed: int, count: int) -> List:
    # snapshot 0 of every series is the pristine calibration; skip it so
    # the seed draws every backend.  Low volatility keeps the quality sums
    # (ESP, durations) close across seeds; the warm path does not care.
    return drift_series(ibm_mumbai(), count + 1, volatility=0.005, seed=seed)[1:]


def band_groups(seed: int, count: int, calib_bands: int, volatility: float,
                max_members: int) -> List[List]:
    """The first *count* band groups of a seeded drift walk of ibm_mumbai.

    A band group is a run of consecutive snapshots (at most
    *max_members* kept) whose banded digest is the same and was never
    seen before, so its first request misses every cache.
    """
    simulator = DriftSimulator(ibm_mumbai(), volatility=volatility, seed=seed)
    groups: List[List] = []
    seen = set()
    current = None
    for _ in range(100 * count):
        if len(groups) == count:
            return groups
        snapshot = simulator.step()
        digest = banded_backend_digest(snapshot, calib_bands)
        if digest == current:
            if len(groups[-1]) < max_members:
                groups[-1].append(snapshot)
        elif digest not in seen:
            seen.add(digest)
            current = digest
            groups.append([snapshot])
        else:
            current = None  # walked back into an old band: it would hit
    raise RuntimeError(f"drift walk gave only {len(groups)} new band groups")


class _Checked:
    """Cold reports by key; every later report of a key must equal its cold one."""

    def __init__(self) -> None:
        self.cold: Dict = {}
        self.signature: Dict = {}
        self.sources: Dict = {}
        self.results: Dict = {}

    def see(self, key, source, report, run=None, bv_expected=None) -> None:
        """Record *report* for *key*; a timed result also gets a verdict."""
        signature = report_signature(report)
        if key not in self.cold:
            self.cold[key] = report
            self.signature[key] = signature
            self.sources[key] = (source, bv_expected)
        same = signature == self.signature[key]
        if run is None:
            if not same:
                raise RuntimeError(f"untimed report for {key} differs from its cold report")
            return
        self.results[key] = self.results.get(key, 0) + 1
        run.verdict(same)

    def simulate(self) -> int:
        """Simulator-check each distinct compiled circuit; wrong timed results."""
        verdicts: Dict = {}
        wrong = 0
        for key, report in self.cold.items():
            source, bv_expected = self.sources[key]
            distinct = (id(source), to_qasm(report.circuit))
            if distinct not in verdicts:
                verdicts[distinct] = compiled_ok(source, report.circuit, bv_expected)
            if not verdicts[distinct]:
                wrong += self.results.get(key, 0)
        return wrong


class Workload:
    tail_percentile: int  # fixed per workload so runs compare like with like
    # pin the run and its children to one CPU (speed.pin_one_cpu): a served
    # request hops between processes, and none then waits for a CPU to wake
    one_cpu = True

    def __init__(self, seed: int, ctx) -> None:
        self.seed = seed
        self.ctx = ctx
        self.checked = _Checked()

    def passes_left(self) -> bool:
        return True

    def check(self, run) -> None:
        run.wrong += self.checked.simulate()

    def reports(self) -> List:
        return list(self.checked.cold.values())

    def stats(self) -> Optional[dict]:
        return None

    def close(self) -> None:
        pass


class ColdCompile(Workload):
    """In-process ``caqr_compile``, no cache, default knobs, on ibm_mumbai."""

    name = "cold-compile"
    one_cpu = False  # its compiles fan out to process pools, which one CPU serialises
    # two or three passes of 12 compiles a run: p50 keeps 10 beyond it
    # even at two
    tail_percentile = 50

    def prepare(self) -> None:
        self.backend = ibm_mumbai()
        self.jobs = []
        for circuit, expected in cold_circuits(self.seed):
            for knobs in COLD_MODES:
                self.jobs.append((len(self.jobs), circuit, knobs, expected))
        self.checked = _Checked()

    def warm_up(self) -> None:
        self.run_pass(None)

    def run_pass(self, run) -> None:
        for index, circuit, knobs, expected in self.jobs:
            call = lambda: caqr_compile(circuit, self.backend, **knobs)
            report = self.ctx.untimed(call) if run is None else run.call(call)
            if report is not None:
                self.checked.see(index, circuit, report, run, expected)


class WarmHttp(Workload):
    """Warm hits replayed through ``RemoteCompileService`` to ``repro serve``."""

    name = "warm-http"
    # ~5000 requests a run; p90 (~500 beyond) rather than p95 or p99: every
    # request is a warm hit, so the tail is host noise, and over ten seeds
    # on a shared 2-core machine the scaled p95 and p99 spread up to 0.11
    # and 0.13 (quartile distance / median), p90 0.05
    tail_percentile = 90
    circuits = 4
    snapshots = 4
    thread_server = None
    client = None

    def prepare(self) -> None:
        backends = warm_backends(self.seed, self.snapshots)
        self.keys = [
            ((c_index, b_index), circuit, knobs, backend)
            for c_index, (circuit, knobs) in enumerate(service_circuits()[: self.circuits])
            for b_index, backend in enumerate(backends)
        ]
        random.Random(self.seed).shuffle(self.keys)
        if self.ctx.trace:
            # hosted in a thread so spans cover the server side too
            self.thread_server = start_server_thread(port=0)
            url = self.thread_server.url
        else:
            url = self.ctx.children.start("serve", ["serve"])
        self.client = RemoteCompileService(url, timeout=CLIENT_TIMEOUT_S, retries=0)
        self.checked = _Checked()
        self.run_pass(None)  # cache prefill: every key compiles once

    def warm_up(self) -> None:
        self.run_pass(None)

    def run_pass(self, run) -> None:
        client = self.client
        for key, circuit, knobs, backend in self.keys:
            call = lambda: client.compile(circuit, backend, **knobs)
            report = self.ctx.untimed(call) if run is None else run.call(call)
            if report is not None:
                self.checked.see(key, circuit, report, run)

    def stats(self) -> Optional[dict]:
        return self.client.stats()["stats"]["counters"]

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.thread_server is not None:
            self.thread_server.stop()
            self.thread_server = None
        self.ctx.children.stop_all()


class FleetDrift(Workload):
    """A drift series replayed through ``repro gateway`` and two servers.

    The series is cut into band groups (:func:`band_groups`).  Each group
    is replayed as ``rounds`` rounds of single compiles of the three
    single circuits (cycling through the group's snapshots) plus one
    9-request batch: the three batch circuits, each on three in-band
    snapshots.  The first request of each (circuit,
    group) misses and the rest hit, so every pass has exactly
    ``groups_per_pass * 6`` misses among ``groups_per_pass * 27`` compile
    requests (22%), whatever the seed.
    """

    name = "fleet-drift"
    # ~450 requests a run.  Batches (1 request in 19) are the slowest and
    # the single misses of the three circuits (1 in 19 each) the next, so
    # p95 and p90 sit on edges between those bands; p87 (~60 beyond) lies
    # inside the band of the second-slowest miss
    tail_percentile = 87
    calib_bands = 2
    volatility = 0.01
    rounds = 6
    groups_per_pass = 4
    max_passes = 16
    client = None

    def prepare(self) -> None:
        circuits = service_circuits()
        self.singles, self.batch = circuits[:3], circuits[3:]
        self.groups = band_groups(self.seed, self.groups_per_pass * self.max_passes,
                                  self.calib_bands, self.volatility, self.rounds)
        self.pass_index = 0
        work = os.path.join(self.ctx.work_dir, f"fleet-{self.ctx.prepares}")
        shutil.rmtree(work, ignore_errors=True)
        urls = [
            self.ctx.children.start(
                f"serve{i}", ["serve", "--cache-dir", os.path.join(work, f"cache{i}")]
            )
            for i in range(2)
        ]
        backends = [arg for url in urls for arg in ("--backend", url)]
        self.client = RemoteCompileService(
            self.ctx.children.start("gateway", ["gateway", *backends]),
            timeout=CLIENT_TIMEOUT_S, retries=0
        )
        self.checked = _Checked()

    def warm_up(self) -> None:
        self.run_pass(None)

    def passes_left(self) -> bool:
        return (self.pass_index + 1) * self.groups_per_pass <= len(self.groups)

    def _request(self, circuit, knobs, backend) -> CompileRequest:
        return CompileRequest(
            target=circuit, backend=backend, calib_bands=self.calib_bands, **knobs
        )

    def run_pass(self, run) -> None:
        client = self.client
        first = self.pass_index * self.groups_per_pass
        self.pass_index += 1
        for g_index in range(first, first + self.groups_per_pass):
            members = self.groups[g_index]
            for r in range(self.rounds):
                for c_index, (circuit, knobs) in enumerate(self.singles):
                    request = self._request(circuit, knobs, members[r % len(members)])
                    call = lambda: client.compile_request(request)
                    report = self.ctx.untimed(call) if run is None else run.call(call)
                    if report is not None:
                        self.checked.see((c_index, g_index), circuit, report, run)
            batch = [
                self._request(circuit, knobs, members[(i + j) % len(members)])
                for j in range(3)
                for i, (circuit, knobs) in enumerate(self.batch)
            ]
            call = lambda: client.compile_batch(batch)
            reports = self.ctx.untimed(call) if run is None else run.call(call)
            for i, report in enumerate(reports or ()):
                circuit = self.batch[i % 3][0]
                self.checked.see((3 + i % 3, g_index), circuit, report, run)

    def reports(self) -> List:
        # the warm-up pass's groups: a fixed set, however many passes ran
        return [report for (_, g_index), report in self.checked.cold.items()
                if g_index < self.groups_per_pass]

    def stats(self) -> Optional[dict]:
        payload = self.client.stats()
        counters = dict(payload["fleet"]["counters"])
        gateway = payload["gateway"]["stats"]
        counters.update({f"gateway.{k}": v for k, v in gateway["counters"].items()})
        counters.update({f"gateway_time.{k}": v for k, v in gateway["timers"].items()})
        return counters

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        self.ctx.children.stop_all()


WORKLOADS = {cls.name: cls for cls in (ColdCompile, WarmHttp, FleetDrift)}
