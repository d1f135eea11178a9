"""The process-wide worker pool: sizing, the one decision, no nesting,
fork safety, no orphaned workers, respawn, and one executor per process."""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro import pool
from repro.circuit.random import random_circuit
from repro.compile_api import caqr_compile
from repro.hardware import ibm_mumbai
from repro.transpiler.sabre import sabre_layout
from repro.workloads import bv_circuit, cc_circuit, multiply_13
from repro.workloads.graphs import random_graph
from repro.workloads.qaoa import qaoa_maxcut_circuit

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def fresh_pool():
    """No shared executor before the test, none left behind after it."""
    pool.shutdown()
    yield
    pool.shutdown()


@pytest.fixture
def counted_executors(monkeypatch, fresh_pool):
    """The widths of every executor the shared pool constructs."""
    built = []
    constructor = pool.ProcessPoolExecutor

    def counting(*args, **kwargs):
        built.append(kwargs["max_workers"])
        return constructor(*args, **kwargs)

    monkeypatch.setattr(pool, "ProcessPoolExecutor", counting)
    return built


# -- sizing and the decision ---------------------------------------------------


def test_width_is_usable_cpus_capped_unless_overridden(monkeypatch):
    monkeypatch.delenv(pool.WIDTH_ENV, raising=False)
    if hasattr(os, "sched_getaffinity"):
        usable = len(os.sched_getaffinity(0))
        assert pool.width() == min(usable, pool.MAX_WIDTH)
    monkeypatch.setenv(pool.WIDTH_ENV, "3")
    assert pool.width() == 3
    monkeypatch.setenv(pool.WIDTH_ENV, "0")
    assert pool.width() == 1


@pytest.mark.parametrize(
    "parallel,tasks,workers,pooled",
    [
        (True, 2, 1, True),  # forced
        (True, 1, 4, False),  # one task never pools
        (False, 8, 4, False),  # forbidden
        (None, 8, 4, True),  # auto, several workers
        (None, 8, 1, False),  # auto, one worker
        (None, 1, 4, False),  # auto, one task
    ],
)
def test_use_pool_decision(parallel, tasks, workers, pooled):
    assert pool.use_pool(parallel, tasks, workers) is pooled


def test_auto_decision_follows_the_width(monkeypatch):
    monkeypatch.setenv(pool.WIDTH_ENV, "1")
    assert not pool.use_pool(None, 8)
    monkeypatch.setenv(pool.WIDTH_ENV, "2")
    assert pool.use_pool(None, 8)


# -- one CPU: no executor at all -----------------------------------------------

_PINNED_SCRIPT = """
import json, os
cpu = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {cpu})
from repro import pool
built = []
constructor = pool.ProcessPoolExecutor
def counting(*args, **kwargs):
    built.append(kwargs)
    return constructor(*args, **kwargs)
pool.ProcessPoolExecutor = counting
from repro.circuit.random import random_circuit
from repro.compile_api import caqr_compile
from repro.hardware import ibm_mumbai
from repro.workloads.extra import cuccaro_adder
backend = ibm_mumbai()
caqr_compile(random_circuit(6, 30, seed=1000, measure=True), backend, strategy="chain")
report = caqr_compile(cuccaro_adder(2), backend, mode="min_swap")
print(json.dumps({
    "executors": len(built),
    "children": len(__import__("multiprocessing").active_children()),
    "parallel_trials": report.route_stats.counters.get("parallel_trials", 0),
}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_compile_builds_no_executor():
    """A process pinned to one CPU compiles served circuits with default
    knobs entirely in-process: no executor, no child, no pooled trial."""
    env = {k: v for k, v in os.environ.items() if k != pool.WIDTH_ENV}
    env["PYTHONPATH"] = SRC
    done = subprocess.run(
        [sys.executable, "-c", _PINNED_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    assert outcome == {"executors": 0, "children": 0, "parallel_trials": 0}


# -- no nesting ----------------------------------------------------------------


def _nested_layout(_):
    """Runs inside a pool worker: a forced-parallel layout search."""
    circuit = random_circuit(5, 20, seed=4)
    layout = sabre_layout(circuit, ibm_mumbai().coupling, trials=4, parallel=True)
    return (
        pool._in_worker,
        len(multiprocessing.active_children()),
        pool._executor is None,
        layout.as_dict(),
    )


def test_worker_maps_run_serially(fresh_pool, monkeypatch):
    """A task inside a pool worker that asks for the pool creates no
    grandchild process and no executor, and matches the serial result."""
    monkeypatch.setenv(pool.WIDTH_ENV, "2")
    outcomes = pool.map_pooled(_nested_layout, [0, 1])
    serial = sabre_layout(
        random_circuit(5, 20, seed=4), ibm_mumbai().coupling, trials=4, parallel=False
    )
    for marked, children, no_executor, physical in outcomes:
        assert marked and no_executor
        assert children == 0
        assert physical == serial.as_dict()
    assert not pool._in_worker


# -- fork safety ---------------------------------------------------------------


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_builds_its_own_executor(fresh_pool):
    parent = pool.executor()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, then leave without pytest's teardown
        verdict = b"0"
        try:
            forgot = pool._executor is None
            child = pool.executor()
            works = pool.map_pooled(abs, [-1, -2]) == [1, 2]
            child.shutdown(wait=True)
            if forgot and child is not parent and works:
                verdict = b"1"
        finally:
            os.write(write, verdict)
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 120
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung on its parent's executor")
        time.sleep(0.05)
    assert os.read(read, 1) == b"1"
    os.close(read)
    assert pool._executor is parent


# -- no orphans ----------------------------------------------------------------

_KILLED_PARENT_SCRIPT = """
import os, time
from repro import pool

def worker_pid(_):
    time.sleep(0.2)  # long enough that every worker takes a task
    return os.getpid()

print(*sorted(set(pool.map_pooled(worker_pid, range(4)))), flush=True)
time.sleep(300)
"""


def _running(pid):
    """Whether *pid* exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_workers_exit_when_the_parent_is_killed():
    """A parent killed without shutting the pool down leaves no workers."""
    env = dict(os.environ, PYTHONPATH=SRC, **{pool.WIDTH_ENV: "2"})
    parent = subprocess.Popen(
        [sys.executable, "-c", _KILLED_PARENT_SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        workers = [int(pid) for pid in parent.stdout.readline().split()]
    finally:
        parent.kill()
        parent.wait(30)
        parent.stdout.close()
    assert workers
    deadline = time.monotonic() + 30
    alive = workers
    while alive and time.monotonic() < deadline:
        time.sleep(0.2)
        alive = [pid for pid in alive if _running(pid)]
    for pid in alive:  # leave nothing behind when the check fails
        os.kill(pid, 9)
    assert not alive, f"workers {alive} outlived their killed parent"


# -- respawn -------------------------------------------------------------------


def _die_once(marker):
    """Kill this worker the first time *marker* is seen, then succeed."""
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(17)
    return os.getpid()


def test_map_respawns_after_a_worker_death(fresh_pool, tmp_path):
    first = pool.executor()
    [pid] = pool.map_pooled(_die_once, [str(tmp_path / "died")])
    assert pool._executor is not first
    assert pid != os.getpid()


# -- one executor per process --------------------------------------------------


def _cold_compile_jobs():
    circuits = [
        bv_circuit(16),
        multiply_13(),
        qaoa_maxcut_circuit(random_graph(12, 0.3, seed=1)),
        cc_circuit(13),
    ]
    modes = ({"mode": "min_depth"}, {"mode": "min_swap"}, {"strategy": "chain"})
    return [(circuit, knobs) for circuit in circuits for knobs in modes]


def test_cold_compile_jobs_build_at_most_one_executor(counted_executors):
    """Twelve default-knob compiles (4 circuits x 3 modes) in one process
    share at most one executor, however many searches they pool."""
    backend = ibm_mumbai()
    for circuit, knobs in _cold_compile_jobs():
        caqr_compile(circuit, backend, **knobs)
    assert len(counted_executors) <= 1
