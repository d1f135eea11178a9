"""One process-wide worker pool for every fan-out in the package.

SABRE's layout trials, the SR-CaQR trial grid, candidate scoring,
simulator shards, batch misses and the portfolio race share one lazily
created :class:`ProcessPoolExecutor` instead of forking a pool per call:

* **Width** — ``min(usable CPUs, 8)``, where usable CPUs are this
  process's affinity mask (``os.sched_getaffinity``) rather than the
  machine's core count, so a server pinned to one CPU never pools.
  ``$CAQR_ROUTE_WORKERS`` overrides the width.
* **One decision** — :func:`use_pool` says whether a map runs pooled:
  ``parallel=True`` forces the pool and ``False`` forbids it; ``None``
  (auto) pools only more than one task with more than one worker.  A
  call site's own work-size threshold is checked before it asks.
* **No nesting** — an initializer marks the pool's processes, and a map
  asked for inside one always runs serially.
* **Fork safety** — a forked child forgets its parent's executor and
  builds its own on first use; a worker whose parent died exits.
* **Respawn** — a worker death breaks the executor; :func:`map_pooled`
  drops it, builds a fresh one and re-runs the map (the tasks are pure).
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence

__all__ = [
    "MAX_RESPAWNS",
    "MAX_WIDTH",
    "WIDTH_ENV",
    "discard",
    "executor",
    "map_chunked",
    "map_pooled",
    "shutdown",
    "use_pool",
    "width",
]

#: Default width cap, whatever the CPU count.
MAX_WIDTH = 8
#: Environment variable that overrides the width.
WIDTH_ENV = "CAQR_ROUTE_WORKERS"
#: Broken-executor respawns tolerated within one map before it gives up.
MAX_RESPAWNS = 3

_lock = threading.Lock()
_executor: Optional[ProcessPoolExecutor] = None
_in_worker = False


def width() -> int:
    """Worker count: ``$CAQR_ROUTE_WORKERS`` if set, else the CPUs this
    process may run on (its affinity mask) capped at :data:`MAX_WIDTH`."""
    override = os.environ.get(WIDTH_ENV)
    if override:
        return max(1, int(override))
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        usable = os.cpu_count() or 1
    return max(1, min(usable, MAX_WIDTH))


def use_pool(
    parallel: Optional[bool], tasks: int, workers: Optional[int] = None
) -> bool:
    """The serial-vs-pooled decision every fan-out site makes.

    Never pooled inside a pool worker or for fewer than two tasks.
    Otherwise ``parallel=True`` forces the pool, ``False`` forbids it,
    and ``None`` pools when more than one worker can run the tasks:
    *workers* is the caller's fan-out width (default :func:`width`).
    """
    if _in_worker or tasks < 2:
        return False
    if parallel is not None:
        return parallel
    return (workers if workers is not None else width()) > 1


def _mark_worker(parent: int) -> None:
    global _in_worker
    _in_worker = True
    # a parent killed without shutting the pool down (SIGKILL, a default
    # SIGTERM) leaves its workers re-parented; they exit instead of idling
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(0)


def _forget_after_fork() -> None:
    # the executor's manager thread and pipes belong to the parent, and
    # the lock may have been held by a parent thread at fork time
    global _executor, _lock
    _executor = None
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_after_fork)


def executor() -> ProcessPoolExecutor:
    """The shared executor, created on first use at :func:`width` workers."""
    global _executor
    with _lock:
        if _executor is None:
            _executor = ProcessPoolExecutor(
                max_workers=width(), initializer=_mark_worker, initargs=(os.getpid(),)
            )
        return _executor


def discard(stale: ProcessPoolExecutor) -> None:
    """Drop *stale* (a broken executor) so the next use builds a fresh one."""
    global _executor
    with _lock:
        if _executor is stale:
            _executor = None
    stale.shutdown(wait=False, cancel_futures=True)


def map_pooled(fn: Callable[[Any], Any], payloads: Sequence[Any]) -> List[Any]:
    """``[fn(p) for p in payloads]`` on the shared executor, in input order.

    *fn* must live at module level (it is pickled by import path).  A
    task's exception propagates; a worker death re-runs the map on a
    fresh executor, at most :data:`MAX_RESPAWNS` times.
    """
    respawns = 0
    while True:
        pool = executor()
        try:
            return list(pool.map(fn, payloads))
        except BrokenProcessPool:
            discard(pool)
            respawns += 1
            if respawns > MAX_RESPAWNS:
                raise


def map_chunked(
    fn: Callable[[Any], List[Any]],
    items: Sequence[Any],
    chunks: int,
    payload: Callable[[Sequence[Any]], Any],
) -> List[Any]:
    """Run *fn* over up to *chunks* contiguous slices of *items*, pooled.

    ``fn(payload(slice))`` returns one value per item of its slice; the
    values come back concatenated in item order.
    """
    size = max(1, -(-len(items) // chunks))
    parts = map_pooled(
        fn, [payload(items[i : i + size]) for i in range(0, len(items), size)]
    )
    return [value for part in parts for value in part]


def shutdown() -> None:
    """Shut the shared executor down; the next pooled map builds a new one."""
    global _executor
    with _lock:
        stale, _executor = _executor, None
    if stale is not None:
        stale.shutdown(wait=True, cancel_futures=True)
