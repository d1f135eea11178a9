"""In-memory span recorder wrapped around the program's layer boundaries.

The benchmark does not edit the program: every span is installed from
here by replacing a name at the site that imports it (``compile_api``'s
``transpile``, the client's ``request_to_wire``, ...) with a wrapper,
and removed again after the traced passes.  Spans are kept in a list
and written out once, when the run ends.

A span is ``[name, start, end, parent, request_id, thread]``.  Parents
are tracked per thread, so spans recorded on a server thread hosted in
this process form their own trees; the benchmark's request counter is
shared, which is sound because every workload is a closed loop with one
request in flight.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Union

REQUEST = "request"  # the benchmark's own span around one client call

# (module, attribute, span name) — the import sites each layer is timed at.
# A callable name is resolved per call from the caller's frame.
FUNCTION_SITES = [
    ("repro.compile_api", "sweep_regular", "core.tradeoff.sweep"),
    ("repro.compile_api", "sweep_commuting", "core.tradeoff.sweep"),
    ("repro.core.tradeoff", "transpile", "transpiler.point_transpile"),
    ("repro.compile_api", "collect_metrics", "analysis.collect_metrics"),
    ("repro.sim.metrics", "estimated_success_probability", "sim.esp"),
    ("repro.core.structure", "extract_commuting_structure", "core.structure.extract"),
    ("repro.service.fingerprint", "backend_to_json",
     "hardware.serialization.backend_to_json"),
    ("repro.service.net.wire", "backend_to_json",
     "hardware.serialization.backend_to_json"),
    ("repro.service.fingerprint", "backend_digest", "service.fingerprint.backend_digest"),
    ("repro.service.fingerprint", "banded_backend_digest",
     "service.fingerprint.backend_digest"),
    ("repro.service.service", "banded_backend_digest",
     "service.fingerprint.backend_digest"),
    ("repro.service.service", "request_fingerprint", "service.fingerprint.request"),
    ("repro.service.service", "loads_entry", "service.serialization.loads_entry"),
    ("repro.service.net.client", "request_to_wire", "service.net.wire.encode"),
    ("repro.service.net.client", "response_from_wire", "service.net.wire.decode"),
]

# (module, class, method, span name)
METHOD_SITES = [
    ("repro.compile_api", "SRCaQR", "run", "core.sr_caqr.route"),
    ("repro.compile_api", "SRCaQRCommuting", "run", "core.sr_caqr.route"),
    ("repro.compile_api", "ChainReuse", "run", "core.chains.run"),
]


def _compile_api_transpile_name() -> str:
    # compile_api calls transpile for the no-reuse baseline (report fields
    # only) and for the chain engine's chosen logical circuit
    caller = sys._getframe(2).f_code.co_name
    if caller == "_baseline_metrics":
        return "transpiler.baseline_transpile"
    return "transpiler.point_transpile"


class _NetworkxView:
    """``networkx`` as ``core.qs_commuting`` sees it, with one name wrapped."""

    def __init__(self, nx, max_weight_matching):
        self._nx = nx
        self.max_weight_matching = max_weight_matching

    def __getattr__(self, name):
        return getattr(self._nx, name)


class Tracer:
    """Span recorder plus the process counters of the traced passes."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.enabled = False
        self.request_id: Optional[int] = None
        self.pools_created = 0
        self.children_started = 0
        self.matching_calls = 0
        self.matching_repeats = 0
        self._frontiers: set = set()
        self._frontier_request: Optional[int] = None
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else None,
                  self.request_id, threading.get_ident()]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _exit(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's request root)."""
        record = self._enter(name) if self.enabled else None
        try:
            yield
        finally:
            if record is not None:
                self._exit(record)

    def wrap(self, fn: Callable, name: Union[str, Callable[[], str]]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            record = tracer._enter(name if isinstance(name, str) else name())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(record)

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers at import sites ---------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer site and start counting pools and children."""
        import importlib
        import multiprocessing.process
        from concurrent.futures import process as futures_process

        for module_name, attr, name in FUNCTION_SITES:
            module = importlib.import_module(module_name)
            self._set(module, attr, self.wrap(getattr(module, attr), name))
        compile_api = importlib.import_module("repro.compile_api")
        self._set(compile_api, "transpile",
                  self.wrap(compile_api.transpile, _compile_api_transpile_name))
        for module_name, cls_name, method, name in METHOD_SITES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._set(cls, method, self.wrap(cls.__dict__[method], name))

        qs_commuting = importlib.import_module("repro.core.qs_commuting")
        matching = self.wrap(qs_commuting.nx.max_weight_matching,
                             "core.qs_commuting.matching")
        tracer = self

        def counted_matching(graph, *args, **kwargs):
            if tracer.enabled:
                tracer._note_frontier(graph)
            return matching(graph, *args, **kwargs)

        self._set(qs_commuting, "nx", _NetworkxView(qs_commuting.nx, counted_matching))

        pool_init = futures_process.ProcessPoolExecutor.__init__

        def counted_pool_init(executor, *args, **kwargs):
            if tracer.enabled:
                tracer.pools_created += 1
            pool_init(executor, *args, **kwargs)

        self._set(futures_process.ProcessPoolExecutor, "__init__", counted_pool_init)
        process_start = multiprocessing.process.BaseProcess.start

        def counted_start(process):
            if tracer.enabled:
                tracer.children_started += 1
            process_start(process)

        self._set(multiprocessing.process.BaseProcess, "start", counted_start)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _note_frontier(self, graph) -> None:
        # a frontier repeats when an earlier matching call of the same
        # request saw the same weighted edge set
        if self._frontier_request != self.request_id:
            self._frontiers = set()
            self._frontier_request = self.request_id
        key = frozenset(
            (min(u, v), max(u, v), weight)
            for u, v, weight in graph.edges(data="weight")
        )
        self.matching_calls += 1
        if key in self._frontiers:
            self.matching_repeats += 1
        else:
            self._frontiers.add(key)

    # -- analysis ------------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        A span's self time is its duration minus the time its direct
        children (same thread) cover; children never overlap because a
        thread runs one call at a time.
        """
        child_time = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            if end is None:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return dict(out)

    def outermost_calls(self, name: str) -> int:
        """Calls of *name* not nested in another span of the same name."""
        return sum(
            1 for name_, _, end, parent, _, _ in self.spans
            if name_ == name and end is not None
            and (parent is None or self.spans[parent][0] != name)
        )

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, request_id, thread in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "request_id": request_id, "thread": thread,
                }) + "\n")
