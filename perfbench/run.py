#!/usr/bin/env python3
"""The repository benchmark: seeded workloads against the public API.

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all            # every workload, one after another

``BENCHMARK.json`` at the repository root names the workloads and the
metrics with their units; ``perfbench/rationale.json`` says why each was
chosen and which per-layer metric should move which end-to-end metric.

A run prepares its workload three times (the median counts as set-up),
runs one untimed warm-up pass, then replays whole passes until the
requests have taken ``--seconds``.  Between the timed requests it runs
fixed calibration slices (``perfbench/speed.py``); each timed request
is scaled to a reference speed by the slices next to it, so the shared
host's changes of speed cancel.  The served
workloads pin the run and its children to one CPU.  ``--trace 0``
reports the end-to-end metrics with no wrapper installed.  ``--trace 1``
alternates untraced and traced passes, and reports the per-layer metrics
of the traced ones plus the tracing overhead against the untraced ones.  The last line of
standard output is one JSON object.  Output checks run
outside the timed requests.  Spans and a record of the run are written
under ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

from children import PROGRAM_ENV, Children
from speed import Speed, pin_one_cpu
from tracing import REQUEST, Tracer

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
PREPARES = 3


class Run:
    """Latencies, counts and verdicts of the timed requests of one phase."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.results = 0
        self.wrong = 0
        self.engine_counts = {}
        self.first_error = None
        self.pass_busy = []
        self.speed = Speed()

    def call(self, fn):
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.request_id = self.attempted
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(REQUEST):
                    result = fn()
            else:
                result = fn()
        except Exception as exc:  # a failed request is counted; the loop goes on
            self.busy += time.perf_counter() - start
            self.failed += 1
            self.first_error = self.first_error or f"{type(exc).__name__}: {exc}"
            return None
        elapsed = time.perf_counter() - start
        self.busy += elapsed
        self.latencies.append(elapsed)
        self.speed.after(elapsed)
        if tracer is not None:
            for report in result if isinstance(result, list) else [result]:
                self._count_engine(report)
        return result

    def _count_engine(self, report) -> None:
        # engine counters ride on reports that were compiled, not served
        if report.from_cache:
            return
        for stats in (report.eval_stats, report.chain_stats):
            if stats is not None:
                for name, value in stats.counters.items():
                    self.engine_counts[name] = self.engine_counts.get(name, 0) + value

    def verdict(self, ok: bool) -> None:
        self.results += 1
        if not ok:
            self.wrong += 1


def timed_passes(workload, run: Run, seconds: float) -> int:
    passes = 0
    while workload.passes_left():
        workload.run_pass(run)
        run.pass_busy.append(run.busy - sum(run.pass_busy))
        passes += 1
        if run.busy >= seconds:
            break
    return passes


def quantile(values, percentile: float) -> float:
    """Harrell-Davis estimate of a percentile: a beta-weighted mean of the
    order statistics.  A run of cold-compile has ~24 latencies from 12
    jobs with gaps between them; its plain median jumps across a gap
    with noise, the Harrell-Davis one moves smoothly."""
    import numpy
    from scipy.special import betainc

    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(ordered)
    q = percentile / 100.0
    cdf = betainc(q * (n + 1), (1 - q) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.diff(cdf) @ ordered)


def quality(reports) -> dict:
    """Output-quality sums over one report per distinct request."""
    esp = [r.sim_stats.values["esp"] for r in reports]
    return {
        "qubits_used_sum": sum(r.metrics.qubits_used for r in reports),
        "depth_sum": sum(r.metrics.depth for r in reports),
        "duration_dt_sum": sum(r.metrics.duration_dt for r in reports),
        "swap_count_sum": sum(r.metrics.swap_count for r in reports),
        "esp_geomean": math.exp(sum(math.log(v) for v in esp) / len(esp)),
    }


def end_to_end(workload, run: Run, setup_s: float, peak_rss_mb: float) -> dict:
    """Timings at the reference speed of ``speed.REFERENCE_SLICE_S``;
    *setup_s* is scaled already."""
    latencies = run.speed.scaled(run.latencies)
    return {
        "throughput_rps": len(latencies) / sum(latencies),
        "latency_p50_ms": quantile(latencies, 50) * 1e3,
        "latency_tail_ms": quantile(latencies, workload.tail_percentile) * 1e3,
        **quality(workload.reports()),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def _delta(before, after):
    if before is None or after is None:
        return {}
    return {k: v - before.get(k, 0) for k, v in after.items() if isinstance(v, (int, float))}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, run: Run, base: Run, counters: dict, children_rss_mb: float) -> dict:
    n = len(run.latencies)
    layers = tracer.layer_times()

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0) / n

    def calls(name):
        return layers.get(name, {}).get("calls", 0) / n

    def prefixed_calls(prefix):
        return sum(row["calls"] for name, row in layers.items() if name.startswith(prefix)) / n

    root = layers[REQUEST]
    encode = layers.get("service.net.wire.encode", {}).get("total_s", 0.0)
    decode = layers.get("service.net.wire.decode", {}).get("total_s", 0.0)
    in_process = "service.net.wire.encode" not in layers
    c = counters.get
    eval_hits = run.engine_counts.get("cache_hits", 0)
    eval_total = eval_hits + run.engine_counts.get("evaluations", 0)
    gateway_requests = sum(v for k, v in counters.items() if k.startswith("gateway.backend_requests:"))
    gateway_latency = sum(v for k, v in counters.items() if k.startswith("gateway_time.backend_latency:"))
    gateway_retries = c("gateway.batch_retries", 0) + sum(
        v for k, v in counters.items() if k.startswith("gateway.backend_retries:"))
    key_hits = c("gateway.key_cache_hits", 0)
    traced_mean = run.busy / n
    untraced_mean = base.busy / max(1, len(base.latencies))
    return {
        "trace.overhead_ratio": traced_mean / untraced_mean - 1.0,
        "trace.coverage_ratio": 1.0 - root["self_s"] / root["total_s"],
        "client.error_rate": _ratio(run.failed + base.failed, run.attempted + base.attempted),
        "check.wrong_output_rate": _ratio(run.wrong + base.wrong, run.results + base.results),
        "core.other_s": root["self_s"] / n if in_process else 0.0,
        "core.tradeoff.sweep_s": self_s("core.tradeoff.sweep"),
        "core.tradeoff.sweep_calls": calls("core.tradeoff.sweep"),
        "core.sr_caqr.route_s": self_s("core.sr_caqr.route"),
        "core.chains.run_s": self_s("core.chains.run"),
        "core.chains.beam_states": run.engine_counts.get("states_expanded", 0) / n,
        "core.structure.extract_s": self_s("core.structure.extract"),
        "core.qs_commuting.matching_calls": tracer.matching_calls / n,
        "core.qs_commuting.matching_s": self_s("core.qs_commuting.matching"),
        "core.qs_commuting.matching_repeat_ratio": _ratio(tracer.matching_repeats,
                                                           tracer.matching_calls),
        "core.reuse_eval.candidates": eval_total / n,
        "core.reuse_eval.cache_hit_ratio": _ratio(eval_hits, eval_total),
        "transpiler.baseline_transpile_s": self_s("transpiler.baseline_transpile"),
        "transpiler.baseline_transpile_calls": calls("transpiler.baseline_transpile"),
        "transpiler.point_transpile_s": self_s("transpiler.point_transpile"),
        "transpiler.point_transpile_calls": calls("transpiler.point_transpile"),
        "analysis.collect_metrics_s": self_s("analysis.collect_metrics"),
        "sim.esp_s": self_s("sim.esp"),
        "proc.pools_created": tracer.pools_created / n,
        "proc.children": tracer.children_started / n,
        "proc.children_peak_rss_mb": children_rss_mb,
        "layer.core_calls": prefixed_calls("core."),
        "layer.transpiler_calls": prefixed_calls("transpiler."),
        "layer.service_calls": prefixed_calls("service."),
        "hardware.serialization.backend_to_json_s": self_s("hardware.serialization.backend_to_json"),
        "hardware.serialization.backend_to_json_calls": calls("hardware.serialization.backend_to_json"),
        "service.fingerprint.request_s": self_s("service.fingerprint.request"),
        "service.fingerprint.backend_digest_calls":
            tracer.outermost_calls("service.fingerprint.backend_digest") / n,
        "service.net.wire.encode_s": self_s("service.net.wire.encode"),
        "service.net.wire.decode_s": self_s("service.net.wire.decode"),
        "service.net.client.exchange_s": 0.0 if in_process else
            (root["total_s"] - encode - decode) / n,
        "service.serialization.loads_entry_s": self_s("service.serialization.loads_entry"),
        "service.net.server.envelope_hit_ratio": _ratio(c("envelope_hits", 0),
                                                        c("http:/v1/compile", 0)),
        "service.cache.hit_ratio": _ratio(c("hits", 0), c("hits", 0) + c("misses", 0)),
        "service.cache.misses": c("misses", 0) / n,
        "service.cache.disk_hits": c("disk_hits", 0) / n,
        "service.cache.stores": c("stores", 0) / n,
        "service.batch.dedup_ratio": _ratio(c("batch_unique", 0), c("batch_requests", 0)),
        "service.workers.tasks": c("worker_tasks", 0) / n,
        "service.workers.record_misses": c("worker_record_misses", 0) / n,
        "service.workers.respawns": c("worker_respawns", 0) / n,
        "service.net.gateway.key_cache_hit_ratio": _ratio(
            key_hits, key_hits + c("gateway.key_cache_misses", 0)),
        "service.net.gateway.backend_latency_mean_ms": _ratio(gateway_latency,
                                                              gateway_requests) * 1e3,
        "service.net.gateway.ring_moves": c("gateway.ring_moves", 0) / n,
        "service.net.gateway.retries": gateway_retries / n,
    }


class Context:
    def __init__(self, trace: bool, children):
        self.trace = trace
        self.children = children
        self.work_dir = WORK
        self.prepares = 0
        self.setup_speed = Speed()

    def untimed(self, fn):
        """A set-up request (cache prefill, warm-up): calibrated, not timed."""
        start = time.perf_counter()
        result = fn()
        self.setup_speed.after(time.perf_counter() - start)
        return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float):
    from workloads import WORKLOADS

    for variable in PROGRAM_ENV:
        os.environ.pop(variable, None)

    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    # pinned before any calibration slice, child or pool exists
    cpu = pin_one_cpu() if WORKLOADS[name].one_cpu else None
    ctx = Context(trace, Children(ROOT, SRC, WORK))
    workload = WORKLOADS[name](seed, ctx)
    tracer = Tracer() if trace else None
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "cpu": cpu}
    try:
        prepare_s = []
        for ctx.prepares in range(PREPARES):
            started = time.perf_counter()
            workload.prepare()
            prepare_s.append(time.perf_counter() - started)
            if ctx.prepares < PREPARES - 1:
                workload.close()
        started = time.perf_counter()
        workload.warm_up()
        warm_up_s = time.perf_counter() - started
        setup_raw_s = import_s + statistics.median(prepare_s) + warm_up_s
        # scaled by the slices run beside the prefill and warm-up requests
        setup_s = setup_raw_s * ctx.setup_speed.factor()
        record.update(import_s=import_s, prepare_s=prepare_s, warm_up_s=warm_up_s,
                      setup_raw_s=setup_raw_s, setup_speed_factor=ctx.setup_speed.factor())
        base = Run()
        if trace:
            # traced and untraced passes alternate, so drift over the run
            # does not show up as tracing overhead
            run = Run(tracer)
            counters = {}
            passes = 0
            while workload.passes_left() and (passes < 2 or run.busy + base.busy < seconds):
                if passes % 2 == 0:
                    workload.run_pass(base)
                else:
                    before = workload.stats()
                    tracer.install()
                    tracer.enabled = True
                    try:
                        workload.run_pass(run)
                    finally:
                        tracer.enabled = False
                        tracer.uninstall()
                    for key, value in _delta(before, workload.stats()).items():
                        counters[key] = counters.get(key, 0) + value
                passes += 1
            record["passes"] = passes
        else:
            run = Run()
            record["passes"] = timed_passes(workload, run, seconds)
        # peak RSS covers the program: taken before the checks simulate,
        # and after the servers are reaped so their peaks are included
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        workload.close()
        ctx.children.stop_all()
        children_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        started = time.perf_counter()
        workload.check(run)
        record["check_s"] = time.perf_counter() - started
    finally:
        workload.close()
        ctx.children.stop_all()
    if trace:
        metrics = per_layer(tracer, run, base, counters, children_rss)
        kinds = spec["per_layer"]
        tracer.write(os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl"))
    else:
        metrics = end_to_end(workload, run, setup_s, max(self_rss, children_rss))
        kinds = spec["end_to_end"]
    units = {kind["name"]: kind["unit"] for kind in kinds}
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing {sorted(set(units) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(units))}"
        )
    latencies = sorted(run.latencies)
    tail = workload.tail_percentile
    attempted = run.attempted + base.attempted
    failed = run.failed + base.failed
    record.update(
        speed_factor=run.speed.factor(), calibration_slices=len(run.speed.slices),
        latency_samples=len(latencies), tail_percentile=tail, pass_busy_s=run.pass_busy,
        samples_beyond_tail=len(latencies) - math.ceil(tail / 100 * len(latencies)),
        results_checked=run.results, first_error=run.first_error or base.first_error,
        quality=quality(workload.reports()),
        latencies_ms=[round(v * 1e3, 4) for v in run.latencies],
        slices_ms=[round(v * 1e3, 4) for v in run.speed.slices],
        first_slice_after=run.speed.first_after,
    )
    result = {
        "correct": run.wrong == 0 and base.wrong == 0 and run.results > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record["result"] = result
    with open(os.path.join(OUT, f"run-{name}-seed{seed}-trace{int(trace)}.json"), "w") as handle:
        json.dump(record, handle, indent=1)
    return result, record


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    rows = []
    status = 0
    for workload in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows.append((workload["name"], json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, result in rows:
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"   {metric:45s} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    sys.path.insert(0, SRC)
    try:
        import repro
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  import_s)
    for metric, entry in result["metrics"].items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"latency_tail_ms is p{record['tail_percentile']} over "
          f"{record['latency_samples']} samples ({record['samples_beyond_tail']} beyond); "
          f"speed factor = {record['speed_factor']:.4f} "
          f"({record['calibration_slices']} calibration slices)")
    if record["first_error"]:
        print(f"first failed request: {record['first_error']}")
    print(json.dumps(result))
    return 0


def _terminate(signum, frame):
    # turn SIGTERM into an exception so every finally block reaps its children
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
