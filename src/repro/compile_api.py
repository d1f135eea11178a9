"""Top-level one-call API: ``caqr_compile``.

The paper's tool takes a circuit (or QAOA problem graph), a backend, and
user intent (save qubits to a budget / minimise depth / minimise SWAPs)
and returns a compiled dynamic circuit plus a report.  This module wires
the QS/SR passes, the tradeoff explorer, and the baseline transpiler into
that single entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import networkx as nx

from repro.analysis.metrics import CircuitMetrics, collect_metrics
from repro.circuit.circuit import QuantumCircuit
from repro.core.chains import ChainReuse
from repro.core.qs_caqr import QSCaQR
from repro.core.qs_commuting import QSCaQRCommuting
from repro.core.sr_caqr import SRCaQR
from repro.core.sr_commuting import SRCaQRCommuting
from repro.core.tradeoff import (
    assess_reuse_benefit,
    select_point,
    sweep_commuting,
    sweep_regular,
)
from repro.exceptions import ReuseError
from repro.hardware.backends import Backend
from repro.stats import Stats
from repro.transpiler.pipeline import transpile

__all__ = ["CompileReport", "caqr_compile"]


@dataclass
class CompileReport:
    """Result of :func:`caqr_compile`.

    Attributes:
        circuit: the compiled (hardware-mapped when a backend was given)
            dynamic circuit.
        mode: the strategy that produced it.
        metrics: the paper's metric set for the compiled circuit.
        baseline_metrics: same metrics for the no-reuse baseline compile
            (present when a backend was given).
        reuse_beneficial: the benefit identifier's verdict.
        qubit_saving: fraction of qubits saved vs. the input.
        route_stats: the SR router's counter/timer sink (``"min_swap"``
            mode only; ``None`` otherwise).
        eval_stats: the QS evaluation engine's counter/timer sink,
            accumulated over every sweep/reduction this compile ran
            (cache hit-rate, candidate evaluations, greedy steps).
            Observability only — like the route-stats timers, excluded
            from determinism contracts.  Feeds the ``caqr_reuse_eval_*``
            prefix on ``GET /v1/metrics``.
        sim_stats: analytic-ESP instrumentation for the compiled circuit
            under the backend calibration (``esp`` gauge, per-kind
            instruction counts; present only when a backend was given).
            Feeds the ``caqr_sim_*`` metrics prefix.
        from_cache: ``True`` when the compile service served this report
            without running the compiler — a warm cache entry, an
            in-flight join, or a folded duplicate batch member (see
            ``docs/SERVICE.md``).
        strategy: the winning strategy's name when the report came out of
            a portfolio race (``strategy="portfolio"``); ``None`` on the
            single-strategy path.
        strategy_timings: per-strategy wall-clock seconds from the race
            (observability only — excluded from determinism contracts,
            like the route-stats timers).
        strategy_errors: strategies that failed inside the race, mapped
            to their error messages (the per-strategy error channel).
        optimality_gap: ``winner_qubits - optimal_qubits`` when the exact
            oracle ran to completion; ``None`` when it did not run.
        exact_optimal: the oracle's ``optimal`` flag when it ran
            (``False`` means the anytime budget cut the search short and
            the bound is best-so-far, not proven); ``None`` when the
            exact tier was not in the race.
        chain_stats: the chain engine's counter/timer sink
            (``strategy="chain"`` or a portfolio chain lane): window
            counts, beam sizes, inserted measure/reset tallies, greedy
            fallbacks.  Observability only, like ``eval_stats``.  Feeds
            the ``caqr_chain_*`` prefix on ``GET /v1/metrics``.
    """

    circuit: QuantumCircuit
    mode: str
    metrics: CircuitMetrics
    baseline_metrics: Optional[CircuitMetrics]
    reuse_beneficial: bool
    qubit_saving: float
    route_stats: Optional[Stats] = None
    eval_stats: Optional[Stats] = None
    sim_stats: Optional[Stats] = None
    from_cache: bool = False
    strategy: Optional[str] = None
    strategy_timings: Optional[Dict[str, float]] = None
    strategy_errors: Optional[Dict[str, str]] = None
    optimality_gap: Optional[int] = None
    exact_optimal: Optional[bool] = None
    chain_stats: Optional[Stats] = None


def caqr_compile(
    target: Union[QuantumCircuit, nx.Graph],
    backend: Optional[Backend] = None,
    mode: str = "min_depth",
    qubit_limit: Optional[int] = None,
    reset_style: str = "cif",
    seed: int = 11,
    auto_commuting: bool = True,
    incremental: bool = True,
    parallel: bool = True,
    cache=None,
    strategy: str = "auto",
    objective: Optional[str] = None,
    portfolio_workers: Optional[int] = None,
    calib_bands: Optional[int] = None,
) -> CompileReport:
    """Compile a circuit or QAOA problem graph with qubit reuse.

    Args:
        target: a :class:`QuantumCircuit` (regular application) or a
            networkx problem graph (commuting QAOA application).
        backend: device to map onto; omit for logical-level output.
        mode: one of

            * ``"qubit_budget"`` — QS-CaQR to *qubit_limit* qubits
              (raises when infeasible);
            * ``"max_reuse"`` — QS-CaQR to the smallest reachable width;
            * ``"min_depth"`` — the sweep point with the best (compiled)
              depth;
            * ``"min_swap"`` — SR-CaQR (requires a backend).
        qubit_limit: required for ``"qubit_budget"``.
        reset_style: reuse reset idiom (``"cif"`` or ``"builtin"``).
        auto_commuting: recognise QAOA-shaped circuits and dispatch them to
            the commuting-gate pipeline (uniform-angle circuits only; the
            regular pipeline handles everything else soundly).
        incremental: drive QS-CaQR through the incremental evaluation
            session (default; ``False`` selects the from-scratch reference
            engine — both pick identical reuse pairs).
        parallel: allow process-pool candidate scoring on large circuits.
        cache: route the request through the content-addressed compile
            cache (:mod:`repro.service`): ``True`` uses the process-wide
            default service (persistent under ``$CAQR_CACHE_DIR`` when
            set), a directory string persists under that path, a
            :class:`~repro.service.CompileService` uses that instance,
            and ``None``/``False`` (default) compiles directly.  Served
            reports are flagged :attr:`CompileReport.from_cache`.
        strategy: ``"auto"`` (default) runs the single mode-selected
            pipeline; ``"portfolio"`` races every applicable engine —
            the QS variants, SR variants, the commuting pipeline, and
            the exact branch-and-bound tier on small circuits — and
            returns the objective-best result (see
            :class:`~repro.service.portfolio.PortfolioCompileService`
            and ``docs/PORTFOLIO.md``); ``"chain"`` runs the
            beam-searched reuse-chain engine
            (:class:`~repro.core.chains.ChainReuse`, circuit targets
            only — see ``docs/CHAINS.md``), which discovers whole chains
            jointly, is never wider than greedy QS, and switches to the
            trapped-ion dual-register cost model on all-to-all backends.
        objective: the winner criterion — ``"qubits"`` (default),
            ``"depth"``, or ``"est_error"`` (``"est_error"`` needs a
            backend under ``"portfolio"``).  Valid with
            ``strategy="portfolio"`` or ``strategy="chain"``.
        portfolio_workers: fan-out width for the portfolio race; ``1``
            races serially (``None`` uses the process-wide default
            service).  An engine
            knob: never changes the winning result, only how fast the
            race runs.
        calib_bands: drift tolerance of the cache key's backend digest —
            calibration values quantised into this many bands per decade
            (see ``docs/SERVICE.md`` and ``docs/BACKENDS.md``).  ``None``
            defers to ``$CAQR_CALIB_BANDS``; ``0`` pins exact digests.
            Only meaningful with ``cache``: it changes which snapshots
            share an entry, never the compiled output.
    """
    if strategy not in ("auto", "portfolio", "chain"):
        raise ReuseError(f"unknown compile strategy {strategy!r}")
    if objective is not None and strategy not in ("portfolio", "chain"):
        raise ReuseError("objective requires strategy='portfolio' or 'chain'")
    if cache:
        from repro.service.service import resolve_cache

        cache_kwargs = dict(
            backend=backend,
            mode=mode,
            qubit_limit=qubit_limit,
            reset_style=reset_style,
            seed=seed,
            auto_commuting=auto_commuting,
            incremental=incremental,
            parallel=parallel,
            strategy=strategy,
            objective=objective,
            portfolio_workers=portfolio_workers,
        )
        if calib_bands is not None:
            # only the caching services understand banding; duck-typed
            # cache objects keep seeing the historical signature
            cache_kwargs["calib_bands"] = calib_bands
        return resolve_cache(cache).compile(target, **cache_kwargs)
    if strategy == "portfolio":
        from repro.service.portfolio import (
            PortfolioCompileService,
            default_portfolio_service,
        )

        service = (
            default_portfolio_service()
            if portfolio_workers is None
            else PortfolioCompileService(max_workers=portfolio_workers)
        )
        return service.compile(
            target,
            backend=backend,
            mode=mode,
            qubit_limit=qubit_limit,
            reset_style=reset_style,
            seed=seed,
            auto_commuting=auto_commuting,
            incremental=incremental,
            parallel=parallel,
            objective=objective if objective is not None else "qubits",
        )
    # caqr_compile's ``parallel`` means "allow": map it onto the routers'
    # tri-state knob (None = auto-detect, False = serial)
    route_parallel = None if parallel else False
    if strategy == "chain":
        return _chain_compile(
            target,
            backend=backend,
            mode=mode,
            qubit_limit=qubit_limit,
            reset_style=reset_style,
            seed=seed,
            objective=objective,
            parallel=route_parallel,
        )
    angles = None
    if (
        auto_commuting
        and isinstance(target, QuantumCircuit)
        and not isinstance(target, nx.Graph)
    ):
        from repro.core.structure import extract_commuting_structure

        structure = extract_commuting_structure(target)
        if (
            structure is not None
            and structure.uniform_gamma() is not None
            and structure.uniform_beta() is not None
        ):
            # the commuting pipeline sees strictly more reuse freedom
            target = structure.graph
            angles = (structure.uniform_gamma(), structure.uniform_beta())
    is_graph = isinstance(target, nx.Graph)
    if mode == "min_swap":
        if backend is None:
            raise ReuseError("min_swap mode needs a backend")
        if is_graph:
            sr_kwargs = {}
            if angles is not None:
                sr_kwargs = {"gamma": angles[0], "beta": angles[1]}
            sr = SRCaQRCommuting(
                backend,
                reset_style=reset_style,
                incremental=incremental,
                parallel=route_parallel,
                **sr_kwargs,
            )
            result = sr.run(target, qubit_limit=qubit_limit)
            compiled = result.circuit
            route_stats = sr.stats
            original_width = target.number_of_nodes()
        else:
            sr = SRCaQR(
                backend,
                reset_style=reset_style,
                incremental=incremental,
                parallel=route_parallel,
            )
            compiled = sr.run(target).circuit
            route_stats = sr.stats
            original_width = target.num_qubits
        baseline = _baseline_metrics(target, backend, seed, angles, route_parallel)
        eval_stats = Stats()
        sweep = _sweep(target, None, reset_style, seed,
                       incremental=incremental, parallel=parallel,
                       stats=eval_stats)
        metrics = collect_metrics(
            compiled, backend.calibration if backend else None
        )
        return CompileReport(
            circuit=compiled,
            mode=mode,
            metrics=metrics,
            baseline_metrics=baseline,
            reuse_beneficial=assess_reuse_benefit(sweep).beneficial,
            qubit_saving=1.0 - metrics.qubits_used / original_width,
            route_stats=route_stats,
            eval_stats=eval_stats,
            sim_stats=_esp_stats(compiled, backend),
        )

    if mode == "qubit_budget":
        if qubit_limit is None:
            raise ReuseError("qubit_budget mode needs qubit_limit")
        eval_stats = Stats()
        if is_graph:
            qs_kwargs = {}
            if angles is not None:
                qs_kwargs = {"gamma": angles[0], "beta": angles[1]}
            engine = QSCaQRCommuting(
                target, reset_style=reset_style, stats=eval_stats, **qs_kwargs
            )
            point = engine.reduce_to(qubit_limit)
            original_width = target.number_of_nodes()
        else:
            engine = QSCaQR(
                reset_style=reset_style,
                incremental=incremental,
                parallel=parallel,
            )
            point = engine.reduce_to(target, qubit_limit)
            eval_stats.merge(engine.stats)
            original_width = target.num_qubits
        if not point.feasible:
            raise ReuseError(
                f"cannot compile to {qubit_limit} qubits "
                f"(reached {point.qubits})"
            )
        logical = point.circuit
        compiled = (
            transpile(
                logical, backend, optimization_level=3, seed=seed,
                parallel=route_parallel,
            ).circuit
            if backend is not None
            else logical
        )
        sweep = _sweep(target, None, reset_style, seed, angles,
                       incremental=incremental, parallel=parallel,
                       stats=eval_stats)
        return CompileReport(
            circuit=compiled,
            mode=mode,
            metrics=collect_metrics(
                compiled, backend.calibration if backend else None
            ),
            baseline_metrics=_baseline_metrics(
                target, backend, seed, angles, route_parallel
            ),
            reuse_beneficial=assess_reuse_benefit(sweep).beneficial,
            qubit_saving=1.0 - point.qubits / original_width,
            eval_stats=eval_stats,
            sim_stats=_esp_stats(compiled, backend),
        )

    if mode not in ("max_reuse", "min_depth"):
        raise ReuseError(f"unknown compile mode {mode!r}")
    eval_stats = Stats()
    sweep = _sweep(target, backend, reset_style, seed, angles,
                   incremental=incremental, parallel=parallel,
                   stats=eval_stats)
    point = select_point(sweep, mode)
    original_width = (
        target.number_of_nodes() if is_graph else target.num_qubits
    )
    return CompileReport(
        circuit=point.circuit,
        mode=mode,
        metrics=collect_metrics(
            point.circuit, backend.calibration if backend else None
        ),
        baseline_metrics=_baseline_metrics(
            target, backend, seed, angles, route_parallel
        ),
        reuse_beneficial=assess_reuse_benefit(sweep).beneficial,
        qubit_saving=1.0 - point.qubits / original_width,
        eval_stats=eval_stats,
        sim_stats=_esp_stats(point.circuit, backend),
    )


def _all_to_all(backend) -> bool:
    """Whether *backend*'s coupling is complete (the trapped-ion regime)."""
    n = backend.coupling.num_qubits
    return len(backend.coupling.edges) == n * (n - 1) // 2


def _chain_compile(
    target,
    backend,
    mode,
    qubit_limit,
    reset_style,
    seed,
    objective,
    parallel=None,
) -> CompileReport:
    """The ``strategy="chain"`` pipeline: beam-searched reuse chains.

    All four compile modes map onto the chain engine: ``max_reuse`` /
    ``min_depth`` merge to exhaustion under the matching-floor-guided
    beam, ``qubit_budget`` stops merging the moment the budget fits
    (fewest inserted dynamic ops that reach it), and ``min_swap``
    compiles the chain plan and routes it onto the backend.  On an
    all-to-all backend the engine switches to the dual-register
    trapped-ion cost model: routing is free there, so the objective
    becomes minimising the mid-circuit measure/reset count the reuse
    inserts (see ``docs/CHAINS.md``).
    """
    if isinstance(target, nx.Graph):
        raise ReuseError(
            "strategy='chain' needs a QuantumCircuit target "
            "(build the QAOA circuit first)"
        )
    if mode not in ("max_reuse", "min_depth", "qubit_budget", "min_swap"):
        raise ReuseError(f"unknown compile mode {mode!r}")
    if mode == "min_swap" and backend is None:
        raise ReuseError("min_swap mode needs a backend")
    chain_stats = Stats()
    dual = backend is not None and _all_to_all(backend)
    chain_objective = objective or ("depth" if mode == "min_depth" else "qubits")
    budget = None
    if mode == "qubit_budget":
        if qubit_limit is None:
            raise ReuseError("qubit_budget mode needs qubit_limit")
        budget = qubit_limit
    engine = ChainReuse(
        objective=chain_objective,
        reset_style=reset_style,
        register_budget=budget,
        dual_register=dual,
        stats=chain_stats,
    )
    result = engine.run(target)
    if budget is not None and not result.feasible:
        raise ReuseError(
            f"cannot compile to {qubit_limit} qubits (reached {result.qubits})"
        )
    logical = result.circuit
    compiled = (
        transpile(
            logical, backend, optimization_level=3, seed=seed, parallel=parallel
        ).circuit
        if backend is not None
        else logical
    )
    metrics = collect_metrics(
        compiled, backend.calibration if backend else None
    )
    return CompileReport(
        circuit=compiled,
        mode=mode,
        metrics=metrics,
        baseline_metrics=_baseline_metrics(target, backend, seed, parallel=parallel),
        reuse_beneficial=bool(result.pairs),
        qubit_saving=1.0 - result.qubits / target.num_qubits,
        sim_stats=_esp_stats(compiled, backend),
        strategy="chain",
        chain_stats=chain_stats,
    )


def _sweep(target, backend, reset_style, seed, angles=None,
           incremental=True, parallel=True, stats=None):
    if isinstance(target, nx.Graph):
        gamma, beta = angles if angles is not None else (None, None)
        return sweep_commuting(
            target,
            backend=backend,
            reset_style=reset_style,
            seed=seed,
            gamma=gamma,
            beta=beta,
            parallel=parallel,
            stats=stats,
        )
    return sweep_regular(
        target,
        backend=backend,
        reset_style=reset_style,
        seed=seed,
        incremental=incremental,
        parallel=parallel,
        stats=stats,
    )


def _esp_stats(circuit, backend) -> Optional[Stats]:
    """Analytic-ESP instrumentation for a hardware-mapped compile.

    ``None`` without a backend, or when the circuit has gates the
    calibration cannot score (logical-level output) — a report must never
    fail over observability.
    """
    if backend is None:
        return None
    from repro.sim.metrics import estimated_success_probability

    stats = Stats()
    try:
        estimated_success_probability(
            circuit, backend.calibration, stats=stats
        )
    except Exception:
        return None
    return stats


def _baseline_metrics(
    target, backend, seed, angles=None, parallel=None
) -> Optional[CircuitMetrics]:
    if backend is None:
        return None
    if isinstance(target, nx.Graph):
        from repro.workloads.qaoa import qaoa_maxcut_circuit

        if angles is not None:
            circuit = qaoa_maxcut_circuit(
                target, gammas=[angles[0]], betas=[angles[1]]
            )
        else:
            circuit = qaoa_maxcut_circuit(target)
    else:
        circuit = target
    compiled = transpile(
        circuit, backend, optimization_level=3, seed=seed, parallel=parallel
    )
    return collect_metrics(compiled.circuit, backend.calibration)
