"""Portfolio compilation: race every engine, keep the best result.

CaQR's engines embody different heuristics — QS-CaQR's depth-greedy pair
selection, its duration objective, narrow-lookahead variants, SR-CaQR's
trial seeds, the commuting-gate pipeline's degree/lifetime sweeps — and
none dominates on every circuit.  :class:`PortfolioCompileService` runs a
deterministic roster of them concurrently over the shared process pool
(:mod:`repro.pool`), adds the **exact tier**
(:class:`~repro.core.exact.ExactReuse`, gated on circuit size and a node
budget) when the circuit is small enough to solve to optimality, and
declares a winner under a user-declared objective:

* ``"qubits"`` — fewest active qubits (ties: depth);
* ``"depth"`` — smallest depth (ties: qubits);
* ``"est_error"`` — lowest estimated error ``1 - ESP`` against the
  backend calibration (requires a backend).

**Determinism.**  The winner is *not* the first strategy to finish — a
wall-clock race would make the result depend on worker count and
machine load.  Every strategy runs to completion (strategies are pure
functions of the request), and the winner is the minimum of a fully
deterministic objective key, so ``workers=1`` and ``workers=N`` — and a
:class:`~repro.service.net.client.RemoteCompileService` on the other
side of a socket — return bit-identical circuits.  Strategy *timings*
are recorded for observability but excluded from that contract, exactly
like the route-stats timers.

**Error channel.**  A strategy raising inside the pool must not sink
the portfolio or silently vanish from the race: the worker catches the
exception and returns it as data, the report's ``strategy_errors`` maps
strategy name to the message, and ``portfolio_errors:<name>`` counts it
in the service's :class:`~repro.stats.Stats` sink.  Only if *every*
strategy fails does the portfolio raise.

**Self-tuning.**  Per-strategy win counts live in the same sink
(``portfolio_wins:<name>`` / ``portfolio_compiles``); historically
winning strategies are submitted to the pool first so their results are
available earliest.  Scheduling order never changes the winner — only
how soon the pool converges — so self-tuning cannot break determinism.

See ``docs/PORTFOLIO.md`` for the full contract and
``examples/portfolio_compile.py`` for a tour.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import networkx as nx

from repro import pool
from repro.analysis.metrics import collect_metrics
from repro.circuit.circuit import QuantumCircuit
from repro.compile_api import CompileReport, _all_to_all, caqr_compile
from repro.core.chains import ChainReuse
from repro.core.exact import ExactReuse
from repro.core.qs_caqr import QSCaQR
from repro.core.sr_caqr import SRCaQR
from repro.core.sr_commuting import SRCaQRCommuting
from repro.core.tradeoff import (
    TradeoffPoint,
    assess_reuse_benefit,
    select_point,
    sweep_commuting,
    sweep_regular,
)
from repro.core.transform import apply_reuse_chain
from repro.exceptions import ReuseError
from repro.hardware.backends import Backend
from repro.service.service import CompileRequest
from repro.service.workers import WorkerPool
from repro.sim.metrics import estimated_success_probability
from repro.stats import Stats, rate
from repro.transpiler.pipeline import transpile

__all__ = [
    "OBJECTIVES",
    "StrategySpec",
    "StrategyOutcome",
    "PortfolioCompileService",
    "default_portfolio_service",
    "peek_default_portfolio_service",
    "reset_default_portfolio_service",
    "set_default_portfolio_state_path",
]

#: The objectives a portfolio compile may optimise.
OBJECTIVES = ("qubits", "depth", "est_error")

#: Default node budget of the exact tier (anytime: past this many search
#: states the oracle reports best-so-far with ``optimal=False``).
DEFAULT_EXACT_MAX_NODES = 200_000

#: Default width gate of the exact tier: circuits wider than this skip
#: the oracle entirely (branch-and-bound cost grows super-exponentially
#: with width; the greedy strategies still race).
DEFAULT_EXACT_MAX_QUBITS = 10


@dataclass(frozen=True)
class StrategySpec:
    """One named entry of the portfolio roster.

    ``kind`` selects the engine family, ``params`` its knob overrides:

    * ``"caqr"`` — the canonical :func:`~repro.compile_api.caqr_compile`
      path (mode may be overridden via ``params["mode"]``);
    * ``"qs"`` — a QS-CaQR sweep variant (``objective``,
      ``lookahead_width``);
    * ``"sr"`` — an SR-CaQR router variant (``trials``, ``objective``);
      requires a backend;
    * ``"commuting"`` — a commuting-pipeline sweep variant
      (``candidate_evaluation``, ``strategy``); graph targets only;
    * ``"chain"`` — the beam-searched chain engine
      (:class:`~repro.core.chains.ChainReuse`; ``dual``, ``beam_width``,
      ``objective``); circuit targets only;
    * ``"exact"`` — the branch-and-bound oracle.
    """

    name: str
    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @staticmethod
    def make(name: str, kind: str, **params: Any) -> "StrategySpec":
        return StrategySpec(name, kind, tuple(sorted(params.items())))

    def options(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass
class StrategyOutcome:
    """What one strategy brought back from the race (or how it died)."""

    name: str
    elapsed: float = 0.0
    error: Optional[str] = None
    report: Optional[CompileReport] = None
    circuit: Optional[QuantumCircuit] = None
    route_stats: Optional[Stats] = None
    exact_qubits: Optional[int] = None
    exact_optimal: Optional[bool] = None
    chain_stats: Optional[Stats] = None


# -- strategy execution (module-level: runs inside pool workers) ---------------


def _sweep_points(
    results, backend: Optional[Backend], seed: int
) -> List[TradeoffPoint]:
    points = []
    for result in results:
        point = TradeoffPoint(
            qubits=result.qubits,
            logical_depth=result.depth,
            logical_duration_dt=result.duration_dt,
            circuit=result.circuit,
        )
        if backend is not None:
            compiled = transpile(
                point.circuit, backend, optimization_level=3, seed=seed,
                parallel=False,
            )
            point.compiled_depth = compiled.depth
            point.compiled_duration_dt = compiled.duration_dt
            point.swap_count = compiled.swap_count
            point.two_qubit_count = compiled.two_qubit_count
        points.append(point)
    return points


def _pick_budget_point(points: List[TradeoffPoint], qubit_limit: int):
    """Mirror ``reduce_to``: the first sweep point inside the budget."""
    eligible = [p for p in points if p.qubits <= qubit_limit]
    if not eligible:
        raise ReuseError(
            f"cannot compile to {qubit_limit} qubits "
            f"(sweep floor is {min(p.qubits for p in points)})"
        )
    return max(eligible, key=lambda p: p.qubits)


def _finalize_logical(
    logical: QuantumCircuit, backend: Optional[Backend], seed: int
) -> QuantumCircuit:
    if backend is None:
        return logical
    return transpile(
        logical, backend, optimization_level=3, seed=seed, parallel=False
    ).circuit


def _run_caqr_strategy(spec, request, extracted) -> StrategyOutcome:
    options = spec.options()
    report = caqr_compile(
        request.target,
        backend=request.backend,
        mode=options.get("mode", request.mode),
        qubit_limit=request.qubit_limit,
        reset_style=request.reset_style,
        seed=request.seed,
        auto_commuting=request.auto_commuting,
        incremental=request.incremental,
        parallel=False,
        cache=None,
    )
    return StrategyOutcome(
        name=spec.name,
        report=report,
        circuit=report.circuit,
        route_stats=report.route_stats,
    )


def _run_qs_strategy(spec, request, extracted) -> StrategyOutcome:
    options = spec.options()
    compiler = QSCaQR(
        objective=options.get("objective", "depth"),
        reset_style=request.reset_style,
        lookahead_width=options.get("lookahead_width"),
        incremental=request.incremental,
        parallel=False,
    )
    results = compiler.sweep(request.target)
    if request.mode == "qubit_budget":
        points = _sweep_points(results, None, request.seed)
        point = _pick_budget_point(points, request.qubit_limit)
        circuit = _finalize_logical(point.circuit, request.backend, request.seed)
    else:
        points = _sweep_points(results, request.backend, request.seed)
        point = select_point(points, request.mode)
        # sweep points keep logical circuits (the greedy path's contract);
        # only min_swap reports promise hardware-mapped output
        circuit = (
            _finalize_logical(point.circuit, request.backend, request.seed)
            if request.mode == "min_swap"
            else point.circuit
        )
    return StrategyOutcome(name=spec.name, circuit=circuit)


def _sr_lane_seed_base(request, lane: str) -> int:
    """Per-lane hint-seed anchor, derived from the request fingerprint.

    Each SR lane explores a distinct placement-seed stream (instead of
    varying only trial counts/objectives), yet stays a pure function of
    (request, lane name) — so serial and pooled races, and every replica
    of a fingerprint, derive identical seeds.
    """
    digest = hashlib.sha256(
        f"{request.fingerprint()}:{lane}".encode()
    ).hexdigest()
    return int(digest[:8], 16)


def _run_sr_strategy(spec, request, extracted) -> StrategyOutcome:
    options = spec.options()
    seed_base = _sr_lane_seed_base(request, spec.name)
    if isinstance(request.target, nx.Graph) or extracted is not None:
        graph, gamma, beta = (
            extracted
            if extracted is not None
            else (request.target, None, None)
        )
        kwargs = {}
        if gamma is not None:
            kwargs = {"gamma": gamma, "beta": beta}
        router = SRCaQRCommuting(
            request.backend,
            reset_style=request.reset_style,
            incremental=request.incremental,
            parallel=False,
            **kwargs,
        )
        result = router.run(
            graph,
            qubit_limit=request.qubit_limit,
            trials=options.get("trials", 3),
            seed_base=seed_base,
        )
    else:
        router = SRCaQR(
            request.backend,
            reset_style=request.reset_style,
            incremental=request.incremental,
            parallel=False,
        )
        result = router.run(
            request.target,
            trials=options.get("trials", 3),
            objective=options.get("objective", "swaps"),
            seed_base=seed_base,
        )
    return StrategyOutcome(
        name=spec.name, circuit=result.circuit, route_stats=router.stats
    )


def _run_commuting_strategy(spec, request, extracted) -> StrategyOutcome:
    options = spec.options()
    graph, gamma, beta = (
        extracted if extracted is not None else (request.target, None, None)
    )
    points = sweep_commuting(
        graph,
        backend=None if request.mode == "qubit_budget" else request.backend,
        reset_style=request.reset_style,
        seed=request.seed,
        candidate_evaluation=options.get("candidate_evaluation", "schedule"),
        strategy=options.get("strategy", "greedy"),
        gamma=gamma,
        beta=beta,
        parallel=False,
    )
    if request.mode == "qubit_budget":
        point = _pick_budget_point(points, request.qubit_limit)
        circuit = _finalize_logical(point.circuit, request.backend, request.seed)
    else:
        point = select_point(points, request.mode)
        circuit = (
            _finalize_logical(point.circuit, request.backend, request.seed)
            if request.mode == "min_swap"
            else point.circuit
        )
    return StrategyOutcome(name=spec.name, circuit=circuit)


def _run_chain_strategy(spec, request, extracted) -> StrategyOutcome:
    options = spec.options()
    if isinstance(request.target, nx.Graph):
        raise ReuseError(
            "chain lane needs a QuantumCircuit target "
            "(the commuting lanes cover graph inputs)"
        )
    chain_stats = Stats()
    engine = ChainReuse(
        objective=options.get(
            "objective", "depth" if request.mode == "min_depth" else "qubits"
        ),
        reset_style=request.reset_style,
        beam_width=options.get("beam_width", 8),
        register_budget=(
            request.qubit_limit if request.mode == "qubit_budget" else None
        ),
        dual_register=bool(options.get("dual", False)),
        stats=chain_stats,
    )
    result = engine.run(request.target)
    if request.mode == "qubit_budget":
        if not result.feasible:
            raise ReuseError(
                f"chain lane cannot reach {request.qubit_limit} qubits "
                f"(reached {result.qubits})"
            )
        circuit = _finalize_logical(result.circuit, request.backend, request.seed)
    elif request.mode == "min_swap":
        circuit = _finalize_logical(result.circuit, request.backend, request.seed)
    else:
        # sweep modes report logical circuits, matching the greedy contract
        circuit = result.circuit
    return StrategyOutcome(name=spec.name, circuit=circuit, chain_stats=chain_stats)


def _run_exact_strategy(spec, request, extracted) -> StrategyOutcome:
    options = spec.options()
    solver = ExactReuse(
        reset_style=request.reset_style,
        max_nodes=options.get("max_nodes", DEFAULT_EXACT_MAX_NODES),
    )
    result = solver.run(request.target)
    if request.mode == "qubit_budget":
        width = request.target.num_qubits
        if result.qubits > request.qubit_limit:
            raise ReuseError(
                f"exact tier cannot reach {request.qubit_limit} qubits "
                f"(optimum is {result.qubits})"
                if result.optimal
                else f"exact tier hit its budget above {request.qubit_limit} qubits"
            )
        prefix = result.pairs[: max(0, width - request.qubit_limit)]
        logical = apply_reuse_chain(
            request.target, prefix, reset_style=request.reset_style
        )
        circuit = _finalize_logical(logical, request.backend, request.seed)
    elif request.mode == "min_swap":
        circuit = _finalize_logical(result.circuit, request.backend, request.seed)
    else:
        # sweep modes report logical circuits even under a backend —
        # match the greedy contract so metrics stay comparable
        circuit = result.circuit
    return StrategyOutcome(
        name=spec.name,
        circuit=circuit,
        exact_qubits=result.qubits,
        exact_optimal=result.optimal,
    )


_STRATEGY_RUNNERS = {
    "caqr": _run_caqr_strategy,
    "qs": _run_qs_strategy,
    "sr": _run_sr_strategy,
    "commuting": _run_commuting_strategy,
    "chain": _run_chain_strategy,
    "exact": _run_exact_strategy,
}


def _run_strategy_worker(payload) -> StrategyOutcome:
    """Pool worker: run one strategy, never raise.

    A failing strategy is *data* — the per-strategy error channel the
    poisoned-strategy test pins — so the portfolio loses one lane, not
    the race.  Engines run with ``parallel=False`` in here (workers must
    not nest process pools), and the serial path calls this very
    function, so both paths compute identical results.
    """
    spec, request, extracted = payload
    runner = _STRATEGY_RUNNERS.get(spec.kind)
    start = time.perf_counter()
    if runner is None:
        return StrategyOutcome(
            name=spec.name,
            error=f"ReuseError: unknown strategy kind {spec.kind!r}",
        )
    try:
        outcome = runner(spec, request, extracted)
    except Exception as exc:
        return StrategyOutcome(
            name=spec.name,
            elapsed=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    outcome.elapsed = time.perf_counter() - start
    return outcome


# -- the service ---------------------------------------------------------------


class PortfolioCompileService:
    """Race the engine roster; return the objective-best report.

    Args:
        max_workers: strategy fan-out width; at most one races the
            lanes serially (default: the shared pool's width, see
            :mod:`repro.pool`).
        stats: optional shared :class:`Stats` sink for win-rate /
            error counters and per-strategy timers.
        exact_max_nodes: anytime node budget handed to the exact tier.
        exact_max_qubits: circuits wider than this skip the exact tier.
        strategies: explicit roster override (a list of
            :class:`StrategySpec`); ``None`` builds the default roster
            per request.  The override replaces the roster wholesale —
            tests use it to inject poisoned strategies.
        state_path: optional JSON file persisting the win-rate counters
            (the self-tuned submission order) across restarts — loaded
            on construction, rewritten atomically after every race.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        stats: Optional[Stats] = None,
        exact_max_nodes: int = DEFAULT_EXACT_MAX_NODES,
        exact_max_qubits: int = DEFAULT_EXACT_MAX_QUBITS,
        strategies: Optional[List[StrategySpec]] = None,
        state_path: Optional[str] = None,
    ):
        self.max_workers = max_workers or pool.width()
        self.stats = stats if stats is not None else Stats()
        self.exact_max_nodes = exact_max_nodes
        self.exact_max_qubits = exact_max_qubits
        self.strategies = strategies
        self.state_path = state_path
        self.workers = WorkerPool(stats=self.stats)
        if state_path:
            self._load_state()

    def close(self) -> None:
        """Drop the worker record caches (idempotent); the shared pool stays up."""
        self.workers.shutdown()

    # -- win-rate persistence --------------------------------------------------

    _STATE_SCHEMA = 1

    @staticmethod
    def _is_state_counter(name: str) -> bool:
        return name == "portfolio_compiles" or name.startswith("portfolio_wins:")

    def _load_state(self) -> None:
        """Merge persisted win-rate counters into the stats sink.

        A missing, unreadable, or schema-mismatched file is a clean
        cold start, never an error — state is an optimisation hint.
        """
        try:
            with open(self.state_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != self._STATE_SCHEMA
        ):
            return
        counters = payload.get("counters")
        if not isinstance(counters, dict):
            return
        for name, value in counters.items():
            if self._is_state_counter(name) and isinstance(value, int):
                self.stats.count(name, value)
        self.stats.count("portfolio_state_loads")

    def _save_state(self) -> None:
        """Atomically persist the win-rate counters (best-effort)."""
        if not self.state_path:
            return
        counters = {
            name: value
            for name, value in self.stats.counters.items()
            if self._is_state_counter(name)
        }
        payload = {"schema": self._STATE_SCHEMA, "counters": counters}
        directory = os.path.dirname(os.path.abspath(self.state_path))
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=".state-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, sort_keys=True)
                os.replace(tmp_path, self.state_path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.count("portfolio_state_errors")

    # -- roster ----------------------------------------------------------------

    def roster(
        self, request: CompileRequest, extracted=None
    ) -> List[StrategySpec]:
        """The deterministic strategy roster for *request*.

        Depends only on request content (target kind/width, backend,
        mode), never on machine state, so every replica of a request —
        local, pooled, or remote — races the same lanes.
        """
        if self.strategies is not None:
            return list(self.strategies)
        commuting = isinstance(request.target, nx.Graph) or extracted is not None
        specs: List[StrategySpec] = [StrategySpec.make("greedy", "caqr")]
        if commuting:
            specs.append(
                StrategySpec.make(
                    "commuting-degree", "commuting", candidate_evaluation="degree"
                )
            )
            specs.append(
                StrategySpec.make(
                    "commuting-lifetime", "commuting", strategy="lifetime"
                )
            )
        else:
            specs.append(StrategySpec.make("qs-duration", "qs", objective="duration"))
            specs.append(StrategySpec.make("qs-narrow", "qs", lookahead_width=1))
            specs.append(StrategySpec.make("chain", "chain"))
            if request.backend is not None and _all_to_all(request.backend):
                # trapped-ion regime: also race the dual-register cost model
                specs.append(StrategySpec.make("chain-dual", "chain", dual=True))
            if request.target.num_qubits <= self.exact_max_qubits:
                specs.append(
                    StrategySpec.make(
                        "exact", "exact", max_nodes=self.exact_max_nodes
                    )
                )
        if request.backend is not None and request.mode == "min_swap":
            specs.append(StrategySpec.make("sr-trials-5", "sr", trials=5))
            if not commuting:
                specs.append(StrategySpec.make("sr-esp", "sr", objective="esp"))
        return specs

    def _win_rate(self, name: str) -> float:
        return rate(self.stats, f"portfolio_wins:{name}", "portfolio_compiles")

    # -- the race --------------------------------------------------------------

    def compile(
        self,
        target: Union[QuantumCircuit, nx.Graph],
        backend: Optional[Backend] = None,
        mode: str = "min_depth",
        qubit_limit: Optional[int] = None,
        reset_style: str = "cif",
        seed: int = 11,
        auto_commuting: bool = True,
        incremental: bool = True,
        parallel: bool = True,
        objective: str = "qubits",
    ) -> CompileReport:
        """Portfolio ``caqr_compile``: race the roster, keep the best.

        Same signature as the single-strategy path plus *objective*; the
        returned report carries the winner's circuit and metrics along
        with the portfolio fields (``strategy``, ``strategy_timings``,
        ``strategy_errors``, ``optimality_gap``, ``exact_optimal``).
        """
        if objective not in OBJECTIVES:
            raise ReuseError(
                f"unknown portfolio objective {objective!r} "
                f"(choose from {', '.join(OBJECTIVES)})"
            )
        if objective == "est_error" and backend is None:
            raise ReuseError("est_error objective needs a backend")
        if mode == "qubit_budget" and qubit_limit is None:
            raise ReuseError("qubit_budget mode needs qubit_limit")
        if mode == "min_swap" and backend is None:
            raise ReuseError("min_swap mode needs a backend")
        request = CompileRequest(
            target=target,
            backend=backend,
            mode=mode,
            qubit_limit=qubit_limit,
            reset_style=reset_style,
            seed=seed,
            auto_commuting=auto_commuting,
            incremental=incremental,
            parallel=parallel,
        )
        extracted = self._extract_commuting(request)
        specs = self.roster(request, extracted)
        if not specs:
            raise ReuseError("empty portfolio roster")
        ordered = sorted(
            specs, key=lambda spec: (-self._win_rate(spec.name), spec.name)
        )
        outcomes = self._run_all(ordered, request, extracted, parallel)
        return self._select(request, extracted, outcomes, objective)

    @staticmethod
    def _extract_commuting(request: CompileRequest):
        """Mirror ``caqr_compile``'s QAOA recognition for the roster.

        Returns ``(graph, gamma, beta)`` when the circuit target is a
        uniform-angle QAOA circuit (the commuting variants then sweep
        the graph), else ``None``.  Graph targets need no extraction.
        """
        if not request.auto_commuting:
            return None
        if isinstance(request.target, nx.Graph):
            return None
        from repro.core.structure import extract_commuting_structure

        structure = extract_commuting_structure(request.target)
        if (
            structure is not None
            and structure.uniform_gamma() is not None
            and structure.uniform_beta() is not None
        ):
            return (
                structure.graph,
                structure.uniform_gamma(),
                structure.uniform_beta(),
            )
        return None

    def _run_all(
        self,
        specs: List[StrategySpec],
        request: CompileRequest,
        extracted,
        parallel: bool,
    ) -> List[StrategyOutcome]:
        if pool.use_pool(None if parallel else False, len(specs), self.max_workers):
            self.stats.count("portfolio_parallel_races")
            with self.stats.timed("portfolio_race"):
                # one fingerprint for the whole race: every lane
                # shares the request, so warm workers decode it once
                fingerprint = request.fingerprint()
                tasks = [("strategy", fingerprint, request, spec) for spec in specs]
                outcomes = self.workers.run(tasks)
        else:
            self.stats.count("portfolio_serial_races")
            with self.stats.timed("portfolio_race"):
                outcomes = [
                    _run_strategy_worker((spec, request, extracted))
                    for spec in specs
                ]
        return outcomes

    # -- winner selection ------------------------------------------------------

    def _select(
        self,
        request: CompileRequest,
        extracted,
        outcomes: List[StrategyOutcome],
        objective: str,
    ) -> CompileReport:
        stats = self.stats
        stats.count("portfolio_compiles")
        calibration = (
            request.backend.calibration if request.backend is not None else None
        )
        errors: Dict[str, str] = {}
        timings: Dict[str, float] = {}
        candidates: List[Tuple[tuple, StrategyOutcome, Any]] = []
        for outcome in outcomes:
            timings[outcome.name] = outcome.elapsed
            stats.add_time(f"portfolio_strategy:{outcome.name}", outcome.elapsed)
            if outcome.error is not None or outcome.circuit is None:
                errors[outcome.name] = outcome.error or "strategy returned nothing"
                stats.count(f"portfolio_errors:{outcome.name}")
                continue
            metrics = collect_metrics(outcome.circuit, calibration)
            if (
                request.mode == "qubit_budget"
                and metrics.qubits_used > request.qubit_limit
            ):
                errors[outcome.name] = (
                    f"result uses {metrics.qubits_used} qubits, "
                    f"budget is {request.qubit_limit}"
                )
                stats.count(f"portfolio_errors:{outcome.name}")
                continue
            key = self._objective_key(outcome, metrics, objective, request)
            candidates.append((key, outcome, metrics))
        if not candidates:
            detail = "; ".join(f"{name}: {msg}" for name, msg in sorted(errors.items()))
            raise ReuseError(f"every portfolio strategy failed ({detail})")
        candidates.sort(key=lambda entry: entry[0])
        _, winner, winner_metrics = candidates[0]
        stats.count(f"portfolio_wins:{winner.name}")

        exact = next((o for o in outcomes if o.exact_qubits is not None), None)
        optimality_gap: Optional[int] = None
        exact_optimal: Optional[bool] = None
        if exact is not None:
            exact_optimal = exact.exact_optimal
            stats.count(
                "portfolio_oracle_optimal"
                if exact.exact_optimal
                else "portfolio_oracle_budget_cut"
            )
            if exact.exact_optimal:
                optimality_gap = winner_metrics.qubits_used - exact.exact_qubits

        report = self._assemble_report(
            request, extracted, winner, winner_metrics, outcomes
        )
        if report.chain_stats is None:
            # chain-engine observability survives even when another lane
            # wins the race: the first chain lane's counters ride along
            chain = next((o for o in outcomes if o.chain_stats is not None), None)
            if chain is not None:
                report.chain_stats = chain.chain_stats
        report.strategy = winner.name
        report.strategy_timings = timings
        report.strategy_errors = errors
        report.optimality_gap = optimality_gap
        report.exact_optimal = exact_optimal
        self._save_state()
        return report

    def _objective_key(
        self,
        outcome: StrategyOutcome,
        metrics,
        objective: str,
        request: CompileRequest,
    ) -> tuple:
        if objective == "qubits":
            head: tuple = (metrics.qubits_used, metrics.depth)
        elif objective == "depth":
            head = (metrics.depth, metrics.qubits_used)
        else:  # est_error
            error = 1.0 - estimated_success_probability(
                outcome.circuit, request.backend.calibration
            )
            head = (error, metrics.qubits_used, metrics.depth)
        # the strategy name is the final tie-break: fully deterministic,
        # independent of completion order and worker count
        return head + (outcome.name,)

    def _assemble_report(
        self,
        request: CompileRequest,
        extracted,
        winner: StrategyOutcome,
        winner_metrics,
        outcomes: List[StrategyOutcome],
    ) -> CompileReport:
        if winner.report is not None:
            return winner.report
        # non-canonical winner: rebuild the ancillary fields.  The
        # benefit verdict and baseline metrics are properties of the
        # *input*, so borrow them from the canonical strategy's report
        # when it survived, and recompute only as a fallback.
        canonical = next(
            (o for o in outcomes if o.report is not None), None
        )
        if canonical is not None:
            baseline = canonical.report.baseline_metrics
            beneficial = canonical.report.reuse_beneficial
        else:
            baseline, beneficial = self._ancillary(request, extracted)
        if isinstance(request.target, nx.Graph):
            original_width = request.target.number_of_nodes()
        else:
            original_width = request.target.num_qubits
        return CompileReport(
            circuit=winner.circuit,
            mode=request.mode,
            metrics=winner_metrics,
            baseline_metrics=baseline,
            reuse_beneficial=beneficial,
            qubit_saving=1.0 - winner_metrics.qubits_used / original_width,
            route_stats=winner.route_stats,
        )

    def _ancillary(self, request: CompileRequest, extracted):
        """Recompute baseline metrics + benefit verdict from scratch
        (only reached when the canonical greedy strategy itself died)."""
        if isinstance(request.target, nx.Graph) or extracted is not None:
            graph, gamma, beta = (
                extracted
                if extracted is not None
                else (request.target, None, None)
            )
            points = sweep_commuting(
                graph,
                backend=None,
                reset_style=request.reset_style,
                seed=request.seed,
                gamma=gamma,
                beta=beta,
                parallel=False,
            )
            baseline_circuit = None
            if request.backend is not None:
                from repro.workloads.qaoa import qaoa_maxcut_circuit

                if gamma is not None:
                    baseline_circuit = qaoa_maxcut_circuit(
                        graph, gammas=[gamma], betas=[beta]
                    )
                else:
                    baseline_circuit = qaoa_maxcut_circuit(graph)
        else:
            points = sweep_regular(
                request.target,
                backend=None,
                reset_style=request.reset_style,
                seed=request.seed,
                incremental=request.incremental,
                parallel=False,
            )
            baseline_circuit = (
                request.target if request.backend is not None else None
            )
        baseline = None
        if baseline_circuit is not None:
            compiled = transpile(
                baseline_circuit,
                request.backend,
                optimization_level=3,
                seed=request.seed,
                parallel=None if request.parallel else False,
            )
            baseline = collect_metrics(
                compiled.circuit, request.backend.calibration
            )
        return baseline, assess_reuse_benefit(points).beneficial


# -- process-wide default (win-rate history accumulates across calls) ----------

_default_portfolio: Optional[PortfolioCompileService] = None
_default_state_path: Optional[str] = None


def default_portfolio_service() -> PortfolioCompileService:
    """The lazily created process-wide portfolio service.

    ``caqr_compile(strategy="portfolio")`` routes through this instance
    so the win-rate history (and therefore the pool submission order)
    improves over a process's lifetime.  When a state path is configured
    (:func:`set_default_portfolio_state_path`, or implicitly
    ``$CAQR_CACHE_DIR/portfolio_state.json`` when that variable is set)
    the history also survives restarts.
    """
    global _default_portfolio
    if _default_portfolio is None:
        state_path = _default_state_path
        if state_path is None:
            cache_dir = os.environ.get("CAQR_CACHE_DIR") or None
            if cache_dir:
                state_path = os.path.join(
                    os.path.expanduser(cache_dir), "portfolio_state.json"
                )
        _default_portfolio = PortfolioCompileService(state_path=state_path)
    return _default_portfolio


def peek_default_portfolio_service() -> Optional[PortfolioCompileService]:
    """The process-wide service if it exists, without creating one.

    The metrics endpoint uses this to fold portfolio win rates into
    ``GET /v1/metrics`` without forcing an idle service into being.
    """
    return _default_portfolio


def set_default_portfolio_state_path(path: Optional[str]) -> None:
    """Pin where the process-wide service persists win-rate state.

    ``repro serve --cache-dir DIR`` calls this with
    ``DIR/portfolio_state.json`` so self-tuning survives a redeploy.
    Resets the current default service so the next use reloads state.
    """
    global _default_portfolio, _default_state_path
    _default_state_path = path
    _default_portfolio = None


def reset_default_portfolio_service() -> None:
    """Forget the process-wide portfolio service (tests isolate stats)."""
    global _default_portfolio
    _default_portfolio = None
