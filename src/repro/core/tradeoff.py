"""Tradeoff exploration and the reuse-benefit identifier.

The paper generates, for every qubit budget, a transformed + hardware
mapped circuit, then selects per user demand (Section 3.2.1: "If the user
has provided a range of qubit counts, we can generate multiple transformed
versions and choose the one with the best circuit duration or fidelity").
This module implements that sweep-and-select loop and the "is reuse
beneficial for this application?" question raised in the introduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import networkx as nx

from repro.circuit.circuit import QuantumCircuit
from repro.core.qs_caqr import QSCaQR
from repro.core.qs_commuting import QSCaQRCommuting
from repro.exceptions import ReuseError
from repro.hardware.backends import Backend
from repro.transpiler.pipeline import transpile

__all__ = [
    "TradeoffPoint",
    "sweep_regular",
    "sweep_commuting",
    "select_point",
    "ReuseBenefitReport",
    "assess_reuse_benefit",
]


@dataclass
class TradeoffPoint:
    """One (qubit budget, metrics) point of the tradeoff curve.

    Logical metrics always present; compiled metrics filled in when a
    backend was supplied to the sweep.
    """

    qubits: int
    logical_depth: int
    logical_duration_dt: int
    circuit: QuantumCircuit
    compiled_depth: Optional[int] = None
    compiled_duration_dt: Optional[int] = None
    swap_count: Optional[int] = None
    two_qubit_count: Optional[int] = None


def _compile_point(
    point: TradeoffPoint,
    backend: Backend,
    seed: int,
    parallel: Optional[bool] = None,
) -> TradeoffPoint:
    result = transpile(
        point.circuit, backend, optimization_level=3, seed=seed, parallel=parallel
    )
    point.compiled_depth = result.depth
    point.compiled_duration_dt = result.duration_dt
    point.swap_count = result.swap_count
    point.two_qubit_count = result.two_qubit_count
    return point


def sweep_regular(
    circuit: QuantumCircuit,
    backend: Optional[Backend] = None,
    objective: str = "depth",
    reset_style: str = "cif",
    seed: int = 11,
    incremental: bool = True,
    parallel: bool = True,
    stats=None,
) -> List[TradeoffPoint]:
    """QS-CaQR sweep for a regular circuit, optionally hardware-mapped.

    Returns one point per achievable qubit count, original width first.
    ``incremental``/``parallel`` select the evaluation engine (see
    :class:`~repro.core.qs_caqr.QSCaQR`); both engines yield the same
    points.  ``parallel=False`` also keeps the per-point SABRE layout
    search in-process.  *stats* is an optional
    :class:`~repro.stats.Stats` sink the sweep's engine
    counters/timers are folded into.
    """
    compiler = QSCaQR(
        objective=objective,
        reset_style=reset_style,
        incremental=incremental,
        parallel=parallel,
    )
    points: List[TradeoffPoint] = []
    for result in compiler.sweep(circuit):
        point = TradeoffPoint(
            qubits=result.qubits,
            logical_depth=result.depth,
            logical_duration_dt=result.duration_dt,
            circuit=result.circuit,
        )
        if backend is not None:
            _compile_point(point, backend, seed, None if parallel else False)
        points.append(point)
    if stats is not None:
        stats.merge(compiler.stats)
    return points


def sweep_commuting(
    graph: nx.Graph,
    backend: Optional[Backend] = None,
    reset_style: str = "cif",
    seed: int = 11,
    min_qubits: Optional[int] = None,
    candidate_evaluation: str = "schedule",
    strategy: str = "greedy",
    gamma: Optional[float] = None,
    beta: Optional[float] = None,
    parallel: bool = True,
    stats=None,
) -> List[TradeoffPoint]:
    """QS-CaQR-commuting sweep for a QAOA problem graph.

    Pass ``candidate_evaluation="degree"`` for fast pair ranking, or
    ``strategy="lifetime"`` for the deep-reuse event-driven sweep used on
    the large Fig. 3 / Fig. 14 instances.  ``gamma``/``beta`` override the
    default QAOA angles (e.g. when the graph was extracted from a circuit).
    """
    from repro.workloads.qaoa import QAOA_DEFAULT_BETA, QAOA_DEFAULT_GAMMA

    compiler = QSCaQRCommuting(
        graph,
        gamma=gamma if gamma is not None else QAOA_DEFAULT_GAMMA,
        beta=beta if beta is not None else QAOA_DEFAULT_BETA,
        reset_style=reset_style,
        candidate_evaluation=candidate_evaluation,
        parallel=parallel,
    )
    if strategy == "lifetime":
        results = compiler.lifetime_sweep()
    elif strategy == "greedy":
        results = compiler.sweep(min_qubits=min_qubits)
    else:
        raise ReuseError(f"unknown sweep strategy {strategy!r}")
    points: List[TradeoffPoint] = []
    for result in results:
        point = TradeoffPoint(
            qubits=result.qubits,
            logical_depth=result.depth,
            logical_duration_dt=result.duration_dt,
            circuit=result.circuit,
        )
        if backend is not None:
            _compile_point(point, backend, seed, None if parallel else False)
        points.append(point)
    if stats is not None:
        stats.merge(compiler.stats)
    return points


def select_point(points: List[TradeoffPoint], mode: str) -> TradeoffPoint:
    """Pick one sweep point per user demand.

    Modes (paper Table 1's three rows):

    * ``"baseline"`` — no reuse (the first point).
    * ``"max_reuse"`` — fewest qubits.
    * ``"min_depth"`` — smallest compiled depth (logical depth when the
      sweep was not hardware-mapped).
    * ``"min_duration"`` — smallest compiled/logical duration.
    * ``"min_swap"`` — fewest SWAPs (requires a hardware-mapped sweep).
    """
    if not points:
        raise ReuseError("empty tradeoff sweep")
    if mode == "baseline":
        return points[0]
    if mode == "max_reuse":
        return min(points, key=lambda p: (p.qubits, p.logical_depth))
    if mode == "min_depth":
        return min(
            points,
            key=lambda p: (
                p.compiled_depth if p.compiled_depth is not None else p.logical_depth,
                p.qubits,
            ),
        )
    if mode == "min_duration":
        return min(
            points,
            key=lambda p: (
                p.compiled_duration_dt
                if p.compiled_duration_dt is not None
                else p.logical_duration_dt,
                p.qubits,
            ),
        )
    if mode == "min_swap":
        if any(p.swap_count is None for p in points):
            raise ReuseError("min_swap selection needs a hardware-mapped sweep")
        return min(points, key=lambda p: (p.swap_count, p.qubits))
    raise ReuseError(f"unknown selection mode {mode!r}")


@dataclass
class ReuseBenefitReport:
    """Answer to "will qubit reuse benefit this application?".

    Attributes:
        original_qubits / minimum_qubits: sweep endpoints.
        saving_fraction: achievable qubit saving (0..1).
        depth_overhead_at_max: relative logical-depth increase at maximal
            reuse.
        knee_qubits / knee_depth_overhead: deepest saving whose depth
            overhead stays under the knee tolerance.
        beneficial: the recommendation.
    """

    original_qubits: int
    minimum_qubits: int
    saving_fraction: float
    depth_overhead_at_max: float
    knee_qubits: int
    knee_depth_overhead: float
    beneficial: bool


def assess_reuse_benefit(
    points: List[TradeoffPoint],
    min_saving: float = 0.2,
    knee_tolerance: float = 0.25,
) -> ReuseBenefitReport:
    """Classify an application as reuse-friendly or not.

    An application benefits when at least *min_saving* of its qubits can be
    saved at all (the paper's resource-capacity view: reuse lets larger
    programs run on smaller machines).  The knee fields quantify how much
    of that saving is available within *knee_tolerance* relative depth
    overhead — the heavy-tail argument of Fig. 3 — for callers who care
    about duration as much as width.
    """
    if not points:
        raise ReuseError("empty tradeoff sweep")
    base = points[0]
    floor = min(points, key=lambda p: p.qubits)
    saving = 1.0 - floor.qubits / base.qubits
    overhead_max = floor.logical_depth / base.logical_depth - 1.0
    knee = base
    for point in points:
        overhead = point.logical_depth / base.logical_depth - 1.0
        if overhead <= knee_tolerance and point.qubits < knee.qubits:
            knee = point
    knee_overhead = knee.logical_depth / base.logical_depth - 1.0
    return ReuseBenefitReport(
        original_qubits=base.qubits,
        minimum_qubits=floor.qubits,
        saving_fraction=saving,
        depth_overhead_at_max=overhead_max,
        knee_qubits=knee.qubits,
        knee_depth_overhead=knee_overhead,
        beneficial=saving >= min_saving - 1e-9,
    )
