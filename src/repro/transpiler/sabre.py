"""SABRE swap routing and layout search (Li, Ding, Xie — ASPLOS 2019).

SABRE is the state-of-the-art mapper the paper uses after QS-CaQR's logical
transformation, and it is what Qiskit's optimisation level 3 runs — so it
doubles as our baseline router.

The implementation follows the published algorithm: a front layer of
unresolved two-qubit gates, a heuristic swap score combining the front
layer's distance sum with a look-ahead window of upcoming gates, and decay
factors that discourage thrashing a single qubit.  A stall-escape fallback
routes the oldest front gate along a shortest path if the heuristic loops.

One layout search pays its fixed costs once: the circuit and its reverse
are flattened into a :class:`_RoutingPlan` each, and every pass of every
trial routes those plans.  Trial passes only need a final layout and a
swap count, so they route count-only, without building an output circuit.
Candidate swaps are scored in plain Python over cached distance rows: a
round has only a handful of candidates and about ``_EXTENDED_SET_SIZE``
look-ahead gates, where numpy's per-call cost outweighs the arithmetic.
The scores are bit-identical to the numpy kernel this replaced — integer
distance sums are exact and the float expression keeps its operation
order — and candidates are scored in set-iteration order with the same
RNG tie-break stream.

:func:`sabre_layout` can fan its independent trials out to the shared
process pool (``parallel=``, :mod:`repro.pool`); layout trials pre-draw their RNG
material serially so the winning layout never depends on worker timing
(see ``docs/ROUTER.md``).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.instruction import Instruction
from repro.dag.dagcircuit import DAGCircuit
from repro.exceptions import TranspilerError
from repro import pool
from repro.hardware.coupling import CouplingMap
from repro.stats import Stats
from repro.transpiler.layout import Layout, trivial_layout

__all__ = ["sabre_route", "sabre_layout", "RoutingResult"]

_EXTENDED_SET_SIZE = 20
_EXTENDED_SET_WEIGHT = 0.5
_DECAY_INCREMENT = 0.001
_DECAY_RESET_INTERVAL = 5
_STALL_LIMIT = 100


class RoutingResult:
    """Output of :func:`sabre_route`.

    Attributes:
        circuit: physical circuit (qubit indices are *physical*), with
            inserted SWAP gates.
        initial_layout: layout at circuit start.
        final_layout: layout after all gates (useful for reverse passes).
        swap_count: number of inserted SWAPs.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        initial_layout: Layout,
        final_layout: Layout,
        swap_count: int,
    ):
        self.circuit = circuit
        self.initial_layout = initial_layout
        self.final_layout = final_layout
        self.swap_count = swap_count


def _requires_routing(instruction: Instruction) -> bool:
    return instruction.is_two_qubit() or (
        len(instruction.qubits) == 2 and instruction.name == "swap"
    )


def _check_width(circuit: QuantumCircuit, coupling: CouplingMap) -> None:
    if circuit.num_qubits > coupling.num_qubits:
        raise TranspilerError(
            f"{circuit.num_qubits} logical qubits exceed device size "
            f"{coupling.num_qubits}"
        )


class _RoutingPlan:
    """A circuit's dependency DAG flattened into lists, built once and
    routed many times (layout trials ship it to pool workers).

    Node *i* is ``circuit.data[i]``.  ``successors`` keeps the DAG's own
    set-iteration order, so the front layer evolves exactly as it does
    when walking the :class:`DAGCircuit`; ``sorted_successors`` feeds the
    look-ahead window.
    """

    def __init__(self, circuit: QuantumCircuit):
        for instruction in circuit.data:
            if len(instruction.qubits) > 2 and not instruction.is_directive():
                raise TranspilerError(
                    f"sabre_route needs <=2-qubit gates, got {instruction.name}"
                )
        dag = DAGCircuit.from_circuit(circuit)
        self.num_qubits = circuit.num_qubits
        self.num_clbits = circuit.num_clbits
        self.name = circuit.name
        self.instructions = list(circuit.data)
        self.qubits = [instruction.qubits for instruction in self.instructions]
        self.routed = [_requires_routing(ins) for ins in self.instructions]
        nodes = range(len(self.instructions))
        self.successors = [list(dag.successors(node)) for node in nodes]
        self.sorted_successors = [sorted(successors) for successors in self.successors]
        self.in_degree = [dag.in_degree(node) for node in nodes]


def _unmapped(qubits: Sequence[int], l2p: List[Optional[int]]) -> None:
    """Raise :meth:`Layout.physical`'s error for the first unmapped qubit."""
    for logical in qubits:
        if l2p[logical] is None:
            raise TranspilerError(f"logical qubit {logical} is not mapped")


def _swapped_distance_sums(
    pairs: List[Tuple[int, int]],
    candidates: List[Tuple[int, int]],
    distance: List[List[int]],
) -> List[int]:
    """Distance sum over the physical *pairs* after each candidate swap."""
    sums = []
    for a, b in candidates:
        total = 0
        for pa, pb in pairs:
            if pa == a:
                pa = b
            elif pa == b:
                pa = a
            if pb == a:
                pb = b
            elif pb == b:
                pb = a
            total += distance[pa][pb]
        sums.append(total)
    return sums


def _route(
    plan: _RoutingPlan,
    coupling: CouplingMap,
    layout: Layout,
    seed: int,
    stats: Optional[Stats],
    out: Optional[QuantumCircuit] = None,
) -> int:
    """Route *plan* from *layout*, which ends as the final layout.

    Emits the physical circuit into *out* when given; count-only passes
    (``out=None``) build nothing.  Returns the number of inserted SWAPs.
    """
    rng = random.Random(seed)
    l2p = layout._l2p  # read in place; every change goes through swap_physical
    distance = coupling.distance_rows()
    neighbors = coupling.neighbor_lists()
    instructions = plan.instructions
    qubits = plan.qubits
    routed = plan.routed
    successors = plan.successors
    sorted_successors = plan.sorted_successors
    in_degree = list(plan.in_degree)
    front = [node for node, degree in enumerate(in_degree) if degree == 0]
    unresolved = len(in_degree)
    decay = [1.0] * coupling.num_qubits
    swap_count = 0
    stall = 0
    iterations = 0
    candidates_scored = 0
    # the look-ahead window depends only on the front, not on the layout
    extended: List[int] = []
    front_changed = True

    def _physical_pairs(nodes: List[int]) -> List[Tuple[int, int]]:
        pairs = []
        for node in nodes:
            a, b = qubits[node]
            pa, pb = l2p[a], l2p[b]
            if pa is None or pb is None:
                _unmapped((a, b), l2p)
            pairs.append((pa, pb))
        return pairs

    while front or unresolved > 0:
        iterations += 1
        # 1. execute everything executable; the front keeps the waiting
        # gates in order, then the newly ready ones in resolution order
        progress = True
        while progress:
            progress = False
            waiting: List[int] = []
            ready: List[int] = []
            for node in front:
                if routed[node]:
                    a, b = qubits[node]
                    pa, pb = l2p[a], l2p[b]
                    if pa is None or pb is None:
                        _unmapped((a, b), l2p)
                    if distance[pa][pb] != 1:
                        waiting.append(node)
                        continue
                else:
                    for logical in qubits[node]:
                        if l2p[logical] is None:
                            _unmapped(qubits[node], l2p)
                if out is not None:
                    out.append(instructions[node].remapped(layout.physical))
                unresolved -= 1
                for successor in successors[node]:
                    in_degree[successor] -= 1
                    if in_degree[successor] == 0:
                        ready.append(successor)
                progress = front_changed = True
            waiting.extend(ready)
            front = waiting
        if not front:
            if unresolved > 0:
                raise TranspilerError("routing stalled with pending gates")
            break

        # every gate left in the front is a blocked two-qubit gate
        blocked = front
        stall += 1
        if stall > _STALL_LIMIT:
            # escape: route the oldest blocked gate directly
            pa, pb = _physical_pairs(blocked[:1])[0]
            path = coupling.shortest_path(pa, pb)
            for step in range(len(path) - 2):
                if out is not None:
                    out.swap(path[step], path[step + 1])
                layout.swap_physical(path[step], path[step + 1])
                swap_count += 1
            stall = 0
            continue

        # 2. look-ahead window: nearest routed descendants of the blocked
        # gates, breadth first
        if front_changed:
            front_changed = False
            extended = []
            queue = list(blocked)
            seen: Set[int] = set(queue)
            head = 0
            while head < len(queue) and len(extended) < _EXTENDED_SET_SIZE:
                node = queue[head]
                head += 1
                for successor in sorted_successors[node]:
                    if successor in seen:
                        continue
                    seen.add(successor)
                    if routed[successor]:
                        extended.append(successor)
                    queue.append(successor)

        # 3. score candidate swaps in set-iteration order, drawing one RNG
        # tie-break per candidate in that order
        front_pairs = _physical_pairs(blocked)
        candidates: Set[Tuple[int, int]] = set()
        for pair in front_pairs:
            for physical in pair:
                for neighbor in neighbors[physical]:
                    candidates.add(
                        (physical, neighbor) if physical < neighbor else (neighbor, physical)
                    )
        cand_list = list(candidates)
        ties = [rng.random() for _ in cand_list]
        extended_pairs = _physical_pairs(extended)
        front_sums = _swapped_distance_sums(front_pairs, cand_list, distance)
        extended_sums = _swapped_distance_sums(extended_pairs, cand_list, distance)
        n_front = len(front_pairs)
        n_extended = len(extended_pairs)
        best_key = None
        best = None
        for index, (a, b) in enumerate(cand_list):
            score = front_sums[index] / n_front
            if n_extended:
                score = score + _EXTENDED_SET_WEIGHT * extended_sums[index] / n_extended
            score = max(decay[a], decay[b]) * score
            key = (score, ties[index])
            if best_key is None or key < best_key:
                best_key = key
                best = (a, b)
        candidates_scored += len(cand_list)

        a, b = best
        if out is not None:
            out.swap(a, b)
        layout.swap_physical(a, b)
        swap_count += 1
        decay[a] += _DECAY_INCREMENT
        decay[b] += _DECAY_INCREMENT
        if iterations % _DECAY_RESET_INTERVAL == 0:
            decay = [1.0] * coupling.num_qubits

    if stats is not None:
        stats.count("route_calls")
        stats.count("swap_candidates_scored", candidates_scored)
        stats.count("swaps_inserted", swap_count)
    return swap_count


def sabre_route(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    initial_layout: Optional[Layout] = None,
    seed: int = 11,
    stats: Optional[Stats] = None,
) -> RoutingResult:
    """Insert SWAPs so every two-qubit gate touches coupled physical qubits.

    Args:
        circuit: logical circuit; gates of arity > 2 must be decomposed first.
        coupling: target connectivity.
        initial_layout: starting placement (trivial when omitted).
        seed: tie-breaking RNG seed.
        stats: optional :class:`Stats` sink for counters.

    Returns:
        A :class:`RoutingResult` whose circuit indexes *physical* qubits.
    """
    plan = _RoutingPlan(circuit)
    _check_width(circuit, coupling)
    layout = (initial_layout or trivial_layout(circuit.num_qubits, coupling.num_qubits)).copy()
    initial = layout.copy()
    out = QuantumCircuit(coupling.num_qubits, circuit.num_clbits, circuit.name)
    swap_count = _route(plan, coupling, layout, seed, stats, out)
    return RoutingResult(out, initial, layout, swap_count)


def _layout_trial(
    plan: _RoutingPlan,
    reverse: _RoutingPlan,
    coupling: CouplingMap,
    iterations: int,
    physical_order: Sequence[int],
    seeds: Sequence[int],
) -> Tuple[Layout, int, Stats]:
    """One bidirectional layout trial, a pure function of its pre-drawn RNG
    material (*physical_order* and the routing *seeds*).  Its passes only
    need final layouts and swap counts, so they route count-only."""
    stats = Stats()
    layout = Layout(plan.num_qubits, coupling.num_qubits)
    for logical in range(plan.num_qubits):
        layout.assign(logical, physical_order[logical])
    position = 0
    for _ in range(iterations):
        # each pass ends on the layout the next one starts from
        _route(plan, coupling, layout, seeds[position], stats)
        _route(reverse, coupling, layout, seeds[position + 1], stats)
        position += 2
    swaps = _route(plan, coupling, layout.copy(), seeds[position], stats)
    return layout, swaps, stats


def _layout_trial_worker(payload):
    """Module-level adapter so trials pickle into a process pool."""
    return _layout_trial(*payload)


def sabre_layout(
    circuit: QuantumCircuit,
    coupling: CouplingMap,
    seed: int = 11,
    iterations: int = 3,
    trials: int = 4,
    parallel: Optional[bool] = None,
    stats: Optional[Stats] = None,
) -> Layout:
    """SABRE's bidirectional layout search.

    Runs forward/backward routing passes so the final layout of one pass
    seeds the next, over several random starting placements; returns the
    layout whose forward pass inserted the fewest SWAPs.

    Each trial's RNG material (initial shuffle + per-pass routing seeds) is
    drawn serially up front, which makes trials pure functions that can run
    on a process pool; the reduction keeps the earliest trial with strictly
    fewer SWAPs, exactly like the serial loop, so serial and parallel
    searches return bit-identical layouts.

    Args:
        parallel: ``True`` forces the shared process pool, ``False`` the
            in-process loop; ``None`` (default) pools only when more than
            one usable CPU (or ``CAQR_ROUTE_WORKERS``) and more than one
            trial are available (:func:`repro.pool.use_pool`).
        stats: optional :class:`Stats` sink (worker-side counters are
            merged back in).

    Raises:
        TranspilerError: for a circuit wider than the device, gates of
            arity > 2, or ``trials < 1`` — before any RNG draw or pool.
    """
    if trials < 1:
        raise TranspilerError(f"sabre_layout needs at least one trial, got {trials}")
    _check_width(circuit, coupling)
    # both routing directions are planned once and shared by every pass
    plan = _RoutingPlan(circuit)
    reverse = QuantumCircuit(circuit.num_qubits, circuit.num_clbits)
    for instruction in reversed(circuit.data):
        reverse.append(instruction)
    reverse_plan = _RoutingPlan(reverse)

    rng = random.Random(seed)
    # pre-draw every trial's RNG material in the exact serial order
    trial_specs = []
    for _ in range(trials):
        physical_order = list(range(coupling.num_qubits))
        rng.shuffle(physical_order)
        seeds = [rng.randrange(1 << 30) for _ in range(2 * iterations + 1)]
        trial_specs.append((physical_order, seeds))

    results: List[Tuple[Layout, int, Stats]]
    if pool.use_pool(parallel, trials):
        payloads = [
            (plan, reverse_plan, coupling, iterations, order, seeds)
            for order, seeds in trial_specs
        ]
        results = pool.map_pooled(_layout_trial_worker, payloads)
        if stats is not None:
            stats.count("parallel_trials", len(results))
    else:
        results = [
            _layout_trial(plan, reverse_plan, coupling, iterations, order, seeds)
            for order, seeds in trial_specs
        ]
        if stats is not None:
            stats.count("serial_trials", len(results))

    best_layout, best_swaps = results[0][0], results[0][1]
    for layout, trial_swaps, trial_stats in results:
        if stats is not None:
            stats.count("layout_trials")
            stats.merge(trial_stats)
        if trial_swaps < best_swaps:
            best_swaps = trial_swaps
            best_layout = layout
    return best_layout
