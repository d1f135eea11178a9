"""Exact (provably optimal) qubit reuse via branch-and-bound.

The greedy QS/SR engines pick one reuse pair at a time and never
backtrack, so nothing in the repo can say how far they land from the true
qubit floor.  Brandhofer et al., "Optimal Qubit Reuse for Near-Term
Quantum Computers" (arXiv:2308.00194), formulate the problem exactly;
this module implements that formulation as a branch-and-bound search
over *merge plans* and serves as the ground-truth oracle behind
``tests/property/test_exact_oracle.py`` and the portfolio service's
exact tier.

The search works on an **abstract wire state** instead of materialised
circuits: a state is a tuple of *chains*, each chain the ordered original
qubits that share one physical wire (``(3, 0)`` = "qubit 3 ran, was
measured + reset, then qubit 0's gates replayed on its wire").  Validity
of a candidate merge is decided with the original circuit's interaction
sets and qubit dependency matrix plus a small reachability closure over
the chain-internal measure/reset barriers — no circuit is rebuilt inside
the search, which is what makes exhaustive enumeration affordable.  The
model is :class:`~repro.core.windows.WindowAnalysis`, shared with the
chain beam search of :mod:`repro.core.chains`:

* **Condition 1** lifts to chains member-wise: no member of the source
  chain may share a gate with a member of the target chain.
* **Condition 2** lifts through the merge graph: each chain adjacency
  ``(a, b)`` acts as a barrier every op of ``a``'s wire precedes and
  every op of ``b``'s wire follows, so "some op on chain Y reaches some
  op on chain X" holds iff an original dependency does, or Y enters a
  barrier whose (transitive) successor barrier exits into X.

Search structure (the ISSUE's checklist):

* **reachability pruning** — only merges valid under Conditions 1 and 2
  in the *current* state are branched on (validity is monotone: a pair
  invalid now can never become valid later);
* **memoisation on the frontier state** — states are interned as a
  canonical multiset of chains with each qubit replaced by its
  *structural equivalence class* (qubits whose interaction sets and
  dependency rows coincide are interchangeable: swapping them is an
  automorphism of the validity structure, so isomorphic states have
  isomorphic subtrees).  Wire labels and symmetric-qubit identities
  both collapse, which is what keeps sparse circuits — many independent
  qubits, factorially many literal states — tractable;
* **bounding** — applying a merge only ever shrinks the valid-pair
  relation, so the maximum bipartite matching over the current relation
  (:func:`~repro.core.matching.max_bipartite_matching_size`) bounds the
  merges any descendant plan can still perform.  Subtrees that cannot
  *beat* the incumbent width are cut; subtrees that can only *tie* it
  are kept until ``max_tie_plans`` candidate plans exist, preserving the
  depth tie-break;
* **anytime budget** — ``max_nodes`` / ``time_budget`` abort the search
  and return the best plan found so far with ``optimal=False``.

The winning plan is a list of :class:`~repro.core.conditions.ReusePair`
in the same per-step wire labelling the greedy engines emit, so
:func:`~repro.core.transform.apply_reuse_chain` materialises it (with
full per-pair validation as a runtime soundness check on the abstract
model).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.circuit.circuit import QuantumCircuit
from repro.core.conditions import ReusePair
from repro.core.matching import max_bipartite_matching_size
from repro.core.transform import apply_reuse_chain, apply_reuse_pair
from repro.core.windows import Chain, State, WindowAnalysis
from repro.exceptions import ReuseError
from repro.transpiler.scheduling import circuit_duration_dt

__all__ = ["ExactReuseResult", "ExactReuse", "exact_minimum_qubits"]


@dataclass
class ExactReuseResult:
    """Outcome of one exact-reuse search.

    Attributes:
        circuit: the materialised optimal-width circuit.
        qubits: its width.  When ``optimal`` this is the true minimum
            over *every* legal sequence of reuse pairs.
        depth: logical depth of ``circuit`` (the tie-break: among the
            explored minimum-width plans, the shallowest materialisation
            wins — best-effort once ``max_tie_plans`` is hit).
        pairs: the winning merge plan, per-step wire labels exactly as
            the greedy engines emit them (``apply_reuse_chain``-ready).
        optimal: ``True`` when the search ran to completion; ``False``
            when a node/time budget cut it short, in which case
            ``qubits`` is only an upper bound (best plan found so far).
        nodes_expanded: states the branch-and-bound actually visited.
        elapsed: wall-clock seconds spent in :meth:`ExactReuse.run`.
    """

    circuit: QuantumCircuit
    qubits: int
    depth: int
    pairs: List[ReusePair] = field(default_factory=list)
    optimal: bool = True
    nodes_expanded: int = 0
    elapsed: float = 0.0
    duration_dt_cached: Optional[int] = field(default=None, repr=False)

    @property
    def duration_dt(self) -> int:
        if self.duration_dt_cached is None:
            self.duration_dt_cached = circuit_duration_dt(self.circuit)
        return self.duration_dt_cached


class _Budget(Exception):
    """Internal unwind signal: the anytime budget ran out."""


class ExactReuse:
    """Branch-and-bound exact qubit-reuse solver.

    Args:
        reset_style: reuse reset idiom for the materialised circuit
            (``"cif"`` or ``"builtin"``), same semantics as the greedy
            engines.
        max_nodes: anytime node budget — states visited before the
            search gives up and reports best-so-far (``optimal=False``).
            ``None`` removes the cap.  The default comfortably covers
            every circuit the oracle harness throws at it (≤ 8 qubits
            visit at most a few hundred thousand chain-partitions even
            with no pruning at all).
        time_budget: optional wall-clock budget in seconds (checked per
            expanded node).  Prefer ``max_nodes`` when determinism of
            the ``optimal`` flag matters.
        max_tie_plans: how many distinct minimum-width plans to keep for
            the depth tie-break.  Past this many, subtrees that can only
            tie the incumbent width are pruned, which bounds the search
            on merge-symmetric circuits; the width answer stays exact,
            only the tie-break becomes best-effort.
    """

    def __init__(
        self,
        reset_style: str = "cif",
        max_nodes: Optional[int] = 200_000,
        time_budget: Optional[float] = None,
        max_tie_plans: int = 16,
    ):
        if reset_style not in ("cif", "builtin"):
            raise ReuseError(f"unknown reset style {reset_style!r}")
        if max_tie_plans < 1:
            raise ReuseError("max_tie_plans must be at least 1")
        self.reset_style = reset_style
        self.max_nodes = max_nodes
        self.time_budget = time_budget
        self.max_tie_plans = max_tie_plans

    # -- the search ------------------------------------------------------------

    def run(self, circuit: QuantumCircuit) -> ExactReuseResult:
        """Find the minimum-width reuse plan for *circuit*."""
        start = time.monotonic()
        deadline = start + self.time_budget if self.time_budget else None
        analysis = WindowAnalysis(circuit)
        initial = analysis.initial_state()
        visited: Set[FrozenSet[Tuple[Chain, int]]] = set()
        best_width = len(initial)
        best_plans: List[List[ReusePair]] = [[]]
        nodes = 0

        def search(wires: State, plan: List[ReusePair]) -> None:
            nonlocal best_width, best_plans, nodes
            key = analysis.canonical(wires)
            if key in visited:
                return
            visited.add(key)
            nodes += 1
            if self.max_nodes is not None and nodes > self.max_nodes:
                raise _Budget()
            if deadline is not None and time.monotonic() > deadline:
                raise _Budget()
            width = len(wires)
            if width < best_width:
                best_width = width
                best_plans = [list(plan)]
            elif width == best_width and plan and len(best_plans) < self.max_tie_plans:
                best_plans.append(list(plan))
            options, rows = analysis.chain_merges(wires)
            if not options:
                return
            floor = width - max_bipartite_matching_size(rows, width)
            if floor > best_width:
                return
            if floor == best_width and len(best_plans) >= self.max_tie_plans:
                return
            for u, v in options:
                plan.append(ReusePair(u, v))
                search(analysis.merge(wires, u, v), plan)
                plan.pop()

        optimal = True
        try:
            search(initial, [])
        except _Budget:
            optimal = False

        result = self._materialize_best(circuit, best_plans)
        result.optimal = optimal and result.qubits == best_width
        result.nodes_expanded = nodes
        result.elapsed = time.monotonic() - start
        return result

    def _materialize_best(
        self, circuit: QuantumCircuit, plans: List[List[ReusePair]]
    ) -> ExactReuseResult:
        """Materialise the candidate plans and keep the shallowest.

        ``apply_reuse_chain`` re-validates every pair on the real
        circuit, so the abstract model is checked end to end here; a
        plan the concrete analysis rejects falls back to its longest
        valid prefix (defensive — no known circuit family triggers it).
        """
        best: Optional[Tuple[int, int, QuantumCircuit, List[ReusePair]]] = None
        for plan in plans:
            try:
                materialised = apply_reuse_chain(
                    circuit, plan, reset_style=self.reset_style
                )
                applied = plan
            except ReuseError:
                materialised, applied = self._longest_valid_prefix(circuit, plan)
            key = (materialised.num_qubits, materialised.depth())
            if best is None or key < (best[0], best[1]):
                best = (key[0], key[1], materialised, list(applied))
        assert best is not None  # plans always holds at least the empty plan
        return ExactReuseResult(
            circuit=best[2], qubits=best[0], depth=best[1], pairs=best[3]
        )

    def _longest_valid_prefix(
        self, circuit: QuantumCircuit, plan: List[ReusePair]
    ) -> Tuple[QuantumCircuit, List[ReusePair]]:
        current = circuit
        applied: List[ReusePair] = []
        for pair in plan:
            try:
                current = apply_reuse_pair(
                    current, pair, reset_style=self.reset_style
                ).circuit
            except ReuseError:
                break
            applied.append(pair)
        return current, applied

    def minimum_qubits(self, circuit: QuantumCircuit) -> int:
        """The provably minimal width (upper bound if the budget hits)."""
        return self.run(circuit).qubits


def exact_minimum_qubits(
    circuit: QuantumCircuit, max_nodes: Optional[int] = 200_000
) -> int:
    """Convenience wrapper: the optimal qubit count of *circuit*."""
    return ExactReuse(max_nodes=max_nodes).minimum_qubits(circuit)
