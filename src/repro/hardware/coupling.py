"""Physical coupling maps: which pairs of hardware qubits can interact.

The paper targets IBM heavy-hex devices whose physical qubits have degree
at most 3 — the very property that forces SWAP insertion for star-shaped
interaction graphs like BV (paper Fig. 4/5).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.exceptions import HardwareError

__all__ = ["CouplingMap"]


class CouplingMap:
    """Undirected connectivity graph over ``num_qubits`` physical qubits."""

    def __init__(self, num_qubits: int, edges: Iterable[Tuple[int, int]]):
        if num_qubits <= 0:
            raise HardwareError("coupling map needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self._adjacency: List[Set[int]] = [set() for _ in range(self.num_qubits)]
        self._edges: Set[FrozenSet[int]] = set()
        for a, b in edges:
            self.add_edge(a, b)
        self._distance: Optional[np.ndarray] = None
        self._distance_rows: Optional[List[List[int]]] = None
        self._neighbor_lists: Optional[List[List[int]]] = None

    def add_edge(self, a: int, b: int) -> None:
        """Register the undirected link (a, b)."""
        if a == b:
            raise HardwareError("self-coupling is not allowed")
        for q in (a, b):
            if not 0 <= q < self.num_qubits:
                raise HardwareError(f"qubit {q} out of range")
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._edges.add(frozenset((a, b)))
        self._distance = None
        self._distance_rows = None
        self._neighbor_lists = None

    # -- queries ----------------------------------------------------------------

    @property
    def edges(self) -> List[Tuple[int, int]]:
        """Sorted list of undirected edges as (low, high) tuples."""
        return sorted(tuple(sorted(edge)) for edge in self._edges)

    def neighbors(self, qubit: int) -> Set[int]:
        """Physical qubits directly coupled to *qubit*."""
        return set(self._adjacency[qubit])

    def degree(self, qubit: int) -> int:
        return len(self._adjacency[qubit])

    def max_degree(self) -> int:
        """Maximum connectivity degree (3 on heavy-hex devices)."""
        return max(len(adj) for adj in self._adjacency)

    def are_adjacent(self, a: int, b: int) -> bool:
        return b in self._adjacency[a]

    def is_connected(self) -> bool:
        """True when every qubit is reachable from qubit 0."""
        seen = {0}
        queue = deque([0])
        while queue:
            q = queue.popleft()
            for neighbor in self._adjacency[q]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return len(seen) == self.num_qubits

    def distance(self, a: int, b: int) -> int:
        """Hop distance between two physical qubits.

        Raises:
            HardwareError: when the qubits are in different components.
        """
        matrix = self.distance_matrix()
        d = int(matrix[a][b])
        if d < 0:
            raise HardwareError(f"qubits {a} and {b} are not connected")
        return d

    def distance_matrix(self) -> np.ndarray:
        """All-pairs hop distances (−1 for unreachable) as a cached
        read-only ``np.ndarray``.

        The array is shared between every caller (routers index it millions
        of times per run), so it is handed out with ``writeable=False``:
        attempts to mutate it raise instead of silently corrupting the
        cache.  ``add_edge`` invalidates it.
        """
        if self._distance is None:
            matrix = np.full((self.num_qubits, self.num_qubits), -1, dtype=np.int64)
            for source in range(self.num_qubits):
                row = matrix[source]
                row[source] = 0
                queue = deque([source])
                while queue:
                    q = queue.popleft()
                    for neighbor in self._adjacency[q]:
                        if row[neighbor] < 0:
                            row[neighbor] = row[q] + 1
                            queue.append(neighbor)
            matrix.setflags(write=False)
            self._distance = matrix
        return self._distance

    def distance_rows(self) -> List[List[int]]:
        """:meth:`distance_matrix` as cached nested Python lists.

        Scalar kernels that read a handful of entries per call index
        these far faster than the ndarray.  Shared and cached like the
        matrix: treat as read-only.
        """
        if self._distance_rows is None:
            self._distance_rows = self.distance_matrix().tolist()
        return self._distance_rows

    def neighbor_lists(self) -> List[List[int]]:
        """Each qubit's :meth:`neighbors`, as cached lists in the same
        iteration order.  Shared: treat as read-only."""
        if self._neighbor_lists is None:
            self._neighbor_lists = [
                list(self.neighbors(q)) for q in range(self.num_qubits)
            ]
        return self._neighbor_lists

    def shortest_path(self, a: int, b: int) -> List[int]:
        """One hop-minimal path from *a* to *b* inclusive."""
        if a == b:
            return [a]
        parent: Dict[int, int] = {a: a}
        queue = deque([a])
        while queue:
            q = queue.popleft()
            for neighbor in sorted(self._adjacency[q]):
                if neighbor not in parent:
                    parent[neighbor] = q
                    if neighbor == b:
                        path = [b]
                        while path[-1] != a:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return path
                    queue.append(neighbor)
        raise HardwareError(f"qubits {a} and {b} are not connected")

    def subgraph_has_embedding_for_star(self, center_degree: int) -> bool:
        """Quick feasibility check used in the Fig. 5 discussion: a star
        interaction graph with the given hub degree embeds without SWAPs
        only if some physical qubit has at least that many neighbours."""
        return self.max_degree() >= center_degree

    def to_networkx(self) -> nx.Graph:
        """The coupling map as a networkx graph (for drawing/algorithms)."""
        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_qubits))
        graph.add_edges_from(self.edges)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - display
        return f"<CouplingMap {self.num_qubits} qubits, {len(self._edges)} edges>"
