"""Shortest-augmenting-path engine backed by a dynamic residual digraph.

The matching is mirrored as a directed graph: unmatched edges point from
client to server, matched edges from server to client, and every vertex that
could end an augmenting path has an arc to a shared sink.  Shortest paths to
the sink are maintained up to a depth limit; arrivals whose distance exceeds
it fall back to a one-off breadth-first search, and when such a search fails
every vertex it touched is removed for good (none of them can ever lie on an
augmenting path again).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .instance import ArrivalInstance
from .matching import ArrivalRecord, AugPath, MatchState, RunLog, flip_path
from .sink_tree import SinkDistanceTree


def default_depth_limit(client_count: int) -> int:
    """ceil(sqrt(n ln n)), floored at 1: the crossover between tree and brute search."""
    if client_count <= 1:
        return 1
    return max(1, math.ceil(math.sqrt(client_count * math.log(client_count))))


@dataclass(frozen=True)
class PruneEvent:
    arrival: int
    servers: frozenset[int]
    clients: frozenset[int]


class _BfsCheckedTree(SinkDistanceTree):
    """A sink tree that checks itself against a fresh BFS after every change."""

    def insert_arc(self, u: int, v: int) -> None:
        super().insert_arc(u, v)
        self.validate_against_bfs()

    def delete_arc(self, u: int, v: int) -> None:
        super().delete_arc(u, v)
        self.validate_against_bfs()

    def delete_node(self, v: int) -> None:
        super().delete_node(v)
        self.validate_against_bfs()


class FastSapEngine:
    """Tree-first search with brute-force fallback and permanent pruning.

    Every ``step`` ends with the tree's local Bellman check
    (``SinkDistanceTree.validate_local``), which costs in proportion to the
    arrival's updates and proves the tree still equals a fresh truncated BFS.
    ``run`` also checks it against a full BFS once at the end, and
    ``debug=True`` does so after every single arc change as well.
    """

    def __init__(
        self,
        instance: ArrivalInstance,
        depth_limit: int | None = None,
        debug: bool = False,
    ):
        if not instance.has_unit_capacities():
            raise ValueError("the fast engine handles unit capacities only")
        self.instance = instance
        n = instance.client_count
        self.n = n
        self.sink = n + instance.server_count
        limit = default_depth_limit(n) if depth_limit is None else depth_limit
        # Clients that have not arrived yet already sit in the digraph,
        # attached only to the sink; their dummy arc disappears on arrival.
        arcs = [(self.n + s, self.sink) for s in range(instance.server_count)]
        arcs += [(c, self.sink) for c in range(n)]
        tree_type = _BfsCheckedTree if debug else SinkDistanceTree
        self.tree = tree_type(self.sink + 1, self.sink, limit, arcs)
        self.state = MatchState([], [[] for _ in range(instance.server_count)], [1] * instance.server_count)
        self.log = RunLog()
        self.prune_events: list[PruneEvent] = []

    @property
    def depth_limit(self) -> int:
        return self.tree.depth_limit

    def _server_node(self, server: int) -> int:
        return self.n + server

    def _brute_force(self, client: int) -> tuple[Optional[list[int]], set[int]]:
        """Plain BFS over the live digraph; returns (node path to sink, touched nodes)."""
        parent: dict[int, Optional[int]] = {client: None}
        queue = deque([client])
        while queue:
            u = queue.popleft()
            for v in sorted(self.tree.out[u]):
                if v in parent or v in self.tree.deleted:
                    continue
                parent[v] = u
                if v == self.sink:
                    path = [v]
                    while path[-1] != client:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path, set()
                queue.append(v)
        return None, set(parent)

    def _prune(self, arrival: int, touched: set[int]) -> None:
        for v in sorted(touched):
            self.tree.delete_node(v)
        self.log.pruned_nodes += len(touched)
        self.prune_events.append(
            PruneEvent(
                arrival,
                frozenset(v - self.n for v in touched if v >= self.n),
                frozenset(v for v in touched if v < self.n),
            )
        )

    def _apply_augment(self, nodes: list[int]) -> None:
        """Flip the augmenting path given as digraph nodes (client first, sink left out)."""
        n = self.n
        flip_path(self.state, AugPath(tuple(v if v < n else v - n for v in nodes)))
        # Reverse the path arcs starting next to the client; the dummy arc of
        # the terminal server goes last, once that server is matched.
        tree = self.tree
        for u, v in zip(nodes, nodes[1:]):
            tree.insert_arc(v, u)
            tree.delete_arc(u, v)
        tree.delete_arc(nodes[-1], self.sink)

    def step(self, client: int) -> ArrivalRecord:
        if client != self.state.arrived_count:
            raise ValueError(
                f"clients arrive in order; expected {self.state.arrived_count}, got {client}"
            )
        if client >= self.n:
            raise ValueError("client id beyond the instance")
        tree = self.tree
        self.state.server_of_client.append(None)
        self.state.arrived_count += 1
        for s in self.instance.neighbors(client):
            node = self.n + s
            if node not in tree.deleted:
                tree.insert_arc(client, node)
        # Deleting the dummy arc last keeps every insertion distance-neutral.
        tree.delete_arc(client, self.sink)

        node_path: Optional[list[int]]
        if tree.level[client] <= tree.depth_limit:
            node_path = tree.path_to_sink(client)
            self.log.tree_paths += 1
        else:
            node_path, touched = self._brute_force(client)
            if node_path is not None:
                self.log.brute_paths += 1
            else:
                self.log.brute_failures += 1
                self._prune(client, touched)
        if node_path is not None:
            self._apply_augment(node_path[:-1])
        tree.validate_local()
        return self.log.record(client, None if node_path is None else len(node_path) - 2)

    def run(self) -> tuple[MatchState, RunLog]:
        for client in range(self.instance.client_count):
            self.step(client)
        self.tree.validate_against_bfs()
        return self.state, self.log


def run_fast_sap(
    instance: ArrivalInstance,
    depth_limit: int | None = None,
    debug: bool = False,
) -> tuple[MatchState, RunLog]:
    return FastSapEngine(instance, depth_limit=depth_limit, debug=debug).run()
