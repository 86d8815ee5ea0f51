"""Shortest-augmenting-path engine backed by a dynamic residual digraph.

The matching is mirrored as a directed graph: unmatched edges point from
client to server, matched edges from server to client, and every vertex that
could end an augmenting path has an arc to a shared sink.  Shortest paths to
the sink are maintained up to a depth limit.  The engine is ``SapEngine``
with that shortcut: an arrival whose distance exceeds the limit runs
``SapEngine``'s own search, and when it fails the shared pruning retires
every vertex it reached (none of them can ever lie on an augmenting path
again), here by also removing them from the digraph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .instance import ArrivalInstance
from .matching import ArrivalRecord, AugPath, MatchState, RunLog, SapEngine, flip_path
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
    """A sink tree that checks itself against a fresh BFS after every change.

    Its ``attach`` and ``reverse_path`` go arc by arc, so each arc change is checked.
    """

    def insert_arc(self, u: int, v: int) -> None:
        super().insert_arc(u, v)
        self.validate_against_bfs()

    def delete_arc(self, u: int, v: int) -> None:
        super().delete_arc(u, v)
        self.validate_against_bfs()

    def delete_node(self, v: int) -> None:
        super().delete_node(v)
        self.validate_against_bfs()

    def attach(self, u: int, targets: Sequence[int]) -> None:
        for v in targets:
            self.insert_arc(u, v)
        self.delete_arc(u, self.sink)

    def reverse_path(self, nodes: Sequence[int]) -> None:
        for u, v in zip(nodes, nodes[1:]):
            self.insert_arc(v, u)
            self.delete_arc(u, v)
        self.delete_arc(nodes[-1], self.sink)


class FastSapEngine(SapEngine):
    """``SapEngine`` that reads paths within the depth limit off a sink tree.

    Arrival bookkeeping, the fallback search and dead-server pruning are
    ``SapEngine``'s; ``_retire`` also removes the reached nodes from the
    digraph and logs a ``PruneEvent``, so ``dead`` always equals the tree's
    removed server nodes.  A ``step`` changes the tree in one ``attach`` call
    (the client's arcs) and, when it matches, one ``reverse_path`` call (the
    flip), and ends with the tree's local Bellman check
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
        super().__init__(instance, capacity=(1,) * instance.server_count)
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
        self.prune_events: list[PruneEvent] = []

    def _server_node(self, server: int) -> int:
        return self.n + server

    def _retire(self, client: int, servers: dict[int, int]) -> None:
        """Retire the reached servers and remove every reached node from the digraph.

        The reached clients are the root plus the client of every reached
        server (see the ``matching`` module docstring).  A failed search
        reaches only full unit servers and, from each, only its one client,
        so these are exactly the nodes a search of the digraph would reach.
        """
        self.dead.update(servers)
        clients = sorted([client, *(c for s in servers for c in self.state.clients_of_server[s])])
        servers = sorted(servers)
        tree, n = self.tree, self.n
        for c in clients:
            tree.delete_node(c)
        for s in servers:
            tree.delete_node(n + s)
        self.log.pruned_nodes += len(clients) + len(servers)
        self.prune_events.append(PruneEvent(client, frozenset(servers), frozenset(clients)))

    def step(self, client: int) -> ArrivalRecord:
        neighbors = self.arrive(client)
        tree, n, log = self.tree, self.n, self.log
        deleted = tree.deleted
        # The dummy arc goes last, which keeps every insertion distance-neutral.
        tree.attach(client, [node for s in neighbors if (node := n + s) not in deleted])

        if tree.level[client] <= tree.depth_limit:
            nodes = tree.path_to_sink(client)
            nodes.pop()  # the sink
            path = tuple.__new__(AugPath, (tuple([v if v < n else v - n for v in nodes]),))
            log.tree_paths += 1
        else:
            path = self.shortest_aug_path(client)
            if path is None:
                log.brute_failures += 1
                tree.validate_local()
                return log.record(client, None)
            log.brute_paths += 1
            nodes = [v + n if i % 2 else v for i, v in enumerate(path.vertices)]
        flip_path(self.state, path, self.instance.arrivals)
        # Reverse the path arcs starting next to the client; the dummy arc of
        # the terminal server goes last, once that server is matched.
        tree.reverse_path(nodes)
        tree.validate_local()
        return log.record(client, len(nodes) - 1)

    def run(self) -> tuple[MatchState, RunLog]:
        result = super().run()
        self.tree.validate_against_bfs()
        return result


def run_fast_sap(
    instance: ArrivalInstance,
    depth_limit: int | None = None,
    debug: bool = False,
) -> tuple[MatchState, RunLog]:
    return FastSapEngine(instance, depth_limit=depth_limit, debug=debug).run()
