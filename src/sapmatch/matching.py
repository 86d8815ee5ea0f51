"""Matching state, augmenting paths, and the baseline shortest-augmenting-path engine.

The protocol: every arriving client is matched along a shortest augmenting
path to a server with spare capacity, rematching the clients along the way.
A path with k edges rematches (k-1)/2 previously matched clients; those are
the "replacements" the run log tracks.

Dead-server pruning (Hopcroft-Karp 1973).  When a search fails, the set R
it reached holds no server with spare capacity and is closed under residual
arcs: a client in R points only at neighbors in R, and a server in R only at
its own clients, also in R.  An augmenting path that enters R can never
leave it, so no augmenting path enters R: R's matching never changes and R
stays closed, since later clients only add arcs that start outside R.
Searches can therefore skip R's servers for good without changing the
distance of any live vertex, the free server chosen, or the path
reconstructed.  This holds only while capacities are fixed: a server of R
that gains a slot reopens R.

The search keeps no set of reached clients.  Two facts make one needless:
every matched client sits in exactly one server's client list, and every
server enters the search once, so each client is reached exactly once, with
its server; and a frontier client's own server was reached before it (the
root has none), so it needs no test of its own.  The clients a failed search
reached are therefore the root plus the clients of every server it reached.

The first layer needs no predecessor map.  The root's live neighbors are
scanned once, in their ascending tuple order, so the first one with spare
capacity is the smallest free index of the first layer, the server the full
search would pick, and the path is that one edge.  Every live neighbor
still counts toward ``servers_visited``, as the full search would reach
them all.  With no live neighbor the search fails having reached nothing.
Only when all of them are full are they recorded as reached from the root,
and the search goes on from their clients.

Twin clients.  Clients with equal neighbor tuples are twins, and
``ArrivalInstance.twin_classes`` numbers their classes when at least half
the clients have a twin before them.  A search then scans one client per
class: the root's class counts as read, and each later layer, in its
ascending order, drops every client whose class an earlier scan of this
search read.  Nothing changes, because once a client is scanned each of its
neighbors is in the predecessor map or dead; the map only grows during a
search and the dead set stays fixed, so a twin scanned later would find no
new server, record no predecessor and meet no free server.  The servers
reached, their order, the free server, the path, ``servers_visited`` and
the set a failed search retires are the same as without the table.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .errors import InvariantViolation
from .instance import ArrivalInstance

# The named tuples' own constructor, past NamedTuple's keyword-argument wrapper
# and AugPath's shape check: every arrival logs one record, and may build a path.
_new_tuple = tuple.__new__

_PATH_SHAPE = "an augmenting path alternates client,server,... and ends at a server"


class _PathFields(NamedTuple):
    vertices: tuple[int, ...]


class AugPath(_PathFields):
    """An augmenting path ``client, server, client, ..., server``.

    Vertices at even positions are client indices, odd positions are server
    indices.  The edge count is always odd: the path starts at an unmatched
    client and ends at a server with spare capacity.

    A one-field named tuple.  The engines build theirs through
    ``tuple.__new__``, past the constructor's shape check, as
    ``RunLog.record`` builds records: ``flip_path`` checks the shape of
    every path it applies, and rejects one that visits a server twice.
    """

    __slots__ = ()

    def __new__(cls, vertices: tuple[int, ...]) -> AugPath:
        if len(vertices) < 2 or len(vertices) % 2 != 0:
            raise ValueError(_PATH_SHAPE)
        return _new_tuple(cls, (vertices,))

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    @property
    def replacements(self) -> int:
        return (self.edge_count - 1) // 2


class ArrivalRecord(NamedTuple):
    """One arrival's outcome: the path's edge count and replacements, if matched."""

    client: int
    matched: bool
    path_edges: Optional[int]
    replacements: int


@dataclass
class RunLog:
    """Per-arrival telemetry plus cumulative counters.

    ``count_paths_longer_than(h)`` counts augmenting paths with more than
    ``h`` edges, off the records.  The fast engine additionally fills the
    search-mode and pruning counters.
    """

    records: list[ArrivalRecord] = field(default_factory=list)
    total_replacements: int = 0
    total_path_edges: int = 0
    tree_paths: int = 0
    brute_paths: int = 0
    brute_failures: int = 0
    pruned_nodes: int = 0

    def record(self, client: int, path_edges: Optional[int]) -> ArrivalRecord:
        if path_edges is None:
            rec = _new_tuple(ArrivalRecord, (client, False, None, 0))
        else:
            if path_edges < 1 or path_edges % 2 == 0:
                raise ValueError("augmenting paths have an odd, positive number of edges")
            replacements = (path_edges - 1) // 2
            rec = _new_tuple(ArrivalRecord, (client, True, path_edges, replacements))
            self.total_replacements += replacements
            self.total_path_edges += path_edges
        self.records.append(rec)
        return rec

    def matched_count(self) -> int:
        return sum(1 for rec in self.records if rec.matched)

    def count_paths_longer_than(self, h: int) -> int:
        return sum(1 for rec in self.records if rec.matched and rec.path_edges > h)


@dataclass
class MatchState:
    """Current (possibly capacitated) matching, kept mutually consistent.

    ``server_of_client`` has one entry per *arrived* client; ``None`` means
    the client arrived but could not be matched.  ``clients_of_server[s]`` is
    kept sorted ascending and never exceeds ``capacity[s]``.
    """

    server_of_client: list[Optional[int]]
    clients_of_server: list[list[int]]
    capacity: Sequence[int]
    arrived_count: int = 0

    def load(self, server: int) -> int:
        return len(self.clients_of_server[server])

    def is_free(self, server: int) -> bool:
        return self.load(server) < self.capacity[server]

    def matched_count(self) -> int:
        return sum(1 for s in self.server_of_client if s is not None)

    def check_consistent(self) -> None:
        """Raise if the two sides of the matching disagree or a capacity is exceeded."""
        for c, s in enumerate(self.server_of_client):
            if s is not None and c not in self.clients_of_server[s]:
                raise InvariantViolation(f"client {c} thinks it is on server {s}, server disagrees")
        for s, clients in enumerate(self.clients_of_server):
            if len(clients) > self.capacity[s]:
                raise InvariantViolation(f"server {s} exceeds its capacity")
            for c in clients:
                if self.server_of_client[c] != s:
                    raise InvariantViolation(f"server {s} lists client {c}, client disagrees")
            if sorted(clients) != clients:
                raise InvariantViolation(f"client list of server {s} is not sorted")


def flip_path(state: MatchState, path: AugPath, arrivals: Sequence[tuple[int, Sequence[int]]]) -> int:
    """Apply an augmenting path to the matching; returns the replacement count.

    ``arrivals`` is the instance's: client ``c``'s neighbors are
    ``arrivals[c][1]``.  One pass checks the whole path against the current
    state before anything changes, so a stale path (one whose edges no
    longer alternate unmatched/matched) is rejected rather than corrupting
    the matching.  A path of the wrong shape is reported first, then an
    absent edge anywhere; otherwise the first fault along the path (a start
    that is matched or has not arrived, then each server's edges in and
    out), then a server visited twice, and last a full terminal server.
    """
    verts = path.vertices
    size = len(verts)
    if size < 2 or size % 2 != 0:
        raise ValueError(_PATH_SHAPE)
    server_of_client, clients_of_server = state.server_of_client, state.clients_of_server
    arrived, known = state.arrived_count, len(arrivals)
    # The first edge is checked apart, as most paths have no other, and an
    # unmatched start has no matched edge into its server to fault.
    start, first = verts[0], verts[1]
    if start >= known or first not in arrivals[start][1]:
        raise ValueError(f"path uses the absent edge ({start},{first})")
    fault: Optional[str] = None
    if start >= arrived or server_of_client[start] is not None:
        fault = "path must start at an arrived, unmatched client"
    for i in range(2, size, 2):
        client, server = verts[i], verts[i + 1]
        if client >= known or server not in arrivals[client][1]:
            raise ValueError(f"path uses the absent edge ({client},{server})")
        if fault is None:
            own = server_of_client[client] if client < arrived else None
            if own != verts[i - 1]:
                fault = "stale path: expected a matched edge out of the server"
            elif own == server:
                fault = "stale path: expected an unmatched edge into the server"
    if fault is not None:
        raise ValueError(fault)
    # Distinct servers keep each server's load; with each interior client on
    # the server before it, they also make the clients distinct.
    if size > 2 and len(set(verts[1::2])) * 2 != size:
        raise ValueError("path visits a server twice")
    terminal = verts[-1]
    if len(clients_of_server[terminal]) >= state.capacity[terminal]:
        raise ValueError("stale path: terminal server has no spare capacity")

    # Re-seat every client on the path; all servers except the terminal one
    # swap one occupant for another, so capacities are respected throughout.
    for i in range(0, size - 1, 2):
        client, server = verts[i], verts[i + 1]
        old = server_of_client[client]
        if old is not None:
            clients_of_server[old].remove(client)
        server_of_client[client] = server
        bisect.insort(clients_of_server[server], client)
    return (size - 2) // 2  # path.replacements, off the vertex count


class SapEngine:
    """Reference shortest-augmenting-path engine (plain layered BFS per arrival).

    Tie-breaking is deterministic: the BFS reaches servers through neighbor
    lists in ascending index order, the free server chosen is the smallest
    index in the first layer that contains one, and the path is reconstructed
    by always taking the smallest-index predecessor client.  The search
    records, for every server it reaches, the client that reached it first;
    since each client layer is scanned in ascending order, that first
    discoverer is the smallest-index client one layer back whose unmatched
    edge enters the server, so the path is read straight off those records.

    A failed search hands the servers it reached to ``_retire``, which adds
    every one to ``dead``, and later searches skip those servers (see
    the module docstring for why no output changes).  That needs fixed
    capacities, so pruning is on only when the engine owns them: with
    ``capacity=None`` or any non-list sequence they are stored as a tuple,
    and writing to one raises ``TypeError``.  A ``list`` is kept as a shared
    reference that the caller may grow in place (min-max and semi-matching
    allowances); the engine then sets ``dead = None`` and never prunes.

    The twin table (see the module docstring) is read once, here at
    construction.  ``servers_visited`` adds up the servers every search
    reaches, and ``clients_scanned`` the frontier clients whose neighbor
    tuples the searches read (twins skipped, the root not counted): the
    search's work, deterministic for a given run.
    """

    def __init__(self, instance: ArrivalInstance, capacity: Sequence[int] | None = None):
        self.instance = instance
        caps: Sequence[int]
        if capacity is None:
            caps = instance.capacities or (1,) * instance.server_count
        elif isinstance(capacity, list):
            caps = capacity  # shared reference: callers may grow allowances in place
        else:
            caps = tuple(capacity)
        if len(caps) != instance.server_count:
            raise ValueError("capacity vector must cover every server")
        self.state = MatchState([], [[] for _ in range(instance.server_count)], caps)
        # Servers no augmenting path can reach again; None when capacities may grow.
        self.dead: set[int] | None = None if isinstance(caps, list) else set()
        self.log = RunLog()
        self._twins = instance.twin_classes
        self.servers_visited = 0
        self.clients_scanned = 0

    def arrive(self, client: int) -> tuple[int, ...]:
        """Admit the next client, unmatched; returns its neighbors."""
        state = self.state
        if client != state.arrived_count:
            raise ValueError(
                f"clients arrive in order; expected {state.arrived_count}, got {client}"
            )
        arrivals = self.instance.arrivals
        if client >= len(arrivals):
            raise ValueError("client id beyond the instance")
        state.server_of_client.append(None)
        state.arrived_count += 1
        return arrivals[client][1]

    def shortest_aug_path(self, client: int) -> Optional[AugPath]:
        """Shortest augmenting path from an arrived, unmatched client, or None."""
        state = self.state
        server_of_client = state.server_of_client
        if client >= state.arrived_count:
            raise ValueError("client has not arrived")
        if server_of_client[client] is not None:
            raise ValueError("client is already matched")

        arrivals = self.instance.arrivals
        clients_of_server, capacity = state.clients_of_server, state.capacity
        dead = self.dead if self.dead is not None else ()
        # Layer 1, the root's live neighbors, ascending: the first free one
        # ends the search before any predecessor is recorded, and with none
        # the search reaches nothing.
        layer = arrivals[client][1]
        if dead:
            live = []
            for s in layer:
                if s not in dead:
                    live.append(s)
            layer = live
        for s in layer:
            if len(clients_of_server[s]) < capacity[s]:
                self.servers_visited += len(layer)
                return _new_tuple(AugPath, ((client, s),))
        if not layer:
            if self.dead is not None:
                self._retire(client, {})
            return None
        via = dict.fromkeys(layer, client)  # server -> the first client to reach it
        new_servers = layer
        target: Optional[int] = None
        twins = self._twins
        read = None if twins is None else {twins[client]}  # classes already scanned
        scanned = 0
        while True:
            # every matched client sits on one server, reached once: no duplicates
            frontier: list[int] = []
            for s in new_servers:
                frontier += clients_of_server[s]
            if not frontier:
                break
            frontier.sort()  # so the first client to reach a server is the smallest
            if read is not None:  # a twin of a scanned client reaches nothing new
                fresh = []
                for c in frontier:
                    k = twins[c]
                    if k not in read:
                        read.add(k)
                        fresh.append(c)
                frontier = fresh
            scanned += len(frontier)
            new_servers, free = [], []
            for c in frontier:
                for s in arrivals[c][1]:  # c's own server is already in via
                    if s not in via and s not in dead:
                        via[s] = c
                        new_servers.append(s)
                        if len(clients_of_server[s]) < capacity[s]:
                            free.append(s)
            if free:
                target = min(free)
                break
        self.servers_visited += len(via)
        self.clients_scanned += scanned
        if target is None:
            if self.dead is not None:
                self._retire(client, via)
            return None

        # Walk back from the free server through each server's first discoverer.
        reversed_vertices = [target, via[target]]
        while reversed_vertices[-1] != client:
            server = server_of_client[reversed_vertices[-1]]
            reversed_vertices += (server, via[server])
        return _new_tuple(AugPath, (tuple(reversed(reversed_vertices)),))

    def _retire(self, client: int, servers: dict[int, int]) -> None:
        """Retire what the failed search from ``client`` reached (fixed capacities only)."""
        self.dead.update(servers)

    def augment(self, path: AugPath) -> int:
        return flip_path(self.state, path, self.instance.arrivals)

    def step(self, client: int) -> ArrivalRecord:
        """Process one arrival end to end and log it."""
        self.arrive(client)
        path = self.shortest_aug_path(client)
        if path is None:
            return self.log.record(client, None)
        self.augment(path)
        return self.log.record(client, len(path.vertices) - 1)

    def run(self) -> tuple[MatchState, RunLog]:
        for client in range(self.instance.client_count):
            self.step(client)
        return self.state, self.log


def run_sap(instance: ArrivalInstance) -> tuple[MatchState, RunLog]:
    """Run the baseline engine over a unit-capacity instance."""
    if not instance.has_unit_capacities():
        raise ValueError("run_sap expects unit capacities; see run_capacitated")
    return SapEngine(instance).run()
