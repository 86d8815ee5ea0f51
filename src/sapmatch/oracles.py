"""Independent reference implementations used only to validate the engines.

Nothing here shares traversal code with the engine modules: the point is
that an agreement between an engine and its oracle means something.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .instance import ArrivalInstance

_UNSEEN = -1


class CopyMap:
    """Contiguous block of copy indices per original server.

    The paper's reduction from capacities to unit matching gives each server
    one copy per capacity unit; this maps between the two index spaces.
    """

    def __init__(self, sizes: Sequence[int]):
        if any(u < 1 for u in sizes):
            raise ValueError("every server needs at least one copy")
        self.sizes = tuple(sizes)
        self.starts = [0]
        for u in self.sizes:
            self.starts.append(self.starts[-1] + u)

    @property
    def total_copies(self) -> int:
        return self.starts[-1]

    def range_of(self, server: int) -> range:
        return range(self.starts[server], self.starts[server + 1])

    def original(self, copy: int) -> int:
        if not 0 <= copy < self.total_copies:
            raise ValueError("copy index out of range")
        return bisect_right(self.starts, copy) - 1


def hopcroft_karp_size(neighbors: Sequence[Sequence[int]], server_count: int) -> int:
    """Maximum matching size of a static snapshot, by phased layered search."""
    n = len(neighbors)
    match_client = [_UNSEEN] * n
    match_server = [_UNSEEN] * server_count
    dist = [0] * n
    size = 0

    def bfs_phase() -> Optional[int]:
        queue = deque()
        for c in range(n):
            if match_client[c] == _UNSEEN:
                dist[c] = 0
                queue.append(c)
            else:
                dist[c] = _UNSEEN
        shortest = None
        while queue:
            c = queue.popleft()
            if shortest is not None and dist[c] >= shortest:
                continue
            for s in neighbors[c]:
                c2 = match_server[s]
                if c2 == _UNSEEN:
                    if shortest is None:
                        shortest = dist[c] + 1
                elif dist[c2] == _UNSEEN:
                    dist[c2] = dist[c] + 1
                    queue.append(c2)
        return shortest

    def dfs_phase(root: int, limit: int) -> bool:
        # Iterative: stack frames are (client, next neighbor position); the
        # servers chosen so far live in `chosen`, one per non-root frame.
        stack = [(root, 0)]
        chosen: list[int] = []
        while stack:
            c, i = stack[-1]
            if i < len(neighbors[c]):
                stack[-1] = (c, i + 1)
                s = neighbors[c][i]
                c2 = match_server[s]
                if c2 == _UNSEEN:
                    if dist[c] + 1 == limit:
                        chosen.append(s)
                        for (cc, _), ss in zip(stack, chosen):
                            match_client[cc] = ss
                            match_server[ss] = cc
                        return True
                elif dist[c2] == dist[c] + 1:
                    chosen.append(s)
                    stack.append((c2, 0))
            else:
                dist[c] = _UNSEEN
                stack.pop()
                if chosen:
                    chosen.pop()
        return False

    while True:
        limit = bfs_phase()
        if limit is None:
            return size
        for c in range(n):
            if match_client[c] == _UNSEEN and dfs_phase(c, limit):
                size += 1


def oracle_opt_load(instance: ArrivalInstance, prefix_len: int | None = None) -> int:
    """Least shared per-server capacity that serves every servable client of a prefix.

    Tries b = 1, 2, ... and expands every server into b copies
    (``CopyMap``); b serves the prefix when a maximum matching of the copy
    graph (``hopcroft_karp_size``) covers every client with a neighbor.
    Clients without neighbors are ignored; with none left the answer is 0.
    """
    servable = list(instance.prefix_adjacency(prefix_len).values())
    if not servable:
        return 0
    b = 1
    while True:
        copies = CopyMap([b] * instance.server_count)
        expanded = [tuple(copy for s in nbrs for copy in copies.range_of(s)) for nbrs in servable]
        if hopcroft_karp_size(expanded, copies.total_copies) == len(servable):
            return b
        b += 1


def brute_max_ratio(
    adjacency: Mapping[int, Sequence[int]],
) -> tuple[Fraction, frozenset[int]]:
    """Exhaustive max of |K| / |N(K)| over all nonempty client subsets.

    Returns the ratio and the union of every maximizing subset, which is
    itself a maximizer.  Capped at 20 clients (2^|C| enumeration).
    """
    clients = sorted(adjacency)
    if not clients:
        raise ValueError("need at least one client")
    if len(clients) > 20:
        raise ValueError("subset enumeration is capped at 20 clients")
    servers = sorted({s for nbrs in adjacency.values() for s in nbrs})
    server_pos = {s: i for i, s in enumerate(servers)}
    masks = []
    for c in clients:
        if not adjacency[c]:
            raise ValueError(f"client {c} has no neighbors")
        m = 0
        for s in adjacency[c]:
            m |= 1 << server_pos[s]
        masks.append(m)

    n = len(clients)
    hood = [0] * (1 << n)
    best_p, best_q = 0, 1
    for subset in range(1, 1 << n):
        low = subset & -subset
        hood[subset] = hood[subset ^ low] | masks[low.bit_length() - 1]
        p = subset.bit_count()
        q = hood[subset].bit_count()
        if p * best_q > best_p * q:
            best_p, best_q = p, q
    union = 0
    for subset in range(1, 1 << n):
        if subset.bit_count() * best_q == best_p * hood[subset].bit_count():
            union |= subset
    tight = frozenset(clients[i] for i in range(n) if union >> i & 1)
    return Fraction(best_p, best_q), tight


def oracle_balanced_flow(
    adjacency: Mapping[int, Sequence[int]], server_count: int | None = None
) -> dict[int, Fraction]:
    """Necessity map by peeling with the exhaustive ratio search (no flows involved)."""
    if len(adjacency) > 16:
        raise ValueError("oracle peeling is capped at 16 clients")
    remaining = {c: tuple(nbrs) for c, nbrs in adjacency.items()}
    necessity: dict[int, Fraction] = (
        {} if server_count is None else {s: Fraction(0) for s in range(server_count)}
    )
    while remaining:
        ratio, tight = brute_max_ratio(remaining)
        peeled = set()
        for c in tight:
            peeled.update(remaining[c])
        for s in peeled:
            necessity[s] = ratio
        remaining = {
            c: tuple(s for s in nbrs if s not in peeled)
            for c, nbrs in remaining.items()
            if c not in tight
        }
    return necessity


def oracle_shortest_aug_path(
    neighbors: Sequence[Sequence[int]],
    assignment: Sequence[Optional[int]],
    capacity: Sequence[int],
    client: int,
) -> Optional[int]:
    """Shortest augmenting path edge count from ``client``, or None.

    Works on a frozen snapshot: ``assignment[c]`` is the server of each
    arrived client (None if unmatched).  Set-frontier search, deliberately
    unlike the engines' layered BFS.
    """
    if assignment[client] is not None:
        raise ValueError("client is already matched")
    loads: dict[int, int] = {}
    occupants: dict[int, list[int]] = {}
    for c, s in enumerate(assignment):
        if s is not None:
            loads[s] = loads.get(s, 0) + 1
            occupants.setdefault(s, []).append(c)

    seen_clients = {client}
    seen_servers: set[int] = set()
    frontier = {client}
    edges = 0
    while frontier:
        reached = set()
        for c in frontier:
            for s in neighbors[c]:
                if s != assignment[c] and s not in seen_servers:
                    reached.add(s)
        seen_servers |= reached
        edges += 1
        if any(loads.get(s, 0) < capacity[s] for s in reached):
            return edges
        nxt = set()
        for s in reached:
            for c in occupants.get(s, ()):
                if c not in seen_clients:
                    seen_clients.add(c)
                    nxt.add(c)
        frontier = nxt
        edges += 1
    return None
