"""Integer max-flow via blocking flows, with access to both extreme min cuts."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class FlowNetwork:
    """A directed network with integer capacities, one source, one sink, and a flow.

    The flow starts at zero, and ``max_flow`` augments it in place.
    """

    def __init__(self, node_count: int, source: int, sink: int):
        if not (0 <= source < node_count and 0 <= sink < node_count) or source == sink:
            raise ValueError("source and sink must be distinct nodes of the network")
        self.node_count = node_count
        self.source = source
        self.sink = sink
        # Arc i and its reverse are stored at 2i and 2i+1.
        self.head: list[list[int]] = [[] for _ in range(node_count)]
        self.to: list[int] = []
        self.cap: list[int] = []
        # Residual capacities: the flow on arc i is cap[i] - res[i].
        self.res: list[int] = []

    def add_arc(self, u: int, v: int, capacity: int) -> int:
        if capacity < 0:
            raise ValueError("capacities must be nonnegative")
        if v == self.source or u == self.sink:
            raise ValueError("arcs may not enter the source or leave the sink")
        arc_id = len(self.to)
        self.to.extend((v, u))
        self.cap.extend((capacity, 0))
        self.res.extend((capacity, 0))
        self.head[u].append(arc_id)
        self.head[v].append(arc_id + 1)
        return arc_id


@dataclass
class MaxFlowResult:
    """The value of a network's flow, and views of it valid until the network changes."""

    value: int
    _net: FlowNetwork

    def arc_flow(self, arc_id: int) -> int:
        return self._net.cap[arc_id] - self._net.res[arc_id]

    def min_cut_source_side(self) -> set[int]:
        """The inclusion-minimal min cut: nodes residual-reachable from the source."""
        net = self._net
        seen = {net.source}
        queue = deque(seen)
        while queue:
            u = queue.popleft()
            for arc in net.head[u]:
                v = net.to[arc]
                if net.res[arc] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen

    def max_cut_source_side(self) -> set[int]:
        """The inclusion-maximal min cut: complement of the nodes that still reach the sink."""
        net = self._net
        reaches = {net.sink}
        queue = deque(reaches)
        while queue:
            v = queue.popleft()
            for arc in net.head[v]:
                # arc^1 runs to[arc] -> v; it has residual iff res[arc^1] > 0
                u = net.to[arc]
                if net.res[arc ^ 1] > 0 and u not in reaches:
                    reaches.add(u)
                    queue.append(u)
        return set(range(net.node_count)) - reaches


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Dinic's algorithm on the network's own flow: level graphs, each saturated by a blocking flow.

    The flow is augmented in place, from zero on a fresh network.  The value
    returned is that of the whole flow, not only of what this call added.
    """
    res = net.res
    to = net.to
    head = net.head
    source, sink = net.source, net.sink
    unlabelled = [-1] * net.node_count
    level = list(unlabelled)
    it = [0] * net.node_count

    def bfs() -> bool:
        # Levels past the sink's lie on no shortest path, so stop once it is labelled.
        level[:] = unlabelled
        level[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            deeper = level[u] + 1
            for arc in head[u]:
                v = to[arc]
                if res[arc] > 0 and level[v] < 0:
                    level[v] = deeper
                    if v == sink:
                        return True
                    queue.append(v)
        return False

    def blocking_dfs() -> None:
        # Iterative DFS along level-increasing residual arcs.
        path: list[int] = []
        u = source
        while True:
            if u == sink:
                bottleneck = min([res[a] for a in path])
                for a in path:
                    res[a] -= bottleneck
                    res[a ^ 1] += bottleneck
                # Retreat to the first saturated arc on the path.
                for idx, a in enumerate(path):
                    if res[a] == 0:
                        del path[idx:]
                        break
                u = to[path[-1]] if path else source
                continue
            arcs = head[u]
            end = len(arcs)
            deeper = level[u] + 1
            i = it[u]
            while i < end:
                arc = arcs[i]
                if res[arc] > 0 and level[to[arc]] == deeper:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(arc)
                u = to[arc]
                continue
            level[u] = -1  # dead end in this phase
            if not path:
                return
            last = path.pop()
            u = to[last ^ 1]
            it[u] += 1

    while bfs():
        it[:] = [0] * net.node_count
        blocking_dfs()
    cap = net.cap
    return MaxFlowResult(sum(cap[arc] - res[arc] for arc in head[source]), net)
