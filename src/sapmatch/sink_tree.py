"""Bounded-depth dynamic shortest paths to a fixed sink in a directed graph.

Supports arc deletions freely, arc insertions under the caller's guarantee
that no insertion shortens any distance, and whole-node removal.  ``attach``
inserts a node: it gives a node with no arcs its out-arcs and its first
level.  ``reverse_path`` makes a run of arc updates in one call.  Distances
are maintained exactly up to ``depth_limit``; anything further is collapsed
into a single HIGH level.

Deletion repair runs in two stages.

Stage 1 is the scan-and-raise of an Even-Shiloach tree (Even-Shiloach
1981): a node whose supporting arc disappears rescans its out-arcs and, if
its level rose, its children in the tree rescan in turn.  No child sets are
kept: a child of ``u`` has an arc into ``u``, so the children are the nodes
of ``into[u]`` whose parent is ``u``, read off in the same pass that marks
``into[u]`` dirty.  Most repairs end here after a scan or two.  But a level
rises by at most one per scan, so a component cut off from the sink would
climb to HIGH a level at a time, rescanning itself on every step.

The switch is a ski-rental rule with no knob: once a repair has made as many
rescans as first scans, it hands every node still queued to stage 2.  So
stage 1 costs at most twice the scans of the nodes it touched.

Stage 2 (``_settle``) is the one-pass dynamic shortest-path repair of
Ramalingam-Reps (1996).  Between two stage-1 scans every node that is not
queued meets its Bellman condition (below), every level is at most the
node's true distance, and no arc drops more than one level.  So, taking
candidates in increasing level, starting from the queued nodes:

- a candidate at level ``k`` keeps its level iff some out-neighbour at level
  ``k - 1`` is unaffected, and then re-parents to the smallest such index;
  otherwise it is *affected*, its true distance is larger, and its children
  become candidates at ``k + 1``.  A node that never becomes a candidate has
  an unaffected parent one level lower, so its level is already exact.
- each affected node gets a first bound from its arcs that leave the set;
  a bucket queue over the finite levels settles the set, relaxing along
  in-arcs inside it and keeping the (level, index) argmin as parent.  A
  distance counts the arcs of a simple path, so it stays below the node
  count, which bounds the buckets however large ``depth_limit`` is.

Stage 2 scans the out-arcs of each candidate once, and those of each
affected node once more along with its in-arcs, however far it rises.  The
nodes whose parent stage 2 rewrites are exactly those stage 1 would have
rescanned had it gone on, and each gets the parent such a scan would give,
so both stages end in the same tree.

Local validation.  Call a node's *Bellman condition* the statement that its
level is ``min(high, 1 + min level over its out-neighbours)`` and, below
``high``, its parent is an out-neighbour one level lower; a removed node sits
at ``high`` with no arcs.  These truncated Bellman equations have exactly one
solution, the truncated BFS distances: a level ``k`` below ``high`` has a
parent chain of ``k`` arcs to the sink, so it is at least the distance, and
walking back along a shortest path of at most ``depth_limit`` arcs shows it
is at most the distance.  A node's condition reads only its own level and
parent, its out-arcs and its out-neighbours' levels, so an update can break
it only at

- the nodes a repair starts from (their parent arc went away);
- the in-neighbours of every node whose level rose (this covers every node
  whose parent a repair rewrote: stage 1 rescans only seeds and children of
  risen nodes, stage 2 rewrites only queued nodes, which are such nodes,
  and children of affected nodes, and every affected node rises);
- a removed node and its in-neighbours;
- the node ``attach`` inserts: with no in-arcs, only its own condition can
  change.

Any other insertion breaks no condition, because ``insert_arc`` and
``reverse_path`` reject every arc that would shorten a distance.  The tree
records exactly these nodes in ``dirty``; ``validate_local`` checks them and
clears the set.  If the tree equalled a fresh BFS before, it equals one
after, at a cost in proportion to the update instead of the graph.  The set
is filled by what changed, not by what a repair chose to rescan, so a repair
that skips nodes is caught.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from .errors import InvariantViolation


class SinkDistanceTree:
    """Directed graph + levels + parent pointers toward the sink.

    ``level[v]`` is the exact distance from ``v`` to the sink when it is at
    most ``depth_limit``; the sentinel value ``high`` (= depth_limit + 1)
    means "further than the limit".  Levels never decrease over the life of
    the structure, except that ``attach`` gives a node with no arcs its first
    level; a violation of that contract raises InvariantViolation.
    ``parent[v]`` is the only record of the tree: the children of ``v`` are
    the nodes of ``into[v]`` whose parent is ``v``.
    """

    def __init__(
        self,
        node_count: int,
        sink: int,
        depth_limit: int,
        arcs: Iterable[tuple[int, int]] = (),
    ):
        if depth_limit < 1:
            raise ValueError("depth limit must be at least 1")
        if not 0 <= sink < node_count:
            raise ValueError("sink out of range")
        self.node_count = node_count
        self.sink = sink
        self.depth_limit = depth_limit
        self.high = depth_limit + 1
        self.out: list[set[int]] = [set() for _ in range(node_count)]
        self.into: list[set[int]] = [set() for _ in range(node_count)]
        self.deleted: set[int] = set()
        for u, v in arcs:
            self._check_endpoints(u, v)
            self.out[u].add(v)
            self.into[v].add(u)
        self.level = [self.high] * node_count
        self.parent: list[int | None] = [None] * node_count
        self.level[sink] = 0
        self._init_levels()
        # Nodes whose Bellman condition may have changed since validate_local.
        self.dirty: set[int] = set()
        # Times a repair has scanned a node's out-arcs, over the tree's life.
        self.repair_scans = 0

    def _check_endpoints(self, u: int, v: int) -> None:
        if not (0 <= u < self.node_count and 0 <= v < self.node_count) or u == v:
            raise ValueError("arc endpoints must be distinct nodes")
        if u == self.sink:
            raise ValueError("arcs may not leave the sink")

    def _init_levels(self) -> None:
        queue = deque([self.sink])
        while queue:
            v = queue.popleft()
            if self.level[v] == self.depth_limit:
                continue
            for u in sorted(self.into[v]):
                if self.level[u] > self.level[v] + 1:
                    self.level[u] = self.level[v] + 1
                    self.parent[u] = v
                    queue.append(u)

    def has_arc(self, u: int, v: int) -> bool:
        return v in self.out[u]

    def insert_arc(self, u: int, v: int) -> None:
        """Add an arc; by contract the arc must not shorten any distance."""
        self._check_endpoints(u, v)
        if u in self.deleted or v in self.deleted:
            raise ValueError("cannot attach arcs to a removed node")
        if v in self.out[u]:
            raise ValueError("arc already present")
        if self.level[v] + 1 < self.level[u]:
            raise InvariantViolation(
                f"arc ({u},{v}) would shorten the distance of {u}; "
                "insertions must never decrease distances"
            )
        self.out[u].add(v)
        self.into[v].add(u)

    def delete_arc(self, u: int, v: int) -> None:
        if not 0 <= u < self.node_count or v not in self.out[u]:
            raise ValueError("arc not present")
        self.out[u].discard(v)
        self.into[v].discard(u)
        if self.parent[u] == v:
            self._repair((u,))

    def delete_node(self, v: int) -> None:
        """Remove a node and all incident arcs; its level becomes permanently HIGH."""
        if not 0 <= v < self.node_count:
            raise ValueError(f"node {v} out of range")
        if v == self.sink:
            raise ValueError("the sink cannot be removed")
        if v in self.deleted:
            raise ValueError("node already removed")
        self.dirty.add(v)
        self.dirty.update(self.into[v])
        # Every child of v loses its parent arc; each moves to a new parent.
        kids = tuple(u for u in self.into[v] if self.parent[u] == v)
        for u in self.into[v]:
            self.out[u].discard(v)
        for w in self.out[v]:
            self.into[w].discard(v)
        self.out[v].clear()
        self.into[v].clear()
        self.deleted.add(v)
        self.level[v] = self.high
        self.parent[v] = None
        if kids:
            self._repair(kids)

    def attach(self, u: int, targets: Sequence[int]) -> None:
        """Give ``u``, a live node with no arcs, an arc to each of ``targets`` and its first level.

        No arc enters ``u``, so no other level depends on its own: one scan of
        the new arcs, with a repair scan's (level, index) tie-break, sets it.
        """
        level, out, into, deleted = self.level, self.out, self.into, self.deleted
        if not 0 <= u < self.node_count or u == self.sink or u in deleted:
            raise ValueError(f"node {u} is not a live node other than the sink")
        if out[u] or into[u]:
            raise ValueError(f"node {u} already has arcs")
        arcs = set(targets)
        if len(arcs) != len(targets):
            raise ValueError("arc already present")
        best, support = self.high, None
        for v in targets:
            if not 0 <= v < self.node_count or v == u or v in deleted:
                raise ValueError(f"target {v} is not a live node other than {u}")
            candidate = level[v] + 1
            if candidate < best or (candidate == best and support is not None and v < support):
                best, support = candidate, v
        out[u] = arcs
        for v in targets:
            into[v].add(u)
        level[u], self.parent[u] = best, support
        self.dirty.add(u)
        self.repair_scans += 1

    def reverse_path(self, nodes: Sequence[int]) -> None:
        """``insert_arc(v, u); delete_arc(u, v)`` for each arc ``(u, v)`` along ``nodes``,
        then ``delete_arc(nodes[-1], sink)``, with each repair's first scan inline.
        """
        level, parent, out, into, dirty = self.level, self.parent, self.out, self.into, self.dirty
        deleted, sink, high = self.deleted, self.sink, self.high
        if not nodes or min(nodes) < 0 or max(nodes) >= self.node_count:
            raise ValueError("a path needs one or more nodes, all in range")
        last = len(nodes) - 1
        for i, u in enumerate(nodes):
            if i < last:
                v = nodes[i + 1]
                if (u != v and v != sink and u not in deleted and v not in deleted
                        and u not in out[v] and level[u] + 1 >= level[v]):
                    out[v].add(u)
                    into[u].add(v)
                else:
                    self.insert_arc(v, u)  # raises the error the per-arc call raises
            else:
                v = sink
            out_u = out[u]
            if v not in out_u:
                raise ValueError("arc not present")
            out_u.discard(v)
            into[v].discard(u)
            if parent[u] != v:
                continue
            # The first scan of _repair((u,)), which ends it unless u rose and has children.
            dirty.add(u)
            best, support = high + 2, None
            for w in out_u:
                candidate = level[w] + 1
                if candidate < best or (candidate == best and w < support):
                    best, support = candidate, w
            if best >= high:
                best, support = high, None
            current = level[u]
            if best < current:
                raise InvariantViolation(f"level of node {u} tried to decrease")
            parent[u] = support
            if best > current:
                level[u] = best
                queue = [u]
                for x in into[u]:
                    dirty.add(x)
                    if parent[x] == u:
                        queue.append(x)
                if len(queue) > 1:
                    self._cascade(queue, 1)
                    continue
            self.repair_scans += 1

    def _repair(self, seeds: tuple[int, ...]) -> None:
        self.dirty.update(seeds)
        self._cascade(list(seeds), 0)

    def _cascade(self, queue: list[int], i: int) -> None:
        """Stage 1 over ``queue``, of which the first ``i`` scans are made already."""
        level, parent, out, into, dirty = self.level, self.parent, self.out, self.into, self.dirty
        high = self.high
        # queue[:i] are the scans made so far, queue[i:] the ones to come.
        # The switch comes once i scans have visited at most i / 2 distinct
        # nodes.  With d nodes seen so far that cannot happen before scan
        # 2 * d, so the nodes seen are counted only then.
        check_at = 2
        seen: set[int] | None = None
        while i < len(queue):
            u = queue[i]
            i += 1
            # Seeds and children are live non-sink nodes, so out[u] is intact.
            # best starts above every candidate: the first arc sets support.
            best = high + 2
            support = None
            for w in out[u]:
                candidate = level[w] + 1
                if candidate < best or (candidate == best and w < support):
                    best = candidate
                    support = w
            if best >= high:
                best, support = high, None
            current = level[u]
            if best < current:
                raise InvariantViolation(f"level of node {u} tried to decrease")
            parent[u] = support
            if best > current:
                level[u] = best
                for x in into[u]:
                    dirty.add(x)
                    if parent[x] == u:
                        queue.append(x)
            if i == check_at and i < len(queue):
                if seen is None:
                    seen = set(queue[:i])
                else:
                    seen.update(queue[last:i])
                last = i
                if i >= 2 * len(seen):
                    # As many rescans as first scans: settle the rest in one pass.
                    self.repair_scans += i
                    self._settle(queue[i:])
                    return
                check_at = 2 * len(seen)
        self.repair_scans += i

    def _settle(self, queued: Iterable[int]) -> None:
        """Give every node ``_cascade`` left queued, and all it supports, its final level.

        Called mid-repair: every node that is not queued meets its Bellman
        condition, every level is at most the node's true distance, and no
        arc drops more than one level.
        """
        level, parent, out, into, dirty = self.level, self.parent, self.out, self.into, self.dirty
        high = self.high
        # No distance reaches the node count, so the buckets stop at top.  A
        # stage-1 climb can leave a cut-off node at any level below high:
        # the last bucket takes every candidate at top or above.  Each is cut
        # off, as is all it supports, so none finds support there (an
        # unaffected node at top - 1 would lie on a path through every node).
        top = min(high, self.node_count)
        scans = 0
        # (a) The affected set, in increasing level: a candidate at level k is
        # affected iff no unaffected out-neighbour sits at level k - 1.
        buckets: list[list[int]] = [[] for _ in range(top + 1)]
        candidates: set[int] = set()
        for u in queued:
            if u not in candidates and level[u] < high:
                candidates.add(u)
                buckets[min(level[u], top)].append(u)
        # Final level and parent of each candidate: (a) fills in the
        # unaffected ones, (b) the affected ones.
        dist: dict[int, int] = {}
        via: dict[int, int | None] = {}
        affected: set[int] = set()
        for k in range(1, top + 1):
            for u in buckets[k]:
                scans += 1
                support = None
                for w in out[u]:
                    if level[w] == k - 1 and w not in affected and (support is None or w < support):
                        support = w
                if support is None:
                    affected.add(u)
                    for c in into[u]:
                        if parent[c] == u and c not in candidates:
                            candidates.add(c)
                            buckets[min(k + 1, top)].append(c)
                else:
                    dist[u] = k
                    via[u] = support
        # (b) First bounds from the arcs that leave the set, then a bucket
        # queue that relaxes along in-arcs inside it.  (level, index) order
        # picks the parent, as a scan does.
        buckets = [[] for _ in range(top)]
        for u in affected:
            scans += 1
            best, support = high, None
            for w in out[u]:
                if w not in affected:
                    candidate = level[w] + 1
                    if candidate < best or (candidate == best and support is not None and w < support):
                        best, support = candidate, w
            dist[u] = best
            via[u] = support
            if best < top:
                buckets[best].append(u)
        for k in range(1, top - 1):
            for u in buckets[k]:
                if dist[u] != k:
                    continue
                for x in into[u]:
                    if x in affected:
                        d = dist[x]
                        if k + 1 < d:
                            dist[x] = k + 1
                            via[x] = u
                            buckets[k + 1].append(x)
                        elif k + 1 == d and u < via[x]:
                            via[x] = u
        # (c) Write the result back, marking the in-neighbours of every node
        # that rose as stage 1 does; every affected node rises.
        for u, best in dist.items():
            current = level[u]
            if best < current:
                raise InvariantViolation(f"level of node {u} tried to decrease")
            parent[u] = via[u]
            if best > current:
                level[u] = best
                dirty.update(into[u])
        self.repair_scans += scans

    def path_to_sink(self, u: int) -> list[int]:
        """The tracked shortest path from ``u`` to the sink (inclusive)."""
        if self.level[u] > self.depth_limit:
            raise ValueError("node is beyond the depth limit")
        path = [u]
        v = u
        while v != self.sink:
            nxt = self.parent[v]
            if nxt is None or nxt not in self.out[v]:
                raise InvariantViolation(f"broken parent chain at node {v}")
            path.append(nxt)
            v = nxt
        if len(path) - 1 != self.level[u]:
            raise InvariantViolation("parent chain length disagrees with the level")
        return path

    def validate_local(self) -> None:
        """Check the Bellman condition on every node in ``dirty``, then clear it.

        Between calls, the updates must start from a tree that equals a fresh
        truncated BFS; see the module docstring for why passing then proves
        the tree still equals one.
        """
        level, parent, out = self.level, self.parent, self.out
        high, deleted = self.high, self.deleted
        level_of = level.__getitem__
        for v in self.dirty:
            lv = level[v]
            out_v = out[v]
            below = min(map(level_of, out_v)) if out_v else high
            p = parent[v]
            if lv < high:
                good = lv == below + 1 and p in out_v and level[p] == below
            else:
                good = below + 1 >= high and p is None and (v not in deleted or not (out_v or self.into[v]))
            if not good:
                raise InvariantViolation(
                    f"node {v} breaks the Bellman condition: level {lv}, parent {p}, "
                    f"lowest out-neighbour level {below}, removed {v in deleted}"
                )
        self.dirty.clear()

    def validate_against_bfs(self) -> None:
        """Check every level and parent pointer against a fresh truncated BFS."""
        dist = {self.sink: 0}
        queue = deque([self.sink])
        while queue:
            v = queue.popleft()
            if dist[v] == self.depth_limit:
                continue
            for u in self.into[v]:
                if u not in dist and u not in self.deleted:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        for v in range(self.node_count):
            if v == self.sink:
                continue
            if v in self.deleted:
                if self.level[v] != self.high or self.parent[v] is not None or self.out[v] or self.into[v]:
                    raise InvariantViolation(f"removed node {v} must sit at the HIGH level with no arcs")
                continue
            expected = dist.get(v, self.high)
            if self.level[v] != expected:
                raise InvariantViolation(
                    f"node {v}: stored level {self.level[v]} but true distance is {expected}"
                )
            p = self.parent[v]
            if self.level[v] > self.depth_limit:
                if p is not None:
                    raise InvariantViolation(f"node {v} at the HIGH level keeps parent {p}")
            else:
                if p is None or p not in self.out[v] or self.level[p] != self.level[v] - 1:
                    raise InvariantViolation(f"node {v} has an inconsistent parent pointer")
