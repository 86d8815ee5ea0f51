"""Dynamic sink-distance structure against fresh truncated BFS."""

from __future__ import annotations

import copy
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

import sapmatch.fast_engine
from sapmatch import (
    FastSapEngine,
    InvariantViolation,
    SinkDistanceTree,
    gen_minmax_adversary,
    gen_random,
    gen_star_chain,
)


class PerArcUpdates:
    """``attach`` and ``reverse_path`` as the per-arc calls they stand for."""

    def attach(self, u, targets):
        for v in targets:
            self.insert_arc(u, v)
        self.delete_arc(u, self.sink)

    def reverse_path(self, nodes):
        for u, v in zip(nodes, nodes[1:]):
            self.insert_arc(v, u)
            self.delete_arc(u, v)
        self.delete_arc(nodes[-1], self.sink)


class PerArcTree(PerArcUpdates, SinkDistanceTree):
    pass


class ScanAndRaiseTree(PerArcUpdates, SinkDistanceTree):
    """The reference repair: Even-Shiloach scan-and-raise until nothing changes.

    Every node climbs one level per scan, however far it has to go.  Written
    out in full so that it shares no code with the repair under test, and it
    finds a node's children by a full scan of ``parent`` rather than off the
    node's in-arcs.  Its ``attach`` and ``reverse_path`` go arc by arc, so
    this repair runs on every update.
    """

    def children(self, u):
        return [x for x in range(self.node_count) if self.parent[x] == u]

    def _repair(self, seeds):
        level, parent, out, dirty = self.level, self.parent, self.out, self.dirty
        high = self.high
        dirty.update(seeds)
        queue = deque(seeds)
        while queue:
            u = queue.popleft()
            self.repair_scans += 1
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
                dirty.update(self.into[u])
                queue.extend(self.children(u))


def build_random_digraph(rng: random.Random, nodes: int, sink: int, density: float):
    arcs = set()
    for u in range(nodes):
        if u == sink:
            continue
        for v in range(nodes):
            if u != v and rng.random() < density:
                arcs.add((u, v))
    return arcs


class TestInit:
    def test_star_levels(self):
        # two "servers" with dummy arcs to the sink
        tree = SinkDistanceTree(3, sink=2, depth_limit=4, arcs=[(0, 2), (1, 2)])
        assert tree.level[0] == tree.level[1] == 1
        assert tree.level[2] == 0
        tree.validate_against_bfs()

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            SinkDistanceTree(2, sink=1, depth_limit=0)

    def test_init_matches_bfs_random(self):
        rng = random.Random(11)
        for _ in range(40):
            nodes = rng.randint(2, 12)
            sink = nodes - 1
            arcs = build_random_digraph(rng, nodes, sink, 0.3)
            tree = SinkDistanceTree(nodes, sink, depth_limit=rng.randint(1, 6), arcs=arcs)
            tree.validate_against_bfs()


class TestArcOps:
    def test_duplicate_insert_rejected(self):
        tree = SinkDistanceTree(3, 2, 2, arcs=[(0, 2)])
        with pytest.raises(ValueError):
            tree.insert_arc(0, 2)

    def test_missing_delete_rejected(self):
        tree = SinkDistanceTree(3, 2, 2, arcs=[(0, 2)])
        with pytest.raises(ValueError):
            tree.delete_arc(1, 2)

    def test_arc_out_of_sink_rejected(self):
        tree = SinkDistanceTree(3, 2, 2)
        with pytest.raises(ValueError):
            tree.insert_arc(2, 0)

    def test_shortening_insert_raises(self):
        # 0 -> 1 -> sink, then a shortcut 0 -> sink would drop 0's distance
        tree = SinkDistanceTree(3, 2, 3, arcs=[(0, 1), (1, 2)])
        assert tree.level[0] == 2
        with pytest.raises(InvariantViolation):
            tree.insert_arc(0, 2)
        # The rejected arc is not left behind.
        assert not tree.has_arc(0, 2) and 0 not in tree.into[2]
        tree.validate_against_bfs()

    def test_harmless_insert_keeps_levels(self):
        tree = SinkDistanceTree(4, 3, 3, arcs=[(0, 3), (1, 3), (2, 0)])
        levels = list(tree.level)
        tree.insert_arc(2, 1)  # same depth alternative
        assert tree.level == levels
        tree.validate_against_bfs()

    def test_delete_dummy_arc_goes_high(self):
        tree = SinkDistanceTree(2, 1, 3, arcs=[(0, 1)])
        tree.delete_arc(0, 1)
        assert tree.level[0] == tree.high
        tree.validate_against_bfs()

    def test_delete_one_of_two_routes_keeps_level(self):
        tree = SinkDistanceTree(4, 3, 3, arcs=[(0, 1), (0, 2), (1, 3), (2, 3)])
        assert tree.level[0] == 2
        tree.delete_arc(0, tree.parent[0])
        assert tree.level[0] == 2
        tree.validate_against_bfs()


class TestFusedOps:
    def test_reverse_path_over_a_missing_arc_rejected(self):
        tree = SinkDistanceTree(3, 2, 3, arcs=[(0, 2), (1, 2)])
        with pytest.raises(ValueError, match="arc not present"):
            tree.reverse_path([0, 1])

    def test_reverse_path_onto_an_existing_arc_rejected(self):
        tree = SinkDistanceTree(3, 2, 3, arcs=[(0, 1), (1, 0), (1, 2)])
        with pytest.raises(ValueError, match="arc already present"):
            tree.reverse_path([0, 1])

    def test_attach_to_a_removed_node_rejected(self):
        tree = SinkDistanceTree(3, 2, 3, arcs=[(0, 2), (1, 2)])
        tree.delete_node(1)
        with pytest.raises(ValueError, match="cannot attach arcs to a removed node"):
            tree.attach(0, [1])

    def test_attach_with_a_shortening_arc_raises(self):
        # 0 -> 1 -> sink: an arc 0 -> sink would drop 0's distance.
        tree = SinkDistanceTree(3, 2, 3, arcs=[(0, 1), (1, 2)])
        with pytest.raises(InvariantViolation, match="would shorten the distance of 0"):
            tree.attach(0, [2])
        assert not tree.has_arc(0, 2) and 0 not in tree.into[2]
        tree.validate_against_bfs()

    def test_one_node_path_drops_its_sink_arc(self):
        tree = SinkDistanceTree(3, 2, 3, arcs=[(0, 1), (1, 2), (0, 2)])
        tree.reverse_path([0])
        assert not tree.has_arc(0, 2) and tree.level[0] == 2 and tree.dirty == {0}
        tree.validate_local()
        tree.validate_against_bfs()


class TestNodeRemoval:
    def test_remove_and_repair(self):
        tree = SinkDistanceTree(4, 3, 3, arcs=[(0, 1), (1, 3), (0, 2), (2, 3)])
        tree.delete_node(1)
        assert tree.level[0] == 2
        assert tree.level[1] == tree.high
        tree.validate_against_bfs()
        with pytest.raises(ValueError):
            tree.delete_node(1)
        with pytest.raises(ValueError):
            tree.insert_arc(0, 1)

    def test_sink_protected(self):
        tree = SinkDistanceTree(2, 1, 2)
        with pytest.raises(ValueError):
            tree.delete_node(1)


def test_random_deletion_sequences_track_bfs():
    rng = random.Random(23)
    for _ in range(60):
        nodes = rng.randint(3, 14)
        sink = rng.randrange(nodes)
        arcs = build_random_digraph(rng, nodes, sink, 0.35)
        tree = SinkDistanceTree(nodes, sink, depth_limit=rng.randint(1, 5), arcs=arcs)
        order = sorted(arcs)
        rng.shuffle(order)
        for u, v in order:
            if rng.random() < 0.15 and v != sink and v not in tree.deleted:
                tree.delete_node(v)
            elif tree.has_arc(u, v):
                tree.delete_arc(u, v)
            tree.validate_against_bfs()


def test_path_to_sink_matches_level():
    tree = SinkDistanceTree(5, 4, 4, arcs=[(0, 1), (1, 2), (2, 4), (3, 4)])
    path = tree.path_to_sink(0)
    assert path == [0, 1, 2, 4]
    with pytest.raises(ValueError):
        SinkDistanceTree(3, 2, 1, arcs=[(0, 1), (1, 2)]).path_to_sink(0)


class NoCascadeTree(ScanAndRaiseTree):
    """A broken repair: it never rescans the children of a node that rose."""

    def children(self, u):
        return []


class TestLocalCheck:
    def test_repair_that_skips_children_is_caught(self):
        # 0 -> 1 -> sink and 0 -> 2 -> 3 -> sink: deleting 1's sink arc must
        # lift 0 from level 2 to 3.  A repair that skips children never
        # reaches 0, but 0 is an in-neighbour of the risen node 1.
        tree = NoCascadeTree(5, 4, 4, arcs=[(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])
        tree.delete_arc(1, 4)
        assert 0 in tree.dirty
        with pytest.raises(InvariantViolation):
            tree.validate_local()

    def test_another_shortest_path_parent_passes(self):
        # Node 0 reaches the sink through 1 or 2 alike.  Parents are the one
        # record of the tree, so swapping 0's parent gives another valid tree.
        tree = SinkDistanceTree(5, 4, 4, arcs=[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        tree.delete_node(3)
        assert tree.dirty == {0, 3} and tree.parent[0] == 1
        tree.parent[0] = 2
        tree.validate_local()
        tree.validate_against_bfs()

    def test_clean_tree_has_nothing_to_check(self):
        tree = SinkDistanceTree(4, 3, 3, arcs=[(0, 1), (1, 3), (2, 3)])
        tree.insert_arc(0, 2)  # same distance through 2: changes no condition
        assert not tree.dirty
        tree.delete_arc(0, 2)  # not 0's parent arc
        assert not tree.dirty


class SinkTreeMachine(RuleBasedStateMachine):
    """Random updates within the no-shortening contract, checked after each one.

    After every update, every node whose Bellman condition reads something
    new (its level, parent, removal, or truncated best out-neighbour level)
    must be marked dirty; the local check must pass, and so must the full
    BFS check.  A copy with the level or the parent of one node the update
    touched corrupted must fail both, unless the new parent is another
    out-neighbour one level lower: that copy is another shortest-path tree,
    and both must pass it.
    """

    max_nodes = 9
    max_depth = 5

    @initialize(data=st.data())
    def build(self, data):
        nodes = data.draw(st.integers(2, self.max_nodes), label="nodes")
        sink = data.draw(st.integers(0, nodes - 1), label="sink")
        pairs = [(u, v) for u in range(nodes) for v in range(nodes) if u != v and u != sink]
        arcs = data.draw(st.sets(st.sampled_from(pairs)), label="arcs")
        depth = data.draw(st.integers(1, self.max_depth), label="depth")
        self.tree = SinkDistanceTree(nodes, sink, depth, arcs)

    def apply(self, op: str, *args) -> None:
        getattr(self.tree, op)(*args)

    def signatures(self) -> list[tuple]:
        tree = self.tree
        return [
            (tree.level[v], tree.parent[v], v in tree.deleted,
             min([tree.high] + [tree.level[w] + 1 for w in tree.out[v]]))
            for v in range(tree.node_count)
        ]

    def live(self) -> list[int]:
        return [v for v in range(self.tree.node_count) if v not in self.tree.deleted]

    @rule(data=st.data())
    def insert_arc(self, data):
        tree, live = self.tree, self.live()
        candidates = [
            (u, v)
            for u in live
            if u != tree.sink
            for v in live
            if v != u and v not in tree.out[u] and tree.level[v] + 1 >= tree.level[u]
        ]
        before = self.signatures()
        if candidates:
            self.apply("insert_arc", *data.draw(st.sampled_from(candidates), label="insert"))
        self.check(data, before)

    @rule(data=st.data())
    def delete_arc(self, data):
        tree = self.tree
        arcs = [(u, v) for u in range(tree.node_count) for v in sorted(tree.out[u])]
        before = self.signatures()
        if arcs:
            self.apply("delete_arc", *data.draw(st.sampled_from(arcs), label="delete"))
        self.check(data, before)

    @rule(data=st.data())
    def delete_node(self, data):
        nodes = [v for v in self.live() if v != self.tree.sink]
        before = self.signatures()
        if nodes:
            self.apply("delete_node", data.draw(st.sampled_from(nodes), label="remove"))
        self.check(data, before)

    def check(self, data, before):
        tree = self.tree
        changed = {v for v, (old, new) in enumerate(zip(before, self.signatures())) if old != new}
        assert changed <= tree.dirty
        if tree.dirty:
            v = data.draw(st.sampled_from(sorted(tree.dirty)), label="corrupt")
            broken = copy.deepcopy(tree)
            if data.draw(st.booleans(), label="level"):
                levels = st.integers(0, tree.high).filter(lambda x: x != tree.level[v])
                broken.level[v] = data.draw(levels, label="new level")
            else:
                parents = st.sampled_from([None, *range(tree.node_count)])
                parents = parents.filter(lambda p: p != tree.parent[v])
                broken.parent[v] = data.draw(parents, label="new parent")
            p = broken.parent[v]
            if broken.level[v] < tree.high and p in tree.out[v] and tree.level[p] + 1 == broken.level[v]:
                broken.validate_local()
                broken.validate_against_bfs()
            else:
                with pytest.raises(InvariantViolation):
                    broken.validate_local()
                with pytest.raises(InvariantViolation):
                    broken.validate_against_bfs()
        tree.validate_local()
        assert not tree.dirty
        tree.validate_against_bfs()


TestSinkTreeMachine = SinkTreeMachine.TestCase
TestSinkTreeMachine.settings = settings(max_examples=150, stateful_step_count=25, deadline=None)


class SettleOnlyTree(SinkDistanceTree):
    """Sends every repair straight to the one-pass settle.

    A repair's seeds meet its preconditions, so this tests the settle on
    every update rather than on the few that switch to it.
    """

    def _repair(self, seeds):
        self.dirty.update(seeds)
        self._settle(seeds)


class TwinTreeMachine(SinkTreeMachine):
    """The machine above, shadowed by the reference repair and by a settle-only tree.

    After every update all three agree on levels, parents and marked nodes.
    Deeper limits, larger graphs and a rule that always deletes a parent arc
    give repairs room to climb.  At these sizes a repair seldom gets far
    enough to switch to its settle, so it is the settle-only tree that tests
    the settle here.
    """

    max_nodes = 12
    max_depth = 9

    @initialize(data=st.data())
    def build(self, data):
        super().build(data)
        tree = self.tree
        arcs = [(u, v) for u in range(tree.node_count) for v in tree.out[u]]
        self.reference = ScanAndRaiseTree(tree.node_count, tree.sink, tree.depth_limit, arcs)
        self.settle_only = SettleOnlyTree(tree.node_count, tree.sink, tree.depth_limit, arcs)

    def apply(self, op: str, *args) -> None:
        super().apply(op, *args)
        getattr(self.reference, op)(*args)
        getattr(self.settle_only, op)(*args)

    @rule(data=st.data())
    def delete_parent_arc(self, data):
        tree = self.tree
        arcs = [(u, tree.parent[u]) for u in range(tree.node_count) if tree.parent[u] is not None]
        before = self.signatures()
        if arcs:
            self.apply("delete_arc", *data.draw(st.sampled_from(arcs), label="delete parent arc"))
        self.check(data, before)

    def check(self, data, before):
        reference = self.reference
        for tree in (self.tree, self.settle_only):
            assert tree.level == reference.level
            assert tree.parent == reference.parent
            assert tree.dirty == reference.dirty
        assert self.tree.repair_scans <= 2 * reference.repair_scans
        reference.validate_local()
        self.settle_only.validate_local()
        super().check(data, before)


TestTwinTreeMachine = TwinTreeMachine.TestCase
TestTwinTreeMachine.settings = settings(max_examples=150, stateful_step_count=25, deadline=None)


def tree_state(tree: SinkDistanceTree) -> tuple:
    """What the fused updates must leave exactly as the per-arc calls do."""
    return tuple(tree.level), tuple(tree.parent), frozenset(tree.dirty), tree.repair_scans


def apply_both(trees, op: str, *args):
    """Apply one update to each tree; all must raise alike or not at all."""
    outcomes = []
    for tree in trees:
        try:
            getattr(tree, op)(*args)
            outcomes.append(None)
        except (ValueError, InvariantViolation) as error:
            outcomes.append((type(error), str(error)))
    assert outcomes.count(outcomes[0]) == len(outcomes), (op, args, outcomes)
    return outcomes[0]


class RandomDraws:
    """The choices ``draw_attach`` and ``draw_path`` make, from a seeded generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def usual(self) -> bool:
        return self.rng.random() < 0.9

    def one(self, pool):
        return self.rng.choice(pool)

    def some(self, pool):
        return self.rng.sample(pool, min(len(pool), self.rng.randint(0, 3)))


class HypothesisDraws:
    """The same choices, drawn by hypothesis."""

    def __init__(self, data):
        self.data = data

    def usual(self) -> bool:
        return self.data.draw(st.booleans(), label="usual")

    def one(self, pool):
        return self.data.draw(st.sampled_from(pool), label="node")

    def some(self, pool):
        return self.data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=4), label="nodes")


def draw_attach(draw, tree: SinkDistanceTree):
    """``(u, targets)`` for ``attach``: usually a node with a sink arc and fresh live targets."""
    nodes = range(tree.node_count)
    with_sink_arc = sorted(tree.into[tree.sink])
    u = draw.one(with_sink_arc) if with_sink_arc and draw.usual() else draw.one(list(nodes))
    fresh = [v for v in nodes if v not in tree.deleted and v not in (u, tree.sink) and v not in tree.out[u]]
    return u, draw.some(fresh if fresh and draw.usual() else [v for v in nodes if v != u])


def draw_path(draw, tree: SinkDistanceTree):
    """A path for ``reverse_path``: usually a tracked path to the sink, else any nodes."""
    nodes = list(range(tree.node_count))
    reach = [v for v in nodes if v != tree.sink and tree.level[v] <= tree.depth_limit]
    if reach and draw.usual():
        return tree.path_to_sink(draw.one(reach))[:-1]
    return draw.some(nodes) or [draw.one(nodes)]


class FusedTwinMachine(SinkTreeMachine):
    """The machine above with ``attach`` and ``reverse_path``, shadowed arc by arc.

    A twin takes each fused update as the per-arc calls it stands for.  After
    every update both agree on levels, parents, marked nodes and repair
    scans, also when the update breaks a contract part way through and both
    raise the same error.
    """

    max_nodes = 12
    max_depth = 9

    @initialize(data=st.data())
    def build(self, data):
        super().build(data)
        tree = self.tree
        arcs = [(u, v) for u in range(tree.node_count) for v in tree.out[u]]
        self.twin = PerArcTree(tree.node_count, tree.sink, tree.depth_limit, arcs)

    def apply(self, op: str, *args) -> None:
        apply_both((self.tree, self.twin), op, *args)

    @rule(data=st.data())
    def attach(self, data):
        before = self.signatures()
        self.apply("attach", *draw_attach(HypothesisDraws(data), self.tree))
        self.check(data, before)

    @rule(data=st.data())
    def reverse_path(self, data):
        before = self.signatures()
        self.apply("reverse_path", draw_path(HypothesisDraws(data), self.tree))
        self.check(data, before)

    def check(self, data, before):
        assert tree_state(self.tree) == tree_state(self.twin)
        self.twin.validate_local()
        super().check(data, before)


TestFusedTwinMachine = FusedTwinMachine.TestCase
TestFusedTwinMachine.settings = settings(max_examples=150, stateful_step_count=25, deadline=None)


class CountingTree(SinkDistanceTree):
    """Counts the repairs that go past their first scan, and the settles."""

    cascades = settles = 0

    def _cascade(self, queue, i):
        if i == 1:  # entered from a fused update's inline scan
            self.cascades += 1
        super()._cascade(queue, i)

    def _settle(self, queued):
        self.settles += 1
        super()._settle(queued)


def test_fused_updates_match_per_arc_calls():
    """Random ``attach`` and ``reverse_path`` calls on sparse digraphs, compared after each one."""
    rng = random.Random(37)
    draw = RandomDraws(rng)
    cascades = settles = 0
    for _ in range(300):
        nodes = rng.randint(6, 40)
        sink = nodes - 1
        arcs = sparse_digraph(rng, nodes, sink)
        limit = rng.randint(3, 25)
        tree = CountingTree(nodes, sink, limit, arcs)
        twin = PerArcTree(nodes, sink, limit, arcs)
        # A valid update drops a sink arc; once none is left, none is valid.
        while tree.into[sink]:
            if rng.random() < 0.5:
                update = ("attach", *draw_attach(draw, tree))
            else:
                update = ("reverse_path", draw_path(draw, tree))
            apply_both((tree, twin), *update)
            assert tree_state(tree) == tree_state(twin), update
            tree.validate_local()
            twin.validate_local()
        tree.validate_against_bfs()
        cascades += tree.cascades
        settles += tree.settles
    # The runs reach both stages past the inline scan.
    assert cascades > 100 and settles > 0, (cascades, settles)


SINK = 11
# The cycle 0 <-> 1 hangs off the sink by the arc 0 -> sink.  Nodes 2 and 3
# point into it and also into the chain 4..10, where node 4 + i - 1 sits at
# level i: node 3 has a way out at level 6, node 2 one at level 8.
CYCLE_WITH_EXITS = [(0, 1), (1, 0), (0, SINK), (2, 0), (2, 10), (3, 0), (3, 8), (4, SINK)] + [
    (v, v - 1) for v in range(5, 11)
]


@pytest.mark.parametrize(
    "arcs, settled, parents, scans",
    [
        # 0 -> 1 -> 2 -> 0 alone.  Stage 1 scans 0, 2 and 1 for the first
        # time and then once more, which leaves 0 queued.  The settle scans
        # the candidates 0, 2 and 1, and then each once more as affected.
        ([(0, 1), (1, 2), (2, 0), (0, SINK)], [None] * 3, [None] * 3, 6 + 3 + 3),
        # Stage 1 scans 0, 1, 2 and 3 for the first time and then once more,
        # which leaves 0 queued.  The settle scans the candidates 0, 1, 2 and
        # 3, then the affected 0, 1 and 2 once more.  Node 3 keeps the level
        # it reached in stage 1 under a new parent; node 2 settles between.
        (CYCLE_WITH_EXITS, [None, None, 8, 6], [None, None, 10, 8], 8 + 4 + 3),
    ],
)
def test_cut_off_cycle_settles_in_one_pass(arcs, settled, parents, scans):
    reference_scans = []
    for limit in (20, 200):
        tree = SinkDistanceTree(12, SINK, limit, arcs)
        reference = ScanAndRaiseTree(12, SINK, limit, arcs)
        for t in (tree, reference):
            t.delete_arc(0, SINK)
        high = tree.high
        assert tree.level[: len(settled)] == [high if v is None else v for v in settled]
        assert tree.parent[: len(parents)] == parents
        tree.validate_against_bfs()
        assert tree.level == reference.level and tree.parent == reference.parent
        assert tree.dirty == reference.dirty
        tree.validate_local()
        # However far the cycle has to climb, the repair costs the same.
        assert tree.repair_scans == scans
        reference_scans.append(reference.repair_scans)
    # The reference climbs a level per scan.
    assert scans < 20 <= reference_scans[0] and 200 <= reference_scans[1]


def sparse_digraph(rng: random.Random, nodes: int, sink: int):
    arcs = {
        (u, rng.randrange(nodes - 1) if rng.random() < 0.9 else sink)
        for u in range(nodes - 1)
        for _ in range(rng.randint(1, 3))
    }
    return {(u, v) for u, v in arcs if u != v}


def random_update(rng: random.Random, tree: SinkDistanceTree):
    """A random update within the no-shortening contract, or None.

    Half the insertions add an arc one level down, so that parents are not
    always the smallest-index choice a fresh scan would make.
    """
    live = [v for v in range(tree.node_count) if v not in tree.deleted]
    draw = rng.random()
    if draw < 0.1 and len(live) > 1:
        return ("delete_node", rng.choice([v for v in live if v != tree.sink]))
    if draw < 0.6:
        present = [(u, v) for u in live for v in sorted(tree.out[u])]
        return ("delete_arc", *rng.choice(present)) if present else None
    u, v = rng.choice(live), rng.choice(live)
    if rng.random() < 0.5:
        v = rng.choice([w for w in live if tree.level[w] + 1 == tree.level[u]] or [v])
    if u == tree.sink or u == v or v in tree.out[u] or tree.level[v] + 1 < tree.level[u]:
        return None
    return ("insert_arc", u, v)


@pytest.mark.parametrize("tree_type", [SinkDistanceTree, SettleOnlyTree])
def test_random_updates_match_reference(tree_type):
    """Random contract-respecting updates on sparse digraphs, checked after each one."""
    rng = random.Random(29)
    for _ in range(300):
        nodes = rng.randint(6, 40)
        sink = nodes - 1
        arcs = sparse_digraph(rng, nodes, sink)
        limit = rng.randint(3, 25)
        tree = tree_type(nodes, sink, limit, arcs)
        reference = ScanAndRaiseTree(nodes, sink, limit, arcs)
        for _ in range(3 * nodes):
            update = random_update(rng, tree)
            if update is None:
                continue
            for t in (tree, reference):
                getattr(t, update[0])(*update[1:])
            assert tree.level == reference.level, update
            assert tree.parent == reference.parent, update
            assert tree.dirty == reference.dirty, update
            tree.validate_local()
            reference.validate_local()
        tree.validate_against_bfs()


@pytest.mark.parametrize("tree_type", [SinkDistanceTree, SettleOnlyTree])
def test_settle_cost_ignores_the_depth_limit(tree_type):
    """A depth limit far past the node count changes no level or parent, and costs no memory.

    With a limit of the node count minus one nothing is cut off by depth, so
    the two trees must agree once HIGH is read as HIGH.  A settle whose
    buckets grew with the limit would allocate tens of megabytes per update.
    """
    def build(nodes, arcs):
        return tree_type(nodes, nodes - 1, nodes - 1, arcs), tree_type(nodes, nodes - 1, 10**6, arcs)

    def reached(tree):
        return [None if x == tree.high else x for x in tree.level]

    def apply(unlimited, huge, update):
        getattr(unlimited, update[0])(*update[1:])
        tracemalloc.start()
        getattr(huge, update[0])(*update[1:])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 100_000, update
        assert reached(huge) == reached(unlimited), update
        assert huge.parent == unlimited.parent, update
        huge.validate_local()

    # A ring through every node but the sink, hung off it by 0 -> sink.  Cut
    # off, it climbs past the node count before the repair settles.
    unlimited, huge = build(12, [(0, SINK), (0, SINK - 1)] + [(v, v - 1) for v in range(1, SINK)])
    apply(unlimited, huge, ("delete_arc", 0, SINK))
    assert reached(huge) == [None] * SINK + [0]
    rng = random.Random(31)
    for _ in range(60):
        nodes = rng.randint(6, 30)
        unlimited, huge = build(nodes, sparse_digraph(rng, nodes, nodes - 1))
        for _ in range(3 * nodes):
            update = random_update(rng, unlimited)
            if update is not None:
                apply(unlimited, huge, update)
        huge.validate_against_bfs()


class TestEngineWithReferenceRepair:
    """The fast engine gives the same run with either repair."""

    @staticmethod
    def run_both(monkeypatch, instance):
        engine = FastSapEngine(instance)
        engine.run()
        with monkeypatch.context() as patch:
            patch.setattr(sapmatch.fast_engine, "SinkDistanceTree", ScanAndRaiseTree)
            reference = FastSapEngine(instance)
            reference.run()
        assert type(reference.tree) is ScanAndRaiseTree
        assert engine.log.records == reference.log.records
        assert engine.state.server_of_client == reference.state.server_of_client
        assert engine.prune_events == reference.prune_events
        for counter in ("tree_paths", "brute_paths", "brute_failures", "pruned_nodes"):
            assert getattr(engine.log, counter) == getattr(reference.log, counter)
        assert engine.tree.level == reference.tree.level
        assert engine.tree.parent == reference.tree.parent
        return engine.tree.repair_scans, reference.tree.repair_scans

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_overloaded_random(self, monkeypatch, seed):
        scans, reference_scans = self.run_both(monkeypatch, gen_random(640, 1024, 3, seed))
        assert scans < reference_scans

    def test_star_chain_never_rescans(self, monkeypatch):
        scans, reference_scans = self.run_both(monkeypatch, gen_star_chain(30))
        assert scans == reference_scans

    def test_minmax_adversary(self, monkeypatch):
        self.run_both(monkeypatch, gen_minmax_adversary(16))


@pytest.mark.parametrize(
    "instance",
    [gen_random(640, 1024, 3, 1), gen_random(640, 1024, 3, 2), gen_star_chain(30)],
    ids=["random-1", "random-2", "star-chain"],
)
def test_engine_tree_matches_per_arc_calls_after_every_update(monkeypatch, instance):
    """The fast engine's tree, next to a twin engine's tree that goes arc by arc."""
    engine = FastSapEngine(instance)
    with monkeypatch.context() as patch:
        patch.setattr(sapmatch.fast_engine, "SinkDistanceTree", PerArcTree)
        twin = FastSapEngine(instance)
    assert type(engine.tree) is SinkDistanceTree and type(twin.tree) is PerArcTree
    logs = []
    for tree in (engine.tree, twin.tree):
        log = []
        for name in ("attach", "reverse_path", "delete_node"):

            def logged(*args, _tree=tree, _log=log, _bound=getattr(tree, name), _name=name):
                _bound(*args)
                # Taken before the step's validate_local clears dirty.
                _log.append((_name, args, tree_state(_tree)))

            setattr(tree, name, logged)
        logs.append(log)
    for client in range(instance.client_count):
        assert engine.step(client) == twin.step(client)
        assert logs[0] == logs[1], client
        assert logs[0], client
        logs[0].clear()
        logs[1].clear()
    assert engine.prune_events == twin.prune_events
    assert engine.state.server_of_client == twin.state.server_of_client
