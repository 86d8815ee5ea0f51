"""Dynamic sink-distance structure against fresh truncated BFS."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from sapmatch import InvariantViolation, SinkDistanceTree


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


class TestLocalCheck:
    def test_repair_that_skips_children_is_caught(self):
        # 0 -> 1 -> sink and 0 -> 2 -> 3 -> sink: deleting 1's sink arc must
        # lift 0 from level 2 to 3.  With the child sets hidden, the repair
        # never reaches 0, but 0 is an in-neighbour of the risen node 1.
        tree = SinkDistanceTree(5, 4, 4, arcs=[(0, 1), (1, 4), (0, 2), (2, 3), (3, 4)])
        tree.children.clear()
        tree.delete_arc(1, 4)
        assert 0 in tree.dirty
        with pytest.raises(InvariantViolation):
            tree.validate_local()

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
    touched corrupted must fail both.
    """

    @initialize(data=st.data())
    def build(self, data):
        nodes = data.draw(st.integers(2, 9), label="nodes")
        sink = data.draw(st.integers(0, nodes - 1), label="sink")
        pairs = [(u, v) for u in range(nodes) for v in range(nodes) if u != v and u != sink]
        arcs = data.draw(st.sets(st.sampled_from(pairs)), label="arcs")
        self.tree = SinkDistanceTree(nodes, sink, data.draw(st.integers(1, 5), label="depth"), arcs)

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
            tree.insert_arc(*data.draw(st.sampled_from(candidates), label="insert"))
        self.check(data, before)

    @rule(data=st.data())
    def delete_arc(self, data):
        tree = self.tree
        arcs = [(u, v) for u in range(tree.node_count) for v in sorted(tree.out[u])]
        before = self.signatures()
        if arcs:
            tree.delete_arc(*data.draw(st.sampled_from(arcs), label="delete"))
        self.check(data, before)

    @rule(data=st.data())
    def delete_node(self, data):
        nodes = [v for v in self.live() if v != self.tree.sink]
        before = self.signatures()
        if nodes:
            self.tree.delete_node(data.draw(st.sampled_from(nodes), label="remove"))
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
            with pytest.raises(InvariantViolation):
                broken.validate_local()
            with pytest.raises(InvariantViolation):
                broken.validate_against_bfs()
        tree.validate_local()
        assert not tree.dirty
        tree.validate_against_bfs()


TestSinkTreeMachine = SinkTreeMachine.TestCase
TestSinkTreeMachine.settings = settings(max_examples=150, stateful_step_count=25, deadline=None)
