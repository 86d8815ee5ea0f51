"""Max-flow core: values against exhaustive cut enumeration, extreme min cuts."""

from __future__ import annotations

import itertools
import random

import pytest

from sapmatch import FlowNetwork, max_flow


def enumerate_min_cut(net: FlowNetwork) -> tuple[int, list[set[int]]]:
    """Brute-force value of the min cut and all source sides attaining it."""
    others = [v for v in range(net.node_count) if v not in (net.source, net.sink)]
    best = None
    sides: list[set[int]] = []
    arcs = [
        (u, net.to[arc], net.cap[arc])
        for u in range(net.node_count)
        for arc in net.head[u]
        if arc % 2 == 0
    ]
    for r in range(len(others) + 1):
        for chosen in itertools.combinations(others, r):
            side = {net.source, *chosen}
            value = sum(c for (u, v, c) in arcs if u in side and v not in side)
            if best is None or value < best:
                best = value
                sides = [side]
            elif value == best:
                sides.append(side)
    return best, sides


def test_single_arc():
    net = FlowNetwork(2, 0, 1)
    net.add_arc(0, 1, 5)
    assert max_flow(net).value == 5


def test_two_disjoint_unit_paths():
    net = FlowNetwork(4, 0, 3)
    net.add_arc(0, 1, 1)
    net.add_arc(1, 3, 1)
    net.add_arc(0, 2, 1)
    net.add_arc(2, 3, 1)
    assert max_flow(net).value == 2


def test_arc_validation():
    net = FlowNetwork(3, 0, 2)
    with pytest.raises(ValueError):
        net.add_arc(1, 0, 1)  # into the source
    with pytest.raises(ValueError):
        net.add_arc(2, 1, 1)  # out of the sink
    with pytest.raises(ValueError):
        net.add_arc(0, 1, -3)


def test_flow_conservation_and_cut_sides_random():
    rng = random.Random(7)
    for _ in range(120):
        nodes = rng.randint(2, 8)
        net = FlowNetwork(nodes, 0, nodes - 1)
        arc_ids = []
        for u in range(nodes):
            for v in range(nodes):
                if u == v or v == 0 or u == nodes - 1:
                    continue
                if rng.random() < 0.45:
                    arc_ids.append(net.add_arc(u, v, rng.randint(0, 6)))
        result = max_flow(net)
        want, sides = enumerate_min_cut(net)
        assert result.value == want

        lo = result.min_cut_source_side()
        hi = result.max_cut_source_side()
        assert lo in sides
        assert hi in sides
        for side in sides:
            assert lo <= side <= hi

        # conservation at interior nodes, flow within capacity
        balance = [0] * nodes
        for arc in arc_ids:
            f = result.arc_flow(arc)
            assert 0 <= f <= net.cap[arc]
            u, v = net.to[arc ^ 1], net.to[arc]
            balance[u] -= f
            balance[v] += f
        for v in range(1, nodes - 1):
            assert balance[v] == 0
        assert balance[nodes - 1] == result.value


def test_max_flow_augments_the_flow_it_holds():
    # Solve twice: the second call starts from the first call's maximum flow.
    rng = random.Random(8)
    for _ in range(80):
        nodes = rng.randint(3, 7)
        net = FlowNetwork(nodes, 0, nodes - 1)
        arc_ids = [
            net.add_arc(u, v, rng.randint(0, 4))
            for u in range(nodes - 1)
            for v in range(1, nodes)
            if u != v and rng.random() < 0.5
        ]
        if not arc_ids:
            continue
        first = max_flow(net).value
        assert max_flow(net).value == first  # a second call finds nothing more
