"""The validation oracles themselves, checked against exhaustive enumeration."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from sapmatch import (
    ArrivalInstance,
    SapEngine,
    brute_max_ratio,
    gen_complete,
    gen_minmax_adversary,
    hopcroft_karp_size,
    oracle_balanced_flow,
    oracle_opt_load,
    oracle_shortest_aug_path,
)
from conftest import instance_corpus


def exhaustive_matching_size(neighbors: Sequence[Sequence[int]]) -> int:
    """Try every subset assignment by backtracking over clients."""

    def best_from(c: int, used: frozenset[int]) -> int:
        if c == len(neighbors):
            return 0
        top = best_from(c + 1, used)  # leave c unmatched
        for s in neighbors[c]:
            if s not in used:
                top = max(top, 1 + best_from(c + 1, used | {s}))
        return top

    return best_from(0, frozenset())


class TestHopcroftKarp:
    def test_complete_10x10(self):
        assert hopcroft_karp_size([tuple(range(10))] * 10, 10) == 10

    def test_triple_star(self):
        assert hopcroft_karp_size([(0,), (0,), (0,)], 1) == 1

    def test_against_exhaustive(self):
        rng = random.Random(5)
        for _ in range(80):
            servers = rng.randint(1, 6)
            clients = rng.randint(1, 7)
            neighbors = [
                tuple(sorted(rng.sample(range(servers), rng.randint(0, servers))))
                for _ in range(clients)
            ]
            assert hopcroft_karp_size(neighbors, servers) == exhaustive_matching_size(
                neighbors
            )


class TestOracleOptLoad:
    def test_known_optima(self):
        assert oracle_opt_load(ArrivalInstance.build(1, [[0], [0], [0]])) == 3
        assert oracle_opt_load(gen_complete(10, 20)) == 1
        assert oracle_opt_load(gen_minmax_adversary(4)) == 4

    def test_unservable_clients_and_empty_prefixes(self):
        inst = ArrivalInstance.build(2, [[], [0], [], [0]])
        assert [oracle_opt_load(inst, t) for t in range(5)] == [0, 0, 1, 1, 2]
        with pytest.raises(ValueError):
            oracle_opt_load(inst, 5)

    def test_against_exhaustive(self):
        # The least max load over every assignment of the servable clients.
        rng = random.Random(6)
        for _ in range(60):
            servers = rng.randint(1, 4)
            lists = [
                tuple(sorted(rng.sample(range(servers), rng.randint(0, min(3, servers)))))
                for _ in range(rng.randint(0, 7))
            ]
            servable = [nbrs for nbrs in lists if nbrs]
            want = min(
                max(choice.count(s) for s in range(servers))
                for choice in itertools.product(*servable)
            )
            assert oracle_opt_load(ArrivalInstance.build(servers, lists)) == want


class TestBruteMaxRatio:
    def test_complete_10x20(self):
        ratio, tight = brute_max_ratio(gen_complete(10, 20).prefix_adjacency())
        assert ratio == Fraction(1, 2)
        assert tight == frozenset(range(10))

    def test_two_components(self):
        ratio, tight = brute_max_ratio({0: (0,), 1: (0,), 2: (1, 2)})
        assert ratio == Fraction(2)
        assert tight == frozenset({0, 1})

    def test_single_edge(self):
        ratio, tight = brute_max_ratio({0: (0,)})
        assert ratio == 1
        assert tight == frozenset({0})

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_max_ratio({c: (0,) for c in range(21)})


class TestOracleBalancedFlow:
    def test_complete_10x20(self):
        alpha = oracle_balanced_flow(gen_complete(10, 20).prefix_adjacency())
        assert set(alpha.values()) == {Fraction(1, 2)}

    def test_two_components_two_peels(self):
        alpha = oracle_balanced_flow({0: (0,), 1: (0,), 2: (1, 2)})
        assert alpha == {0: Fraction(2), 1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_size_guard(self):
        with pytest.raises(ValueError):
            oracle_balanced_flow({c: (0,) for c in range(17)})


class TestOracleShortestAugPath:
    def test_direct_free_neighbor(self):
        assert oracle_shortest_aug_path([(0,)], [None], [1], 0) == 1

    def test_saturated_component(self):
        assert oracle_shortest_aug_path([(0,), (0,)], [0, None], [1], 1) is None

    def test_matched_client_rejected(self):
        with pytest.raises(ValueError):
            oracle_shortest_aug_path([(0,)], [0], [1], 0)

    def test_agrees_with_engine_replays(self):
        for inst in instance_corpus(20, seed=6, max_clients=25, max_servers=12):
            engine = SapEngine(inst)
            neighbors = [inst.neighbors(c) for c in range(inst.client_count)]
            caps = [1] * inst.server_count
            for c in range(inst.client_count):
                engine.arrive(c)
                snapshot = list(engine.state.server_of_client)
                want: Optional[int]
                path = engine.shortest_aug_path(c)
                if path is not None:
                    engine.augment(path)
                    want = path.edge_count
                else:
                    want = None
                assert oracle_shortest_aug_path(neighbors, snapshot, caps, c) == want
