"""Dynamic engine: tree paths, brute-force fallback, pruning, digraph integrity."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from sapmatch import (
    ArrivalInstance,
    FastSapEngine,
    SapEngine,
    default_depth_limit,
    effective_necessities,
    gen_minmax_adversary,
    gen_random,
    gen_star_chain,
    run_fast_sap,
    run_sap,
    star_chain_probes,
)
from conftest import instance_corpus


def rebuild_arcs(engine: FastSapEngine) -> set[tuple[int, int]]:
    """The arc set the digraph should hold, reconstructed from the matching alone."""
    inst = engine.instance
    n = inst.client_count
    dead = engine.tree.deleted
    arcs: set[tuple[int, int]] = set()
    for c in range(n):
        cnode = c
        if cnode in dead:
            continue
        if c >= engine.state.arrived_count:
            arcs.add((cnode, engine.sink))
            continue
        home = engine.state.server_of_client[c]
        for s in inst.neighbors(c):
            snode = engine._server_node(s)
            if snode in dead:
                continue
            if home == s:
                arcs.add((snode, cnode))
            else:
                arcs.add((cnode, snode))
    for s in range(inst.server_count):
        snode = engine._server_node(s)
        if snode not in dead and engine.state.is_free(s):
            arcs.add((snode, engine.sink))
    return arcs


def count_calls(tree, names: tuple[str, ...]) -> dict[str, int]:
    """Count calls to some methods of one tree instance, as the benchmark tracer hooks them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        bound = getattr(tree, name)

        def counted(*args, _name=name, _bound=bound):
            counts[_name] += 1
            return _bound(*args)

        setattr(tree, name, counted)
    return counts


def dead_server_nodes(engine: FastSapEngine) -> set[int]:
    """The servers whose nodes the engine has removed from its digraph."""
    return {v - engine.n for v in engine.tree.deleted if v >= engine.n}


def shared_core_corpus(family: str) -> list[tuple[str, ArrivalInstance]]:
    """``random``: 60 draws with S <= 60 and n <= 120; ``star-chain``: depth 5..20;
    ``adversary``: ``gen_minmax_adversary(8)``."""
    if family == "random":
        rng = random.Random("shared-core")
        out = []
        for k in range(60):
            servers = rng.randint(1, 60)
            degree = rng.randint(1, min(4, servers))
            out.append((f"random-{k}", gen_random(servers, rng.randint(1, 120), degree, rng.getrandbits(32))))
        return out
    if family == "star-chain":
        return [(f"star-chain-{depth}", gen_star_chain(depth)) for depth in range(5, 21)]
    return [("adversary-8", gen_minmax_adversary(8))]


def current_arcs(engine: FastSapEngine) -> set[tuple[int, int]]:
    return {
        (u, v)
        for u in range(engine.tree.node_count)
        for v in engine.tree.out[u]
    }


class TestBasics:
    def test_initial_levels(self):
        inst = ArrivalInstance.build(2, [])
        engine = FastSapEngine(inst, depth_limit=3)
        assert engine.tree.level[engine._server_node(0)] == 1
        assert engine.tree.level[engine._server_node(1)] == 1
        assert engine.tree.level[engine.sink] == 0

    def test_depth_limit_validation(self):
        with pytest.raises(ValueError):
            FastSapEngine(ArrivalInstance.build(1, [[0]]), depth_limit=0)

    def test_direct_neighbor_via_tree(self):
        engine = FastSapEngine(ArrivalInstance.build(1, [[0]]), depth_limit=3)
        rec = engine.step(0)
        assert rec.path_edges == 1
        assert engine.log.tree_paths == 1
        assert engine.log.brute_paths == 0

    def test_capacitated_rejected(self):
        with pytest.raises(ValueError):
            FastSapEngine(ArrivalInstance.build(1, [[0]], capacities=[2]))

    def test_default_depth_limit(self):
        assert default_depth_limit(1) == 1
        n = 100
        assert default_depth_limit(n) == math.ceil(math.sqrt(n * math.log(n)))


class TestPruning:
    def test_saturated_component_pruned(self):
        inst = ArrivalInstance.build(1, [[0], [0], [0]])
        engine = FastSapEngine(inst, depth_limit=4, debug=True)
        engine.step(0)
        rec = engine.step(1)
        assert not rec.matched
        assert engine.log.brute_failures == 1
        # the failed search swallowed the whole component
        (event,) = engine.prune_events
        assert event.servers == frozenset({0})
        assert 1 in event.clients
        # later arrivals never traverse the pruned region again
        rec = engine.step(2)
        assert not rec.matched
        assert engine.log.pruned_nodes >= 3

    def test_pruned_servers_fully_necessary(self):
        corpus = instance_corpus(
            25, seed=71, max_clients=30, max_servers=10, max_degree=2
        )
        seen = 0
        for inst in corpus:
            engine = FastSapEngine(inst)
            for c in range(inst.client_count):
                before = len(engine.prune_events)
                engine.step(c)
                for event in engine.prune_events[before:]:
                    seen += 1
                    necessity = effective_necessities(inst, c + 1)
                    for s in event.servers:
                        assert necessity[s] == Fraction(1)
        assert seen >= 5  # the corpus must actually exercise pruning

    def test_pruning_never_changes_lengths(self):
        # degree-1-heavy instances prune a lot; the search in the pruned
        # digraph must still return the true shortest length, measured by an
        # oracle that sees the whole graph
        from sapmatch import oracle_shortest_aug_path

        for inst in instance_corpus(20, seed=72, max_clients=40, max_servers=8,
                                    max_degree=2):
            engine = FastSapEngine(inst, debug=True)
            neighbors = [inst.neighbors(c) for c in range(inst.client_count)]
            caps = [1] * inst.server_count
            for c in range(inst.client_count):
                snapshot = list(engine.state.server_of_client) + [None]
                rec = engine.step(c)
                assert rec.path_edges == oracle_shortest_aug_path(
                    neighbors, snapshot, caps, c
                )


class TestBruteForceBranch:
    def test_long_chain_taken_by_brute_force(self):
        inst = gen_star_chain(5)
        engine = FastSapEngine(inst, depth_limit=3, debug=True)
        state, log = engine.run()
        probes = star_chain_probes(5)
        lengths = [log.records[p].path_edges for p in probes]
        assert lengths == [1, 3, 5, 7, 9]
        # probes needing more than depth_limit edges + 1 (the sink hop) fall back
        assert log.brute_paths == sum(1 for L in lengths if L + 1 > 3)
        assert log.brute_failures == 0

    def test_brute_successes_within_long_path_budget(self):
        inst = gen_star_chain(8)
        n = inst.client_count
        for h in (3, 5, 9):
            _, log = run_fast_sap(inst, depth_limit=h)
            assert log.brute_paths <= 4 * n * math.log(n) / h


class TestDigraphIntegrity:
    def test_rebuild_and_compare_after_each_arrival(self):
        for inst in instance_corpus(10, seed=73, max_clients=20, max_servers=8):
            engine = FastSapEngine(inst, debug=True)
            for c in range(inst.client_count):
                engine.step(c)
                assert current_arcs(engine) == rebuild_arcs(engine)

    def test_debug_validation_runs_star_chain(self):
        # exercises tree paths, brute paths, and every reversal under full checks
        run_fast_sap(gen_star_chain(6), depth_limit=4, debug=True)


class TestEngineEquivalence:
    def test_per_arrival_outcome_matches_naive(self, medium_corpus):
        # Ties may be broken differently, so the matchings (and later path
        # lengths) can diverge; what must agree per arrival is whether the
        # client is matched at all, i.e. the matching size.
        for inst in medium_corpus[:15]:
            _, log_naive = run_sap(inst)
            _, log_fast = run_fast_sap(inst)
            assert [r.matched for r in log_naive.records] == [
                r.matched for r in log_fast.records
            ]

    def test_final_sizes_match_on_star_chains(self):
        for depth in range(1, 8):
            inst = gen_star_chain(depth)
            _, log_naive = run_sap(inst)
            for h in (1, 2, 5, None):
                _, log_fast = run_fast_sap(inst, depth_limit=h)
                assert log_fast.matched_count() == log_naive.matched_count()

    def test_arrival_order_enforced(self):
        engine = FastSapEngine(gen_random(4, 4, 2, seed=1))
        engine.step(0)
        with pytest.raises(ValueError):
            engine.step(2)

    def test_arrival_past_the_end_changes_nothing(self):
        inst = gen_random(4, 4, 2, seed=1)
        engine = FastSapEngine(inst)
        engine.run()

        def snapshot():
            state, tree = engine.state, engine.tree
            return (list(state.server_of_client), [list(c) for c in state.clients_of_server],
                    state.arrived_count, list(engine.log.records), current_arcs(engine),
                    list(tree.level), list(tree.parent))

        before = snapshot()
        with pytest.raises(ValueError, match="beyond the instance"):
            engine.step(inst.client_count)
        assert snapshot() == before


class TestSharedCore:
    """The fast engine is ``SapEngine`` plus the tree shortcut: search, pruning and bookkeeping are shared."""

    @pytest.mark.parametrize("family", ["random", "star-chain", "adversary"])
    def test_depth_limit_one_is_sap_engine(self, family):
        # Every client sits at least two arcs from the sink, so with h = 1 no
        # path is read off the tree and each arrival runs SapEngine's search.
        for label, inst in shared_core_corpus(family):
            naive = SapEngine(inst)
            fast = FastSapEngine(inst, depth_limit=1)
            for c in range(inst.client_count):
                assert fast.step(c) == naive.step(c), f"{label}: arrival {c}"
                assert fast.dead == naive.dead == dead_server_nodes(fast), f"{label}: arrival {c}"
            assert fast.log.records == naive.log.records, label
            assert fast.log.tree_paths == 0, label
            assert fast.state.server_of_client == naive.state.server_of_client, label
            assert fast.state.clients_of_server == naive.state.clients_of_server, label

    def test_dead_servers_are_the_removed_nodes(self):
        # Two in five arrivals fail at five servers per eight clients, so
        # pruning runs often at the default limit.
        engine = FastSapEngine(gen_random(640, 1024, 3, 1))
        for c in range(engine.n):
            engine.step(c)
            assert engine.dead == dead_server_nodes(engine)
        assert engine.log.brute_failures > 0 and engine.dead

    def test_prune_events_list_what_the_failed_search_reached(self):
        engine = FastSapEngine(gen_random(24, 48, 2, seed=3))
        engine.run()
        assert engine.prune_events
        removed_servers = set().union(*(event.servers for event in engine.prune_events))
        removed_clients = set().union(*(event.clients for event in engine.prune_events))
        assert removed_servers == engine.dead
        assert {engine.n + s for s in removed_servers} | removed_clients == engine.tree.deleted
        assert engine.log.pruned_nodes == len(engine.tree.deleted)


class TestValidationContract:
    """Where the engine checks its sink tree: locally per arrival, by full BFS rarely."""

    # 24 servers for 48 clients: at least half the arrivals fail, so steps
    # insert, delete and prune (remove nodes).
    INSTANCE = gen_random(24, 48, 2, seed=3)

    def test_steps_check_locally_never_by_bfs(self):
        engine = FastSapEngine(self.INSTANCE)
        counts = count_calls(engine.tree, ("validate_against_bfs", "validate_local"))
        for c in range(self.INSTANCE.client_count):
            engine.step(c)
        assert counts == {"validate_against_bfs": 0, "validate_local": self.INSTANCE.client_count}
        assert engine.log.pruned_nodes > 0

    def test_run_checks_by_bfs_once(self):
        engine = FastSapEngine(self.INSTANCE)
        counts = count_calls(engine.tree, ("validate_against_bfs",))
        engine.run()
        assert counts["validate_against_bfs"] == 1

    @pytest.mark.parametrize(
        "instance, matched",
        # The star chain matches all 4,095 arrivals: 8,190 update calls in all.
        [(INSTANCE, 24), (gen_star_chain(90), 4095)],
        ids=["overloaded", "star-chain"],
    )
    def test_steps_update_the_tree_once_per_arrival_and_path(self, instance, matched):
        engine = FastSapEngine(instance)
        counts = count_calls(engine.tree, ("insert_arc", "delete_arc", "attach", "reverse_path"))
        for c in range(instance.client_count):
            engine.step(c)
        assert sum(record.matched for record in engine.log.records) == matched
        assert counts == {"insert_arc": 0, "delete_arc": 0, "attach": instance.client_count, "reverse_path": matched}

    def test_debug_checks_by_bfs_after_every_change(self):
        engine = FastSapEngine(self.INSTANCE, debug=True)
        changes = ("insert_arc", "delete_arc", "delete_node")
        counts = count_calls(engine.tree, ("validate_against_bfs", *changes))
        for c in range(self.INSTANCE.client_count):
            engine.step(c)
        assert all(counts[name] > 0 for name in changes)
        assert counts["validate_against_bfs"] == sum(counts[name] for name in changes)
