"""Exact balanced-load analysis: feasibility, peeling, uniqueness, change laws."""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sapmatch import (
    ArrivalInstance,
    FlowNetwork,
    InvariantViolation,
    PrefixBalance,
    SapEngine,
    balanced_flow,
    brute_max_ratio,
    effective_clients,
    effective_necessities,
    gen_complete,
    gen_minmax_adversary,
    gen_random,
    gen_star_chain,
    hopcroft_karp_size,
    limit_feasible,
    max_flow,
    max_ratio,
    oracle_balanced_flow,
    star_chain_probes,
)
from sapmatch.balance import DemandFlow, _fresh_flow, _peel, _peel_region
from sapmatch.verify import expansion_tail_bound, shortest_tails
from conftest import adjacency_corpus, instance_corpus

COMPLETE_10x20 = gen_complete(10, 20).prefix_adjacency()
TWO_COMPONENTS = {0: (0,), 1: (0,), 2: (1, 2)}  # two clients on one server + one on two
TRIPLE_STAR = {0: (0,), 1: (0,), 2: (0,)}


class TestLimitFeasible:
    def test_complete_half(self):
        assert limit_feasible(COMPLETE_10x20, Fraction(1, 2))

    def test_complete_third_infeasible(self):
        assert not limit_feasible(COMPLETE_10x20, Fraction(1, 3))

    def test_triple_star(self):
        assert limit_feasible(TRIPLE_STAR, Fraction(3))
        assert not limit_feasible(TRIPLE_STAR, Fraction(2))

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError):
            limit_feasible(TRIPLE_STAR, Fraction(0))

    def test_isolated_client_rejected(self):
        with pytest.raises(ValueError):
            limit_feasible({0: ()}, Fraction(1))


class TestMaxRatio:
    def test_complete_10x20(self):
        lam, tight = max_ratio(COMPLETE_10x20)
        assert lam == Fraction(1, 2)
        assert tight == frozenset(range(10))

    def test_complete_10x10(self):
        lam, tight = max_ratio(gen_complete(10, 10).prefix_adjacency())
        assert lam == 1
        assert tight == frozenset(range(10))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_ratio({})

    def test_matches_subset_enumeration(self):
        for adjacency in adjacency_corpus(250, seed=41):
            lam, tight = max_ratio(adjacency)
            want_lam, want_tight = brute_max_ratio(adjacency)
            assert lam == want_lam
            assert tight == want_tight


class TestPeelGuards:
    """A peel search started outside (0, largest ratio] raises instead of returning a peel."""

    def test_start_above_the_largest_ratio_raises(self):
        for adjacency in adjacency_corpus(60, seed=43):
            lam, tight = brute_max_ratio(adjacency)
            flow, client_ids, _ = _fresh_flow(adjacency)
            clients, servers = set(range(len(client_ids))), set(range(len(flow.cap)))
            units = int(lam * flow.scale)
            _, peel = _peel(flow, clients, servers, units)
            assert peel.ratio == lam and {client_ids[c] for c in peel.clients} == tight
            with pytest.raises(InvariantViolation, match="does not attain"):
                _peel(flow, clients, servers, units + 1)

    def test_start_at_zero_raises(self):
        flow, _, _ = _fresh_flow(TWO_COMPONENTS)
        with pytest.raises(InvariantViolation, match="positive ratio"):
            _peel(flow, {0, 1, 2}, {0, 1, 2}, 0)

    def test_floor_above_a_final_ratio_raises(self):
        # The two-client server ends at 2 and the others at 1/2; a floor of
        # 3 on any server starts the first search above every ratio.
        for s in range(3):
            flow, _, _ = _fresh_flow(TWO_COMPONENTS)
            floor = [0, 0, 0]
            floor[s] = 3 * flow.scale
            with pytest.raises(InvariantViolation, match="does not attain"):
                _peel_region(flow, {0, 1, 2}, {0, 1, 2}, floor)


class TestRepeatedNeighbors:
    # A repeated neighbor used to collapse two client->server arcs into one
    # entry of the demand network, so balanced_flow's edge_flow failed check().
    ADJACENCY = {0: (0, 0), 1: (0, 1)}

    @pytest.mark.parametrize(
        "analysis",
        [max_ratio, balanced_flow, lambda adjacency: limit_feasible(adjacency, Fraction(1))],
        ids=["max_ratio", "balanced_flow", "limit_feasible"],
    )
    def test_rejected(self, analysis):
        with pytest.raises(ValueError, match="more than once"):
            analysis(self.ADJACENCY)


class TestFlowCounts:
    """Max flows counted by wrapping the flow functions (``flow_calls``); no clock involved."""

    def test_clients_sharing_one_server_take_one_flow(self, flow_calls):
        lam, tight = max_ratio({c: (0,) for c in range(800)})
        assert lam == 800 and tight == frozenset(range(800))
        assert flow_calls["balance"] == 1

    def test_at_most_one_flow_per_server_plus_one(self, flow_calls):
        larger = instance_corpus(40, seed=2024, max_clients=60, max_servers=40)
        most = 0
        for adjacency in adjacency_corpus(250, seed=41) + [i.prefix_adjacency() for i in larger]:
            before = flow_calls["balance"]
            max_ratio(adjacency)
            used = flow_calls["balance"] - before
            servers = {s for nbrs in adjacency.values() for s in nbrs}
            assert 1 <= used <= len(servers) + 1
            most = max(most, used)
        assert most >= 3  # the iteration does run past its first improvement

    def test_balanced_flow_runs_only_its_ratio_searches(self, flow_calls):
        for adjacency in adjacency_corpus(120, seed=42, max_clients=10):
            before = flow_calls["balance"]
            flow = balanced_flow(adjacency)
            used = flow_calls["balance"] - before
            before = flow_calls["balance"]
            remaining = dict(adjacency)
            for peel in flow.peels:
                max_ratio(remaining)
                remaining = {
                    c: tuple(s for s in nbrs if s not in peel.servers)
                    for c, nbrs in remaining.items()
                    if c not in peel.clients
                }
            assert used == flow_calls["balance"] - before


class TestBalancedFlow:
    def test_complete_10x20_all_half(self):
        flow = balanced_flow(COMPLETE_10x20, server_count=20)
        assert set(flow.necessity.values()) == {Fraction(1, 2)}
        flow.check(COMPLETE_10x20)

    def test_two_components(self):
        flow = balanced_flow(TWO_COMPONENTS, server_count=3)
        assert flow.necessity == {
            0: Fraction(2),
            1: Fraction(1, 2),
            2: Fraction(1, 2),
        }
        assert [p.ratio for p in flow.peels] == [Fraction(2), Fraction(1, 2)]
        flow.check(TWO_COMPONENTS)

    def test_matches_oracle_on_corpus(self):
        for adjacency in adjacency_corpus(120, seed=42, max_clients=10):
            flow = balanced_flow(adjacency)
            flow.check(adjacency)
            assert flow.necessity == oracle_balanced_flow(adjacency)

    def test_unique_under_reversed_orderings(self):
        for adjacency in adjacency_corpus(80, seed=43):
            servers = sorted({s for nbrs in adjacency.values() for s in nbrs})
            smap = {s: max(servers) - s for s in servers}
            clients = sorted(adjacency)
            cmap = {c: max(clients) - c for c in clients}
            mirrored = {
                cmap[c]: tuple(sorted(smap[s] for s in nbrs))
                for c, nbrs in adjacency.items()
            }
            flow = balanced_flow(adjacency)
            mirror_flow = balanced_flow(mirrored)
            assert flow.necessity == {
                s: mirror_flow.necessity[smap[s]] for s in flow.necessity
            }

    @pytest.mark.parametrize("shift", [-10**6, -3, 10**6])
    def test_any_int_ids(self, shift):
        # The kernel takes dense indices: unmapped, a negative id would index
        # its lists from the end and a sparse one would allocate that many slots.
        for adjacency in adjacency_corpus(60, seed=52, max_clients=10):
            moved = {
                2 * c + shift: tuple(3 * s + shift for s in nbrs)
                for c, nbrs in adjacency.items()
            }
            flow = balanced_flow(moved)
            flow.check(moved)
            assert flow.necessity == oracle_balanced_flow(moved)
            assert max_ratio(moved) == brute_max_ratio(moved)

    def test_total_necessity_counts_clients(self):
        for adjacency in adjacency_corpus(40, seed=44):
            flow = balanced_flow(adjacency)
            assert sum(flow.necessity.values()) == len(adjacency)


class TestEffectiveClients:
    def test_triple_star(self):
        inst = ArrivalInstance.build(1, [[0], [0], [0]])
        assert effective_clients(inst) == frozenset({0})
        assert effective_necessities(inst) == {0: Fraction(1)}
        assert balanced_flow(inst.prefix_adjacency()).necessity == {0: Fraction(3)}

    def test_complete_10x20_everyone_effective(self):
        inst = gen_complete(10, 20)
        assert effective_clients(inst) == frozenset(range(10))
        eff = effective_necessities(inst)
        assert set(eff.values()) == {Fraction(1, 2)}

    def test_against_static_maximum_definition(self):
        for inst in instance_corpus(25, seed=45, max_clients=12, max_servers=8):
            neighbors = [inst.neighbors(c) for c in range(inst.client_count)]
            want = frozenset(
                c
                for c in range(inst.client_count)
                if hopcroft_karp_size(neighbors[: c + 1], inst.server_count)
                > hopcroft_karp_size(neighbors[:c], inst.server_count)
            )
            assert effective_clients(inst) == want

    def test_effective_bounded_by_one_and_by_full(self):
        for inst in instance_corpus(20, seed=46, max_clients=10, max_servers=6):
            for t in range(1, inst.client_count + 1):
                eff = effective_necessities(inst, t)
                adjacency = inst.prefix_adjacency(t)
                full = (
                    balanced_flow(adjacency, server_count=inst.server_count).necessity
                    if adjacency
                    else {s: Fraction(0) for s in range(inst.server_count)}
                )
                for s in range(inst.server_count):
                    assert eff[s] <= 1
                    assert eff[s] <= full[s]


class TestChangeLaws:
    def test_monotone_and_local(self):
        for inst in instance_corpus(30, seed=47, max_clients=10, max_servers=6):
            previous = {s: Fraction(0) for s in range(inst.server_count)}
            for t in range(1, inst.client_count + 1):
                adjacency = inst.prefix_adjacency(t)
                current = (
                    balanced_flow(adjacency, server_count=inst.server_count).necessity
                    if adjacency
                    else dict(previous)
                )
                for s in range(inst.server_count):
                    assert current[s] >= previous[s]
                neighbors = inst.neighbors(t - 1)
                if neighbors:
                    gate = min(previous[s] for s in neighbors)
                    for s in range(inst.server_count):
                        if previous[s] < gate:
                            assert current[s] == previous[s]
                previous = current


class TestFullMatchingCharacterization:
    def test_max_necessity_at_most_one_iff_all_matched(self):
        for adjacency in adjacency_corpus(80, seed=48):
            servers = {s for nbrs in adjacency.values() for s in nbrs}
            full = balanced_flow(adjacency).max_necessity() <= 1
            clients = sorted(adjacency)
            size = hopcroft_karp_size([adjacency[c] for c in clients], max(servers) + 1)
            assert full == (size == len(clients))


def assert_stream_matches(instance: ArrivalInstance) -> None:
    """PrefixBalance against a from-scratch balanced_flow, itself certified, on every prefix."""
    stream = PrefixBalance(instance)
    for t in range(1, instance.client_count + 1):
        before = dict(stream.necessity)
        changed = stream.add(t - 1)
        assert len(stream.maxima) == t and stream.maxima[-1] == stream.max_necessity()
        adjacency = instance.prefix_adjacency(t)
        if adjacency:
            want = balanced_flow(adjacency, server_count=instance.server_count)
            want.check(adjacency)
            assert stream.necessity == want.necessity, t
            assert stream.peels == want.peels, t
            assert stream.max_necessity() == want.max_necessity()
        else:
            assert stream.peels == () and stream.max_necessity() == 0
        assert changed == tuple(s for s in sorted(before) if before[s] != stream.necessity[s])


def shuffled_star_chain(depth: int, seed: int) -> ArrivalInstance:
    """gen_star_chain(depth) with its gadgets, each kept whole, in a seeded order."""
    base = gen_star_chain(depth)
    gadgets, start = [], 0
    for probe in star_chain_probes(depth):
        gadgets.append([base.neighbors(c) for c in range(start, probe + 1)])
        start = probe + 1
    random.Random(seed).shuffle(gadgets)
    return ArrivalInstance.build(base.server_count, [nbrs for gadget in gadgets for nbrs in gadget])


class TestKeptPeels:
    """The neighbor-slack test keeps a top peel only when no set holding the new client reaches it."""

    def test_star_chains(self):
        assert_stream_matches(gen_star_chain(24))
        for seed in (3, 8):
            assert_stream_matches(shuffled_star_chain(12, seed))

    def test_slack_of_exactly_one_unit_re_peels(self):
        # Peels before client 3: {0, 1} on server 0 at ratio 2, {2} on server 1
        # at ratio 1.  Client 3 sees server 1 alone: 2 - 1 is exactly one unit
        # of slack, and {0, 1, 2, 3} on servers {0, 1} reaches ratio 2.
        inst = ArrivalInstance.build(3, [[0], [0], [1], [1]])
        assert_stream_matches(inst)
        stream = PrefixBalance(inst)
        for c in range(3):
            stream.add(c)
        kept = stream.kept_peels
        assert stream.add(3) == (1,)
        assert stream.kept_peels == kept
        assert [(p.ratio, p.clients, p.servers) for p in stream.peels] == [(2, {0, 1, 2, 3}, {0, 1})]

    def test_slack_above_one_unit_keeps_the_peel(self):
        # Client 3 also sees the unused server 2: (2 - 1) + (2 - 0) = 3 units of
        # slack keep the top peel.  For the peel at ratio 1 what is left is
        # (1 - 1) + (1 - 0), exactly one unit, and client 3 joins it at ratio 1.
        inst = ArrivalInstance.build(3, [[0], [0], [1], [1, 2]])
        assert_stream_matches(inst)
        stream = PrefixBalance(inst)
        for c in range(3):
            stream.add(c)
        top, kept = stream.peels[0], stream.kept_peels
        assert stream.add(3) == (2,)
        assert stream.kept_peels == kept + 1 and stream.peels[0] is top
        assert [(p.ratio, p.clients, p.servers) for p in stream.peels] == [
            (2, {0, 1}, {0}), (1, {2, 3}, {1, 2})
        ]

    def test_neighbor_in_a_kept_peel_leaves_the_region(self):
        # Client 4 sees server 0 of the kept top peel (ratio 3), server 1 of
        # the peel at ratio 1, and the unused server 2.  The test for that
        # peel sums over servers 1 and 2 alone, and the re-peeled region holds
        # no server of the kept peel, whose load would not fit ratio 1.
        inst = ArrivalInstance.build(3, [[0], [0], [0], [1], [0, 1, 2]])
        assert_stream_matches(inst)
        stream = PrefixBalance(inst)
        for c in range(4):
            stream.add(c)
        top, kept = stream.peels[0], stream.kept_peels
        assert stream.add(4) == (2,)
        assert stream.kept_peels == kept + 1 and stream.peels[0] is top
        assert [(p.ratio, p.clients, p.servers) for p in stream.peels] == [
            (3, {0, 1, 2}, {0}), (1, {3, 4}, {1, 2})
        ]

    def test_kept_peels_repeat_exactly(self):
        def counts():
            stream = PrefixBalance(gen_star_chain(24))
            for c in range(stream.instance.client_count):
                stream.add(c)
            return stream.kept_peels, stream._flow.level_searches

        first = counts()
        assert first == counts()
        assert first[0] > 0


class TestPrefixBalance:
    def test_random_draws(self):
        for seed in range(40):
            assert_stream_matches(gen_random(16, 32, 3, seed))

    def test_star_chains_and_adversary(self):
        for depth in range(1, 11):
            assert_stream_matches(gen_star_chain(depth))
        assert_stream_matches(gen_minmax_adversary(8))

    def test_corpus_with_isolated_clients(self):
        for inst in instance_corpus(60, seed=51, max_clients=20, max_servers=8, min_degree=0):
            assert_stream_matches(inst)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_large_draws(self, seed):
        assert_stream_matches(gen_random(128, 256, 3, seed))

    def test_isolated_client_leaves_the_stream_unchanged(self):
        inst = ArrivalInstance.build(3, [[0, 1], [], [1], [], [2]])
        stream = PrefixBalance(inst)
        stream.add(0)
        peels, necessity = stream.peels, dict(stream.necessity)
        assert stream.add(1) == ()
        assert stream.peels is peels and stream.necessity == necessity
        assert stream.add(2) == (0, 1)
        assert stream.add(3) == ()
        assert stream.add(4) == (2,)
        assert stream.necessity == {0: 1, 1: 1, 2: 1}

    def test_clients_arrive_in_order(self):
        stream = PrefixBalance(gen_random(4, 6, 2, 1))
        with pytest.raises(ValueError, match="in order"):
            stream.add(1)
        stream.add(0)
        with pytest.raises(ValueError, match="in order"):
            stream.add(0)

    def test_client_beyond_the_instance_leaves_the_stream_unchanged(self):
        inst = gen_random(4, 6, 2, 1)
        stream = PrefixBalance(inst)
        for c in range(inst.client_count):
            stream.add(c)
        peels, necessity, units = stream.peels, dict(stream.necessity), list(stream.units)
        with pytest.raises(ValueError, match="beyond the instance"):
            stream.add(inst.client_count)
        assert stream.arrived == inst.client_count
        assert stream.peels is peels and stream.necessity == necessity and stream.units == units
        assert len(stream._flow.neighbors) == inst.client_count

    def test_work_counts_repeat_exactly(self):
        def counts():
            flows = []
            for seed in range(4):
                inst = gen_random(16, 32, 3, seed)
                stream = PrefixBalance(inst)
                for c in range(inst.client_count):
                    stream.add(c)
                flows.append((stream._flow.level_searches, stream._flow.servers_labelled))
            return flows

        first = counts()
        assert first == counts()
        assert all(searches > 0 and labelled >= searches for searches, labelled in first)

    def test_fewer_flows_than_from_scratch(self, flow_calls):
        stream_flows = scratch_flows = 0
        for seed in range(8):
            inst = gen_random(16, 32, 3, seed)
            flow_calls.clear()
            stream = PrefixBalance(inst)
            for c in range(inst.client_count):
                stream.add(c)
            stream_flows += flow_calls["balance"]
            flow_calls.clear()
            for t in range(1, inst.client_count + 1):
                balanced_flow(inst.prefix_adjacency(t))
            scratch_flows += flow_calls["balance"]
        # 373 against 525 on these draws; every arrival takes at least one.
        assert 256 <= stream_flows <= 400 < scratch_flows


def _check_demand_flow(flow: DemandFlow) -> None:
    """Every client ships at most the scale, only to neighbors; loads fit and mirror the shipments."""
    for c, nbrs in enumerate(flow.neighbors):
        assert set(flow.ships[c]) <= set(nbrs)
        assert all(units > 0 for units in flow.ships[c].values())
        assert flow.sent[c] == sum(flow.ships[c].values()) <= flow.scale
    for s, into in enumerate(flow.fed):
        assert into == {c: flow.ships[c][s] for c in range(len(flow.ships)) if s in flow.ships[c]}
        assert flow.load[s] == sum(into.values()) <= flow.cap[s]


def _warm(flow: DemandFlow, rng: random.Random, clients: set[int], servers: set[int]) -> None:
    """A warm flow that fits: a maximum at lower capacities, partly taken back, capacities raised."""
    for s in servers:
        flow.raise_caps([s], rng.randint(0, 2 * flow.scale))
    flow.max_flow(clients, servers)
    flow.clear(rng.sample(sorted(clients), rng.randint(0, len(clients))))
    for s in servers:
        flow.raise_caps([s], flow.cap[s] + rng.randint(0, flow.scale))


def _assert_matches_flownet(flow: DemandFlow, clients: set[int], servers: set[int]) -> None:
    """max_flow and stuck on a region against FlowNetwork + max_flow on the region's own network."""
    short, reached, hood = flow.max_flow(clients, servers)
    _check_demand_flow(flow)
    cnode = {c: 2 + i for i, c in enumerate(sorted(clients))}
    snode = {s: 2 + len(clients) + j for j, s in enumerate(sorted(servers))}
    net = FlowNetwork(2 + len(clients) + len(servers), 0, 1)
    for c, node in cnode.items():
        net.add_arc(0, node, flow.scale)
        for s in flow.neighbors[c]:
            if s in servers:
                net.add_arc(node, snode[s], flow.scale * len(clients) + 1)
    for s, node in snode.items():
        net.add_arc(node, 1, flow.cap[s])
    result = max_flow(net)
    assert result.value == flow.scale * len(clients) - short
    low = {c for c, node in cnode.items() if node in result.min_cut_source_side()}
    high_side = result.max_cut_source_side()
    high = {c for c, node in cnode.items() if node in high_side}
    assert set(reached) == low
    assert hood == len({s for c in low for s in flow.neighbors[c] if s in servers})
    cut_servers = {s for s, node in snode.items() if node in high_side}
    assert flow.stuck(clients, servers) == (high, cut_servers)
    if all(flow.cap[s] > 0 for s in servers):
        assert cut_servers == {s for c in high for s in flow.neighbors[c] if s in servers}


class TestDemandFlow:
    """The peel searches' kernel against FlowNetwork + max_flow on the same demand network."""

    def test_matches_flownet_from_warm_flows(self):
        rng = random.Random(61)
        for _ in range(300):
            servers = rng.randint(1, 6)
            flow = DemandFlow(servers, rng.randint(1, 12))
            for _ in range(rng.randint(1, 8)):
                flow.add_client(tuple(rng.sample(range(servers), rng.randint(1, servers))))
            clients, all_servers = set(range(len(flow.neighbors))), set(range(servers))
            _warm(flow, rng, clients, all_servers)
            _assert_matches_flownet(flow, clients, all_servers)

    def test_matches_flownet_on_a_region_beside_a_full_peel(self):
        # Every search after a peel loop's first runs on such a region: the
        # peel found fills its own servers with its own clients' flow, and the
        # clients left may neighbor those servers.
        rng = random.Random(62)
        for _ in range(300):
            full, room = rng.randint(1, 4), rng.randint(1, 5)
            flow = DemandFlow(full + room, rng.randint(1, 12))
            peel_servers, servers = range(full), set(range(full, full + room))
            peel = {
                flow.add_client(tuple(rng.sample(peel_servers, rng.randint(1, full))))
                for _ in range(rng.randint(1, 6))
            }
            flow.raise_caps(peel_servers, flow.scale * len(peel))
            assert flow.max_flow(peel, set(peel_servers))[0] == 0
            flow.cap[:full] = flow.load[:full]
            clients = set()
            for _ in range(rng.randint(1, 8)):
                nbrs = rng.sample(sorted(servers), rng.randint(1, room))
                nbrs += rng.sample(peel_servers, rng.randint(0, full))
                rng.shuffle(nbrs)
                clients.add(flow.add_client(tuple(nbrs)))
            kept = [dict(flow.ships[c]) for c in peel]
            _warm(flow, rng, clients, servers)
            _assert_matches_flownet(flow, clients, servers)
            assert [flow.ships[c] for c in peel] == kept
            assert flow.load[:full] == flow.cap[:full]

    def test_level_graph_deeper_than_the_recursion_limit(self):
        # Client i ships into server i and also neighbors server i + 1; the
        # last server is full until the new client arrives at server 0, whose
        # only augmenting path runs down the whole chain.
        depth = sys.getrecursionlimit() + 10
        flow = DemandFlow(depth + 1, 1)
        for i in range(depth):
            flow.add_client((i, i + 1))
        chain, servers = set(range(depth)), set(range(depth + 1))
        flow.raise_caps(range(depth), 1)
        assert flow.max_flow(chain, servers)[0] == 0
        newcomer = flow.add_client((0,))
        flow.raise_caps([depth], 1)
        assert flow.max_flow(chain | {newcomer}, servers) == (0, [], 0)
        assert all(flow.ships[i] == {i + 1: 1} for i in range(depth))
        assert flow.ships[newcomer] == {0: 1}
        assert flow.stuck(chain | {newcomer}, servers) == (chain | {newcomer}, servers)
        _check_demand_flow(flow)

    def test_direct_fill_takes_no_level_search(self):
        # Every short client finds room enough among its own neighbors, so
        # the fill alone reaches the maximum, and the cut holds no client.
        rng = random.Random(63)
        for _ in range(200):
            servers = rng.randint(1, 6)
            flow = DemandFlow(servers, rng.randint(1, 12))
            for _ in range(rng.randint(1, 8)):
                flow.add_client(tuple(rng.sample(range(servers), rng.randint(1, servers))))
            clients, all_servers = set(range(len(flow.neighbors))), set(range(servers))
            flow.raise_caps(all_servers, flow.scale * len(clients))
            _assert_matches_flownet(flow, clients, all_servers)
            assert flow.level_searches == flow.servers_labelled == 0
            assert all(sent == flow.scale for sent in flow.sent)

    def test_raise_caps_rejects_a_flow_that_no_longer_fits(self):
        flow = DemandFlow(1, 4)
        client = flow.add_client((0,))
        flow.raise_caps([0], 3)
        assert flow.max_flow({client}, {0}) == (1, [client], 1)
        with pytest.raises(InvariantViolation, match="server 0"):
            flow.raise_caps([0], 2)


def _grid_load_vectors(adjacency, servers, units):
    """All per-server load vectors realizable with every client split into `units` parts."""
    states = {tuple([0] * len(servers)): None}
    index = {s: i for i, s in enumerate(servers)}
    for c in sorted(adjacency):
        nbrs = adjacency[c]
        options = []
        for split in itertools.product(range(units + 1), repeat=len(nbrs)):
            if sum(split) == units:
                options.append(split)
        new_states = set()
        for state in states:
            for split in options:
                vec = list(state)
                for s, amount in zip(nbrs, split):
                    vec[index[s]] += amount
                new_states.add(tuple(vec))
        states = dict.fromkeys(new_states)
    return states


class TestSquaredLoadOptimality:
    def test_balanced_minimizes_sum_of_squares_on_grid(self):
        # Every realizable spread on the 1/|S|! grid is dominated: the balanced
        # loads alpha satisfy sum(alpha^2) <= sum(alpha * beta) <= sum(beta^2).
        for adjacency in adjacency_corpus(8, seed=49, max_clients=4, max_servers=3):
            servers = sorted({s for nbrs in adjacency.values() for s in nbrs})
            units = math.factorial(len(servers))
            alpha = balanced_flow(adjacency).necessity
            avec = [alpha[s] for s in servers]
            for state in _grid_load_vectors(adjacency, servers, units):
                beta = [Fraction(x, units) for x in state]
                dot = sum(a * b for a, b in zip(avec, beta))
                assert sum(a * a for a in avec) <= dot
                assert sum(a * a for a in avec) <= sum(b * b for b in beta)


class TestExpansionTails:
    def test_corrected_bound_holds_on_replays(self):
        for inst in instance_corpus(25, seed=50, max_clients=10, max_servers=6):
            engine = SapEngine(inst)
            for t in range(1, inst.client_count + 1):
                engine.step(t - 1)
                eff = effective_necessities(inst, t)
                count = len(effective_clients(inst, t))
                tails = shortest_tails(inst, engine.state)
                for s in range(inst.server_count):
                    if eff[s] >= 1:
                        continue
                    bound = expansion_tail_bound(1 - eff[s], count)
                    assert tails[s] is not None
                    assert tails[s] <= bound

    def test_tight_two_client_case(self):
        # Server 0 ends at necessity 1/2 with shortest tail 4: exactly the
        # corrected bound 2*(floor(2 ln 2) + 1) = 4, and strictly above the
        # naive bound (2/eps) * ln|effective| = 4 ln 2 ~ 2.77.  This witness
        # is why acceptance criterion 6 uses the corrected constant.
        inst = ArrivalInstance.build(4, [[0, 1], [1, 2, 3]])
        engine = SapEngine(inst)
        engine.step(0)
        engine.step(1)
        eff = effective_necessities(inst, 2)
        assert eff[0] == Fraction(1, 2)
        tails = shortest_tails(inst, engine.state)
        assert tails[0] == 4
        eps = 1 - eff[0]
        assert tails[0] <= expansion_tail_bound(eps, 2)
        assert tails[0] > float(2 / eps) * math.log(2)

    def test_fully_necessary_server_has_no_tail(self):
        inst = ArrivalInstance.build(1, [[0], [0]])
        engine = SapEngine(inst)
        engine.step(0)
        engine.step(1)
        assert effective_necessities(inst, 2) == {0: Fraction(1)}
        assert shortest_tails(inst, engine.state) == [None]


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 5),
        st.frozensets(st.integers(0, 4), min_size=1, max_size=5),
        min_size=1,
        max_size=6,
    )
)
def test_property_balanced_flow_agrees_with_oracle(raw):
    adjacency = {c: tuple(sorted(nbrs)) for c, nbrs in raw.items()}
    flow = balanced_flow(adjacency)
    flow.check(adjacency)
    assert flow.necessity == oracle_balanced_flow(adjacency)
    # The same clients as an arrival stream, in ascending order: every prefix.
    instance = ArrivalInstance.build(5, [adjacency[c] for c in sorted(adjacency)])
    assert_stream_matches(instance)
