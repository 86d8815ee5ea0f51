"""Baseline engine: arrivals, shortest augmenting paths, augmentation, run logs."""

from __future__ import annotations

import copy
import pickle
import random
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings

from sapmatch import (
    ArrivalInstance,
    ArrivalRecord,
    AugPath,
    EpochRecord,
    FastSapEngine,
    InvariantViolation,
    MatchState,
    RunLog,
    SapEngine,
    balance,
    effective_necessities,
    extensions,
    fast_engine,
    flip_path,
    gen_minmax_adversary,
    gen_random,
    gen_star_chain,
    hopcroft_karp_size,
    oracle_shortest_aug_path,
    run_minmax,
    run_sap,
    run_semi_matching,
)
from conftest import instance_corpus, small_instances


def exhaustive_shortest_alternating(
    neighbors: Sequence[Sequence[int]],
    assignment: Sequence[Optional[int]],
    start: int,
) -> Optional[int]:
    """Enumerate every simple alternating path from `start`; min edges to a free server."""
    occupant: dict[int, int] = {}
    for c, s in enumerate(assignment):
        if s is not None:
            occupant[s] = c
    best: Optional[int] = None

    def from_client(c: int, used_servers: set[int], used_clients: set[int], edges: int):
        nonlocal best
        for s in neighbors[c]:
            if s == assignment[c] or s in used_servers:
                continue
            if s not in occupant:
                if best is None or edges + 1 < best:
                    best = edges + 1
                continue
            c2 = occupant[s]
            if c2 in used_clients:
                continue
            from_client(c2, used_servers | {s}, used_clients | {c2}, edges + 2)

    from_client(start, set(), {start}, 0)
    return best


class TestArrive:
    def test_first_arrival(self):
        inst = ArrivalInstance.build(2, [[0], [1]])
        eng = SapEngine(inst)
        eng.arrive(0)
        assert eng.state.arrived_count == 1
        assert eng.state.matched_count() == 0

    def test_double_arrival_rejected(self):
        eng = SapEngine(ArrivalInstance.build(2, [[0], [1]]))
        eng.arrive(0)
        with pytest.raises(ValueError):
            eng.arrive(0)

    def test_out_of_order_arrival_rejected(self):
        inst = ArrivalInstance.build(3, [[0], [1], [2], [0], [1], [2]])
        eng = SapEngine(inst)
        for c in range(4):
            eng.arrive(c)
        with pytest.raises(ValueError):
            eng.arrive(5)


class TestShortestAugPath:
    def test_direct_edge(self):
        eng = SapEngine(ArrivalInstance.build(1, [[0]]))
        eng.arrive(0)
        path = eng.shortest_aug_path(0)
        assert path.vertices == (0, 0)
        assert path.edge_count == 1

    def test_saturated_component(self):
        eng = SapEngine(ArrivalInstance.build(1, [[0], [0]]))
        eng.step(0)
        eng.arrive(1)
        assert eng.shortest_aug_path(1) is None

    def test_not_arrived_rejected(self):
        eng = SapEngine(ArrivalInstance.build(1, [[0]]))
        with pytest.raises(ValueError):
            eng.shortest_aug_path(0)

    def test_matched_client_rejected(self):
        eng = SapEngine(ArrivalInstance.build(1, [[0]]))
        eng.step(0)
        with pytest.raises(ValueError):
            eng.shortest_aug_path(0)

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(99)
        for _ in range(150):
            servers = rng.randint(1, 8)
            clients = rng.randint(1, 8)
            lists = [
                sorted(rng.sample(range(servers), rng.randint(0, servers)))
                for _ in range(clients)
            ]
            inst = ArrivalInstance.build(servers, lists)
            eng = SapEngine(inst)
            neighbors = [inst.neighbors(c) for c in range(clients)]
            for c in range(clients):
                eng.arrive(c)
                want = exhaustive_shortest_alternating(
                    neighbors, eng.state.server_of_client, c
                )
                path = eng.shortest_aug_path(c)
                got = None if path is None else path.edge_count
                assert got == want
                if path is not None:
                    eng.augment(path)


class TestAugment:
    def test_replacement_arithmetic(self):
        # One gadget per path length: 1, 3, and 5 edges.
        from sapmatch import gen_star_chain

        _, log = run_sap(gen_star_chain(3))
        by_len = {r.path_edges: r.replacements for r in log.records}
        assert by_len[1] == 0
        assert by_len[3] == 1
        assert by_len[5] == 2

    def test_matching_grows_by_one(self):
        inst = ArrivalInstance.build(2, [[0, 1], [0]])
        eng = SapEngine(inst)
        eng.step(0)
        eng.arrive(1)
        before = eng.state.matched_count()
        path = eng.shortest_aug_path(1)
        assert path.edge_count == 3
        assert eng.augment(path) == 1
        assert eng.state.matched_count() == before + 1
        eng.state.check_consistent()

    def test_stale_path_rejected(self):
        inst = ArrivalInstance.build(2, [[0], [0, 1]])
        eng = SapEngine(inst)
        eng.arrive(0)
        path = eng.shortest_aug_path(0)
        eng.augment(path)
        with pytest.raises(ValueError):
            eng.augment(path)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            AugPath((0,))
        with pytest.raises(ValueError):
            AugPath((0, 1, 2))


class TestRunSap:
    def test_star_only_first_matches(self):
        _, log = run_sap(ArrivalInstance.build(1, [[0], [0], [0]]))
        assert [r.matched for r in log.records] == [True, False, False]
        assert log.total_replacements == 0

    def test_complete_4x4_no_replacements(self):
        from sapmatch import gen_complete

        state, log = run_sap(gen_complete(4, 4))
        assert log.matched_count() == 4
        assert log.total_replacements == 0
        # smallest-index tie-break: client i sits on server i
        assert state.server_of_client == [0, 1, 2, 3]

    def test_capacitated_instance_rejected(self):
        inst = ArrivalInstance.build(1, [[0]], capacities=[2])
        with pytest.raises(ValueError):
            run_sap(inst)

    def test_prefix_sizes_match_static_maximum(self, medium_corpus):
        for inst in medium_corpus:
            eng = SapEngine(inst)
            neighbors: list[tuple[int, ...]] = []
            size = 0
            for c in range(inst.client_count):
                neighbors.append(inst.neighbors(c))
                size += 1 if eng.step(c).matched else 0
                assert size == hopcroft_karp_size(neighbors, inst.server_count)

    def test_matched_clients_stay_matched(self, medium_corpus):
        for inst in medium_corpus[:10]:
            eng = SapEngine(inst)
            matched_at_arrival: list[bool] = []
            for c in range(inst.client_count):
                matched_at_arrival.append(eng.step(c).matched)
                for other in range(c + 1):
                    # matched iff it was matched the moment it arrived
                    assert (eng.state.server_of_client[other] is not None) == (
                        matched_at_arrival[other]
                    )


class TestRunLog:
    def test_cumulative_fields_are_sums(self, medium_corpus):
        for inst in medium_corpus[:8]:
            _, log = run_sap(inst)
            assert log.total_replacements == sum(r.replacements for r in log.records)
            assert log.total_path_edges == sum(r.path_edges or 0 for r in log.records)


# Paths that ``flip_path`` must reject, on ``TestKeptChecks.one_matched``'s
# state, with the message it must give.
STALE_PATHS = [
    ((1, 0, 0, 1), r"absent edge \(0,1\)"),
    ((0, 0), "arrived, unmatched client"),  # start already matched
    ((2, 1), "arrived, unmatched client"),  # start not arrived yet
    ((1, 0, 0, 0), "unmatched edge into the server"),
    ((1, 1, 0, 0), "matched edge out of the server"),
    ((1, 1, 2, 1), "matched edge out of the server"),  # client 2 not arrived yet
    ((1, 0), "terminal server has no spare capacity"),
    # Two faults: an absent edge goes first, wherever it is ...
    ((2, 0), r"absent edge \(2,0\)"),  # with a start not arrived yet
    ((1, 1, 0, 0, 2, 0), r"absent edge \(2,0\)"),  # after a stale hop
    ((1, 1, 3, 0), r"absent edge \(3,0\)"),  # client 3 is beyond the instance
    # ... and of the others, the first along the path.
    ((0, 0, 0, 0), "arrived, unmatched client"),
    ((1, 1, 0, 0, 0, 0), "matched edge out of the server"),
]
STALE_PATH_IDS = [
    "absent-edge", "start-matched", "start-not-arrived", "matched-edge-in", "unmatched-edge-out",
    "interior-not-arrived", "terminal-full", "absent-edge-and-start-not-arrived",
    "absent-edge-after-stale-hop", "beyond-the-instance", "start-before-edge-in",
    "first-stale-hop",
]


class TestKeptChecks:
    """Every check on the per-arrival path raises, and raises before any change."""

    @pytest.mark.parametrize("edges", [0, 2, -1])
    def test_record_rejects_even_or_nonpositive_edge_counts(self, edges):
        log = RunLog()
        with pytest.raises(ValueError, match="odd, positive"):
            log.record(0, edges)
        assert log == RunLog()

    def test_augment_rejects_an_absent_edge(self):
        eng = SapEngine(ArrivalInstance.build(2, [[0]]))
        eng.arrive(0)
        with pytest.raises(ValueError, match="absent edge"):
            eng.augment(AugPath((0, 1)))
        assert eng.state.server_of_client == [None]
        assert eng.state.clients_of_server == [[], []]

    @staticmethod
    def one_matched():
        """Client 0 (neighbor 0) on server 0; client 1 (neighbors 0 and 1) arrived,
        unmatched; client 2 (neighbor 1) not arrived."""
        eng = SapEngine(ArrivalInstance.build(2, [[0], [0, 1], [1]]))
        eng.step(0)
        eng.arrive(1)
        return eng

    def assert_untouched(self, eng: SapEngine) -> None:
        assert eng.state.server_of_client == [0, None]
        assert eng.state.clients_of_server == [[0], []]
        assert eng.state.arrived_count == 2

    @pytest.mark.parametrize("vertices, message", STALE_PATHS, ids=STALE_PATH_IDS)
    def test_flip_path_rejects_stale_paths(self, vertices, message):
        eng = self.one_matched()
        with pytest.raises(ValueError, match=message):
            flip_path(eng.state, AugPath(vertices), eng.instance.arrivals)
        self.assert_untouched(eng)

    @pytest.mark.parametrize("vertices, message", STALE_PATHS, ids=STALE_PATH_IDS)
    def test_augment_rejects_stale_paths(self, vertices, message):
        eng = self.one_matched()
        with pytest.raises(ValueError, match=message):
            eng.augment(AugPath(vertices))
        self.assert_untouched(eng)

    @staticmethod
    def apply(eng: SapEngine, path: AugPath, via: str) -> int:
        if via == "augment":
            return eng.augment(path)
        return flip_path(eng.state, path, eng.instance.arrivals)

    @pytest.mark.parametrize("via", ["flip_path", "augment"])
    @pytest.mark.parametrize("vertices", [(0,), (0, 1, 2)], ids=["one-vertex", "odd-length"])
    def test_paths_built_past_the_constructor_are_shape_checked(self, vertices, via):
        eng = self.one_matched()
        path = tuple.__new__(AugPath, (vertices,))
        with pytest.raises(ValueError, match="alternates client,server,... and ends at a server"):
            self.apply(eng, path, via)
        self.assert_untouched(eng)

    @pytest.mark.parametrize("via", ["flip_path", "augment"])
    def test_a_repeated_server_is_rejected(self, via):
        # Every hop is sound and server 2 is free, but server 0 comes twice:
        # applied, the path would leave clients 0 and 2 both on it.
        eng = SapEngine(ArrivalInstance.build(3, [[0], [0, 1, 2], [0, 1]]))
        for c in range(3):
            eng.arrive(c)
        eng.augment(AugPath((1, 0)))
        eng.augment(AugPath((2, 1)))
        with pytest.raises(ValueError, match="path visits a server twice"):
            self.apply(eng, AugPath((0, 0, 1, 1, 2, 0, 1, 2)), via)
        assert eng.state.server_of_client == [None, 0, 1]
        assert eng.state.clients_of_server == [[1], [2], []]
        eng.state.check_consistent()

    def test_fast_engine_rejects_a_corrupted_tree_path(self):
        eng = FastSapEngine(ArrivalInstance.build(2, [[0], [1]]))
        # The tree's path for client 0 runs through server 1, which it does not neighbor.
        eng.tree.path_to_sink = lambda v: [v, eng.n + 1, eng.sink]
        with pytest.raises(ValueError, match=r"absent edge \(0,1\)"):
            eng.step(0)
        assert eng.state.server_of_client == [None]
        assert eng.state.clients_of_server == [[], []]
        assert eng.log.records == []


class TestCheckConsistent:
    """Each of MatchState.check_consistent's checks fires on its own corruption."""

    @staticmethod
    def two_matched() -> MatchState:
        """Clients 0 and 1 on server 0 (capacity 2); server 1 empty."""
        return MatchState([0, 0], [[0, 1], []], (2, 1), 2)

    def test_consistent_state_passes(self):
        self.two_matched().check_consistent()

    def test_client_missing_from_its_server(self):
        state = self.two_matched()
        state.clients_of_server[0].remove(1)
        with pytest.raises(InvariantViolation, match="client 1 thinks it is on server 0"):
            state.check_consistent()

    def test_server_over_capacity(self):
        state = self.two_matched()
        state.capacity = (1, 1)
        with pytest.raises(InvariantViolation, match="server 0 exceeds its capacity"):
            state.check_consistent()

    def test_listed_client_names_another_server(self):
        state = self.two_matched()
        state.clients_of_server[1].append(1)
        with pytest.raises(InvariantViolation, match="server 1 lists client 1, client disagrees"):
            state.check_consistent()

    def test_unsorted_client_list(self):
        state = self.two_matched()
        state.clients_of_server[0].reverse()
        with pytest.raises(InvariantViolation, match="client list of server 0 is not sorted"):
            state.check_consistent()


class TestValueTypes:
    def test_arrival_record_fields_in_order_and_immutable(self):
        assert ArrivalRecord._fields == ("client", "matched", "path_edges", "replacements")
        rec = RunLog().record(3, 5)
        assert type(rec) is ArrivalRecord
        assert rec == ArrivalRecord(3, True, 5, 2)
        assert tuple(rec) == (3, True, 5, 2)
        assert repr(rec) == "ArrivalRecord(client=3, matched=True, path_edges=5, replacements=2)"
        assert RunLog().record(4, None) == ArrivalRecord(4, False, None, 0)
        with pytest.raises(AttributeError):
            rec.matched = False

    def test_aug_path_immutable(self):
        path = AugPath((0, 1))
        with pytest.raises(AttributeError):
            path.vertices = (0, 2)
        with pytest.raises(AttributeError):
            del path.vertices
        with pytest.raises(AttributeError):
            path.extra = 1
        assert path.vertices == (0, 1)

    def test_aug_path_equality_by_vertices(self):
        a, b = AugPath((2, 1, 0, 3)), AugPath(tuple([2, 1, 0, 3]))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != AugPath((2, 1, 0, 4))
        assert a != (2, 1, 0, 3)
        assert repr(a) == "AugPath(vertices=(2, 1, 0, 3))"
        assert pickle.loads(pickle.dumps(a)) == a
        assert copy.deepcopy(a) == a

    @pytest.mark.parametrize("edges", [1, 3, 5])
    def test_aug_path_counts(self, edges):
        path = AugPath(tuple(range(edges + 1)))
        assert path.edge_count == edges
        assert path.replacements == (edges - 1) // 2


    def test_engine_paths_are_plain_aug_paths(self, monkeypatch):
        # The engines build paths past the constructor; they are still AugPath values.
        inst = gen_star_chain(5)
        naive = SapEngine(inst)
        paths = record_paths(naive)
        naive.run()
        # the naive first-layer exit, and walk-backs of 3 to 9 edges
        assert {path.edge_count for path in paths} == {1, 3, 5, 7, 9}
        fast = FastSapEngine(inst, depth_limit=2 * inst.client_count)
        applied = []

        def recording(state, path, arrivals):
            applied.append(path)
            return flip_path(state, path, arrivals)

        monkeypatch.setattr(fast_engine, "flip_path", recording)
        fast.run()
        assert fast.log.tree_paths == len(applied) == inst.client_count
        for path in paths + applied:
            assert type(path) is AugPath
            assert path == AugPath(path.vertices)


def unpruned_engine(inst: ArrivalInstance) -> SapEngine:
    """The same engine on a shared capacity list, which turns pruning off."""
    return SapEngine(inst, capacity=[inst.capacity(s) for s in range(inst.server_count)])


def with_capacity(inst: ArrivalInstance, units: int) -> ArrivalInstance:
    return ArrivalInstance(inst.server_count, inst.arrivals, (units,) * inst.server_count)


class TestDeadServerPruning:
    @pytest.mark.parametrize(
        "build, min_dead",
        [
            (lambda: gen_random(2560, 4096, 3, seed=3), 2000),
            # the same overload with two slots per server: a quarter of the servers
            (lambda: with_capacity(gen_random(640, 2048, 3, seed=3), 2), 500),
            (lambda: gen_star_chain(40), 0),
            (lambda: gen_minmax_adversary(16), 16),
        ],
        ids=["random-4096", "random-2048-capacity-2", "star-chain-40", "adversary-16"],
    )
    def test_same_run_as_unpruned(self, build, min_dead):
        inst = build()
        engine = SapEngine(inst)
        state, log = engine.run()
        reference = unpruned_engine(inst)
        ref_state, ref_log = reference.run()
        assert reference.dead is None
        assert log.records == ref_log.records
        assert state.server_of_client == ref_state.server_of_client
        assert state.clients_of_server == ref_state.clients_of_server
        assert len(engine.dead) >= min_dead
        if min_dead == 0:  # no search fails on star chains
            assert engine.dead == set()

    def test_lengths_match_oracle(self):
        rng = random.Random(808)
        corpus = instance_corpus(100, seed=808, max_clients=80, max_servers=30, max_degree=3)
        corpus = [
            inst if i % 2 else ArrivalInstance(
                inst.server_count,
                inst.arrivals,
                tuple(rng.randint(1, 3) for _ in range(inst.server_count)),
            )
            for i, inst in enumerate(corpus)
        ]
        dead = 0
        for inst in corpus:
            engine = SapEngine(inst)
            neighbors = [inst.neighbors(c) for c in range(inst.client_count)]
            for c in range(inst.client_count):
                snapshot = list(engine.state.server_of_client) + [None]
                rec = engine.step(c)
                assert rec.path_edges == oracle_shortest_aug_path(
                    neighbors, snapshot, engine.state.capacity, c
                )
            dead += len(engine.dead)
        assert dead >= 500  # the corpus must actually prune

    def test_dead_servers_fully_necessary(self):
        corpus = instance_corpus(25, seed=71, max_clients=30, max_servers=10, max_degree=2)
        joined = 0
        for inst in corpus:
            engine = SapEngine(inst)
            for c in range(inst.client_count):
                before = set(engine.dead)
                engine.step(c)
                new = engine.dead - before
                if new:
                    joined += len(new)
                    necessity = effective_necessities(inst, c + 1)
                    assert all(necessity[s] == 1 for s in new)
        assert joined >= 50  # the corpus must actually exercise pruning

    def test_failed_searches_visit_each_server_once(self):
        corpus = instance_corpus(25, seed=72, max_clients=40, max_servers=12, max_degree=2)
        corpus.append(gen_random(640, 1024, 3, seed=5))
        dead = 0
        for inst in corpus:
            engine = SapEngine(inst)
            failed_visits = 0
            for c in range(inst.client_count):
                start, before = engine.servers_visited, len(engine.dead)
                if not engine.step(c).matched:
                    reached = engine.servers_visited - start
                    # every server reached was live before and is dead after
                    assert reached == len(engine.dead) - before
                    failed_visits += reached
            assert failed_visits == len(engine.dead) <= inst.server_count
            dead += len(engine.dead)
        assert dead >= 500  # the corpus must actually prune

        # without pruning, failed searches rescan the dead region many times
        inst = corpus[-1]
        reference = unpruned_engine(inst)
        unpruned_failed_visits = 0
        for c in range(inst.client_count):
            start = reference.servers_visited
            if not reference.step(c).matched:
                unpruned_failed_visits += reference.servers_visited - start
        assert unpruned_failed_visits > 10 * inst.server_count


class WalkBack:
    """The reference path rule: layer distances and a scan back from the free server.

    Every server keeps the arrived clients adjacent to it, ascending.  The
    walk back from the free server takes, at each server, the first client
    in that list that sits one layer earlier and whose unmatched edge enters
    the server.  Written out in full so that it shares no code with the
    search under test.  Mixed into an engine class, it replaces that
    engine's search and keeps the server lists on arrival.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.server_adj: list[list[int]] = [[] for _ in range(self.instance.server_count)]

    def arrive(self, client: int) -> tuple[int, ...]:
        neighbors = super().arrive(client)
        for s in neighbors:
            self.server_adj[s].append(client)
        return neighbors

    def shortest_aug_path(self, client: int) -> Optional[AugPath]:
        state = self.state
        dead = self.dead if self.dead is not None else ()
        dist_client: dict[int, int] = {client: 0}
        dist_server: dict[int, int] = {}
        frontier = [client]
        depth = 0
        target: Optional[int] = None
        while frontier:
            new_servers = []
            for c in frontier:
                own = state.server_of_client[c]
                for s in self.instance.neighbors(c):
                    if s != own and s not in dist_server and s not in dead:
                        dist_server[s] = depth + 1
                        new_servers.append(s)
            free = [s for s in new_servers if state.is_free(s)]
            if free:
                target = min(free)
                depth += 1
                break
            next_clients = []
            for s in new_servers:
                for c in state.clients_of_server[s]:
                    if c not in dist_client:
                        dist_client[c] = depth + 2
                        next_clients.append(c)
            frontier = next_clients
            depth += 2
        self.servers_visited += len(dist_server)
        if target is None:
            if self.dead is not None:
                self._retire(client, dist_server)
            return None

        reversed_vertices = [target]
        server, d = target, depth
        while True:
            prev = None
            for c in self.server_adj[server]:
                if dist_client.get(c) == d - 1 and state.server_of_client[c] != server:
                    prev = c
                    break
            assert prev is not None, "BFS layers must admit a predecessor"
            reversed_vertices.append(prev)
            d -= 1
            if d == 0:
                break
            server = state.server_of_client[prev]
            assert server is not None and dist_server.get(server) == d - 1
            reversed_vertices.append(server)
            d -= 1
        return AugPath(tuple(reversed(reversed_vertices)))


class WalkBackSapEngine(WalkBack, SapEngine):
    pass


class WalkBackFastSapEngine(WalkBack, FastSapEngine):
    pass


def record_paths(engine: SapEngine) -> list[Optional[AugPath]]:
    """Collect what each of the engine's searches returns."""
    paths: list[Optional[AugPath]] = []
    search = engine.shortest_aug_path

    def recording(client: int) -> Optional[AugPath]:
        path = search(client)
        paths.append(path)
        return path

    engine.shortest_aug_path = recording
    return paths


def assert_lockstep(engine: SapEngine, reference: SapEngine, grow=None) -> None:
    """Step both engines over every arrival and compare them after each one.

    ``grow(client)``, if given, runs before each arrival (it may grow a
    capacity list both engines share).
    """
    paths, ref_paths = record_paths(engine), record_paths(reference)
    for c in range(engine.instance.client_count):
        if grow is not None:
            grow(c)
        assert engine.step(c) == reference.step(c)
        assert paths == ref_paths
        paths.clear()
        ref_paths.clear()
        assert_same_state(engine, reference)
    assert engine.log == reference.log


def assert_same_state(engine: SapEngine, reference: SapEngine) -> None:
    assert engine.state.server_of_client == reference.state.server_of_client
    assert engine.state.clients_of_server == reference.state.clients_of_server
    assert engine.dead == reference.dead
    assert engine.servers_visited == reference.servers_visited


def minmax_lockstep(engine: SapEngine, reference: SapEngine, caps: list[int]) -> list[EpochRecord]:
    """Step both engines by ``run_minmax``'s rule and compare them after each arrival.

    Both engines read ``caps``.  When the searches fail, every entry rises
    by one (a new epoch) and the client goes to its smallest-index neighbor.
    Returns the epochs.
    """
    epochs: list[EpochRecord] = []
    for c in range(engine.instance.client_count):
        neighbors = engine.arrive(c)
        assert reference.arrive(c) == neighbors
        path = None
        if neighbors:
            path = engine.shortest_aug_path(c)
            assert reference.shortest_aug_path(c) == path
            if path is None:
                caps[:] = [len(epochs) + 1] * len(caps)
                epochs.append(EpochRecord(len(epochs) + 1, c))
                path = AugPath((c, neighbors[0]))
        for eng in (engine, reference):
            if path is not None:
                eng.augment(path)
            eng.log.record(c, None if path is None else path.edge_count)
        assert engine.log.records[-1] == reference.log.records[-1]
        assert_same_state(engine, reference)
    assert engine.log == reference.log
    return epochs


class TestFirstDiscovererPaths:
    """The path read off first discoverers equals the walk-back path."""

    def test_second_layer_out_of_index_order(self):
        # Client 0 sits on server 1 and client 1 on server 0, so client 2's
        # search reaches the second layer as [1, 0].  Both clients have an
        # unmatched edge into the free server 2; the path runs through the
        # smaller one, client 0.
        inst = ArrivalInstance.build(3, [[1, 2], [0, 2], [0, 1]])
        engine, reference = SapEngine(inst), WalkBackSapEngine(inst)
        for eng in (engine, reference):
            eng.step(0)
            eng.step(1)
            assert eng.state.server_of_client == [1, 0]
            eng.arrive(2)
        path = engine.shortest_aug_path(2)
        assert path.vertices == (2, 1, 0, 2)
        assert reference.shortest_aug_path(2) == path

    @pytest.mark.parametrize("max_capacity", [1, 2, 3, 4])
    def test_random_fixed_capacities(self, max_capacity):
        rng = random.Random(900 + max_capacity)
        dead = 0
        for _ in range(30):
            servers = rng.randint(2, 40)
            inst = gen_random(servers, rng.randint(1, 120), rng.randint(1, min(4, servers)),
                              seed=rng.randrange(10**6))
            caps = tuple(rng.randint(1, max_capacity) for _ in range(servers))
            inst = ArrivalInstance(servers, inst.arrivals, caps)
            engine, reference = SapEngine(inst), WalkBackSapEngine(inst)
            assert_lockstep(engine, reference)
            dead += len(engine.dead)
        assert dead >= 50  # pruning must actually run

    def test_shared_growable_capacities(self):
        rng = random.Random(77)
        for _ in range(30):
            servers = rng.randint(2, 30)
            inst = gen_random(servers, rng.randint(10, 120), rng.randint(1, min(3, servers)),
                              seed=rng.randrange(10**6))
            caps = [1] * servers  # one list, read by both engines
            engine = SapEngine(inst, capacity=caps)
            reference = WalkBackSapEngine(inst, capacity=caps)

            def grow(client: int) -> None:
                if client % 5 == 4:
                    caps[rng.randrange(servers)] += 1

            assert_lockstep(engine, reference, grow)
            assert engine.dead is None and sum(caps) > servers

    @pytest.mark.parametrize(
        "build",
        [
            lambda: gen_star_chain(5),
            lambda: gen_star_chain(12),
            lambda: gen_star_chain(20),
            lambda: gen_minmax_adversary(8),
            lambda: gen_minmax_adversary(16),
            lambda: with_capacity(gen_minmax_adversary(8), 2),
            lambda: with_capacity(gen_minmax_adversary(16), 2),
        ],
        ids=["star-chain-5", "star-chain-12", "star-chain-20", "adversary-8",
             "adversary-16", "adversary-8-capacity-2", "adversary-16-capacity-2"],
    )
    def test_gadgets(self, build):
        inst = build()
        assert_lockstep(SapEngine(inst), WalkBackSapEngine(inst))

    @pytest.mark.parametrize(
        "build, searched",
        [
            # far arrivals that find a path beyond the depth limit
            (lambda: gen_star_chain(15), "brute_paths"),
            # far arrivals that fail and prune
            (lambda: gen_random(100, 160, 3, 1), "brute_failures"),
        ],
        ids=["star-chain-15", "random-160"],
    )
    def test_fast_engine_default_limit(self, build, searched):
        inst = build()
        engine, reference = FastSapEngine(inst), WalkBackFastSapEngine(inst)
        assert_lockstep(engine, reference)
        assert engine.prune_events == reference.prune_events
        assert getattr(engine.log, searched) > 0

    @pytest.mark.parametrize("load", [8, 20, 32, 48, 64])
    def test_minmax_adversary(self, load, monkeypatch):
        # Loads up to L put many clients on each server the search reaches,
        # L^2 clients in L twin classes; the walk-back reads every one of them.
        inst = gen_minmax_adversary(load)
        caps = [0] * inst.server_count
        engine = SapEngine(inst, capacity=caps)
        epochs = minmax_lockstep(engine, WalkBackSapEngine(inst, capacity=caps), caps)
        assert len(epochs) == load and engine.dead is None
        state, log, run_epochs = run_minmax(inst)
        assert (log, run_epochs) == (engine.log, epochs)
        assert state.clients_of_server == engine.state.clients_of_server
        # run_minmax itself on the reference engine
        monkeypatch.setattr(extensions, "SapEngine", WalkBackSapEngine)
        replay, replay_log, replay_epochs = run_minmax(inst)
        assert (replay_log, replay_epochs) == (log, run_epochs)
        assert replay.server_of_client == state.server_of_client
        assert replay.clients_of_server == state.clients_of_server

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_many_slots(self, seed):
        inst = gen_random(640, 1024, 3, seed)
        rng = random.Random(seed)
        inst = ArrivalInstance(640, inst.arrivals, tuple(rng.randint(2, 8) for _ in range(640)))
        engine = SapEngine(inst)
        assert engine.dead is not None  # fixed capacities: pruning is on
        assert_lockstep(engine, WalkBackSapEngine(inst))


class TestFirstLayer:
    """Searches that end in the root's neighbors, or read past them, step as the walk-back does."""

    def test_free_neighbor_after_dead_ones(self):
        # Client 2's failed search retires servers 0 and 1; client 3's first
        # layer is then servers 2 and 3, both free, and the smaller one wins.
        inst = ArrivalInstance.build(4, [[0, 1], [0, 1], [0, 1], [0, 1, 2, 3]])
        engine, reference = SapEngine(inst), WalkBackSapEngine(inst)
        paths = record_paths(engine)
        assert_lockstep(engine, reference)
        assert paths == [AugPath((0, 0)), AugPath((1, 1)), None, AugPath((3, 2))]
        assert engine.dead == {0, 1}
        assert engine.servers_visited == 2 + 2 + 2 + 2  # dead servers are not visited

    def test_smallest_free_neighbor_wins(self):
        inst = ArrivalInstance.build(5, [[1, 2, 4], [1, 2, 4], [0, 2, 3, 4]])
        engine, reference = SapEngine(inst), WalkBackSapEngine(inst)
        paths = record_paths(engine)
        assert_lockstep(engine, reference)
        assert [p.vertices for p in paths] == [(0, 1), (1, 2), (2, 0)]
        assert engine.servers_visited == 3 + 3 + 4  # every live neighbor, not just the first free one

    @pytest.mark.parametrize("engine_type", [SapEngine, FastSapEngine])
    @pytest.mark.parametrize(
        "neighbors",
        [[[0], [], [0, 1], []], [[0], [0], [0]]],
        ids=["no-neighbors", "all-neighbors-dead"],  # client 1's failed search retires server 0
    )
    def test_nothing_live_to_reach(self, neighbors, engine_type):
        inst = ArrivalInstance.build(2, neighbors)
        walk_back = WalkBackSapEngine if engine_type is SapEngine else WalkBackFastSapEngine
        engine, reference = engine_type(inst), walk_back(inst)
        for c in range(inst.client_count):
            start = engine.servers_visited
            assert engine.step(c) == reference.step(c)
            assert_same_state(engine, reference)
        assert not engine.log.records[-1].matched
        assert engine.servers_visited == start  # the last search reached nothing
        if engine_type is FastSapEngine:
            assert engine.prune_events == reference.prune_events
            last = engine.prune_events[-1]
            assert (last.servers, last.clients) == (frozenset(), {inst.client_count - 1})

    @pytest.mark.parametrize(
        "neighbors, last_path",
        [
            # Servers 0 and 1 are full; client 0 reaches the free server 2.
            ([[0, 2], [1, 2], [0, 1]], (2, 0, 0, 2)),
            # Server 0 is full, and so is server 1 behind it.
            ([[0, 1], [1, 2], [0]], (2, 0, 0, 1, 1, 2)),
            # Server 1 is full, and so is server 0 behind it: the search fails.
            ([[0], [0, 1], [1]], None),
        ],
        ids=["layer-2", "layer-3", "failed"],
    )
    def test_full_first_layer(self, neighbors, last_path):
        inst = ArrivalInstance.build(3, neighbors)
        engine, reference = SapEngine(inst), WalkBackSapEngine(inst)
        paths = record_paths(engine)
        assert_lockstep(engine, reference)
        assert (paths[-1] and paths[-1].vertices) == last_path

    def test_minmax_shared_capacities(self):
        # Every epoch reopens the first layer: all servers gain a slot at once.
        rng = random.Random(31)
        epochs = 0
        for _ in range(20):
            servers = rng.randint(1, 8)
            inst = gen_random(servers, rng.randint(1, 40), rng.randint(1, min(3, servers)),
                              seed=rng.randrange(10**6))
            caps = [0] * servers
            engine = SapEngine(inst, capacity=caps)
            epochs += len(minmax_lockstep(engine, WalkBackSapEngine(inst, capacity=caps), caps))
        assert epochs >= 40

    @pytest.mark.parametrize(
        "build, epsilon",
        [
            (lambda: gen_random(16, 32, 3, seed=1), "1/2"),
            (lambda: gen_random(16, 32, 3, seed=2), "1/2"),
            (lambda: gen_random(16, 32, 3, seed=3), "1/2"),
            # allowances this tight send twins past the first layer
            (lambda: gen_minmax_adversary(8), "1/100"),
        ],
        ids=["1", "2", "3", "adversary-8"],
    )
    def test_semi_matching_growing_allowances(self, build, epsilon, monkeypatch):
        inst = build()
        engines = record_engines(monkeypatch, extensions)
        _, log = run_semi_matching(inst, epsilon)
        references = record_engines(monkeypatch, extensions, WalkBackSapEngine)
        _, ref_log = run_semi_matching(inst, epsilon)
        (engine,), (reference,) = engines, references
        assert log == ref_log
        assert_same_state(engine, reference)
        assert engine.dead is None
        assert log.total_path_edges > log.matched_count()  # some paths go past the first layer


def without_twins(inst: ArrivalInstance) -> ArrivalInstance:
    """The same instance with its twin table forced off, so searches scan every client."""
    plain = ArrivalInstance(inst.server_count, inst.arrivals, inst.capacities)
    plain.__dict__["_twin_classes"] = None
    return plain


class TestTwinClients:
    """A search scans one client per twin class and still steps as the walk-back does."""

    @staticmethod
    def lockstep(inst: ArrivalInstance, engine_type: type = SapEngine):
        """Step the engine against the walk-back, and against itself without the table."""
        assert inst.twin_classes is not None
        walk_back = WalkBackSapEngine if engine_type is SapEngine else WalkBackFastSapEngine
        assert_lockstep(engine_type(inst), walk_back(inst))
        engine, plain = engine_type(inst), engine_type(without_twins(inst))
        paths = record_paths(engine)  # kept whole: assert_lockstep clears only its own list
        assert_lockstep(engine, plain)
        return engine, plain, paths

    def test_the_smaller_twin_discovers(self):
        # Client 2 pushes client 0 from server 0 to server 2, so the twins sit
        # out of index order: client 1 on server 1, client 0 on server 2.
        # Client 3's first frontier gathers [1, 0]; client 0 scans first and
        # reaches the free server 3, and its twin adds nothing.
        inst = ArrivalInstance.build(
            4, [[0, 1, 2, 3], [0, 1, 2, 3], [0], [1, 2], [0, 1, 2, 3], [0, 1, 2, 3]]
        )
        engine, plain, paths = self.lockstep(inst)
        assert paths[3].vertices == (3, 2, 0, 3)
        assert engine.clients_scanned < plain.clients_scanned

    def test_a_twin_of_the_root(self):
        # Client 0, a twin of client 2, sits on client 2's first layer and is
        # never scanned: client 1 alone finds server 2.  Client 3's first
        # layer holds two twins of it, so its search fails having scanned
        # nobody, and retires what the full scan retires.
        inst = ArrivalInstance.build(3, [[0, 1], [1, 2], [0, 1], [0, 1]])
        engine, plain, paths = self.lockstep(inst)
        assert paths[2].vertices == (2, 1, 1, 2) and paths[3] is None
        assert engine.dead == plain.dead == {0, 1}
        assert (engine.clients_scanned, plain.clients_scanned) == (1, 4)

    def test_twins_in_two_layers(self):
        # Client 0 is scanned in client 3's first frontier, and its twin,
        # client 1, turns up one layer later beside client 2, which shares
        # only its first server with them and must still be scanned.
        inst = ArrivalInstance.build(
            4, [[0, 1, 2], [0, 1, 2], [0, 2, 3], [0], [0], [0, 2, 3]]
        )
        engine, plain, paths = self.lockstep(inst)
        assert paths[3].vertices == (3, 0, 0, 2, 2, 3)
        assert paths[4] is None and paths[5] is None
        assert engine.dead == plain.dead == {0, 1, 2, 3}
        assert engine.clients_scanned < plain.clients_scanned

    @pytest.mark.parametrize("engine_type", [SapEngine, FastSapEngine])
    def test_failed_searches_retire_the_same_servers(self, engine_type):
        # The unit-capacity adversary: most arrivals fail, the first of them
        # with a frontier of twins, the rest with every neighbor dead.
        inst = gen_minmax_adversary(16)
        engine, plain, paths = self.lockstep(inst, engine_type)
        assert paths.count(None) > inst.client_count // 2
        assert engine.dead == plain.dead and len(engine.dead) == inst.server_count
        if engine_type is FastSapEngine:
            assert engine.prune_events == plain.prune_events
        assert engine.clients_scanned < plain.clients_scanned

    def test_table_only_where_twins_abound(self):
        for seed in range(5):
            assert gen_random(64, 128, 3, seed).twin_classes is None
            assert gen_random(5, 400, 3, seed).twin_classes is not None  # ten tuples
        assert gen_star_chain(40).twin_classes is None
        inst = gen_minmax_adversary(20)
        table = inst.twin_classes
        assert inst.twin_classes is table  # cached
        # the cached table is no field: equality and hashing are as before
        assert inst == gen_minmax_adversary(20) and hash(inst) == hash(gen_minmax_adversary(20))
        assert len(table) == 400 and set(table) == set(range(20))
        for c in range(inst.client_count):
            for d in range(inst.client_count):
                assert (table[c] == table[d]) == (inst.neighbors(c) == inst.neighbors(d))
        # exactly half the clients repeat an earlier tuple: the least that builds one
        assert ArrivalInstance.build(2, [[0], [1], [0], [1]]).twin_classes == (0, 1, 0, 1)
        assert ArrivalInstance.build(3, [[0], [1], [2], [0], [1]]).twin_classes is None


class TestClientsScanned:
    @pytest.mark.parametrize(
        "load, visited, scanned, plain_scanned",
        [(20, 2795, 2065, 31093), (32, 10256, 8368, 201178), (64, 73886, 66270, 3182638)],
    )
    def test_minmax_adversary(self, load, visited, scanned, plain_scanned, monkeypatch):
        engines = record_engines(monkeypatch, extensions)
        inst = gen_minmax_adversary(load)
        log, epochs = run_minmax(inst)[1:]
        plain_log, plain_epochs = run_minmax(without_twins(inst))[1:]
        assert (plain_log, plain_epochs) == (log, epochs)
        engine, plain = engines
        assert (engine.servers_visited, engine.clients_scanned) == (visited, scanned)
        assert (plain.servers_visited, plain.clients_scanned) == (visited, plain_scanned)

    @pytest.mark.parametrize(
        "build",
        [lambda: gen_random(640, 1024, 3, 1), lambda: gen_random(1024, 1024, 3, 2),
         lambda: gen_star_chain(40)],
        ids=["random-overloaded", "random-balanced", "star-chain"],
    )
    def test_no_table_scans_every_client(self, build):
        inst = build()
        engine, plain = SapEngine(inst), SapEngine(without_twins(inst))
        assert engine.run() == plain.run()
        assert engine.clients_scanned == plain.clients_scanned > 0
        assert engine.servers_visited == plain.servers_visited
        again = SapEngine(inst)
        again.run()
        assert again.clients_scanned == engine.clients_scanned


def record_engines(monkeypatch, module, base: type = SapEngine) -> list[SapEngine]:
    """Collect every SapEngine that ``module`` builds while the test runs, as a ``base``."""
    engines: list[SapEngine] = []

    class Recording(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(module, "SapEngine", Recording)
    return engines


class TestCapacityGuard:
    def test_shared_list_never_prunes(self):
        inst = gen_random(64, 128, 2, seed=9)
        engine = SapEngine(inst, capacity=[1] * inst.server_count)
        _, log = engine.run()
        assert log.matched_count() < inst.client_count  # searches did fail
        assert engine.dead is None

    def test_growing_engines_never_prune(self, monkeypatch):
        engines = record_engines(monkeypatch, extensions)
        run_minmax(gen_minmax_adversary(8))
        run_semi_matching(gen_random(5, 12, 2, seed=4), 1)
        assert len(engines) == 2
        assert all(engine.dead is None for engine in engines)

    def test_effective_clients_prunes(self, monkeypatch):
        engines = record_engines(monkeypatch, balance)
        inst = gen_random(8, 24, 2, seed=6)
        members = balance.effective_clients(inst)
        (engine,) = engines
        assert engine.dead
        assert members == frozenset(c for c, r in enumerate(run_sap(inst)[1].records) if r.matched)

    @pytest.mark.parametrize("capacity", [None, (1, 1, 1), range(1, 4)])
    def test_owned_capacities_are_fixed(self, capacity):
        engine = SapEngine(ArrivalInstance.build(3, [[0], [1, 2]]), capacity=capacity)
        assert engine.dead == set()
        with pytest.raises(TypeError):
            engine.state.capacity[0] = 2

    @pytest.mark.parametrize("capacity", [(1,), [1], (1, 1, 1, 1)])
    def test_capacity_vector_must_cover_every_server(self, capacity):
        # A short vector used to pass construction and fail inside the search.
        with pytest.raises(ValueError, match="capacity vector must cover every server"):
            SapEngine(ArrivalInstance.build(3, [[2]]), capacity=capacity)


@settings(max_examples=60, deadline=None)
@given(small_instances(allow_isolated=True))
def test_property_prefix_maximality(inst: ArrivalInstance):
    eng = SapEngine(inst)
    neighbors: list[tuple[int, ...]] = []
    size = 0
    for c in range(inst.client_count):
        neighbors.append(inst.neighbors(c))
        size += 1 if eng.step(c).matched else 0
        assert size == hopcroft_karp_size(neighbors, inst.server_count)
    eng.state.check_consistent()


def test_corpus_builder_respects_bounds():
    for inst in instance_corpus(5, seed=1, max_clients=9, max_servers=4):
        assert inst.client_count <= 9
        assert inst.server_count <= 4
