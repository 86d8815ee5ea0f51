"""Capacitated runs, exact min-max load maintenance, and approximate semi-matching."""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from sapmatch import (
    ArrivalInstance,
    AugPath,
    CopyMap,
    InvariantViolation,
    PrefixBalance,
    SapEngine,
    balanced_flow,
    extensions,
    gen_complete,
    gen_minmax_adversary,
    gen_star_chain,
    hopcroft_karp_size,
    opt_load,
    oracle_opt_load,
    run_capacitated,
    run_minmax,
    run_sap,
    run_semi_matching,
)
from conftest import (
    adversary_block_sizes,
    adversary_boundaries,
    adversary_split_counts,
    adversary_split_solutions,
    capacitated_corpus,
    instance_corpus,
    run_copy_expansion,
)


class _OneMoreSlot:
    """A live view of a capacity list that reads one slot more than it holds."""

    def __init__(self, caps: list[int]):
        self.caps = caps

    def __getitem__(self, server: int) -> int:
        return self.caps[server] + 1

    def __len__(self) -> int:
        return len(self.caps)


def off_by_one_capacity_test(monkeypatch) -> None:
    """Make the engines that ``extensions`` builds test ``load <= capacity``.

    The search and ``flip_path`` compare a server's load with
    ``state.capacity``, so a view one slot too large turns their
    ``load < capacity`` into ``load <= capacity``.
    """

    class OffByOne(SapEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.state.capacity = _OneMoreSlot(self.state.capacity)

    monkeypatch.setattr(extensions, "SapEngine", OffByOne)


def log_bytes(log) -> bytes:
    return json.dumps(dataclasses.asdict(log), sort_keys=True).encode()


class TestOptLoad:
    def test_triple_star(self):
        assert opt_load(ArrivalInstance.build(1, [[0], [0], [0]])) == 3

    def test_complete_10x20(self):
        assert opt_load(gen_complete(10, 20)) == 1

    def test_adversary_final(self):
        assert opt_load(gen_minmax_adversary(4)) == 4

    def test_against_copy_graph_matching(self):
        for inst in instance_corpus(10, seed=90, max_clients=12, max_servers=4):
            for t in range(inst.client_count + 1):
                assert opt_load(inst, t) == oracle_opt_load(inst, t)


class TestCopyMap:
    def test_ranges_partition(self):
        copies = CopyMap([2, 1, 3])
        assert copies.total_copies == 6
        seen = []
        for s in range(3):
            seen.extend(copies.range_of(s))
        assert seen == list(range(6))
        assert [copies.original(i) for i in range(6)] == [0, 0, 1, 2, 2, 2]

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            CopyMap([1, 0])
        with pytest.raises(ValueError):
            CopyMap([3]).original(3)


class TestCapacitated:
    def test_unit_capacities_identical_log(self):
        for inst in instance_corpus(10, seed=91, max_clients=30, max_servers=12):
            with_caps = ArrivalInstance(
                inst.server_count, inst.arrivals, tuple([1] * inst.server_count)
            )
            _, log_plain = run_sap(inst)
            _, log_caps = run_capacitated(with_caps)
            assert log_bytes(log_plain) == log_bytes(log_caps)

    def test_single_server_capacity_three(self):
        inst = ArrivalInstance.build(1, [[0], [0], [0]], capacities=[3])
        state, log = run_capacitated(inst)
        assert log.matched_count() == 3
        assert log.total_replacements == 0
        assert state.clients_of_server[0] == [0, 1, 2]

    def test_requires_capacities(self):
        with pytest.raises(ValueError):
            run_capacitated(ArrivalInstance.build(1, [[0]]))

    def test_zero_capacity_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ArrivalInstance.build(1, [[0]], capacities=[0])

    @pytest.mark.parametrize("family", ["random", "adversary", "star-chain"])
    def test_native_equals_copy_expansion(self, family):
        # 800 random, 20 adversary and 64 star-chain instances
        corpus = capacitated_corpus(family)
        replacements = failures = 0
        for name, inst in corpus:
            want_log, want_servers = run_copy_expansion(inst)
            state, log = run_capacitated(inst)
            assert log == want_log, name
            assert state.server_of_client == want_servers, name
            replacements += log.total_replacements
            failures += len(log.records) - log.matched_count()
        # the corpus exercises long paths, and failed searches on all but the star chains
        assert replacements > 0
        assert failures > 0 or family == "star-chain"

    def test_copy_expansion_reference_maps_back(self):
        inst = ArrivalInstance.build(2, [[0], [0], [0, 1], [1]], capacities=[2, 1])
        log, servers = run_copy_expansion(inst)
        assert servers == [0, 0, 1, None]
        assert [r.path_edges for r in log.records] == [1, 1, 1, None]

    def test_matched_counts_and_path_budget(self):
        rng_caps = [3, 1, 2, 2, 1, 4]
        for inst in instance_corpus(8, seed=92, max_clients=25, max_servers=6):
            caps = tuple(rng_caps[s % len(rng_caps)] for s in range(inst.server_count))
            with_caps = ArrivalInstance(inst.server_count, inst.arrivals, caps)
            state, log = run_capacitated(with_caps)
            copies = CopyMap(caps)
            expanded: list[tuple[int, ...]] = []
            matched = 0
            n = inst.client_count
            for c in range(n):
                expanded.append(
                    tuple(copy for s in inst.neighbors(c) for copy in copies.range_of(s))
                )
                matched += 1 if log.records[c].matched else 0
                assert matched == hopcroft_karp_size(expanded, copies.total_copies)
            if n >= 2:
                h = 1
                while h <= 2 * n:
                    assert log.count_paths_longer_than(h) <= 4 * n * math.log(n) / h
                    h *= 2


class TestMinMax:
    def test_triple_star_opt_sequence(self):
        state, log, epochs = run_minmax(ArrivalInstance.build(1, [[0], [0], [0]]))
        assert [e.opt for e in epochs] == [1, 2, 3]
        assert log.total_replacements == 0

    def test_unservable_clients_excluded(self):
        inst = ArrivalInstance.build(2, [[0], [], [0, 1]])
        state, log, epochs = run_minmax(inst)
        assert [r.matched for r in log.records] == [True, False, True]
        assert epochs[-1].opt == 1

    def test_capacitated_instance_rejected(self):
        with pytest.raises(ValueError):
            run_minmax(ArrivalInstance.build(1, [[0]], capacities=[2]))

    def test_max_load_tracks_opt_on_random(self):
        # the engine asserts equality internally after every arrival
        for inst in instance_corpus(12, seed=93, max_clients=30, max_servers=6):
            state, log, epochs = run_minmax(inst)
            servable = sum(1 for _, nbrs in inst.arrivals if nbrs)
            assert log.matched_count() == servable
            final_opt = epochs[-1].opt if epochs else 0
            assert final_opt == opt_load(inst)
            assert final_opt == oracle_opt_load(inst)

    @pytest.mark.parametrize("L", [4, 8])
    def test_adversary_forced_reassignments(self, L):
        inst = gen_minmax_adversary(L)
        state, log, epochs = run_minmax(inst)
        forced = (L // 4) * (L // 2 - 1) * (L // 2) // 2
        assert log.total_replacements >= forced
        assert epochs[-1].opt == L

    def test_adversary_L4_unique_boundary_assignments(self):
        L = 4
        inst = gen_minmax_adversary(L)
        for prefix, kind, k in adversary_boundaries(L):
            sizes = adversary_block_sizes(inst, L, prefix)
            beta = L // 2 + 2 * (k - 1)
            # after the k-th down-heavy epoch the optimum is beta + 1; after
            # the k-th up-heavy epoch every block holds L/2 + 2k clients
            opt = beta + 1 if kind == "down" else L // 2 + 2 * k
            solutions = adversary_split_solutions(sizes, opt)
            assert len(solutions) == 1
            assert not adversary_split_solutions(sizes, opt - 1)

    @pytest.mark.parametrize("L", [4, 8])
    def test_adversary_boundary_assignments_match_formulas(self, L):
        inst = gen_minmax_adversary(L)
        boundaries = {
            prefix: (kind, k) for prefix, kind, k in adversary_boundaries(L)
        }
        replay = _MinmaxReplay(inst)
        for c in range(inst.client_count):
            replay.step(c)
            if c + 1 not in boundaries:
                continue
            kind, k = boundaries[c + 1]
            beta = L // 2 + 2 * (k - 1)
            counts = adversary_split_counts(inst, replay.state, L)
            if kind == "down":
                for b in range(L):
                    own, spill = counts[b]
                    i = b + 1
                    if i <= L // 2:
                        assert (own, spill) == (beta + 2 - i, i)
                    else:
                        assert (own, spill) == (beta + i - L, L - i)
            else:
                target = L // 2 + 2 * k
                for b in range(L):
                    assert counts[b] == [target, 0]
        assert log_bytes(replay.engine.log) == log_bytes(run_minmax(inst)[1])


class TestMinMaxAgainstFlow:
    """run_minmax decides epochs by search alone; opt_load is the flow reference.

    ``oracle_opt_load``, the copy-graph matching, is the reference that
    shares no code with the engines.
    """

    CASES = (
        instance_corpus(12, seed=93, max_clients=30, max_servers=6)
        + [gen_minmax_adversary(4), gen_minmax_adversary(8)]
        + [gen_star_chain(depth) for depth in range(1, 7)]
    )

    def test_running_opt_equals_opt_load_at_every_prefix(self):
        for inst in self.CASES:
            _, _, epochs = run_minmax(inst)
            assert [e.opt for e in epochs] == list(range(1, len(epochs) + 1))
            for t in range(inst.client_count + 1):
                running = max((e.opt for e in epochs if e.start_arrival < t), default=0)
                assert running == opt_load(inst, t)
                assert running == oracle_opt_load(inst, t)

    def test_running_opt_is_the_ceiling_of_the_largest_necessity(self):
        # Hall's theorem for b-matchings: load L serves every servable client
        # iff |K| <= L * |N(K)| for every client set K.  The b-matching search
        # and the peel flow share no code.
        for inst in self.CASES:
            _, _, epochs = run_minmax(inst)
            stream = PrefixBalance(inst)
            for t in range(1, inst.client_count + 1):
                stream.add(t - 1)
                running = max((e.opt for e in epochs if e.start_arrival < t), default=0)
                assert running == math.ceil(stream.max_necessity()), t

    def test_no_max_flow(self, flow_calls):
        for inst in self.CASES:
            run_minmax(inst)
        assert sum(flow_calls.values()) == 0

    def test_overload_is_caught(self, monkeypatch):
        # A capacity test off by one lets a search end at a full server.
        off_by_one_capacity_test(monkeypatch)
        with pytest.raises(InvariantViolation, match="ends at load 1 with optimum 0"):
            run_minmax(gen_minmax_adversary(4))

    def test_needless_epoch_is_caught(self, monkeypatch):
        # Client 1 could go to server 1; a search that misses it opens an
        # epoch on server 0, which then sits below the new optimum.
        search = SapEngine.shortest_aug_path
        monkeypatch.setattr(
            SapEngine,
            "shortest_aug_path",
            lambda self, client: None if client == 1 else search(self, client),
        )
        with pytest.raises(InvariantViolation, match="ends at load 1 with optimum 2"):
            run_minmax(ArrivalInstance.build(2, [[1], [0, 1]]))


class _MinmaxReplay:
    """Step-by-step variant of run_minmax for boundary inspection.

    Same rule: augment at the current optimum if a path exists, otherwise
    open an epoch and place the client on its smallest-index neighbor.
    """

    def __init__(self, instance: ArrivalInstance):
        self.instance = instance
        self.caps = [0] * instance.server_count
        self.engine = SapEngine(instance, capacity=self.caps)
        self.opt = 0

    @property
    def state(self):
        return self.engine.state

    def step(self, client: int) -> None:
        self.engine.arrive(client)
        neighbors = self.instance.neighbors(client)
        if not neighbors:
            self.engine.log.record(client, None)
            return
        path = self.engine.shortest_aug_path(client)
        if path is None:
            self.opt += 1
            for s in range(self.instance.server_count):
                self.caps[s] = self.opt
            path = AugPath((client, neighbors[0]))
        self.engine.augment(path)
        self.engine.log.record(client, path.edge_count)


class TestEpochWarmStart:
    def test_per_epoch_path_counts_within_budget(self):
        # Within one epoch the run behaves like a fresh protocol seeded with
        # an initial assignment, so the long-path inequality holds with n =
        # all clients arrived by the end of the epoch.
        cases = [gen_minmax_adversary(4), gen_minmax_adversary(8)]
        cases += instance_corpus(8, seed=95, max_clients=40, max_servers=5)
        for inst in cases:
            _, log, epochs = run_minmax(inst)
            if not epochs:
                continue
            starts = [e.start_arrival for e in epochs] + [inst.client_count]
            for begin, end in zip(starts, starts[1:]):
                n_i = end
                if n_i < 2:
                    continue
                records = log.records[begin:end]
                h = 1
                while h <= 2 * n_i:
                    count = sum(
                        1 for r in records if r.matched and r.path_edges > h
                    )
                    assert count <= 4 * n_i * math.log(n_i) / h
                    h *= 2


class TestSemiMatching:
    def test_triple_star_allowance_growth(self):
        inst = ArrivalInstance.build(1, [[0], [0], [0]])
        state, log = run_semi_matching(inst, Fraction(1, 2))
        assert log.matched_count() == 3
        allowances = []
        for t in range(1, 4):
            alpha = balanced_flow(inst.prefix_adjacency(t), server_count=1).necessity[0]
            allowances.append(math.ceil(Fraction(3, 2) * alpha))
        assert allowances == [2, 3, 5]
        assert state.load(0) == 3 <= allowances[-1]

    def test_complete_10x20_all_direct(self):
        state, log = run_semi_matching(gen_complete(10, 20), Fraction(1))
        assert {r.path_edges for r in log.records} == {1}

    def test_invalid_epsilon(self):
        inst = gen_complete(2, 2)
        with pytest.raises(ValueError):
            run_semi_matching(inst, Fraction(0))
        with pytest.raises(ValueError):
            run_semi_matching(inst, Fraction(-1, 2))

    def test_isolated_client_rejected(self):
        with pytest.raises(ValueError):
            run_semi_matching(ArrivalInstance.build(1, [[0], []]), Fraction(1))

    def test_overload_is_caught(self, monkeypatch):
        # A capacity test off by one lets client 1 onto server 0, whose
        # allowance is ceil(2 * 2/20) = 1; only that end server is checked.
        off_by_one_capacity_test(monkeypatch)
        with pytest.raises(InvariantViolation, match="server 0 exceeds its allowance"):
            run_semi_matching(gen_complete(10, 20), Fraction(1))

    def test_runs_one_stream_and_no_other_flow(self, flow_calls):
        for inst in instance_corpus(10, seed=95, max_clients=16, max_servers=8):
            flow_calls.clear()
            stream = PrefixBalance(inst)
            for c in range(inst.client_count):
                stream.add(c)
            alone = flow_calls["balance"]
            flow_calls.clear()
            run_semi_matching(inst, Fraction(1, 2))
            assert flow_calls == {"balance": alone}

    def test_shares_a_fresh_stream_only(self):
        for inst in instance_corpus(10, seed=95, max_clients=16, max_servers=8):
            stream = PrefixBalance(inst)
            _, log = run_semi_matching(inst, Fraction(1, 2), stream)
            assert log_bytes(log) == log_bytes(run_semi_matching(inst, Fraction(1, 2))[1])
            assert stream.arrived == len(stream.maxima) == inst.client_count
            with pytest.raises(ValueError, match="fresh stream"):
                run_semi_matching(inst, Fraction(1, 2), stream)
            with pytest.raises(ValueError, match="fresh stream"):
                run_semi_matching(inst, Fraction(1, 2), PrefixBalance(gen_complete(2, 2)))

    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1)])
    def test_allowance_and_path_bounds(self, eps):
        for inst in instance_corpus(10, seed=94, max_clients=16, max_servers=8):
            state, log = run_semi_matching(inst, eps)
            assert log.matched_count() == inst.client_count
            previous = {s: 0 for s in range(inst.server_count)}
            for t in range(1, inst.client_count + 1):
                flow = balanced_flow(
                    inst.prefix_adjacency(t), server_count=inst.server_count
                )
                for s in range(inst.server_count):
                    allowance = math.ceil((1 + eps) * flow.necessity[s])
                    assert allowance >= previous[s]
                    previous[s] = allowance
                rec = log.records[t - 1]
                bound = float(2 * (1 + eps) / eps) * math.log(max(t, 2))
                assert rec.path_edges <= bound
            # final loads within final allowances
            for s in range(inst.server_count):
                assert state.load(s) <= previous[s]
