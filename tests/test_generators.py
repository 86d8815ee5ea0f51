"""Instance generators: determinism, structure, and simulated path traces."""

from __future__ import annotations

import pytest

from sapmatch import (
    gen_complete,
    gen_minmax_adversary,
    gen_random,
    gen_star_chain,
    opt_load,
    run_sap,
    star_chain_probes,
)
from conftest import adversary_block_sizes, adversary_boundaries


class TestGenRandom:
    def test_single_edge(self):
        inst = gen_random(1, 1, 1, seed=0)
        assert inst.arrivals == ((0, (0,)),)

    def test_deterministic(self):
        a = gen_random(20, 40, 3, seed=7)
        b = gen_random(20, 40, 3, seed=7)
        assert a == b
        assert a != gen_random(20, 40, 3, seed=8)

    def test_degree_structure(self):
        inst = gen_random(20, 40, 3, seed=7)
        for _, neighbors in inst.arrivals:
            assert len(neighbors) == 3
            assert len(set(neighbors)) == 3
            assert list(neighbors) == sorted(neighbors)

    def test_degree_bounds(self):
        with pytest.raises(ValueError):
            gen_random(3, 5, 4, seed=0)
        with pytest.raises(ValueError):
            gen_random(3, 5, 0, seed=0)

    def test_negative_client_count_rejected(self):
        with pytest.raises(ValueError, match="client count"):
            gen_random(5, -1, 1, seed=0)
        assert gen_random(5, 0, 1, seed=0).client_count == 0


class TestGenComplete:
    def test_shape(self):
        inst = gen_complete(10, 20)
        assert inst.client_count == 10
        assert all(neighbors == tuple(range(20)) for _, neighbors in inst.arrivals)

    def test_one_by_one(self):
        assert gen_complete(1, 1).arrivals == ((0, (0,)),)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_complete(0, 5)


class TestAdversary:
    def test_l4_shape_and_opt(self):
        inst = gen_minmax_adversary(4)
        assert inst.client_count == 16
        assert inst.server_count == 4
        assert opt_load(inst) == 4

    def test_invalid_l(self):
        for bad in (0, 2, 6, -4):
            with pytest.raises(ValueError):
                gen_minmax_adversary(bad)

    def test_block_sizes_before_down_heavy_epochs(self):
        L = 8
        inst = gen_minmax_adversary(L)
        base = L * L // 2
        for epoch in range(1, L // 2 + 1):
            if epoch % 2 == 0:
                continue  # up-heavy
            k = (epoch + 1) // 2
            beta = L // 2 + 2 * (k - 1)
            prefix = base + (epoch - 1) * L
            assert adversary_block_sizes(inst, L, prefix) == [beta] * L

    def test_boundary_iteration_ends_at_full_instance(self):
        for L in (4, 8):
            inst = gen_minmax_adversary(L)
            assert adversary_boundaries(L)[-1][0] == inst.client_count

    def test_padding(self):
        inst = gen_minmax_adversary(4, pad_to=40)
        assert inst.client_count == 40
        assert inst.server_count == 4 + (40 - 16)
        # pads are single-edge pairs on fresh servers
        for c in range(16, 40):
            assert inst.neighbors(c) == (4 + (c - 16),)
        with pytest.raises(ValueError):
            gen_minmax_adversary(4, pad_to=20)  # below 2 * L^2


class TestStarChain:
    def test_depth_one(self):
        _, log = run_sap(gen_star_chain(1))
        assert [r.path_edges for r in log.records] == [1]

    def test_depth_three_trace(self):
        # frozen from a baseline-engine simulation: setup clients match at
        # distance 1, probe k needs 2k-1 edges
        _, log = run_sap(gen_star_chain(3))
        assert [r.path_edges for r in log.records] == [1, 1, 3, 1, 1, 5]

    @pytest.mark.parametrize("depth", [2, 4, 6, 9])
    def test_probe_lengths_grow_by_two(self, depth):
        inst = gen_star_chain(depth)
        _, log = run_sap(inst)
        probes = star_chain_probes(depth)
        assert [log.records[p].path_edges for p in probes] == [
            2 * k - 1 for k in range(1, depth + 1)
        ]
        non_probes = set(range(inst.client_count)) - set(probes)
        assert all(log.records[c].path_edges == 1 for c in non_probes)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_star_chain(0)

