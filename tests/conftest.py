"""Shared corpora and hypothesis strategies."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import strategies as st

from sapmatch import (
    ArrivalInstance,
    CopyMap,
    SapEngine,
    gen_minmax_adversary,
    gen_random,
    gen_star_chain,
)


def random_instance(rng: random.Random, max_clients: int, max_servers: int,
                    min_degree: int = 1, max_degree: int = 5) -> ArrivalInstance:
    servers = rng.randint(1, max_servers)
    clients = rng.randint(1, max_clients)
    lists = []
    for _ in range(clients):
        degree = rng.randint(min_degree, min(max_degree, servers))
        lists.append(sorted(rng.sample(range(servers), degree)))
    return ArrivalInstance.build(servers, lists)


def instance_corpus(count: int, seed: int, max_clients: int, max_servers: int,
                    min_degree: int = 1, max_degree: int = 5) -> list[ArrivalInstance]:
    rng = random.Random(seed)
    return [
        random_instance(rng, max_clients, max_servers, min_degree, max_degree)
        for _ in range(count)
    ]


def adjacency_corpus(count: int, seed: int, max_clients: int = 12,
                     max_servers: int = 6) -> list[dict[int, tuple[int, ...]]]:
    """Small adjacency maps (every client with at least one neighbor) for flow checks."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        servers = rng.randint(1, max_servers)
        clients = rng.randint(1, max_clients)
        adjacency = {}
        for c in range(clients):
            degree = rng.randint(1, servers)
            adjacency[c] = tuple(sorted(rng.sample(range(servers), degree)))
        out.append(adjacency)
    return out


# --- the server-copy expansion, reference for run_capacitated -------------


def run_copy_expansion(instance: ArrivalInstance):
    """The paper's reduction: the unit-capacity engine over one copy per capacity unit.

    Copy blocks are laid out in server order.  Returns the run log and each
    client's server mapped back from its copy (None if unmatched).
    """
    copies = CopyMap(instance.capacities)
    arrivals = tuple(
        (client, tuple(copy for s in neighbors for copy in copies.range_of(s)))
        for client, neighbors in instance.arrivals
    )
    state, log = SapEngine(ArrivalInstance(copies.total_copies, arrivals)).run()
    servers = [None if copy is None else copies.original(copy) for copy in state.server_of_client]
    return log, servers


CAPACITY_RANGES = ((1, 1), (1, 2), (1, 4), (1, 32))


def capacitated_corpus(family: str) -> list[tuple[str, ArrivalInstance]]:
    """Labelled instances of one generator family with drawn server capacities.

    ``random``: 200 draws of ``gen_random`` with S <= 60 and n <= 200 per
    capacity range.  ``adversary``: ``gen_minmax_adversary(L)`` for L in 4,
    8, 16, 32, with capacity L everywhere and with each capacity range.
    ``star-chain``: ``gen_star_chain(5..20)`` with each capacity range.
    """
    rng = random.Random(f"{family}-7")

    def with_caps(instance, lo, hi):
        caps = tuple(rng.randint(lo, hi) for _ in range(instance.server_count))
        return ArrivalInstance(instance.server_count, instance.arrivals, caps)

    out = []
    for lo, hi in CAPACITY_RANGES:
        if family == "random":
            for k in range(200):
                servers = rng.randint(1, 60)
                clients = rng.randint(1, 200)
                degree = rng.randint(1, min(5, servers))
                base = gen_random(servers, clients, degree, rng.getrandbits(32))
                out.append((f"random-{k}-caps{lo}..{hi}", with_caps(base, lo, hi)))
        elif family == "adversary":
            for L in (4, 8, 16, 32):
                out.append((f"adversary-{L}-caps{lo}..{hi}", with_caps(gen_minmax_adversary(L), lo, hi)))
        elif family == "star-chain":
            for depth in range(5, 21):
                out.append((f"star-chain-{depth}-caps{lo}..{hi}", with_caps(gen_star_chain(depth), lo, hi)))
        else:
            raise ValueError(f"unknown family {family!r}")
    if family == "adversary":
        for L in (4, 8, 16, 32):
            out.append((f"adversary-{L}-caps{L}", with_caps(gen_minmax_adversary(L), L, L)))
    return out


@st.composite
def small_instances(draw, max_clients: int = 8, max_servers: int = 8,
                    allow_isolated: bool = False) -> ArrivalInstance:
    servers = draw(st.integers(1, max_servers))
    clients = draw(st.integers(1, max_clients))
    lists = []
    min_size = 0 if allow_isolated else 1
    for _ in range(clients):
        neighbors = draw(
            st.lists(st.integers(0, servers - 1), min_size=min_size, max_size=servers,
                     unique=True)
        )
        lists.append(sorted(neighbors))
    return ArrivalInstance.build(servers, lists)


@pytest.fixture
def flow_calls(monkeypatch) -> Counter:
    """Max flows started through ``balance`` and ``extensions``, counted per module.

    ``balance`` counts the flows of its kernel, ``DemandFlow.max_flow``,
    which every ratio search runs, and those of ``limit_feasible``.
    """
    import sapmatch.balance
    import sapmatch.extensions

    calls: Counter = Counter()
    for module in (sapmatch.balance, sapmatch.extensions):
        def counted(net, _name=module.__name__.rpartition(".")[2], _inner=module.max_flow):
            calls[_name] += 1
            return _inner(net)

        monkeypatch.setattr(module, "max_flow", counted)

    def counted_kernel(flow, *region, _inner=sapmatch.balance.DemandFlow.max_flow):
        calls["balance"] += 1
        return _inner(flow, *region)

    monkeypatch.setattr(sapmatch.balance.DemandFlow, "max_flow", counted_kernel)
    return calls


@pytest.fixture(scope="session")
def medium_corpus() -> list[ArrivalInstance]:
    return instance_corpus(30, seed=2024, max_clients=60, max_servers=40)


# --- helpers for the min-max adversary instance ---------------------------
#
# Block b < L-1 sees servers {b, b+1}; block L-1 sees {L-1} only, so a
# client's block is the smallest server it is adjacent to.  An assignment is
# determined per block by how many clients stay on the block's own server;
# the rest spill onto the next one.


def adversary_block_sizes(instance, L: int, prefix_len: int) -> list[int]:
    sizes = [0] * L
    for c in range(prefix_len):
        sizes[instance.neighbors(c)[0]] += 1
    return sizes


def adversary_split_solutions(block_sizes: list[int], opt: int) -> list[tuple[int, ...]]:
    """All per-block own-server counts giving maximum load <= opt."""
    import itertools

    L = len(block_sizes)
    solutions = []
    choices = [range(n + 1) for n in block_sizes[: L - 1]]
    for own in itertools.product(*choices):
        own_full = (*own, block_sizes[L - 1])  # the last block has one server
        loads = [0] * L
        for b in range(L):
            loads[b] += own_full[b]
            spill = block_sizes[b] - own_full[b]
            if b + 1 < L:
                loads[b + 1] += spill
            elif spill:
                break
        else:
            if max(loads) <= opt:
                solutions.append(own_full)
    return solutions


def adversary_boundaries(L: int) -> list[tuple[int, str, int]]:
    """(prefix length, 'down'|'up', k) after the initial fill and each epoch."""
    out = []
    base = L * L // 2
    for epoch in range(1, L // 2 + 1):
        kind = "down" if epoch % 2 == 1 else "up"
        out.append((base + epoch * L, kind, (epoch + 1) // 2))
    return out


def adversary_split_counts(instance, state, L: int) -> dict[int, list[int]]:
    """Observed (own-server, next-server) client counts per block."""
    counts = {b: [0, 0] for b in range(L)}
    for c in range(state.arrived_count):
        block = instance.neighbors(c)[0]
        server = state.server_of_client[c]
        counts[block][0 if server == block else 1] += 1
    return counts
