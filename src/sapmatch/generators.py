"""Deterministic, seeded construction of benchmark and adversarial instances."""

from __future__ import annotations

import random

from .instance import ArrivalInstance


def gen_random(servers: int, clients: int, degree: int, seed: int) -> ArrivalInstance:
    """Each client samples ``degree`` distinct servers; bit-identical under one seed."""
    if servers < 1:
        raise ValueError("need at least one server")
    if clients < 0:
        raise ValueError("the client count cannot be negative")
    if not 1 <= degree <= servers:
        raise ValueError("degree must lie between 1 and the server count")
    rng = random.Random(seed)
    lists = [sorted(rng.sample(range(servers), degree)) for _ in range(clients)]
    return ArrivalInstance.build(servers, lists)


def gen_complete(clients: int, servers: int) -> ArrivalInstance:
    if clients < 1 or servers < 1:
        raise ValueError("complete instances need at least one client and one server")
    everyone = tuple(range(servers))
    return ArrivalInstance(servers, tuple((c, everyone) for c in range(clients)))


def gen_minmax_adversary(load_target: int, pad_to: int | None = None) -> ArrivalInstance:
    """The chain-of-blocks instance that forces heavy rebalancing in min-max mode.

    With L = load_target there are L servers and L client blocks: block i is
    adjacent to servers {i, i+1}, the last block to the last server only.
    Arrivals: L/2 clients per block, then L/2 alternating epochs starting with
    a lower-half ("down-heavy") one, each epoch adding two clients to every
    block of its half.  The final instance has L^2 clients and optimal load L.

    ``pad_to`` appends single-edge client/server pairs until that many clients
    exist; it requires pad_to >= 2 * L^2.
    """
    L = load_target
    if L < 4 or L % 4 != 0:
        raise ValueError("the load target must be a positive multiple of 4")

    def block_neighbors(i: int) -> list[int]:
        return [L - 1] if i == L - 1 else [i, i + 1]

    lists: list[list[int]] = []
    for block in range(L):
        lists.extend(block_neighbors(block) for _ in range(L // 2))
    for epoch in range(L // 2):
        half = range(L // 2) if epoch % 2 == 0 else range(L // 2, L)
        for block in half:
            lists.extend(block_neighbors(block) for _ in range(2))

    server_count = L
    if pad_to is not None:
        if pad_to < 2 * L * L:
            raise ValueError("padding requires at least 2 * L^2 clients in total")
        extra = pad_to - len(lists)
        for k in range(extra):
            lists.append([server_count + k])
        server_count += extra
    return ArrivalInstance.build(server_count, lists)


def gen_star_chain(depth: int) -> ArrivalInstance:
    """Independent chain gadgets whose probe clients need ever longer paths.

    Gadget k holds k fresh servers in a row.  Its k-1 setup clients each see
    two adjacent servers and settle on the lower one immediately; the probe
    client then sees only the first server and has to shift the entire chain,
    an augmenting path of exactly 2k-1 edges.  Setup arrivals all match at
    distance 1, so the probe path lengths grow by 2 from gadget to gadget.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    lists: list[list[int]] = []
    server_count = 0
    for k in range(1, depth + 1):
        base = server_count
        server_count += k
        for j in range(k - 1, 0, -1):
            lists.append([base + j - 1, base + j])
        lists.append([base])
    return ArrivalInstance.build(server_count, lists)


def star_chain_probes(depth: int) -> list[int]:
    """Client ids of the probe arrivals of gen_star_chain(depth)."""
    probes, total = [], 0
    for k in range(1, depth + 1):
        total += k
        probes.append(total - 1)
    return probes
