"""Seeded workloads of the sapmatch benchmark.

A workload is a family of inputs.  Every workload runs all five engine modes
(naive, fast, capacitated, minmax, semi), because every end-to-end metric is
reported on every workload; each mode gets an instance of the workload's
family sized so that one engine run takes a fraction of a second to a few
seconds.  The modes that define the workload (see ``rationale.json``) run at
full size, the others at a size their per-arrival cost affords.

The seed reaches ``gen_random`` and the gadget order of the star chain.
``gen_minmax_adversary`` takes no seed: the adversary is deterministic by
construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Job:
    """One engine mode on a few instances; each instance runs ``reps`` times per round."""

    mode: str
    instances: tuple  # of sapmatch.ArrivalInstance
    reps: int = 1
    # L when the instances are gen_minmax_adversary(L): enables the forced-bound check.
    adversary_load: int | None = None


def draw_seeds(seed: int, count: int) -> list[int]:
    """Independent generator seeds derived from the benchmark seed."""
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def with_capacity(sm, instance, units: int):
    """The same arrivals with ``units`` slots on every server."""
    return sm.ArrivalInstance(instance.server_count, instance.arrivals, (units,) * instance.server_count)


def permuted_star_chain(sm, depth: int, seed: int):
    """gen_star_chain(depth) with its gadgets in a seeded order.

    Arrivals inside a gadget keep their order (the probe comes last), so
    every gadget still forces its probe along a path of 2k-1 edges.
    """
    base = sm.gen_star_chain(depth)
    gadgets, start = [], 0
    for probe in sm.star_chain_probes(depth):
        gadgets.append([base.neighbors(c) for c in range(start, probe + 1)])
        start = probe + 1
    random.Random(seed).shuffle(gadgets)
    return sm.ArrivalInstance.build(base.server_count, [nbrs for gadget in gadgets for nbrs in gadget])


def random_overloaded(sm, seed: int, n: int = 1024, draws: int = 4, minmax_n: int = 128, semi_n: int = 32) -> list[Job]:
    """Five servers for every eight clients, degree 3: about two in five arrivals fail.

    With half as many servers as clients almost exactly half the arrivals
    fail, so the median arrival sat on the cliff between cheap successes
    and failures that scan a whole component, and jumped between the two
    from seed to seed; with five servers for every eight clients the median
    arrival is a success.
    One draw of the graph moves the figures by up to a tenth from seed to
    seed, so every mode runs on several independent draws.  The capacitated
    twins hold two slots on each of 5n/32 servers for n/2 clients.
    """
    seeds = draw_seeds(seed, 2 * draws)
    unit = tuple(sm.gen_random(5 * n // 8, n, 3, s) for s in seeds[:draws])
    twins = tuple(with_capacity(sm, sm.gen_random(5 * n // 32, n // 2, 3, s), 2) for s in seeds[:draws])
    return [
        Job("naive", unit),
        Job("fast", unit),
        Job("capacitated", twins),
        Job("minmax", tuple(sm.gen_random(minmax_n // 2, minmax_n, 3, s) for s in seeds)),
        Job("semi", tuple(sm.gen_random(semi_n // 2, semi_n, 3, s) for s in seeds)),
    ]


def star_chain(sm, seed: int, depth: int = 90, minmax_depth: int = 16, semi_depth: int = 7) -> list[Job]:
    """Every arrival succeeds; gadget k's probe needs a path of 2k-1 edges.

    The min-max and semi-matching chains come in two gadget orders each:
    with one, min-max throughput moved by up to a tenth from seed to seed.
    """
    chain = permuted_star_chain(sm, depth, seed)
    return [
        Job("naive", (chain,), reps=8),
        Job("fast", (chain,)),
        Job("capacitated", (with_capacity(sm, chain, 1),), reps=4),
        Job("minmax", tuple(permuted_star_chain(sm, minmax_depth, s) for s in draw_seeds(seed, 2))),
        Job("semi", tuple(permuted_star_chain(sm, semi_depth, s) for s in draw_seeds(seed, 2))),
    ]


def load_balance(
    sm, seed: int, load: int = 20, unit_load: int = 32, semi_n: int = 32, draws: int = 8
) -> list[Job]:
    """Loads above one: the min-max adversary and random semi-matching instances.

    The unit-capacity engines get the adversary with L = ``unit_load``: its
    L^2 arrivals leave ten of them beyond the 99th percentile.
    """
    adversary = sm.gen_minmax_adversary(load)
    unit = sm.gen_minmax_adversary(unit_load)
    return [
        Job("naive", (unit,), reps=6),
        Job("fast", (unit,), reps=6),
        Job("capacitated", (with_capacity(sm, unit, unit_load),), reps=6),
        Job("minmax", (adversary,), reps=2, adversary_load=load),
        Job("semi", tuple(sm.gen_random(semi_n // 2, semi_n, 3, s) for s in draw_seeds(seed, draws))),
    ]


WORKLOADS: dict[str, Callable[..., list[Job]]] = {
    "random-overloaded": random_overloaded,
    "star-chain": star_chain,
    "load-balance": load_balance,
}
