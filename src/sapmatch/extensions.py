"""Beyond unit matching: fixed server capacities, exact min-max load, and
(1+eps)-approximate load-bounded assignment.

Fixed capacities run natively: the engine searches the original servers and
a server is free while its load is under its capacity.  The paper's
reduction, one server copy per capacity unit, gives the same run log and
assignment; it stays only as a test reference (``CopyMap`` in ``oracles``).

Min-max mode keeps the maximum load optimal: an arrival with no augmenting
path at the current optimum opens a new "epoch" (every server gains one
slot), any other augments to an underloaded server.  Semi-matching mode
derives a per-server allowance from the exact balanced necessities, which
one ``PrefixBalance`` stream keeps up to date, and matches within those
allowances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .balance import PrefixBalance, _demand_network
from .errors import InvariantViolation
from .flownet import max_flow
from .instance import ArrivalInstance
from .matching import AugPath, MatchState, RunLog, SapEngine


@dataclass(frozen=True)
class EpochRecord:
    opt: int
    start_arrival: int


def _covers(adjacency: dict[int, tuple[int, ...]], per_server_cap: int) -> bool:
    """Can every listed client be assigned with all loads <= per_server_cap?"""
    if not adjacency:
        return True
    net = _demand_network(adjacency, per_server_cap, 1)
    return max_flow(net).value == len(adjacency)


def opt_load(instance: ArrivalInstance, prefix_len: int | None = None) -> int:
    """Minimum achievable maximum load for the (servable) clients of a prefix.

    Clients without neighbors cannot be served by anything and are ignored.
    Found by binary search on the shared per-server capacity.
    """
    adjacency = instance.prefix_adjacency(prefix_len)
    if not adjacency:
        return 0
    lo, hi = 1, len(adjacency)
    while lo < hi:
        mid = (lo + hi) // 2
        if _covers(adjacency, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def run_capacitated(instance: ArrivalInstance) -> tuple[MatchState, RunLog]:
    """Run the reference engine on the instance's own server capacities.

    The search visits each original server once, not once per capacity
    unit.  Run log and assignment equal those of the unit-capacity protocol
    over the server-copy expansion with copy blocks in server order; the
    tests keep that expansion as the reference.  Capacities are fixed, so
    dead-server pruning applies.
    """
    if instance.capacities is None:
        raise ValueError("run_capacitated expects an instance with capacities")
    state, log = SapEngine(instance).run()
    state.check_consistent()
    return state, log


def run_minmax(instance: ArrivalInstance) -> tuple[MatchState, RunLog, list[EpochRecord]]:
    """Serve every servable client while keeping the maximum load optimal.

    Per arrival: search for a shortest augmenting path with every server's
    capacity at the current optimum.  Every earlier servable client is
    already served within that optimum, so by Berge's theorem for
    b-matchings the new client fits iff such a path exists; the search has
    no side effects (on the shared capacity list the engine never prunes).
    If a path exists, augment along it.  Otherwise the optimum grows by one:
    every server gains a slot (a new epoch) and the client goes straight to
    its smallest-index neighbor.  Clients with no neighbors are logged as
    unserved and excluded from the optimum.

    The maximum load is checked to equal the optimum after every arrival in
    O(1): an augmentation raises only its end server's load, so by induction
    it suffices that this server ends at most at the optimum, and exactly at
    it when an epoch opens.  One full scan runs at the end.
    ``oracles.oracle_opt_load`` is the independent reference for the
    optimum, a maximum matching over server copies.
    """
    if instance.capacities is not None:
        raise ValueError("min-max mode expects an uncapacitated instance")
    caps = [0] * instance.server_count
    engine = SapEngine(instance, capacity=caps)
    epochs: list[EpochRecord] = []
    opt = 0
    for client in range(instance.client_count):
        neighbors = engine.arrive(client)
        if not neighbors:
            engine.log.record(client, None)
            continue
        path = engine.shortest_aug_path(client)
        grew = path is None
        if grew:
            opt += 1
            for s in range(instance.server_count):
                caps[s] = opt
            epochs.append(EpochRecord(opt, client))
            path = AugPath((client, neighbors[0]))
        engine.augment(path)
        engine.log.record(client, path.edge_count)
        end = path.vertices[-1]
        load = engine.state.load(end)
        if load > opt or (grew and load != opt):
            raise InvariantViolation(f"server {end} ends at load {load} with optimum {opt}")
    max_load = max((engine.state.load(s) for s in range(instance.server_count)), default=0)
    if max_load != opt:
        raise InvariantViolation(f"maximum load {max_load} differs from optimum {opt}")
    return engine.state, engine.log, epochs


def run_semi_matching(
    instance: ArrivalInstance, epsilon: Fraction | int | str, balance: PrefixBalance | None = None
) -> tuple[MatchState, RunLog]:
    """Match within allowances ceil((1+eps) * necessity), kept up to date per arrival.

    ``balance``, a fresh ``PrefixBalance`` over ``instance`` (built if not
    given; ``run --analyze`` reads its ``maxima`` after the run), follows
    the balanced necessities from prefix to prefix, and only the servers
    whose necessity it changed get a new allowance.  Necessities only grow
    as clients arrive, so allowances never shrink and previously placed
    clients always stay within them.  Searching
    with the allowance as the server capacity is the same as unit matching in
    a graph with one copy per allowance slot: copies of a server are
    interchangeable, so path lengths and load totals agree.

    Loads are checked in O(1) per arrival: an augmentation raises only its
    end server's load, so it suffices that this server ends within its
    allowance.  One full scan runs at the end.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    if instance.capacities is not None:
        raise ValueError("semi-matching mode expects an uncapacitated instance")
    if any(not neighbors for _, neighbors in instance.arrivals):
        raise ValueError("semi-matching requires every client to have a neighbor")

    if balance is None:
        balance = PrefixBalance(instance)
    elif balance.instance != instance or balance.arrived:
        raise ValueError("semi-matching needs a fresh stream over its own instance")
    caps = [0] * instance.server_count
    engine = SapEngine(instance, capacity=caps)
    factor = 1 + eps
    # ceil(factor * need) in integers, off the stream's units need * scale
    top, per_unit = factor.numerator, factor.denominator * balance.scale
    for client in range(instance.client_count):
        for s in balance.add(client):
            allowance = -(-top * balance.units[s] // per_unit)
            if allowance < caps[s]:
                raise InvariantViolation(f"allowance of server {s} tried to shrink")
            caps[s] = allowance
        engine.arrive(client)
        path = engine.shortest_aug_path(client)
        if path is None:
            raise InvariantViolation(
                f"client {client} has no augmenting path inside the allowances"
            )
        engine.augment(path)
        engine.log.record(client, path.edge_count)
        end = path.vertices[-1]
        if engine.state.load(end) > caps[end]:
            raise InvariantViolation(f"server {end} exceeds its allowance")
    for s in range(instance.server_count):
        if engine.state.load(s) > caps[s]:
            raise InvariantViolation(f"server {s} exceeds its allowance")
    return engine.state, engine.log
