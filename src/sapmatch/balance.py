"""Exact balanced-load analysis of a bipartite prefix.

Each client spreads one unit of demand over its neighbor servers; a spread is
*balanced* when every client only uses its least-loaded neighbors.  The
resulting per-server totals ("necessities") are unique for a given graph and
are computed here exactly, as rationals, by repeatedly peeling off the client
set that maximizes |K| / |N(K)|.  Each maximum is found by a Dinkelbach
iteration over max flows in a scaled integer demand network; the last flow
of each search also supplies the peel's spread.  Neighbor lists must be
nonempty and free of repeats.

``balanced_flow`` computes one graph from scratch and is the reference; it,
``max_ratio`` and ``limit_feasible`` build a ``FlowNetwork`` for each flow.
``PrefixBalance`` follows an arrival stream with a kernel of its own,
``DemandFlow``, which shares no code with them, so comparing the two checks
both.  It keeps the flow in the bipartite graph, as the units each client
ships to each server, across prefixes.  Its arcs are implicit: a client's
source arc is its deficit and a server's sink arc its capacity minus its
load, while a client -> server arc needs no capacity, since a client ships
at most its own demand.  Each flow stays inside the region an arrival can
change, and only that region is re-peeled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InvariantViolation
from .flownet import FlowNetwork, max_flow
from .instance import ArrivalInstance
from .matching import SapEngine

Adjacency = Mapping[int, Sequence[int]]


@dataclass(frozen=True)
class Peel:
    ratio: Fraction
    clients: frozenset[int]
    servers: frozenset[int]


@dataclass
class BalancedFlow:
    """Unique per-server necessities, one realizing edge spread, and the peel trace."""

    necessity: dict[int, Fraction]
    edge_flow: dict[tuple[int, int], Fraction]
    peels: tuple[Peel, ...]

    def max_necessity(self) -> Fraction:
        if not self.peels:
            return Fraction(0)
        return self.peels[0].ratio

    def check(self, adjacency: Adjacency) -> None:
        """Raise unless this object satisfies all of its structural invariants."""
        for c, nbrs in adjacency.items():
            total = sum((self.edge_flow.get((c, s), Fraction(0)) for s in nbrs), Fraction(0))
            if total != 1:
                raise InvariantViolation(f"client {c} spreads {total}, not 1")
        per_server: dict[int, Fraction] = {}
        for (c, s), x in self.edge_flow.items():
            if x < 0:
                raise InvariantViolation("negative edge flow")
            per_server[s] = per_server.get(s, Fraction(0)) + x
        for s, total in per_server.items():
            if total != self.necessity.get(s, Fraction(0)):
                raise InvariantViolation(f"server {s} receives {total} != necessity")
        for c, nbrs in adjacency.items():
            least = min(self.necessity[s] for s in nbrs)
            for s in nbrs:
                if self.edge_flow.get((c, s), Fraction(0)) > 0 and self.necessity[s] != least:
                    raise InvariantViolation(f"client {c} sends flow to a non-least-loaded server")
        for earlier, later in zip(self.peels, self.peels[1:]):
            if not later.ratio < earlier.ratio:
                raise InvariantViolation("peel ratios must strictly decrease")
        spread = sum((p.ratio * len(p.servers) for p in self.peels), Fraction(0))
        if spread != len(adjacency):
            raise InvariantViolation("total necessity must equal the number of clients")


def _check_adjacency(adjacency: Adjacency) -> None:
    for c, nbrs in adjacency.items():
        if len(nbrs) == 0:
            raise ValueError(f"client {c} has no neighbors; remove isolated clients first")
        if len(set(nbrs)) != len(nbrs):
            raise ValueError(f"client {c} lists a neighbor more than once")


def _demand_network(adjacency: Adjacency, p: int, q: int):
    """Scaled integer network testing whether all per-server loads can stay <= p/q.

    Every client must ship q units; a server accepts at most p.  The
    client->server arcs are effectively unbounded.
    """
    clients = sorted(adjacency)
    servers = sorted({s for nbrs in adjacency.values() for s in nbrs})
    source = 0
    sink = 1 + len(clients) + len(servers)
    net = FlowNetwork(sink + 1, source, sink)
    cnode = {c: 1 + i for i, c in enumerate(clients)}
    snode = {s: 1 + len(clients) + j for j, s in enumerate(servers)}
    bulk = q * len(clients)
    middle: dict[tuple[int, int], int] = {}
    for c in clients:
        net.add_arc(source, cnode[c], q)
        for s in adjacency[c]:
            middle[(c, s)] = net.add_arc(cnode[c], snode[s], bulk)
    for s in servers:
        net.add_arc(snode[s], sink, p)
    return net, cnode, snode, middle


def limit_feasible(adjacency: Adjacency, limit: Fraction) -> bool:
    """Can one unit per client be spread so no server receives more than ``limit``?"""
    if limit <= 0:
        raise ValueError("load limit must be positive")
    _check_adjacency(adjacency)
    if not adjacency:
        return True
    limit = Fraction(limit)
    net, _, _, _ = _demand_network(adjacency, limit.numerator, limit.denominator)
    return max_flow(net).value == limit.denominator * len(adjacency)


def _neighborhood(adjacency: Adjacency, clients) -> set[int]:
    hood: set[int] = set()
    for c in clients:
        hood.update(adjacency[c])
    return hood


def _densest(adjacency: Adjacency):
    """Dinkelbach search for the largest client set K maximizing |K| / |N(K)|.

    Let g(K) = q|K| - p|N(K)| in ``_demand_network(adjacency, p, q)``.  A
    cut that crosses a client->server arc costs at least q|C|, as much as the
    cut around the source; among the others, those with client set K are
    cheapest with source side K + N(K), at q|C| - g(K).  So the flow
    saturates every client iff g <= 0 everywhere, i.e. iff no ratio exceeds
    lam = p/q.

    Start at lam = |C| / |N(C)|.  While the flow does not saturate, the
    client part K of the minimal min cut has g(K) > 0, so |K| / |N(K)| > lam
    strictly; take it as the next lam.  For two consecutive unsaturated
    rounds, optimality of each K at its own lam gives |N(K')| <= |N(K)|, and
    equality would make g vanish at the new lam, i.e. saturate; so |N(K)|
    strictly falls, and there are at most |N(C)| + 1 flows in all.  Once the
    flow saturates, lam is the maximum ratio and every maximizer has g = 0.
    g is supermodular (|N(.)| is submodular), so the maximizers are closed
    under union, and the client part of the maximal min cut is the largest
    one.

    Returns lam, that set, the saturating flow and the network's
    client->server arcs.  The set's clients have no neighbor outside N(K),
    and N(K) can take only p|N(K)| = q|K| units, so in that flow K ships all
    its demand into N(K) and nobody else ships anything there: restricted to
    K, the flow is a spread of K with every server of N(K) at exactly lam.
    """
    lam = Fraction(len(adjacency), len(_neighborhood(adjacency, adjacency)))
    while True:
        net, cnode, _, middle = _demand_network(adjacency, lam.numerator, lam.denominator)
        result = max_flow(net)
        if result.value == lam.denominator * len(adjacency):
            break
        side = result.min_cut_source_side()
        better = [c for c, node in cnode.items() if node in side]
        if not better:
            raise InvariantViolation("an unsaturated demand network left no client on the source side")
        ratio = Fraction(len(better), len(_neighborhood(adjacency, better)))
        if not ratio > lam:
            raise InvariantViolation("the Dinkelbach ratio failed to increase")
        lam = ratio
    side = result.max_cut_source_side()
    tight = frozenset(c for c, node in cnode.items() if node in side)
    if not tight:
        raise InvariantViolation("tight set extraction produced an empty set")
    if Fraction(len(tight), len(_neighborhood(adjacency, tight))) != lam:
        raise InvariantViolation("extracted set does not attain the maximal ratio")
    return lam, tight, result, middle


def max_ratio(adjacency: Adjacency) -> tuple[Fraction, frozenset[int]]:
    """The largest |K| / |N(K)| over nonempty client sets, and the largest K attaining it.

    Found by a Dinkelbach iteration (Dinkelbach 1967) in exact ``Fraction``
    arithmetic: each round runs one max flow at the current ratio and either
    proves it maximal or moves to the strictly larger ratio of the minimal
    min cut's clients.  At most |N(C)| + 1 flows; see ``_densest``.
    """
    _check_adjacency(adjacency)
    if not adjacency:
        raise ValueError("max_ratio needs at least one client")
    lam, tight, _, _ = _densest(adjacency)
    return lam, tight


def balanced_flow(adjacency: Adjacency, server_count: int | None = None) -> BalancedFlow:
    """Compute the unique balanced spread by iterated peeling.

    Each round takes the largest client set maximizing |K| / |N(K)|, fixes
    that ratio as the necessity of every server in N(K), reads a realizing
    spread of K off the saturating flow that proved the ratio maximal,
    removes K and N(K), and repeats.  The ratio searches are the only max
    flows.  Servers a peel never touches end at necessity 0.
    """
    _check_adjacency(adjacency)
    remaining: dict[int, tuple[int, ...]] = {c: tuple(nbrs) for c, nbrs in adjacency.items()}
    necessity: dict[int, Fraction] = {}
    if server_count is not None:
        necessity = {s: Fraction(0) for s in range(server_count)}
    edge_flow: dict[tuple[int, int], Fraction] = {}
    peels: list[Peel] = []

    while remaining:
        lam, tight, result, middle = _densest(remaining)
        if peels and not lam < peels[-1].ratio:
            raise InvariantViolation("peeling must produce strictly decreasing ratios")
        peel_servers = _neighborhood(remaining, tight)
        for (c, s), arc in middle.items():
            if c in tight:
                units = result.arc_flow(arc)
                if units:
                    edge_flow[(c, s)] = Fraction(units, lam.denominator)

        for s in peel_servers:
            necessity[s] = lam
        peels.append(Peel(lam, frozenset(tight), frozenset(peel_servers)))

        survivors: dict[int, tuple[int, ...]] = {}
        for c, nbrs in remaining.items():
            if c in tight:
                continue
            kept = tuple(s for s in nbrs if s not in peel_servers)
            if not kept:
                raise InvariantViolation(
                    "a surviving client lost its whole neighborhood to a peel"
                )
            survivors[c] = kept
        remaining = survivors

    return BalancedFlow(necessity, edge_flow, tuple(peels))


_OFF = -2  # the level of a server outside the region, or of a dead end in a blocking flow


class DemandFlow:
    """A flow in the demand network of a bipartite graph, held in the graph itself.

    The network runs source -> client -> server -> sink, and no arc is stored:

    - A client's source arc has capacity ``scale``; what is left of it is
      the client's deficit, ``scale`` minus the units the client has sent.
    - A client -> server arc has no capacity.  The client ships at most
      ``scale`` units in all, so any bound of at least that much allows the
      same flows, and an unbounded arc never crosses a min cut.  Its
      residual arc is always there.
    - A server's sink arc has capacity ``cap[s]``; what is left of it is
      ``cap[s]`` minus the server's load.

    The flow is the units each client ships to each server (``ships``,
    positive entries only) and the same units per server (``fed``).  The
    residual arc server -> client exists exactly while the client ships
    into the server.

    ``max_flow`` and ``stuck`` work on a region: a client set and a server
    set.  They never leave it: a server outside is not entered, and a server
    is left only for the clients that ship into it.  That is exact when no
    client outside the region ships into its servers and no residual path
    through a server outside comes back or reaches room; ``PrefixBalance``
    says why its regions meet that.
    """

    def __init__(self, server_count: int, scale: int):
        self.scale = scale
        self.neighbors: list[tuple[int, ...]] = []
        self.ships: list[dict[int, int]] = []
        self.sent: list[int] = []
        self.fed: list[dict[int, int]] = [{} for _ in range(server_count)]
        self.clients_of: list[list[int]] = [[] for _ in range(server_count)]
        self.load = [0] * server_count
        self.cap = [0] * server_count

    def add_client(self, neighbors: tuple[int, ...]) -> int:
        """Admit a client that ships nothing yet; returns its index."""
        client = len(self.neighbors)
        self.neighbors.append(neighbors)
        self.ships.append({})
        self.sent.append(0)
        for s in neighbors:
            self.clients_of[s].append(client)
        return client

    def clear(self, clients) -> None:
        """Take back every unit the listed clients ship."""
        fed, load = self.fed, self.load
        for c in clients:
            out = self.ships[c]
            for s, units in out.items():
                del fed[s][c]
                load[s] -= units
            out.clear()
            self.sent[c] = 0

    def raise_caps(self, servers, units: int) -> None:
        """Give every listed server this capacity; the flow it holds must fit."""
        load, cap = self.load, self.cap
        for s in servers:
            if load[s] > units:
                raise InvariantViolation(f"server {s} holds more than its new capacity")
            cap[s] = units

    def max_flow(self, clients, servers) -> tuple[int, list[int], int]:
        """Augment the flow to a maximum in the region, one blocking flow per phase.

        Each phase labels levels by a search from the region's clients
        short of units.  The search enters only region servers, goes from a
        server only to the clients that ship into it, and runs to the end:
        a phase fills every level-ascending path to any server with room,
        not only the shortest ones.  That still blocks every shortest path,
        so the phases are bounded as in Dinic's algorithm, and the unit each
        arrival adds, which spreads over servers at every depth, takes one
        phase instead of one per depth.  Returns the units still missing
        and what the last search reached: its clients, which are the client
        side of the minimal min cut, and the number of its servers, which is
        that side's neighborhood in the region.
        """
        scale, neighbors, fed, sent, load, cap = (
            self.scale, self.neighbors, self.fed, self.sent, self.load, self.cap
        )
        blank = [_OFF] * len(load)
        for s in servers:
            blank[s] = -1
        while True:
            roots = [c for c in clients if sent[c] < scale]
            # Clients take the even levels and servers the odd ones.
            slevel = blank[:]
            clevel = [-1] * len(sent)
            for c in roots:
                clevel[c] = 0
            reached = roots[:]
            frontier = roots
            depth = 1
            labelled = 0
            deepest = 0  # the deepest level of a server with room
            while frontier:
                layer = []
                for c in frontier:
                    for s in neighbors[c]:
                        if slevel[s] == -1:
                            slevel[s] = depth
                            layer.append(s)
                            if load[s] < cap[s]:
                                deepest = depth
                labelled += len(layer)
                frontier = []
                for s in layer:
                    for c in fed[s]:
                        if clevel[c] < 0:
                            clevel[c] = depth + 1
                            frontier.append(c)
                reached += frontier
                depth += 2
            if not deepest:
                return sum(scale - sent[c] for c in roots), reached, labelled
            if not self._block(roots, clevel, slevel, deepest):
                raise InvariantViolation("a blocking flow found no augmenting path the level search saw")

    def _block(self, roots: list[int], clevel: list[int], slevel: list[int], deepest: int) -> int:
        """Fill every level-ascending path from the roots to a server with room.

        Each root descends on an explicit stack of clients, since levels
        reach twice the server count; the client at depth k has level 2k.
        Each holds the units it may still pass on.  It takes its servers
        one level up in turn: it fills the server's room, then passes what
        is left through the server to a client one level further that feeds
        it, at most what that client ships into it, and so on down the
        stack.  A client returns what went through it and is passed to the
        next feeder or server, so one descent pushes along several
        branches.  A client that returns less than it was offered, and a
        server with no room and no feeder left, have no way on and are dead
        for the rest of the phase; so is a server with no room at
        ``deepest``, the deepest level that holds a server with room.
        """
        scale, neighbors, ships, fed, sent, load, cap = (
            self.scale, self.neighbors, self.ships, self.fed, self.sent, self.load, self.cap
        )
        next_server: dict[int, int] = {}  # client -> index of the neighbor it passes units to
        next_client = [0] * len(load)  # server -> index into its feeders
        feeders: list = [None] * len(load)  # server -> the clients feeding it at its first visit
        total = 0
        for root in roots:
            nodes = [root]
            offer = [scale - sent[root]]  # what each client on the stack was offered
            left = offer[:]  # what it still has to pass on
            while True:
                c = nodes[-1]
                units = left[-1]
                if units:
                    want = 2 * len(nodes) - 1  # the level of the servers it passes to
                    nbrs = neighbors[c]
                    end = len(nbrs)
                    i = next_server.get(c, 0)
                    below = None
                    while i < end:
                        s = nbrs[i]
                        if slevel[s] == want:
                            into = fed[s]
                            room = cap[s] - load[s]
                            if room > 0:
                                if room > units:
                                    room = units
                                load[s] += room
                                out = ships[c]
                                out[s] = out.get(s, 0) + room
                                into[c] = into.get(c, 0) + room
                                units -= room
                                if not units:
                                    break
                            if want == deepest:
                                slevel[s] = _OFF
                                i += 1
                                continue
                            clients = feeders[s]
                            if clients is None:
                                # A client that starts feeding it in this phase sits one level
                                # before it, so the snapshot misses no feeder one level after it.
                                clients = feeders[s] = list(into)
                            j = next_client[s]
                            last = len(clients)
                            while j < last:
                                below = clients[j]
                                if clevel[below] == want + 1 and below in into:
                                    break
                                j += 1
                            next_client[s] = j
                            if j < last:
                                break
                            below = None
                            slevel[s] = _OFF
                        i += 1
                    next_server[c] = i
                    left[-1] = units
                    if below is not None:
                        feed = into[below]
                        if feed < units:
                            units = feed
                        nodes.append(below)
                        offer.append(units)
                        left.append(units)
                        continue
                # c passes on no more: return what went through it.
                nodes.pop()
                given = offer.pop()
                passed = given - left.pop()
                if passed < given:
                    clevel[c] = _OFF
                if not nodes:
                    sent[root] += passed
                    total += passed
                    break
                if passed:
                    p = nodes[-1]
                    s = neighbors[p][next_server[p]]
                    out = ships[p]
                    out[s] = out.get(s, 0) + passed
                    into = fed[s]
                    into[p] = into.get(p, 0) + passed
                    rest = into[c] - passed
                    if rest:
                        into[c] = ships[c][s] = rest
                    else:
                        del into[c], ships[c][s]
                    left[-1] -= passed
        return total

    def stuck(self, clients, servers) -> set[int]:
        """The region's clients that reach no server with room: the maximal min cut's.

        One reverse search from the region's servers with room: every
        region client next to a server that reaches the sink reaches it,
        and so does every server that such a client ships into.
        """
        ships, clients_of, load, cap = self.ships, self.clients_of, self.load, self.cap
        reaching = [s for s in servers if load[s] < cap[s]]
        seen = set(reaching)
        free: set[int] = set()
        for s in reaching:
            for c in clients_of[s]:
                if c in clients and c not in free:
                    free.add(c)
                    for t in ships[c]:
                        if t not in seen:
                            seen.add(t)
                            reaching.append(t)
        return clients - free


class PrefixBalance:
    """Balanced necessities and peels of every prefix of one arrival stream.

    One ``DemandFlow`` serves the whole run, at the scale D = lcm(1..S):
    every client ships D units, and a server's capacity is its necessity
    times D.  Every ratio is |K| / |N(K)| with |N(K)| <= S, so every
    capacity is an integer.  No arc is stored: a client's source arc is its
    deficit, D minus what it has sent; a server's sink arc is its capacity
    minus its load; and a client -> server arc needs no capacity, since the
    client ships at most D in all.  Between arrivals the flow fills every
    client and every server exactly; such a flow is a balanced spread, so
    each peel ships only into its own servers.

    ``add(client)`` admits the next client; a client with no neighbors
    carries no flow and changes nothing.  Let g be the least necessity among
    the client's neighbors.  A peel of ratio below g keeps its clients,
    servers and flow (the locality law): the clients of the peels of ratio
    at least g, plus the new one, have every neighbor among those peels'
    servers and the new client's neighbors, and re-peeling that region gives
    ratios of at least g.  Each peel of the region is a Dinkelbach search
    (see ``_densest``) confined to the clients and servers not yet peeled:

    - It starts at the best ratio among candidate client sets: each old peel,
      and the union of the old peels down to it plus the new client, all cut
      down to what is left.  Any ratio that a set attains is a valid start.
    - The first search keeps the previous prefix's flow.  Its start is at
      least the old top ratio, so server capacities only rise.  Each later
      search first clears the flow of the clients still to peel, which is
      all that reaches its servers: the peels found so far fill their own
      servers exactly.
    - Within a search a larger ratio only raises capacities, and each max
      flow augments the flow already there.

    The flows never leave the region, and that loses nothing.  The peels
    kept below the gate ship only into their own servers, which no region
    client neighbors.  The peels found so far are full and ship only into
    their own servers, and their clients neighbor no server still in the
    region.  So only region clients ship into region servers, and a path
    into a found peel's server stays among full servers for good.
    """

    def __init__(self, instance: ArrivalInstance):
        self.instance = instance
        servers = instance.server_count
        self.scale = math.lcm(*range(1, servers + 1))
        self._flow = DemandFlow(servers, self.scale)
        self.adjacency: dict[int, tuple[int, ...]] = {}
        self.necessity: dict[int, Fraction] = {s: Fraction(0) for s in range(servers)}
        self._units = [0] * servers  # necessity * scale, to compare in integers
        self.peels: tuple[Peel, ...] = ()
        self.arrived = 0

    def max_necessity(self) -> Fraction:
        return self.peels[0].ratio if self.peels else Fraction(0)

    def add(self, client: int) -> tuple[int, ...]:
        """Admit the next client; returns the servers whose necessity changed, ascending."""
        if client != self.arrived:
            raise ValueError(f"clients arrive in order; expected {self.arrived}, got {client}")
        self.arrived += 1
        neighbors = self.instance.neighbors(client)
        flow = self._flow
        flow.add_client(neighbors)
        if not neighbors:
            return ()
        gate = min(self.necessity[s] for s in neighbors)
        split = 0
        while split < len(self.peels) and self.peels[split].ratio >= gate:
            split += 1
        upper, lower = self.peels[:split], self.peels[split:]

        scale = self.scale
        self.adjacency[client] = neighbors
        clients = {client}.union(*(p.clients for p in upper))
        servers = set(neighbors).union(*(p.servers for p in upper))
        found: list[Peel] = []
        while clients:
            if found:
                flow.clear(clients)
            lam = self._start(upper, client, clients, servers)
            while True:
                flow.raise_caps(servers, lam.numerator * (scale // lam.denominator))
                short, better, hood = flow.max_flow(clients, servers)
                if not short:
                    break
                if not better:
                    raise InvariantViolation("an unsaturated demand network left no client on the source side")
                ratio = Fraction(len(better), hood)
                if not ratio > lam:
                    raise InvariantViolation("the Dinkelbach ratio failed to increase")
                lam = ratio
            tight = frozenset(flow.stuck(clients, servers))
            peel_servers = frozenset(_neighborhood(self.adjacency, tight) & servers)
            if not tight or Fraction(len(tight), len(peel_servers)) != lam:
                raise InvariantViolation("extracted set does not attain the maximal ratio")
            if found and not lam < found[-1].ratio:
                raise InvariantViolation("peeling must produce strictly decreasing ratios")
            found.append(Peel(lam, tight, peel_servers))
            clients -= tight
            servers -= peel_servers
        if servers or (lower and not lower[0].ratio < found[-1].ratio):
            raise InvariantViolation("a re-peeled region does not sit above the peels it kept")

        changed = []
        for peel in found:
            units = peel.ratio.numerator * (scale // peel.ratio.denominator)
            for s in peel.servers:
                if self._units[s] != units:
                    if self._units[s] > units:
                        raise InvariantViolation(f"necessity of server {s} fell")
                    self._units[s] = units
                    self.necessity[s] = peel.ratio
                    changed.append(s)
        self.peels = (*found, *lower)
        return tuple(sorted(changed))

    def _start(self, upper, client: int, clients: set[int], servers: set[int]) -> Fraction:
        """The best ratio among the candidate client sets still left to peel."""
        union = [client] if client in clients else []
        hood = set(self.adjacency[client]) & servers if union else set()
        best = (len(union), len(hood)) if union else (0, 1)
        for peel in upper:
            kept = [c for c in peel.clients if c in clients]
            if not kept:
                continue
            kept_hood = _neighborhood(self.adjacency, kept) & servers
            union += kept
            hood |= kept_hood
            for size, hood_size in ((len(kept), len(kept_hood)), (len(union), len(hood))):
                if size * best[1] > best[0] * hood_size:
                    best = (size, hood_size)
        return Fraction(*best)


def effective_clients(instance: ArrivalInstance, prefix_len: int | None = None) -> frozenset[int]:
    """Clients whose arrival increased the maximum matching size.

    The protocol keeps the matching maximum at all times, so these are
    exactly the clients a fresh baseline run matches on arrival.
    """
    if prefix_len is None:
        prefix_len = instance.client_count
    if not 0 <= prefix_len <= instance.client_count:
        raise ValueError("prefix length out of range")
    engine = SapEngine(instance, capacity=(1,) * instance.server_count)
    grew = []
    for c in range(prefix_len):
        if engine.step(c).matched:
            grew.append(c)
    return frozenset(grew)


def effective_necessities(
    instance: ArrivalInstance, prefix_len: int | None = None
) -> dict[int, Fraction]:
    """Balanced necessities of the prefix graph restricted to its effective clients.

    Always at most 1 per server: the restricted graph admits a matching that
    covers every one of its clients.
    """
    members = effective_clients(instance, prefix_len)
    adjacency = {c: instance.neighbors(c) for c in sorted(members)}
    flow = balanced_flow(adjacency, server_count=instance.server_count)
    if any(v > 1 for v in flow.necessity.values()):
        raise InvariantViolation("effective necessities can never exceed 1")
    return flow.necessity
