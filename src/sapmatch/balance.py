"""Exact balanced-load analysis of a bipartite prefix.

Each client spreads one unit of demand over its neighbor servers; a spread is
*balanced* when every client only uses its least-loaded neighbors.  The
resulting per-server totals ("necessities") are unique for a given graph and
are computed here exactly, as rationals, by repeatedly peeling off the client
set that maximizes |K| / |N(K)|.  Each maximum is found by a Dinkelbach
iteration over max flows in a scaled integer demand network; the last flow
of each search also supplies the peel's spread.  Neighbor lists must be
nonempty and free of repeats.

Every peel search runs on one kernel, ``DemandFlow``, which keeps the flow in
the bipartite graph as the units each client ships to each server, with
implicit arcs.  Its max flow fills each short client's own neighbors
directly before any level search, and its reverse search returns both sides
of the maximal min cut, so a peel's servers need no neighborhood walk.
``_peel`` is the one Dinkelbach search and ``_peel_region`` the one peel
loop; they carry every ratio as integer units of the flow's scale and build
one ``Fraction`` per peel.  Every search starts at one rule: the share
|L| / |R| of the clients and servers still to peel, or the largest floor
among those servers, whichever is higher.  ``balanced_flow`` runs them from
scratch, on a fresh flow holding every client at zero, with zero floors;
``PrefixBalance`` follows an arrival stream, keeps its flow across
prefixes, keeps every peel an arrival cannot change (those below the new
client's gate, and top peels it proves out of reach by a neighbor-slack
test with no flow), re-peels only the rest, and takes the old necessities
as floors, since necessities never fall as clients arrive.
``limit_feasible`` builds a ``FlowNetwork``.
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


def _demand_network(adjacency: Adjacency, p: int, q: int) -> FlowNetwork:
    """Scaled integer network testing whether all per-server loads can stay <= p/q.

    Every client must ship q units; a server accepts at most p.  The
    client->server arcs are effectively unbounded.
    """
    clients = sorted(adjacency)
    servers = sorted({s for nbrs in adjacency.values() for s in nbrs})
    source = 0
    sink = 1 + len(clients) + len(servers)
    net = FlowNetwork(sink + 1, source, sink)
    snode = {s: 1 + len(clients) + j for j, s in enumerate(servers)}
    bulk = q * len(clients)
    for i, c in enumerate(clients, 1):
        net.add_arc(source, i, q)
        for s in adjacency[c]:
            net.add_arc(i, snode[s], bulk)
    for s in servers:
        net.add_arc(snode[s], sink, p)
    return net


def limit_feasible(adjacency: Adjacency, limit: Fraction) -> bool:
    """Can one unit per client be spread so no server receives more than ``limit``?"""
    if limit <= 0:
        raise ValueError("load limit must be positive")
    _check_adjacency(adjacency)
    if not adjacency:
        return True
    limit = Fraction(limit)
    net = _demand_network(adjacency, limit.numerator, limit.denominator)
    return max_flow(net).value == limit.denominator * len(adjacency)


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
    through a server outside comes back or reaches room; ``_peel_region``
    and ``PrefixBalance`` say why their regions meet that.
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
        # Work done, cumulative and deterministic for a given run: level
        # searches, and the servers they labelled, added once per search.
        self.level_searches = 0
        self.servers_labelled = 0

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

        It returns at once when no region client is short of units.  Before
        the first phase, each short client fills the room of its own region
        neighbors directly, which often leaves no client short and so takes
        no phase at all.  That picks one maximum flow among many; the cuts,
        and so every peel, do not depend on which.

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
        that side's neighborhood in the region; ``(0, [], 0)`` once no client
        is short.  Each search adds to ``level_searches`` and
        ``servers_labelled``.
        """
        scale, neighbors, ships, fed, sent, load, cap = (
            self.scale, self.neighbors, self.ships, self.fed, self.sent, self.load, self.cap
        )
        roots = [c for c in clients if sent[c] < scale]
        for c in roots:
            units = scale - sent[c]
            out = ships[c]
            for s in neighbors[c]:
                room = cap[s] - load[s]
                if room > 0 and s in servers:
                    if room > units:
                        room = units
                    load[s] += room
                    out[s] = out.get(s, 0) + room
                    into = fed[s]
                    into[c] = into.get(c, 0) + room
                    units -= room
                    if not units:
                        break
            sent[c] = scale - units
        blank = None
        while True:
            # A client that is full stays full: a phase only reroutes it.
            roots = [c for c in roots if sent[c] < scale]
            if not roots:
                return 0, [], 0
            if blank is None:
                blank = [_OFF] * len(load)
                for s in servers:
                    blank[s] = -1
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
            self.level_searches += 1
            self.servers_labelled += labelled
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

    def stuck(self, clients, servers) -> tuple[set[int], set[int]]:
        """The region's side of the maximal min cut: its clients, then its servers.

        One reverse search from the region's servers with room: every
        region client next to a server that reaches the sink reaches it,
        and so does every server that such a client ships into.  The cut
        holds what the search never reaches.

        Its servers are N(K) of its clients K, within the region, when every
        region server has positive capacity (and, as always, only region
        clients ship into region servers).  A server of N(K) is never
        reached, since reaching it reaches its clients.  An unreached server
        has no room, so it holds load, which some region client ships into
        it; that client is unreached too, or it would have reached the
        server.  A server of capacity 0 and no load is in the cut but need
        not be in N(K).
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
        return clients - free, servers - seen


def _peel(flow: DemandFlow, clients: set[int], servers: set[int], units: int) -> tuple[int, Peel]:
    """Dinkelbach search for the largest client set K of a region maximizing |K| / |N(K)|.

    N(K) counts the region's servers only.  The search starts at ratio lam,
    given as ``units`` = lam D for the flow's scale D, at most the largest
    ratio in the region, with a flow that fits every region server's
    capacity at it.  Every ratio is |K| / |N(K)| with |N(K)| at most the
    region's server count, and the scale is a multiple of every such
    count, so each ratio is carried as these integer units.  Let
    g(K) = D|K| - lam D|N(K)|: every client demands D and every region
    server takes lam D.  A client -> server arc has no capacity, so a
    finite cut with client set K on the source side has N(K) there too,
    and the cheapest one costs D|C| - g(K).  So the flow saturates every
    client iff g <= 0 everywhere, i.e. iff no ratio exceeds lam.

    While the flow does not saturate, the client part K of the minimal min
    cut has g(K) > 0, so |K| / |N(K)| > lam strictly; take it as the next
    lam, which only raises capacities, so the next max flow augments the
    flow already there.  For two consecutive unsaturated rounds, optimality
    of each K at its own lam gives |N(K')| <= |N(K)|, and equality would
    make g vanish at the new lam, i.e. saturate; so |N(K)| strictly falls,
    and there are at most |N(C)| + 1 flows in all.  Once the flow saturates,
    lam is the maximum ratio and every maximizer has g = 0.  g is
    supermodular (|N(.)| is submodular), so the maximizers are closed under
    union, and the client part of the maximal min cut, ``stuck``, is the
    largest one.  Every region server has capacity lam D > 0, so the cut's
    servers are N(K) in the region.  A start above the largest ratio
    saturates at once with g < 0 on every nonempty K, so the maximal cut
    holds no client and the search raises instead of returning a peel.

    N(K) can take only lam D|N(K)| = D|K| units, so in that flow K ships all
    its demand into N(K) and no other client ships anything there: K's flow
    is a spread of K with every server of N(K) at exactly lam.  Returns lam
    D and the peel, whose ratio is the search's one ``Fraction``.
    """
    if units <= 0:
        raise InvariantViolation("a peel search must start at a positive ratio")
    scale = flow.scale
    while True:
        flow.raise_caps(servers, units)
        short, better, hood = flow.max_flow(clients, servers)
        if not short:
            break
        if not better:
            raise InvariantViolation("an unsaturated demand network left no client on the source side")
        ratio = scale * len(better) // hood
        if not ratio > units:
            raise InvariantViolation("the Dinkelbach ratio failed to increase")
        units = ratio
    tight, hood = flow.stuck(clients, servers)
    if not tight or len(tight) * scale != units * len(hood):
        raise InvariantViolation("extracted set does not attain the maximal ratio")
    return units, Peel(Fraction(len(tight), len(hood)), frozenset(tight), frozenset(hood))


def _peel_region(
    flow: DemandFlow, clients: set[int], servers: set[int], floor: Sequence[int]
) -> list[tuple[int, Peel]]:
    """Peel a region to the end; returns each peel with its ratio times the scale.

    The ratios strictly decrease.  Each peel found is taken out of the two
    sets, and every server of the region must neighbor one of its clients.
    The first search keeps the flow the region holds, and ``floor[s]`` is
    at most the ratio of the peel that takes server s, in units of the
    scale, and at least the load s holds.  Each later search starts lower, so it first clears the
    flow of the clients still to peel, which is all that reaches the
    servers left: each peel found fills its own servers exactly.

    Every search starts at max(D|L| / |R|, the largest floor in R), for L
    and R the clients and servers still to peel and D the scale, a
    multiple of |R|.  That is a valid start for ``_peel``:

    - L attains at least |L| / |R|, since every server of R neighbors a
      client of L: a peel takes out all of its clients' neighbors in R.
    - The next peel's ratio is the largest ratio that a server of R ends
      at, so it is at least the largest floor in R.
    - The first search's kept loads are at most their floors, so they fit
      the capacities at the start; later searches start from no load.

    A start above the maximum does not yield a wrong peel: ``_peel`` then
    raises ``extracted set does not attain``.

    The searches never leave the region, and that loses nothing: the peels
    found so far are full, ship only into their own servers, and neighbor
    no server still in the region.  So only region clients ship into region
    servers, and a path into a found peel's server stays among full servers.
    """
    found: list[tuple[int, Peel]] = []
    while clients:
        if found:
            flow.clear(clients)
        units = max(flow.scale * len(clients) // len(servers), max(floor[s] for s in servers))
        units, peel = _peel(flow, clients, servers, units)
        if found and not units < found[-1][0]:
            raise InvariantViolation("peeling must produce strictly decreasing ratios")
        found.append((units, peel))
        clients -= peel.clients
        servers -= peel.servers
        if any(servers.isdisjoint(flow.neighbors[c]) for c in clients):
            raise InvariantViolation("a surviving client lost its whole neighborhood to a peel")
    if servers:
        raise InvariantViolation("a region's peels left one of its servers unpeeled")
    return found


def _fresh_flow(adjacency: Adjacency) -> tuple[DemandFlow, list[int], list[int]]:
    """Every client at zero flow, at scale lcm(1..|N(C)|), so every capacity is an integer.

    Clients and servers take dense kernel indices in ascending id order, so
    any int ids work; returns the flow and the ids of its clients and servers.
    """
    _check_adjacency(adjacency)
    client_ids = sorted(adjacency)
    server_ids = sorted({s for nbrs in adjacency.values() for s in nbrs})
    index = {s: j for j, s in enumerate(server_ids)}
    flow = DemandFlow(len(server_ids), math.lcm(*range(1, len(server_ids) + 1)))
    for c in client_ids:
        flow.add_client(tuple(index[s] for s in adjacency[c]))
    return flow, client_ids, server_ids


def max_ratio(adjacency: Adjacency) -> tuple[Fraction, frozenset[int]]:
    """The largest |K| / |N(K)| over nonempty client sets, and the largest K attaining it.

    Found by a Dinkelbach iteration (Dinkelbach 1967) in exact ``Fraction``
    arithmetic: each round runs one max flow at the current ratio and either
    proves it maximal or moves to the strictly larger ratio of the minimal
    min cut's clients.  It starts at |C| / |N(C)|, on a fresh flow; at most
    |N(C)| + 1 flows, see ``_peel``.
    """
    if not adjacency:
        raise ValueError("max_ratio needs at least one client")
    flow, client_ids, server_ids = _fresh_flow(adjacency)
    clients, servers = set(range(len(client_ids))), set(range(len(server_ids)))
    _, peel = _peel(flow, clients, servers, flow.scale * len(clients) // len(servers))
    return peel.ratio, frozenset(client_ids[c] for c in peel.clients)


def balanced_flow(adjacency: Adjacency, server_count: int | None = None) -> BalancedFlow:
    """Compute the unique balanced spread by iterated peeling.

    ``_peel_region`` peels the whole graph on a fresh flow that holds every
    client at zero, with every floor at zero, so each search starts at
    |C| / |N(C)| of what is left.  Each peel fixes its ratio as the
    necessity of its servers, and its clients' flow, which no later search
    touches, is a realizing spread.  The ratio searches are the only max flows.  Servers
    a peel never touches end at necessity 0.
    """
    flow, client_ids, server_ids = _fresh_flow(adjacency)
    clients, servers = set(range(len(client_ids))), set(range(len(server_ids)))
    scale = flow.scale
    found = _peel_region(flow, clients, servers, [0] * len(server_ids))
    necessity = {} if server_count is None else {s: Fraction(0) for s in range(server_count)}
    peels = []
    for _, peel in found:
        hood = frozenset(server_ids[s] for s in peel.servers)
        necessity.update(dict.fromkeys(hood, peel.ratio))
        peels.append(Peel(peel.ratio, frozenset(client_ids[c] for c in peel.clients), hood))
    edge_flow = {
        (client_ids[c], server_ids[s]): Fraction(units, scale)
        for c, out in enumerate(flow.ships)
        for s, units in out.items()
    }
    return BalancedFlow(necessity, edge_flow, tuple(peels))


class PrefixBalance:
    """Balanced necessities and peels of every prefix of one arrival stream.

    One ``DemandFlow`` serves the whole run, at the scale D = lcm(1..S):
    every client ships D units, and a server's capacity is its necessity
    times D, kept as ``units``.  Every ratio is |K| / |N(K)| with |N(K)| <= S,
    so every capacity is an integer, and every ratio is compared in these
    integer units.  Between arrivals the flow fills every client and every
    server exactly; such a flow is a balanced spread, so each peel ships
    only into its own servers.

    ``add(client)`` admits the next client and appends the largest necessity
    to ``maxima``; a client with no neighbors changes nothing else.  Let g
    be the least necessity among the client's neighbors.  A peel of ratio
    below g keeps its clients, servers and flow (the locality law): the
    clients of the peels of ratio at least g, plus the new one, have every
    neighbor among those peels' servers and the new client's neighbors, and
    re-peeling that region gives ratios of at least g.  ``_peel_region``
    peels that region:

    - The floors are the old ``units``.  Necessities never fall when a
      client arrives, so each is at most the server's new ratio.
    - The first search keeps the previous prefix's flow, which fills each
      server to its old units exactly, so server capacities only rise.

    The flows never leave the region, and for the peels kept below the gate
    that loses nothing: they ship only into their own servers, which no
    region client neighbors.

    Above the gate, the top peels the new client c cannot reach are kept as
    well, with no search.  Walk the peels from the top; let peel k have
    ratio r and N' be c's neighbors outside the peels kept so far.  Keep
    peel k when the sum over N' of r - v(s) exceeds 1, for v the old
    necessities (in units: the sum of R_k - units[s] exceeds D), and stop at
    the first peel that fails.  That is exact.  With the peels above k
    kept, what is left is the old graph less those peels, whose peels are
    k, k+1, ..., so every server left has v <= r, plus c with neighbors N'.
    An old client set K0 that is left ships all its demand into N(K0), so
    |K0| <= the sum of v over N(K0).  If K0 + c reached ratio r, then
    |K0| + 1 >= r |N(K0) + N'|, so 1 >= the sum of r - v over N(K0) plus
    the sum of r over N' - N(K0), which is at least the sum of r - v over
    N', since no term is negative.  So when the test passes, every set
    holding c stays below r, the old sets are as they were, and peel k
    stays the largest set of the largest ratio in what is left.  The region
    re-peeled is then c and the peels from the first that fails down to
    the gate, with c's neighbors less the kept peels' servers.  A kept
    peel's clients neighbor only kept servers, which stay full, so the
    flows lose nothing by not entering them.
    """

    def __init__(self, instance: ArrivalInstance):
        self.instance = instance
        servers = instance.server_count
        self.scale = math.lcm(*range(1, servers + 1))
        self._flow = DemandFlow(servers, self.scale)
        self.necessity: dict[int, Fraction] = {s: Fraction(0) for s in range(servers)}
        self.units = [0] * servers  # necessity * scale
        self.peels: tuple[Peel, ...] = ()
        self._peel_units: tuple[int, ...] = ()  # each peel's ratio * scale
        self.maxima: list[Fraction] = []
        self.arrived = 0
        # Peels an arrival kept by the neighbor-slack test, with no search;
        # cumulative and deterministic, like the flow's ``level_searches``.
        self.kept_peels = 0

    def max_necessity(self) -> Fraction:
        return self.peels[0].ratio if self.peels else Fraction(0)

    def add(self, client: int) -> tuple[int, ...]:
        """Admit the next client; returns the servers whose necessity changed, ascending."""
        if client != self.arrived:
            raise ValueError(f"clients arrive in order; expected {self.arrived}, got {client}")
        if client >= self.instance.client_count:
            raise ValueError("client id beyond the instance")
        self.arrived += 1
        neighbors = self.instance.neighbors(client)
        flow = self._flow
        flow.add_client(neighbors)
        if not neighbors:
            self.maxima.append(self.max_necessity())
            return ()
        units, peel_units = self.units, self._peel_units
        gate = min(units[s] for s in neighbors)
        split = 0
        while split < len(peel_units) and peel_units[split] >= gate:
            split += 1
        # Keep the top peels that the new client cannot reach (see the class docstring).
        scale, peels = self.scale, self.peels
        rest = neighbors
        keep = 0
        while keep < split and sum(peel_units[keep] - units[s] for s in rest) > scale:
            kept = peels[keep].servers
            rest = [s for s in rest if s not in kept]
            keep += 1
        self.kept_peels += keep
        upper = peels[keep:split]

        clients = {client}.union(*(p.clients for p in upper))
        servers = set(rest).union(*(p.servers for p in upper))
        found = _peel_region(flow, clients, servers, units)
        if keep and not found[0][0] < peel_units[keep - 1]:
            raise InvariantViolation("a re-peeled region does not sit below the peels it kept")
        if split < len(peel_units) and not peel_units[split] < found[-1][0]:
            raise InvariantViolation("a re-peeled region does not sit above the peels it kept")

        changed = []
        for ratio, peel in found:
            for s in peel.servers:
                if units[s] != ratio:
                    if units[s] > ratio:
                        raise InvariantViolation(f"necessity of server {s} fell")
                    units[s] = ratio
                    self.necessity[s] = peel.ratio
                    changed.append(s)
        self.peels = (*peels[:keep], *(peel for _, peel in found), *peels[split:])
        self._peel_units = (*peel_units[:keep], *(ratio for ratio, _ in found), *peel_units[split:])
        self.maxima.append(self.peels[0].ratio)
        return tuple(sorted(changed))


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
