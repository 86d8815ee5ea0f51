"""Executable property checks tying the engines to their oracles and bounds.

`verify_instance` runs the battery named in `CHECKS` off one stepped run per
engine and reports one CheckResult per check.  The flow-based checks need
every client to have a neighbor, the comparison with the enumeration oracle a
small client count, and the path-length bounds two clients, so each is
skipped with a notice where it does not apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .balance import balanced_flow
from .errors import InvariantViolation
from .fast_engine import FastSapEngine
from .generators import gen_complete, gen_minmax_adversary, gen_random, gen_star_chain
from .instance import ArrivalInstance
from .matching import MatchState, SapEngine
from .oracles import hopcroft_karp_size, oracle_balanced_flow, oracle_shortest_aug_path

LONG_PATH_FACTOR = 4.0  # paths longer than h: at most 4 n ln(n) / h
ORACLE_CLIENT_LIMIT = 16  # the enumeration oracle runs up to this many clients
TOTAL_LENGTH_FACTOR = 8.0  # per doubling level: at most 8 n ln(n) edges

# The battery, in report order; the last five are the flow checks.
CHECKS = (
    "matching-maximality",
    "replacement-accounting",
    "long-path-counts",
    "total-path-length",
    "engine-outcome-parity",
    "naive-oracle-parity",
    "fast-oracle-parity",
    "necessity-vs-oracle",
    "necessity-monotone",
    "necessity-locality",
    "balanced-flow-invariants",
    "expansion-tails",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: Optional[bool]  # None = skipped
    detail: str = ""

    @property
    def label(self) -> str:
        if self.passed is None:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


def long_path_bound(n: int, h: int) -> float:
    return LONG_PATH_FACTOR * n * math.log(n) / h


def total_length_bound(n: int) -> float:
    return TOTAL_LENGTH_FACTOR * n * math.log(n) * (math.floor(math.log2(n)) + 2)


def expansion_tail_bound(slack: Fraction, effective_count: int) -> int:
    """Finite tail-length bound for a server whose necessity is 1 - slack.

    Every expansion round multiplies the reachable client count by
    1/(1-slack), so after floor(ln(count)/slack) + 1 rounds a spare slot is
    in reach; each round adds two edges.  The "+ 1" round is needed because
    with one effective client ln(1) = 0, yet a matched server still needs a
    tail of two edges to reach a spare slot.
    """
    if effective_count <= 0:
        return 0
    rounds = math.floor(float(1 / slack) * (math.log(effective_count) + 1e-12)) + 1
    return 2 * rounds


def shortest_tails(instance: ArrivalInstance, state: MatchState) -> list[Optional[int]]:
    """Edge count of the shortest alternating walk from each server to spare capacity.

    A server with a spare slot has tail 0.  Multi-source backward search:
    matched clients are entered from the server they would move to, servers
    from any adjacent client whose current server differs.
    """
    server_adj: list[list[int]] = [[] for _ in range(instance.server_count)]
    for c in range(state.arrived_count):
        for s in instance.neighbors(c):
            server_adj[s].append(c)
    dist_server: dict[int, int] = {
        s: 0 for s in range(instance.server_count) if state.is_free(s)
    }
    dist_client: dict[int, int] = {}
    frontier = list(dist_server)
    while frontier:
        new_clients = []
        for s in frontier:
            d = dist_server[s]
            for c in server_adj[s]:
                if state.server_of_client[c] is not None and state.server_of_client[c] != s:
                    if c not in dist_client:
                        dist_client[c] = d + 1
                        new_clients.append(c)
        frontier_servers = []
        for c in new_clients:
            home = state.server_of_client[c]
            if home not in dist_server:
                dist_server[home] = dist_client[c] + 1
                frontier_servers.append(home)
        frontier = frontier_servers
    return [dist_server.get(s) for s in range(instance.server_count)]


def verify_instance(instance: ArrivalInstance) -> list[CheckResult]:
    """The full battery for one unit-capacity instance, from one stepped run per engine.

    After every arrival both matchings must be maximum (phased-search
    oracle), each engine's path length must match a fresh search of its
    own pre-arrival snapshot, and the naive engine's state feeds the flow
    checks.  A check is skipped where ``skips`` names it, else it passes
    unless ``fail`` recorded a failure, and then it reports the first.
    """
    if not instance.has_unit_capacities():
        raise ValueError("verification replays expect unit capacities")
    n, servers = instance.client_count, instance.server_count
    skips: dict[str, str] = {}
    if n < 2:
        skips.update(dict.fromkeys(("long-path-counts", "total-path-length"),
                                   "needs at least two clients"))
    # Every flow check needs every client to have a neighbor; only the
    # comparison with the enumeration oracle needs few clients.
    isolated = any(not nbrs for _, nbrs in instance.arrivals)
    if isolated:
        skips.update(dict.fromkeys(CHECKS[-5:], "instance has a client with no neighbors"))
    elif n > ORACLE_CLIENT_LIMIT:
        skips["necessity-vs-oracle"] = (
            f"more than {ORACLE_CLIENT_LIMIT} clients for the enumeration oracle"
        )
    failures: dict[str, str] = {}
    passes = {"matching-maximality": f"{n} arrivals"}

    def fail(name: str, detail: str = "") -> None:
        failures.setdefault(name, detail)

    naive, fast = SapEngine(instance), FastSapEngine(instance)
    neighbors = [instance.neighbors(c) for c in range(n)]
    size_naive = size_fast = replaced = walked = 0
    effective_adjacency: dict[int, tuple[int, ...]] = {}
    previous = {s: Fraction(0) for s in range(servers)}
    for c in range(n):
        snapshot = naive.state.server_of_client + [None]
        fast_snapshot = fast.state.server_of_client + [None]
        rec, fast_rec = naive.step(c), fast.step(c)
        size_naive += rec.matched
        size_fast += fast_rec.matched
        want = hopcroft_karp_size(neighbors[: c + 1], servers)
        if size_naive != want or size_fast != want:
            fail("matching-maximality",
                 f"after arrival {c}: naive {size_naive}, fast {size_fast}, maximum {want}")
        logged = naive.log.records[-1]  # the checks below audit the log, not step's return
        want = oracle_shortest_aug_path(neighbors, snapshot, [1] * servers, c)
        if logged.path_edges != want:
            fail("naive-oracle-parity", f"arrival {c}: engine {logged.path_edges}, oracle {want}")
        want = oracle_shortest_aug_path(neighbors, fast_snapshot, [1] * servers, c)
        if fast_rec.path_edges != want:
            fail("fast-oracle-parity", f"arrival {c}: engine {fast_rec.path_edges}, oracle {want}")
        replaced += logged.replacements
        walked += logged.path_edges or 0
        if logged.matched and logged.replacements != (logged.path_edges - 1) // 2:
            fail("replacement-accounting",
                 f"arrival {c}: {logged.replacements} replacements on {logged.path_edges} edges")
        totals = naive.log.total_replacements, naive.log.total_path_edges
        if totals != (replaced, walked):
            fail("replacement-accounting", f"after arrival {c}: totals {totals[0]} replacements, "
                                           f"{totals[1]} edges; records {replaced}, {walked}")
        # Ties may lead the two engines to different matchings, so per-arrival
        # lengths are not comparable across engines; matched/unmatched is.
        outcomes = logged.matched, fast_rec.matched
        if outcomes[0] != outcomes[1]:
            naive_says, fast_says = ("matched" if m else "unmatched" for m in outcomes)
            fail("engine-outcome-parity", f"arrival {c}: naive {naive_says}, fast {fast_says}")
        if isolated:
            continue

        # The matching stays maximum, so the clients the run matched on arrival
        # are the effective clients (see ``effective_clients``).
        if rec.matched:
            effective_adjacency[c] = neighbors[c]
        prefix = instance.prefix_adjacency(c + 1)
        flow = balanced_flow(prefix, server_count=servers)
        try:
            flow.check(prefix)
        except Exception as exc:  # noqa: BLE001 - surfaced as a check failure
            fail("balanced-flow-invariants", f"arrival {c}: {exc}")
        if "necessity-vs-oracle" not in skips:
            if oracle_balanced_flow(prefix, server_count=servers) != flow.necessity:
                fail("necessity-vs-oracle", f"arrival {c}: maps differ")
        gate = min(previous[s] for s in neighbors[c])
        for s in range(servers):
            if flow.necessity[s] < previous[s]:
                fail("necessity-monotone", f"arrival {c}: server {s} decreased")
            if previous[s] < gate and flow.necessity[s] != previous[s]:
                fail("necessity-locality", f"arrival {c}: server {s} below the gate changed")
        previous = flow.necessity

        # Expansion: a server that is not fully necessary has a short way out.
        effective = balanced_flow(effective_adjacency, server_count=servers).necessity
        if any(v > 1 for v in effective.values()):
            raise InvariantViolation("effective necessities can never exceed 1")
        tails = shortest_tails(instance, naive.state)
        for s in range(servers):
            if effective[s] >= 1:
                continue
            bound = expansion_tail_bound(1 - effective[s], len(effective_adjacency))
            if tails[s] is None or tails[s] > bound:
                fail("expansion-tails", f"arrival {c}: server {s} tail {tails[s]}, bound {bound}")
    fast.tree.validate_against_bfs()  # what ``FastSapEngine.run`` does last

    log = naive.log
    if n >= 2:
        h = 1
        while h <= 2 * n:
            count = log.count_paths_longer_than(h)
            if count > long_path_bound(n, h):
                fail("long-path-counts",
                     f"{count} paths longer than {h}, bound {long_path_bound(n, h):.2f}")
            h *= 2
        bound = total_length_bound(n)
        passes["total-path-length"] = f"{log.total_path_edges} edges, bound {bound:.1f}"
        if log.total_path_edges > bound:
            fail("total-path-length", passes["total-path-length"])

    return [
        CheckResult(name, None, skips[name]) if name in skips
        else CheckResult(name, name not in failures, failures.get(name, passes.get(name, "")))
        for name in CHECKS
    ]


def builtin_small_suite() -> list[tuple[str, ArrivalInstance]]:
    """The in-repo corpus exercised by `sapmatch verify --suite small`."""
    suite: list[tuple[str, ArrivalInstance]] = [
        ("complete-10x20", gen_complete(10, 20)),
        ("complete-10x10", gen_complete(10, 10)),
        ("complete-1x1", gen_complete(1, 1)),
        ("star-3-on-1", ArrivalInstance.build(1, [[0], [0], [0]])),
        ("two-components", ArrivalInstance.build(3, [[0], [0], [1, 2]])),
        ("tail-worst-case", ArrivalInstance.build(4, [[0, 1], [1, 2, 3]])),
        ("star-chain-4", gen_star_chain(4)),
        ("adversary-4", gen_minmax_adversary(4)),
    ]
    for seed in range(4):
        suite.append((f"random-{seed}", gen_random(5, 10, 2, seed=101 + seed)))
    return suite
