"""Executable property checks tying the engines to their oracles and bounds.

Each check returns a CheckResult; `verify_instance` runs the full battery off
one stepped run per engine.  The flow-based checks need every client to have
a neighbor, and the comparison with the enumeration oracle a small client
count, so they are skipped with a notice where they do not apply.
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
from .matching import MatchState, RunLog, SapEngine
from .oracles import hopcroft_karp_size, oracle_balanced_flow, oracle_shortest_aug_path

LONG_PATH_FACTOR = 4.0  # paths longer than h: at most 4 n ln(n) / h
ORACLE_CLIENT_LIMIT = 16  # the enumeration oracle runs up to this many clients
TOTAL_LENGTH_FACTOR = 8.0  # per doubling level: at most 8 n ln(n) edges


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


def check_replacement_accounting(log: RunLog) -> CheckResult:
    cum_r = sum(r.replacements for r in log.records)
    cum_e = sum(r.path_edges or 0 for r in log.records)
    ok = cum_r == log.total_replacements and cum_e == log.total_path_edges
    for rec in log.records:
        if rec.matched and rec.replacements != (rec.path_edges - 1) // 2:
            ok = False
    return CheckResult("replacement-accounting", ok)


def check_long_path_counts(log: RunLog, n: int) -> CheckResult:
    if n < 2:
        return CheckResult("long-path-counts", None, "needs at least two clients")
    h = 1
    while h <= 2 * n:
        count = log.count_paths_longer_than(h)
        if count > long_path_bound(n, h):
            return CheckResult(
                "long-path-counts",
                False,
                f"{count} paths longer than {h}, bound {long_path_bound(n, h):.2f}",
            )
        h *= 2
    return CheckResult("long-path-counts", True)


def check_total_path_length(log: RunLog, n: int) -> CheckResult:
    if n < 2:
        return CheckResult("total-path-length", None, "needs at least two clients")
    bound = total_length_bound(n)
    ok = log.total_path_edges <= bound
    return CheckResult(
        "total-path-length", ok, f"{log.total_path_edges} edges, bound {bound:.1f}"
    )


class _FlowChecks:
    """Per-arrival necessity checks, fed the state of a stepped ``SapEngine``.

    All of them need every client to have a neighbor.  Only
    ``necessity-vs-oracle`` enumerates subsets, so only it is skipped above
    ``ORACLE_CLIENT_LIMIT`` clients.
    """

    ORACLE = "necessity-vs-oracle"
    NAMES = (
        ORACLE,
        "necessity-monotone",
        "necessity-locality",
        "balanced-flow-invariants",
        "expansion-tails",
    )

    def __init__(self, instance: ArrivalInstance):
        self.instance = instance
        self.skip: Optional[str] = None
        if any(not nbrs for _, nbrs in instance.arrivals):
            self.skip = "instance has a client with no neighbors"
        self.oracle_skip = self.skip
        if self.skip is None and instance.client_count > ORACLE_CLIENT_LIMIT:
            self.oracle_skip = f"more than {ORACLE_CLIENT_LIMIT} clients for the enumeration oracle"
        self.failures: dict[str, CheckResult] = {}
        self.effective_adjacency: dict[int, tuple[int, ...]] = {}
        self.previous = {s: Fraction(0) for s in range(instance.server_count)}

    def fail(self, name: str, detail: str) -> None:
        self.failures.setdefault(name, CheckResult(name, False, detail))

    def arrival(self, c: int, matched: bool, state: MatchState) -> None:
        if self.skip is not None:
            return
        instance, fail, previous = self.instance, self.fail, self.previous
        # The matching stays maximum, so the clients the run matched on arrival
        # are the effective clients (see ``effective_clients``).
        if matched:
            self.effective_adjacency[c] = instance.neighbors(c)
        prefix = instance.prefix_adjacency(c + 1)
        flow = balanced_flow(prefix, server_count=instance.server_count)
        try:
            flow.check(prefix)
        except Exception as exc:  # noqa: BLE001 - surfaced as a check failure
            fail("balanced-flow-invariants", f"arrival {c}: {exc}")
        if self.oracle_skip is None:
            oracle = oracle_balanced_flow(prefix, server_count=instance.server_count)
            if oracle != flow.necessity:
                fail(self.ORACLE, f"arrival {c}: maps differ")
        for s in range(instance.server_count):
            if flow.necessity[s] < previous[s]:
                fail("necessity-monotone", f"arrival {c}: server {s} decreased")
        neighbors = instance.neighbors(c)
        if neighbors:
            gate = min(previous[s] for s in neighbors)
            for s in range(instance.server_count):
                if previous[s] < gate and flow.necessity[s] != previous[s]:
                    fail(
                        "necessity-locality",
                        f"arrival {c}: server {s} below the gate changed",
                    )
        self.previous = flow.necessity

        # Expansion: a server that is not fully necessary has a short way out.
        effective = balanced_flow(
            self.effective_adjacency, server_count=instance.server_count
        ).necessity
        if any(v > 1 for v in effective.values()):
            raise InvariantViolation("effective necessities can never exceed 1")
        count = len(self.effective_adjacency)
        tails = shortest_tails(instance, state)
        for s in range(instance.server_count):
            if effective[s] >= 1:
                continue
            bound = expansion_tail_bound(1 - effective[s], count)
            tail = tails[s]
            if tail is None or tail > bound:
                fail(
                    "expansion-tails",
                    f"arrival {c}: server {s} tail {tail}, bound {bound}",
                )

    def results(self) -> list[CheckResult]:
        results = []
        for name in self.NAMES:
            skip = self.oracle_skip if name == self.ORACLE else self.skip
            if skip is not None:
                results.append(CheckResult(name, None, skip))
            else:
                results.append(self.failures.get(name, CheckResult(name, True)))
        return results


def verify_instance(instance: ArrivalInstance) -> list[CheckResult]:
    """The full battery for one unit-capacity instance, from one stepped run per engine.

    After every arrival both matchings must be maximum (phased-search
    oracle), the fast engine's path length must match a fresh snapshot
    search, and the naive engine's state feeds the flow checks.
    """
    if not instance.has_unit_capacities():
        raise ValueError("verification replays expect unit capacities")
    n, servers = instance.client_count, instance.server_count
    naive, fast = SapEngine(instance), FastSapEngine(instance)
    flow_checks = _FlowChecks(instance)
    neighbors = [instance.neighbors(c) for c in range(n)]
    maximality = CheckResult("matching-maximality", True, f"{n} arrivals")
    parity = CheckResult("fast-oracle-parity", True)
    size_naive = size_fast = 0
    for c in range(n):
        snapshot = fast.state.server_of_client + [None]
        rec, fast_rec = naive.step(c), fast.step(c)
        size_naive += rec.matched
        size_fast += fast_rec.matched
        want = hopcroft_karp_size(neighbors[: c + 1], servers)
        if maximality.passed and (size_naive != want or size_fast != want):
            maximality = CheckResult(
                "matching-maximality",
                False,
                f"after arrival {c}: naive {size_naive}, fast {size_fast}, maximum {want}",
            )
        want = oracle_shortest_aug_path(neighbors, snapshot, [1] * servers, c)
        if parity.passed and fast_rec.path_edges != want:
            parity = CheckResult(
                "fast-oracle-parity",
                False,
                f"arrival {c}: engine {fast_rec.path_edges}, oracle {want}",
            )
        flow_checks.arrival(c, rec.matched, naive.state)
    fast.tree.validate_against_bfs()  # what ``FastSapEngine.run`` does last
    log = naive.log
    # Ties may lead the two engines to different matchings, so per-arrival
    # lengths are not comparable across engines; matched/unmatched is.
    outcomes_match = [r.matched for r in log.records] == [
        r.matched for r in fast.log.records
    ]
    return [
        maximality,
        check_replacement_accounting(log),
        check_long_path_counts(log, n),
        check_total_path_length(log, n),
        CheckResult("engine-outcome-parity", outcomes_match),
        parity,
        *flow_checks.results(),
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
