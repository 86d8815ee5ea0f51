"""Timed rounds over one workload: set-up, correctness gate and metrics.

One process, one caller, a closed loop: each arrival is fed only after the
previous one has been processed.  A round runs every instance of every job
of the workload ``reps`` times, each time on a fresh engine.  Rounds repeat
until the next one would overrun the time budget, with at least
``MIN_ROUNDS`` of them.

Every run passes through the correctness gate; a run that fails a check, or
raises, counts all of its arrivals as failed.

The naive and fast engines are timed per arrival, the other modes per
engine run.  Each arrival (or each instance, for the other modes) is
represented by the median of its times over all runs in the process.
Throughput is arrivals divided by the sum of those times; the latency
percentiles are taken over the per-arrival times.

The machine these runs share changes speed by up to 1.6x, in phases from
under a second to minutes long, for every program on it alike.  So a fixed
reference workload (``Reference``) is timed in short ticks: inside a
stepped run after every ``TICK_EVERY_NS`` of engine time, and before and
after every other engine run and every set-up.  Times are reported at
reference speed: each stretch of engine time between two ticks is scaled by
the reference's nominal chunk time over the mean of the two ticks.  The
scale depends on the machine alone, not on the program under test.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import sys
import traceback
from array import array
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, perf_counter_ns
from typing import Any, Optional

from tracing import NS, ROUND_METRICS, Tracer
from workloads import WORKLOADS, Job

# Set-up repeats at least SETUP_REPS times and until SETUP_SECONDS have passed.
SETUP_REPS = 5
SETUP_SECONDS = 1.0
MIN_ROUNDS = 3
EPSILON = Fraction(1, 2)
STEPPED = ("naive", "fast")
FAST_COUNTERS = ("tree_paths", "brute_paths", "brute_failures", "pruned_nodes")
# The reference: a chunk is a breadth-first search over a fixed random
# digraph, nominally REF_CHUNK_NS long; a tick is the median of TICK_CHUNKS
# chunks.  Inside stepped runs a tick follows every TICK_EVERY_NS of engine
# time, which spends about a twentieth of the time on the reference.
REF_NODES = 600
REF_CHUNK_NS = 250_000
TICK_CHUNKS = 5
TICK_EVERY_NS = 25_000_000


class SetupError(Exception):
    """The workload could not be built (a failed text round trip, for instance)."""


@dataclass
class Expect:
    """Oracle values for one instance of one job, computed once and untimed."""

    matched: int
    log: Any = None
    opt: int = 0
    forced: int = 0
    allowance: list[int] = field(default_factory=list)


@dataclass
class Sample:
    """One engine run: key is (job index, instance index)."""

    key: tuple[int, int]
    arrivals: int
    wall_ns: int = 0  # as measured
    ref_ns: float = 0.0  # at reference speed (as measured in traced runs)
    step_ns: Optional[array] = None  # per arrival, at reference speed
    problems: list[str] = field(default_factory=list)


class Reference:
    """A fixed pure-Python workload that gauges the machine's speed.

    A chunk walks a random digraph of ``REF_NODES`` nodes, out-degree 3,
    breadth first, with a deque and a dict of parents: the operations the
    engines spend their time on.  The digraph is the same in every process
    (it does not depend on the benchmark seed), and the collector is off
    during a chunk, so a chunk's time depends on the machine alone.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self.adjacency = [[rng.randrange(REF_NODES) for _ in range(3)] for _ in range(REF_NODES)]
        self.ticks: list[float] = []

    def _chunk(self) -> int:
        adjacency = self.adjacency
        parent = {0: None}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        return len(parent)

    def tick(self) -> float:
        """The median time of ``TICK_CHUNKS`` chunks, in nanoseconds."""
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(TICK_CHUNKS):
                start = perf_counter_ns()
                self._chunk()
                times.append(perf_counter_ns() - start)
        finally:
            if enabled:
                gc.enable()
        tick = statistics.median(times)
        self.ticks.append(tick)
        return tick

    def speed(self) -> float:
        """The machine's median speed over every tick, as a share of nominal."""
        return REF_CHUNK_NS / statistics.median(self.ticks)


def at_reference_speed(before: float, after: float) -> float:
    """Reference-speed time per measured time between two ticks (below 1 while the machine runs slow)."""
    return 2 * REF_CHUNK_NS / (before + after)


def _hk(sm, instance, copies: list[int]) -> int:
    """Maximum matching size with ``copies[s]`` interchangeable slots on server ``s``."""
    starts = [0]
    for units in copies:
        starts.append(starts[-1] + units)
    neighbors = [
        [slot for s in instance.neighbors(c) for slot in range(starts[s], starts[s + 1])]
        for c in range(instance.client_count)
    ]
    return sm.hopcroft_karp_size(neighbors, starts[-1])


def _engine(sm, mode: str, instance):
    return sm.SapEngine(instance) if mode == "naive" else sm.FastSapEngine(instance)


def set_up(sm, built: list[Job]) -> tuple[list[Job], dict[tuple[int, int], Any]]:
    """Round-trip every instance through the text format, as ``sapmatch run`` loads a file,
    and build the engines of the stepped jobs for the first round."""
    parsed: dict[int, Any] = {}
    jobs = []
    for job in built:
        instances = []
        for instance in job.instances:
            if id(instance) not in parsed:
                copy = sm.textio.parse_instance(sm.textio.format_instance(instance))
                if copy != instance:
                    raise SetupError(f"{job.mode}: an instance changed in the text round trip")
                parsed[id(instance)] = copy
            instances.append(parsed[id(instance)])
        jobs.append(Job(job.mode, tuple(instances), job.reps, job.adversary_load))
    engines = {
        (j, i): _engine(sm, job.mode, instance)
        for j, job in enumerate(jobs)
        if job.mode in STEPPED
        for i, instance in enumerate(job.instances)
    }
    return jobs, engines


def expectation(sm, job: Job, instance) -> Expect:
    servers = instance.server_count
    if job.mode in STEPPED:
        return Expect(matched=_hk(sm, instance, [1] * servers))
    if job.mode == "capacitated":
        _, native = sm.SapEngine(instance).run()
        return Expect(matched=_hk(sm, instance, list(instance.capacities)), log=native)
    if job.mode == "minmax":
        servable = sum(1 for _, nbrs in instance.arrivals if nbrs)
        lo, hi = 1, max(1, servable)
        while lo < hi:
            mid = (lo + hi) // 2
            if _hk(sm, instance, [mid] * servers) == servable:
                hi = mid
            else:
                lo = mid + 1
        L = job.adversary_load
        forced = (L // 4) * (L // 2 - 1) * (L // 2) // 2 if L else 0
        return Expect(matched=servable, opt=lo, forced=forced)
    flow = sm.balanced_flow(instance.prefix_adjacency(), server_count=servers)
    allowance = [math.ceil((1 + EPSILON) * flow.necessity[s]) for s in range(servers)]
    return Expect(matched=instance.client_count, allowance=allowance)


def _run(sm, mode: str, instance, engine, tracer: Optional[Tracer], reference: Optional[Reference]):
    """One engine run: (state, log, epochs or None, per-arrival ns or None, wall ns, ns at reference speed, engine).

    Without a reference (traced runs), times stay as measured.
    """
    tick = reference.tick if reference is not None else lambda: REF_CHUNK_NS
    if mode in STEPPED:
        engine = engine or _engine(sm, mode, instance)
        if tracer is not None and mode == "fast":
            tracer.attach_tree(engine)
        n = instance.client_count
        times = array("d", bytes(8 * n))
        step = engine.step
        clock = perf_counter_ns
        wall = since = first = 0
        before = tick()
        for client in range(n):
            start = clock()
            step(client)
            elapsed = clock() - start
            times[client] = elapsed
            since += elapsed
            if since >= TICK_EVERY_NS or client == n - 1:
                after = tick()
                scale = at_reference_speed(before, after)
                for k in range(first, client + 1):
                    times[k] *= scale
                wall += since
                before, since, first = after, 0, client + 1
        if tracer is not None:
            tracer.detach_trees()
        return engine.state, engine.log, None, times, wall, sum(times), engine
    before = tick()
    start = perf_counter_ns()
    epochs = None
    if mode == "capacitated":
        state, log = sm.run_capacitated(instance)
    elif mode == "minmax":
        state, log, epochs = sm.run_minmax(instance)
    else:
        state, log = sm.run_semi_matching(instance, EPSILON)
    wall = perf_counter_ns() - start
    return state, log, epochs, None, wall, wall * at_reference_speed(before, tick()), None


def _check(job: Job, expect: Expect, state, log, epochs, engine) -> list[str]:
    problems = []
    state.check_consistent()
    matched = state.matched_count()
    if matched != expect.matched:
        problems.append(f"matched {matched} clients, the oracle says {expect.matched}")
    if job.mode == "fast":
        type(engine.tree).validate_against_bfs(engine.tree)  # what FastSapEngine.run does last
    elif job.mode == "capacitated" and log != expect.log:
        problems.append("log differs from the native-capacity SapEngine log")
    elif job.mode == "minmax":
        opt = epochs[-1].opt if epochs else 0
        top = max(state.load(s) for s in range(len(state.clients_of_server)))
        if opt != expect.opt or top != expect.opt:
            problems.append(f"final opt {opt} and max load {top}, expected {expect.opt}")
        if job.adversary_load and (opt != job.adversary_load or log.total_replacements < expect.forced):
            problems.append(f"adversary: opt {opt}, {log.total_replacements} replacements < {expect.forced}")
    elif job.mode == "semi":
        over = [s for s, cap in enumerate(expect.allowance) if state.load(s) > cap]
        if over:
            problems.append(f"servers {over[:5]} exceed ceil((1+eps) * necessity)")
    return problems


class Bench:
    """All runs of one workload in one process."""

    def __init__(self, sm, workload: str, seed: int, trace: bool, sizes: Optional[dict] = None):
        self.sm = sm
        self.workload = workload
        self.seed = seed
        self.sizes = sizes or {}
        self.tracer = Tracer() if trace else None
        self.reference = Reference()
        self.samples: list[Sample] = []
        self.problems: list[str] = []
        self.setup_s: list[float] = []  # at reference speed
        self.setup_layers: list[dict[str, float]] = []
        self.round_wall: dict[bool, list[int]] = {False: [], True: []}
        self.round_layers: list[dict[str, float]] = []
        self.ref_logs: dict[tuple[int, int], Any] = {}
        self.peak_rss_mb = 0.0
        self._ref_matched: dict[int, list[bool]] = {}

    def set_up(self) -> None:
        """Build the workload repeatedly (timed), then its oracle values (untimed)."""
        tracer = self.tracer
        rep = elapsed = 0
        while rep < SETUP_REPS or elapsed < SETUP_SECONDS:
            gc.collect()
            if tracer is not None:
                tracer.reset()
                tracer.begin_run(f"setup {rep}")
                tracer.install()
            before = self.reference.tick()
            start = perf_counter()
            try:
                self.jobs, self.engines = set_up(self.sm, WORKLOADS[self.workload](self.sm, self.seed, **self.sizes))
            finally:
                seconds = perf_counter() - start
                elapsed += seconds
                self.setup_s.append(seconds * at_reference_speed(before, self.reference.tick()))
                if tracer is not None:
                    tracer.uninstall()
                    self.setup_layers.append(tracer.setup_metrics())
            rep += 1
        self.expect = {
            (j, i): expectation(self.sm, job, instance)
            for j, job in enumerate(self.jobs)
            for i, instance in enumerate(job.instances)
        }

    def run_round(self, index: int, traced: bool) -> None:
        tracer = self.tracer if traced else None
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        wall = 0
        try:
            for j, job in enumerate(self.jobs):
                for i, instance in enumerate(job.instances):
                    for rep in range(job.reps):
                        if tracer is not None:
                            tracer.begin_run(f"round {index} {job.mode} instance {i} rep {rep}")
                        sample = self._sample(j, i, tracer)
                        wall += sample.wall_ns
                        self.samples.append(sample)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.round_wall[traced].append(wall)
        if tracer is not None:
            self.round_layers.append(tracer.round_metrics())

    def _sample(self, j: int, i: int, tracer: Optional[Tracer]) -> Sample:
        job = self.jobs[j]
        instance = job.instances[i]
        sample = Sample((j, i), instance.client_count)
        try:
            state, log, epochs, sample.step_ns, sample.wall_ns, sample.ref_ns, engine = _run(
                self.sm, job.mode, instance, self.engines.pop((j, i), None), tracer, None if tracer else self.reference
            )
            sample.problems = _check(job, self.expect[j, i], state, log, epochs, engine)
        except Exception as exc:  # a crash in the program is a failed run, not a benchmark crash
            traceback.print_exc(file=sys.stderr)
            sample.problems = [f"{job.mode} raised {exc!r}"]
            return sample
        if tracer is not None and job.mode == "fast":
            for counter in FAST_COUNTERS:
                tracer.counts[f"fast_engine.{counter}"] += getattr(log, counter)
        if log != self.ref_logs.setdefault((j, i), log):
            sample.problems.append("log differs from the first run of this instance")
        if job.mode in STEPPED:
            flags = [rec.matched for rec in log.records]
            if flags != self._ref_matched.setdefault(id(instance), flags):
                sample.problems.append("matched other arrivals than the other unit-capacity engine")
        if sample.problems:
            print(f"{self.workload} {job.mode} #{i}: {'; '.join(sample.problems)}", file=sys.stderr)
        return sample

    def measure(self, seconds: float) -> None:
        # Traced runs alternate with untraced ones, starting untraced, so the
        # overhead compares rounds of one process; two traced rounds at least.
        rounds = 4 if self.tracer is not None else MIN_ROUNDS
        start = perf_counter()
        index = 0
        while True:
            self.run_round(index, traced=self.tracer is not None and index % 2 == 1)
            if index == 0:
                # Every job has run once: the program's own peak.  Later rounds
                # only add the benchmark's timing arrays.
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            index += 1
            elapsed = perf_counter() - start
            if index >= rounds and elapsed + elapsed / index > seconds:
                break
        if self.tracer is not None:
            self._check_counts_repeat()

    def _check_counts_repeat(self) -> None:
        """Counts are deterministic: every traced round must report the same ones."""
        counts = [name for name, unit, _ in ROUND_METRICS if unit == "count"]
        first = self.round_layers[0]
        for later in self.round_layers[1:]:
            moved = [name for name in counts if later[name] != first[name]]
            if moved:
                self.problems.append(f"traced rounds disagree on {moved[:5]}")

    # -- results ------------------------------------------------------------

    @property
    def attempted(self) -> int:
        return sum(s.arrivals for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(s.arrivals for s in self.samples if s.problems)

    def _good(self, key: tuple[int, int]) -> list[Sample]:
        return [s for s in self.samples if s.key == key and not s.problems]

    def end_to_end(self) -> dict[str, float]:
        metrics = {"setup_s": statistics.median(self.setup_s)}
        for j, job in enumerate(self.jobs):
            runs = [self._good((j, i)) for i in range(len(job.instances))]
            if not all(runs):
                continue  # no clean run of some instance: the metric stays missing
            arrivals = sum(instance.client_count for instance in job.instances)
            if job.mode in STEPPED:
                per_arrival = [
                    statistics.median(column)
                    for samples in runs
                    for column in zip(*(s.step_ns for s in samples))
                ]
                cuts = statistics.quantiles(per_arrival, n=100)
                metrics[f"{job.mode}.arrivals_per_s"] = arrivals / (sum(per_arrival) * NS)
                metrics[f"{job.mode}.step_p50_us"] = cuts[49] / 1e3
                metrics[f"{job.mode}.step_p99_us"] = cuts[98] / 1e3
            else:
                seconds = sum(statistics.median(s.ref_ns for s in samples) for samples in runs) * NS
                metrics[f"{job.mode}.arrivals_per_s"] = arrivals / seconds
        keys = list(self.expect)
        if all(key in self.ref_logs for key in keys):
            replacements = sum(self.ref_logs[key].total_replacements for key in keys)
            arrivals = sum(self.jobs[j].instances[i].client_count for j, i in keys)
            metrics["replacements_per_arrival"] = replacements / arrivals
        metrics["peak_rss_mb"] = self.peak_rss_mb
        return metrics

    def summary(self) -> str:
        """Rounds, engine seconds per round, and the median engine run of each job."""
        walls = " ".join(f"{ns * NS:.2f}" for ns in self.round_wall[False] + self.round_wall[True])
        rounds = len(self.round_layers) + len(self.round_wall[False])
        lines = [f"{self.workload} seed {self.seed}: {rounds} rounds, engine s {walls}"]
        lines.append(f"  reference speed: {self.reference.speed():.4f} of nominal")
        for j, job in enumerate(self.jobs):
            runs = [s.wall_ns for s in self.samples if s.key[0] == j]
            lines.append(
                f"  {job.mode}: {len(job.instances)} instances x {job.reps} reps, "
                f"median run {statistics.median(runs) * NS:.4f} s"
            )
        return "\n".join(lines)

    def per_layer(self) -> dict[str, float]:
        # Counts agree across traced rounds (checked above); times take the median round.
        layers = self.round_layers
        metrics = {
            name: layers[0][name] if unit == "count" else statistics.median(r[name] for r in layers)
            for name, unit, _ in ROUND_METRICS
        }
        for name in self.setup_layers[0]:
            metrics[name] = statistics.median(r[name] for r in self.setup_layers)
        # Round 0 is untraced and warms the process up; compare with the later untraced rounds.
        untraced = self.round_wall[False][1:] or self.round_wall[False]
        metrics["trace.overhead_x"] = statistics.median(self.round_wall[True]) / statistics.median(untraced)
        metrics["trace.missing_hooks"] = len(self.tracer.missing)
        return metrics
