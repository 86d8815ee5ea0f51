"""Per-layer spans and counts, attached to sapmatch from outside.

Nothing in the package is edited.  While a ``Tracer`` is installed, every
hooked function is replaced by a wrapper that records a span (name, start,
end, parent span, run id) and per-name call counts, total time and self
time; self time is a span's duration minus the time its child spans cover.
Hooks are found by name wherever the name is bound in a ``sapmatch.*``
module, so a function that moves between modules stays traced, and a name
that cannot be found is reported as missing instead of failing the run.
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Optional

NS = 1e-9


def _path_edges(tracer: "Tracer", args: tuple, result: Any) -> None:
    if result is None:
        tracer.counts["matching.shortest_aug_path.failed"] += 1
    else:
        tracer.counts["matching.path_edges"] += result.edge_count


def _flow_size(name: str) -> Callable[["Tracer", tuple, Any], None]:
    def count(tracer: "Tracer", args: tuple, result: Any) -> None:
        net = args[0]
        tracer.counts[name + ".arcs"] += len(net.to) // 2  # each arc is stored with its reverse
        tracer.counts[name + ".nodes"] += net.node_count

    return count


def _peels(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["balance.peels"] += len(result.peels)


def _epochs(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["extensions.epochs"] += len(result[2])


@dataclass(frozen=True)
class FunctionHook:
    layer: str
    attr: str
    # Name the span after the module whose binding was called, and count the
    # network's size (max_flow's callers).
    by_caller: bool = False
    after: Optional[Callable[..., None]] = None
    # Count calls under this name instead of recording a span.
    count_as: Optional[str] = None


FUNCTION_HOOKS = (
    FunctionHook("flownet", "max_flow", by_caller=True),
    FunctionHook("matching", "flip_path"),
    FunctionHook("balance", "balanced_flow", after=_peels),
    FunctionHook("balance", "max_ratio"),
    FunctionHook("balance", "limit_feasible"),
    FunctionHook("extensions", "run_minmax", after=_epochs),
    FunctionHook("extensions", "run_semi_matching"),
    FunctionHook("extensions", "run_capacitated"),
    FunctionHook("extensions", "_covers", count_as="extensions.covers_probes"),
    FunctionHook("generators", "gen_random"),
    FunctionHook("generators", "gen_star_chain"),
    FunctionHook("generators", "gen_minmax_adversary"),
    FunctionHook("textio", "parse_instance"),
)

# (layer, class name, methods, per-method result callbacks)
METHOD_HOOKS = (
    ("matching", "SapEngine", ("step", "shortest_aug_path", "augment"), {"shortest_aug_path": _path_edges}),
    ("fast_engine", "FastSapEngine", ("step",), {}),
)

TREE_LAYER = "sink_tree"
TREE_METHODS = ("insert_arc", "delete_arc", "delete_node", "path_to_sink", "validate_against_bfs")

# Per-layer metrics of one round: (name, unit, better).  ``round_metrics``
# fills every name; ``Tracer`` counters and span statistics feed them.
_SPAN_FIELDS = (
    ("matching.shortest_aug_path", ("calls", "total_s")),
    ("matching.augment", ("calls", "total_s")),
    ("matching.flip_path", ("calls", "total_s")),
    ("matching.step", ("calls", "self_s")),
    ("fast_engine.step", ("calls", "total_s", "self_s")),
    *((f"{TREE_LAYER}.{m}", ("calls", "total_s")) for m in TREE_METHODS),
    ("flownet.max_flow.balance", ("calls", "total_s")),
    ("flownet.max_flow.extensions", ("calls", "total_s")),
    ("balance.balanced_flow", ("calls", "total_s")),
    ("balance.max_ratio", ("calls", "total_s")),
    ("balance.limit_feasible", ("calls", "total_s")),
    ("extensions.run_minmax", ("self_s",)),
    ("extensions.run_semi_matching", ("self_s",)),
    ("extensions.run_capacitated", ("self_s",)),
)
_COUNTS = (
    ("matching.shortest_aug_path.failed", "lower"),
    ("matching.path_edges", "lower"),
    ("fast_engine.tree_paths", "higher"),
    ("fast_engine.brute_paths", "lower"),
    ("fast_engine.brute_failures", "lower"),
    ("fast_engine.pruned_nodes", "higher"),
    ("flownet.max_flow.balance.arcs", "lower"),
    ("flownet.max_flow.balance.nodes", "lower"),
    ("flownet.max_flow.extensions.arcs", "lower"),
    ("flownet.max_flow.extensions.nodes", "lower"),
    ("balance.peels", "lower"),
    ("extensions.epochs", "lower"),
    ("extensions.covers_probes", "lower"),
)
ROUND_METRICS: tuple[tuple[str, str, str], ...] = (
    *(
        (f"{span}.{field}", "count" if field == "calls" else "s", "lower")
        for span, fields in _SPAN_FIELDS
        for field in fields
    ),
    *((name, "count", better) for name, better in _COUNTS),
    ("sink_tree.validate_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)
SETUP_METRICS = (("generators.build_s", "s", "lower"), ("textio.parse_instance.total_s", "s", "lower"))
RUN_METRICS = (("trace.overhead_x", "ratio", "lower"), ("trace.missing_hooks", "count", "lower"))
PER_LAYER = ROUND_METRICS + SETUP_METRICS + RUN_METRICS


def _sapmatch_modules() -> list[Any]:
    return [m for name, m in sorted(sys.modules.items()) if name == "sapmatch" or name.startswith("sapmatch.")]


class Tracer:
    """Spans kept in memory as columns, plus per-name statistics since the last ``reset``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.runs: list[str] = []
        self.missing: set[str] = set()
        self._stack: list[list[int]] = []  # [span index, nanoseconds covered by children]
        self._undo: list[tuple[Any, str, Any]] = []
        self._attached: list[tuple[Any, str]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_ns: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def begin_run(self, label: str) -> None:
        """Tag the spans that follow with a fresh run id."""
        self.runs.append(label)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_run.append(len(tracer.runs) - 1)
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                tracer.span_end[index] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.calls[name] += 1
                tracer.total_ns[name] += duration
                tracer.self_ns[name] += duration - frame[1]
            if after is not None:
                after(tracer, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _counter(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[name] += 1  # looked up per call: ``reset`` swaps the Counter
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every hooked function and method bound in a loaded sapmatch module."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = _sapmatch_modules()
        for hook in FUNCTION_HOOKS:
            found = False
            for module in modules:
                fn = module.__dict__.get(hook.attr)
                if not inspect.isfunction(fn):
                    continue
                found = True
                if hook.count_as is not None:
                    self._replace(module, hook.attr, self._counter(hook.count_as, fn))
                elif hook.by_caller:
                    name = f"{hook.layer}.{hook.attr}.{module.__name__.rpartition('.')[2]}"
                    self._replace(module, hook.attr, self._span(name, fn, _flow_size(name)))
                else:
                    self._replace(module, hook.attr, self._span(f"{hook.layer}.{hook.attr}", fn, hook.after))
            if not found:
                self.missing.add(f"{hook.layer}.{hook.attr}")
        for layer, class_name, methods, afters in METHOD_HOOKS:
            classes = {id(c): c for m in modules if inspect.isclass(c := m.__dict__.get(class_name))}
            if not classes:
                self.missing.update(f"{layer}.{method}" for method in methods)
            for cls in classes.values():
                for method in methods:
                    fn = cls.__dict__.get(method)
                    if inspect.isfunction(fn):
                        self._replace(cls, method, self._span(f"{layer}.{method}", fn, afters.get(method)))
                    else:
                        self.missing.add(f"{layer}.{method}")

    def attach_tree(self, engine: Any) -> None:
        """Wrap the sink-tree methods of one engine's ``tree`` instance."""
        tree = getattr(engine, "tree", None)
        for method in TREE_METHODS:
            bound = getattr(tree, method, None)
            if tree is None or not callable(bound):
                self.missing.add(f"{TREE_LAYER}.{method}")
                continue
            setattr(tree, method, self._span(f"{TREE_LAYER}.{method}", bound))
            self._attached.append((tree, method))

    def detach_trees(self) -> None:
        for tree, method in self._attached:
            delattr(tree, method)
        self._attached.clear()

    def uninstall(self) -> None:
        self.detach_trees()
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def round_metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded since the last ``reset``."""
        values: dict[str, float] = {}
        for span, fields in _SPAN_FIELDS:
            for field in fields:
                if field == "calls":
                    values[f"{span}.calls"] = self.calls[span]
                elif field == "total_s":
                    values[f"{span}.total_s"] = self.total_ns[span] * NS
                else:
                    values[f"{span}.self_s"] = self.self_ns[span] * NS
        for name, _ in _COUNTS:
            values[name] = self.counts[name]
        values["trace.spans"] = sum(self.calls.values())
        step_ns = self.total_ns["fast_engine.step"]
        validate_ns = self.total_ns[f"{TREE_LAYER}.validate_against_bfs"]
        values["sink_tree.validate_share"] = validate_ns / step_ns if step_ns else 0.0
        return values

    def setup_metrics(self) -> dict[str, float]:
        build_ns = sum(ns for name, ns in self.total_ns.items() if name.startswith("generators."))
        return {
            "generators.build_s": build_ns * NS,
            "textio.parse_instance.total_s": self.total_ns["textio.parse_instance"] * NS,
        }

    def write_spans(self, path: Any) -> None:
        """Write every span recorded, as columns, to a gzip-compressed JSON file.

        Columns are written in chunks: a million spans as Python lists would
        take hundreds of megabytes.
        """
        header = {"names": self.names, "runs": self.runs, "missing_hooks": sorted(self.missing)}
        columns = {
            "name": self.span_name,
            "start_ns": self.span_start,
            "end_ns": self.span_end,
            "parent": self.span_parent,
            "run": self.span_run,
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write(json.dumps(header)[:-1])
            for key, column in columns.items():
                handle.write(f', "{key}": [')
                for begin in range(0, len(column), 1 << 16):
                    handle.write(("," if begin else "") + ",".join(map(str, column[begin : begin + (1 << 16)])))
                handle.write("]")
            handle.write("}")
