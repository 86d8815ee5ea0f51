"""The sapmatch benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload random-overloaded --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The package is imported unmodified from
``src/``; with ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics declared in ``BENCHMARK.json``, with
``--trace 1`` one with the per-layer metrics (the spans themselves go to
``perfbench/out/``).  The exit code is 0 when every run passed its
correctness checks, 1 when one did not, and 2 when the benchmark could not
start (no ``src/sapmatch`` next to it, say).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def import_sapmatch():
    """Import the checkout's own package, never one installed elsewhere."""
    if not (SRC / "sapmatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no sapmatch package under {SRC}")
    sys.path.insert(0, str(SRC))
    sm = importlib.import_module("sapmatch")
    importlib.import_module("sapmatch.textio")
    if Path(sm.__file__).resolve().parent != SRC / "sapmatch":
        raise SystemExit(f"error: imported sapmatch from {sm.__file__}, not from {SRC}")
    return sm


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the measured rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        sm = import_sapmatch()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from harness import Bench, SetupError

    trace = bool(args.trace)
    units = declared_units(trace)
    bench = Bench(sm, args.workload, args.seed, trace)
    try:
        bench.set_up()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bench.measure(args.seconds)
    print(bench.summary(), file=sys.stderr)

    values = bench.per_layer() if trace else bench.end_to_end()
    if trace:
        OUT.mkdir(exist_ok=True)
        bench.tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
        if bench.tracer.missing:
            print(f"missing hooks: {sorted(bench.tracer.missing)}", file=sys.stderr)
    if set(values) != set(units):
        # A metric without a value (every run of its job failed) or an undeclared one.
        bench.problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    for problem in bench.problems:
        print(f"error: {problem}", file=sys.stderr)
    correct = bench.failed == 0 and not bench.problems
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
