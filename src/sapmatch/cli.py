"""Command-line front end: generate instances, run engines, verify, benchmark.

Exit codes: 0 success, 1 failed check, violated internal invariant, or
stdout closed by its reader (as by ``| head``), 2 bad usage (malformed
flags, files, or instances).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from .balance import PrefixBalance
from .errors import InvariantViolation
from .extensions import run_capacitated, run_minmax, run_semi_matching
from .fast_engine import run_fast_sap
from .generators import gen_complete, gen_minmax_adversary, gen_random, gen_star_chain
from .instance import ArrivalInstance
from .matching import RunLog, run_sap
from .textio import format_instance, format_telemetry_csv, parse_instance
from .verify import (
    builtin_small_suite,
    total_length_bound,
    verify_instance,
)

ENGINES = ("naive", "fast", "capacitated", "minmax", "semi")


def _read_instance(path: str) -> ArrivalInstance:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        out = sys.stdout
        raw = getattr(out, "buffer", None)
        if raw is None:  # a text-only stream, as ``redirect_stdout`` installs
            out.write(text)
            return
        # Under ``python -u`` the binary layer is the raw file, whose write
        # may take only part of the data; what it returns says how much.
        out.flush()
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            data = data[raw.write(data):]
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def cmd_gen(args: argparse.Namespace) -> int:
    _write_text(args.out, format_instance(args.build(args)))
    return 0


def _analysis_columns(balance: PrefixBalance) -> list[tuple[Fraction, int]]:
    """(maximum necessity, optimal maximum load) after every arrival, off one stream.

    The stream is run to the end of its instance (a semi run took it there
    already).  The optimum is the ceiling of the largest necessity
    max |K|/|N(K)|: by Hall's theorem for b-matchings, load L serves every
    servable client of a prefix iff |K| <= L * |N(K)| for every set K of
    them.  Capacities play no part in either column.
    """
    for client in range(balance.arrived, balance.instance.client_count):
        balance.add(client)
    return [(alpha, math.ceil(alpha)) for alpha in balance.maxima]


def cmd_run(args: argparse.Namespace) -> int:
    instance = _read_instance(args.file)
    if args.epsilon is not None and args.engine != "semi":
        raise ValueError("--epsilon applies to the semi engine only")
    if args.depth_limit is not None and args.engine != "fast":
        raise ValueError("--h applies to the fast engine only")
    if args.debug and args.engine != "fast":
        raise ValueError("--debug applies to the fast engine only")
    if instance.capacities is not None and args.engine != "capacitated":
        raise ValueError(f"instance has capacities; engine {args.engine} does not take them")

    balance = PrefixBalance(instance) if args.analyze else None
    log: RunLog
    if args.engine == "naive":
        state, log = run_sap(instance)
    elif args.engine == "fast":
        state, log = run_fast_sap(instance, depth_limit=args.depth_limit, debug=args.debug)
    elif args.engine == "capacitated":
        state, log = run_capacitated(instance)
    elif args.engine == "minmax":
        state, log, epochs = run_minmax(instance)
    else:
        try:
            eps = Fraction(args.epsilon if args.epsilon is not None else "1")
        except ZeroDivisionError:
            raise ValueError(f"--epsilon {args.epsilon} has a zero denominator") from None
        state, log = run_semi_matching(instance, eps, balance)

    analysis = _analysis_columns(balance) if balance is not None else None
    csv_text = format_telemetry_csv(log, args.engine, analysis)
    if args.csv is not None:
        _write_text(args.csv, csv_text)
    summary = (
        f"engine={args.engine} clients={instance.client_count} "
        f"matched={log.matched_count()} replacements={log.total_replacements} "
        f"path_edges={log.total_path_edges}"
    )
    if args.engine == "fast":
        summary += (
            f" tree_paths={log.tree_paths} brute_paths={log.brute_paths}"
            f" brute_failures={log.brute_failures} pruned={log.pruned_nodes}"
        )
    if args.engine == "minmax":
        summary += f" epochs={len(epochs)} final_opt={epochs[-1].opt if epochs else 0}"
    print(summary)
    if args.csv is None:
        _write_text(None, csv_text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite is None and not args.files:
        raise ValueError("give instance files or --suite small")
    corpus: list[tuple[str, ArrivalInstance]] = []
    if args.suite is not None:
        corpus.extend(builtin_small_suite())
    for path in args.files:
        corpus.append((path, _read_instance(path)))
    failures = 0
    for name, instance in corpus:
        for result in verify_instance(instance):
            detail = f" ({result.detail})" if result.detail else ""
            print(f"{result.label} {name}: {result.name}{detail}")
            if result.passed is False:
                failures += 1
    print(f"{'FAIL' if failures else 'PASS'} overall: {failures} failing checks")
    return 1 if failures else 0


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(part) for part in args.sizes.split(",") if part]
    if not sizes or args.seeds < 1:
        raise ValueError("need at least one size and one seed")
    lines = ["n,seed,total_replacements,total_path_edges,n_ln2_n"]
    violation = False
    for n in sizes:
        for seed in range(args.seeds):
            instance = gen_random(n, n, args.degree, seed)
            _, log = run_fast_sap(instance) if args.engine == "fast" else run_sap(instance)
            if n >= 2 and log.total_path_edges > total_length_bound(n):
                violation = True
            norm = n * math.log(n) ** 2 if n >= 2 else 0.0
            lines.append(
                f"{n},{seed},{log.total_replacements},{log.total_path_edges},{norm:.6f}"
            )
    _write_text(args.csv, "\n".join(lines) + "\n")
    if violation:
        raise InvariantViolation("a run exceeded the total path length bound")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sapmatch",
        description="Online bipartite matching with replacements, plus analysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit an instance file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_random = gen_sub.add_parser("random")
    g_random.add_argument("--servers", type=int, required=True)
    g_random.add_argument("--clients", type=int, required=True)
    g_random.add_argument("--degree", type=int, required=True)
    g_random.add_argument("--seed", type=int, default=0)
    g_random.set_defaults(build=lambda a: gen_random(a.servers, a.clients, a.degree, a.seed))
    g_complete = gen_sub.add_parser("complete")
    g_complete.add_argument("--clients", type=int, required=True)
    g_complete.add_argument("--servers", type=int, required=True)
    g_complete.set_defaults(build=lambda a: gen_complete(a.clients, a.servers))
    g_adversary = gen_sub.add_parser("adversary")
    g_adversary.add_argument("--L", dest="load_target", type=int, required=True)
    g_adversary.add_argument("--pad-to", dest="pad_to", type=int, default=None)
    g_adversary.set_defaults(build=lambda a: gen_minmax_adversary(a.load_target, a.pad_to))
    g_chain = gen_sub.add_parser("star-chain")
    g_chain.add_argument("--depth", type=int, required=True)
    g_chain.set_defaults(build=lambda a: gen_star_chain(a.depth))
    for sub_parser in (g_random, g_complete, g_adversary, g_chain):
        sub_parser.add_argument("--out", default=None)
        sub_parser.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run an engine over an instance file")
    run.add_argument("file")
    run.add_argument("--engine", choices=ENGINES, default="naive")
    run.add_argument("--epsilon", default=None, help="semi engine: the approximation slack")
    run.add_argument("--h", dest="depth_limit", type=int, default=None,
                     help="fast engine: tree depth limit override")
    run.add_argument("--debug", action="store_true",
                     help="fast engine: validate the tree after every update")
    run.add_argument("--analyze", action="store_true",
                     help="add exact necessity and opt columns (slow)")
    run.add_argument("--csv", default=None)
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="run the property checks")
    ver.add_argument("files", nargs="*")
    ver.add_argument("--suite", choices=("small",), default=None)
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="replacement growth sweep to CSV")
    bench.add_argument("--sizes", required=True, help="comma-separated client counts")
    bench.add_argument("--seeds", type=int, default=1)
    bench.add_argument("--degree", type=int, default=3)
    bench.add_argument("--engine", choices=("naive", "fast"), default="naive")
    bench.add_argument("--csv", default=None)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, as ``| head`` does.  Python's notes on
        # SIGPIPE advise pointing stdout at devnull, so that the flush at
        # exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
