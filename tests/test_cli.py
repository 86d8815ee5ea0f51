"""Command-line behavior: generation, runs, verification, benchmarks, exit codes."""

from __future__ import annotations

import csv
import dataclasses
import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import sapmatch
import sapmatch.extensions
import sapmatch.matching
import sapmatch.verify
from sapmatch import (
    ArrivalInstance,
    BalancedFlow,
    InvariantViolation,
    PrefixBalance,
    SapEngine,
    balanced_flow,
    gen_complete,
    gen_minmax_adversary,
    gen_random,
    gen_star_chain,
    opt_load,
)
from sapmatch.cli import _analysis_columns, main
from sapmatch.verify import verify_instance
from sapmatch.textio import format_instance
from conftest import random_instance


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr, as the process would end; argparse usage errors exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestGen:
    @pytest.mark.parametrize(
        "argv, instance",
        [
            (("random", "--servers", "9", "--clients", "14", "--degree", "3", "--seed", "7"),
             gen_random(9, 14, 3, 7)),
            (("random", "--servers", "9", "--clients", "14", "--degree", "3"),
             gen_random(9, 14, 3, 0)),
            (("complete", "--clients", "3", "--servers", "5"), gen_complete(3, 5)),
            (("adversary", "--L", "4"), gen_minmax_adversary(4)),
            (("adversary", "--L", "4", "--pad-to", "40"), gen_minmax_adversary(4, 40)),
            (("star-chain", "--depth", "6"), gen_star_chain(6)),
        ],
        ids=["random", "random-default-seed", "complete", "adversary", "adversary-pad-to",
             "star-chain"],
    )
    def test_prints_the_generator_instance(self, argv, instance, tmp_path):
        assert run_cli("gen", *argv) == (0, format_instance(instance), "")
        out_file = tmp_path / "inst.txt"
        assert run_cli("gen", *argv, "--out", str(out_file)) == (0, "", "")
        assert out_file.read_text() == format_instance(instance)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("mystery",), "invalid choice: 'mystery'"),
            (("adversary", "--L", "4", "--pad-to", "20"), "error: padding requires"),
        ],
        ids=["unknown-kind", "short-padding"],
    )
    def test_usage_errors_exit_2(self, argv, message):
        code, out, err = run_cli("gen", *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    def test_complete_shape(self):
        code, out, _ = run_cli("gen", "complete", "--clients", "10", "--servers", "20")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "servers 20"
        client_lines = [l for l in lines if l.startswith("client")]
        assert len(client_lines) == 10
        assert all(len(l.split()) == 22 for l in client_lines)

    def test_adversary_counts(self):
        code, out, _ = run_cli("gen", "adversary", "--L", "8")
        assert code == 0
        assert out.count("client ") == 64
        assert out.startswith("servers 8\n")

    def test_random_deterministic_bytes(self):
        args = ("gen", "random", "--servers", "9", "--clients", "14", "--degree", "3",
                "--seed", "7")
        assert run_cli(*args) == run_cli(*args)

    def test_bad_parameters_exit_2(self):
        code, _, err = run_cli("gen", "adversary", "--L", "6")
        assert code == 2
        assert "error" in err

    def test_negative_client_count_exit_2(self):
        code, out, err = run_cli("gen", "random", "--servers", "5", "--clients", "-1",
                                 "--degree", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestRun:
    def test_naive_complete_no_replacements(self, tmp_path):
        inst_file = tmp_path / "inst.txt"
        code, out, _ = run_cli("gen", "complete", "--clients", "10", "--servers", "10",
                               "--out", str(inst_file))
        assert code == 0
        csv_file = tmp_path / "log.csv"
        code, out, _ = run_cli("run", str(inst_file), "--engine", "naive",
                               "--csv", str(csv_file))
        assert code == 0
        rows = list(csv.DictReader(csv_file.open()))
        assert len(rows) == 10
        assert rows[-1]["cum_replacements"] == "0"
        assert all(row["engine"] == "naive" for row in rows)

    def test_fast_and_naive_agree_on_final_size(self, tmp_path):
        for seed in range(6):
            inst_file = tmp_path / f"r{seed}.txt"
            run_cli("gen", "random", "--servers", "15", "--clients", "30", "--degree",
                    "2", "--seed", str(seed), "--out", str(inst_file))
            sizes = []
            for engine in ("naive", "fast"):
                code, out, _ = run_cli("run", str(inst_file), "--engine", engine,
                                       "--csv", str(tmp_path / "out.csv"))
                assert code == 0
                sizes.append(out.split("matched=")[1].split()[0])
            assert sizes[0] == sizes[1]

    def test_minmax_adversary_reassignments(self, tmp_path):
        inst_file = tmp_path / "adv.txt"
        run_cli("gen", "adversary", "--L", "8", "--out", str(inst_file))
        csv_file = tmp_path / "mm.csv"
        code, out, _ = run_cli("run", str(inst_file), "--engine", "minmax",
                               "--csv", str(csv_file))
        assert code == 0
        rows = list(csv.DictReader(csv_file.open()))
        assert int(rows[-1]["cum_replacements"]) >= 12
        assert "final_opt=8" in out

    def test_analyze_columns(self, tmp_path):
        inst_file = tmp_path / "inst.txt"
        run_cli("gen", "complete", "--clients", "4", "--servers", "8",
                "--out", str(inst_file))
        csv_file = tmp_path / "log.csv"
        code, _, _ = run_cli("run", str(inst_file), "--analyze", "--csv", str(csv_file))
        assert code == 0
        rows = list(csv.DictReader(csv_file.open()))
        assert [f"{r['max_alpha_num']}/{r['max_alpha_den']}" for r in rows] == [
            "1/8", "1/4", "3/8", "1/2"
        ]
        assert rows[-1]["opt_load"] == "1"

    def test_analyze_opt_column_starts_no_flow(self, tmp_path, flow_calls):
        rng = random.Random(5)
        instances = [random_instance(rng, 30, 12, min_degree=0) for _ in range(12)]
        instances.append(gen_minmax_adversary(8))
        base = instances[0]
        instances.append(ArrivalInstance(base.server_count, base.arrivals, (2,) * base.server_count))
        for instance in instances:
            flow_calls.clear()
            columns = _analysis_columns(PrefixBalance(instance))
            assert flow_calls["extensions"] == 0
            prefixes = range(1, instance.client_count + 1)
            assert [opt for _, opt in columns] == [opt_load(instance, t) for t in prefixes]
            # The alpha column comes off one stream; isolated arrivals leave it as it was.
            assert [alpha for alpha, _ in columns] == [
                balanced_flow(adjacency).max_necessity() if adjacency else 0
                for adjacency in map(instance.prefix_adjacency, prefixes)
            ]
        inst_file = tmp_path / "cap.txt"
        inst_file.write_text(format_instance(instances[-1]))
        flow_calls.clear()
        code, _, _ = run_cli("run", str(inst_file), "--engine", "capacitated", "--analyze",
                             "--csv", str(tmp_path / "cap.csv"))
        assert code == 0
        assert flow_calls["extensions"] == 0 and flow_calls["balance"] > 0

    def test_semi_analyze_runs_one_stream(self, tmp_path, monkeypatch):
        # The analysis columns come off the semi run's own stream, which does
        # exactly the work of a plain semi run's.
        streams = []
        init = PrefixBalance.__init__

        def recorded(self, instance):
            init(self, instance)
            streams.append(self)

        monkeypatch.setattr(PrefixBalance, "__init__", recorded)
        inst_file = tmp_path / "inst.txt"
        run_cli("gen", "random", "--servers", "24", "--clients", "48", "--degree", "3",
                "--seed", "1", "--out", str(inst_file))
        for flags in ((), ("--analyze",)):
            code, _, _ = run_cli("run", str(inst_file), "--engine", "semi", "--epsilon", "1/2",
                                 *flags, "--csv", str(tmp_path / "semi.csv"))
            assert code == 0
        plain, analyzed = streams
        assert analyzed._flow.level_searches == plain._flow.level_searches > 0

    def test_inconsistent_capacitated_state_exit_1(self, tmp_path, monkeypatch):
        class Corrupting(SapEngine):
            def run(self):
                state, log = super().run()
                state.clients_of_server[1].append(0)  # client 0 sits on server 0
                return state, log

        monkeypatch.setattr(sapmatch.extensions, "SapEngine", Corrupting)
        inst_file = tmp_path / "cap.txt"
        inst_file.write_text("servers 2\ncapacity 0 2\ncapacity 1 2\nclient 0 0\n")
        code, out, err = run_cli("run", str(inst_file), "--engine", "capacitated")
        assert code == 1
        assert out == ""
        assert err == "invariant violated: server 1 lists client 0, client disagrees\n"
        assert "Traceback" not in err

    def test_flag_engine_mismatch_exit_2(self, tmp_path):
        inst_file = tmp_path / "inst.txt"
        run_cli("gen", "complete", "--clients", "2", "--servers", "2",
                "--out", str(inst_file))
        assert run_cli("run", str(inst_file), "--epsilon", "1/2")[0] == 2
        assert run_cli("run", str(inst_file), "--h", "3")[0] == 2
        for engine in ("naive", "minmax", "semi"):
            code, _, err = run_cli("run", str(inst_file), "--engine", engine, "--debug")
            assert code == 2
            assert "--debug applies to the fast engine only" in err
        assert run_cli("run", str(inst_file), "--engine", "fast", "--debug")[0] == 0

    def test_capacitated_file_needs_capacitated_engine(self, tmp_path):
        inst_file = tmp_path / "cap.txt"
        inst_file.write_text("servers 1\ncapacity 0 2\nclient 0 0\nclient 1 0\n")
        assert run_cli("run", str(inst_file))[0] == 2
        code, out, _ = run_cli("run", str(inst_file), "--engine", "capacitated")
        assert code == 0
        assert "matched=2" in out

    def test_semi_epsilon(self, tmp_path):
        inst_file = tmp_path / "inst.txt"
        run_cli("gen", "complete", "--clients", "10", "--servers", "20",
                "--out", str(inst_file))
        code, out, _ = run_cli("run", str(inst_file), "--engine", "semi",
                               "--epsilon", "1")
        assert code == 0
        assert "matched=10" in out

    @pytest.mark.parametrize("epsilon", ["1/0", "0", "half"])
    def test_semi_bad_epsilon_exit_2(self, tmp_path, epsilon):
        inst_file = tmp_path / "inst.txt"
        run_cli("gen", "complete", "--clients", "2", "--servers", "2",
                "--out", str(inst_file))
        code, out, err = run_cli("run", str(inst_file), "--engine", "semi",
                                 "--epsilon", epsilon)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestVerify:
    def test_small_suite_passes(self):
        code, out, _ = run_cli("verify", "--suite", "small")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS overall" in out

    def test_corrupted_file_exit_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("servers two\nclient 0\n")
        code, _, err = run_cli("verify", str(bad))
        assert code == 2
        assert "error" in err

    def test_degree_zero_client_skips_flow_checks(self, tmp_path):
        inst_file = tmp_path / "iso.txt"
        inst_file.write_text("servers 2\nclient 0 0\nclient 1\nclient 2 0 1\n")
        code, out, _ = run_cli("verify", str(inst_file))
        assert code == 0
        assert "SKIP" in out
        assert "no neighbors" in out

    def test_no_arguments_exit_2(self):
        assert run_cli("verify")[0] == 2

    def test_battery_steps_each_engine_once(self, monkeypatch):
        built = []
        init = sapmatch.matching.SapEngine.__init__

        def counted(engine, *args, **kwargs):
            built.append(type(engine).__name__)
            init(engine, *args, **kwargs)

        monkeypatch.setattr(sapmatch.matching.SapEngine, "__init__", counted)
        results = verify_instance(gen_random(5, 10, 2, seed=101))
        assert len(results) == 11 and all(r.passed for r in results)
        assert built == ["SapEngine", "FastSapEngine"]

    def test_flow_checks_run_above_the_oracle_limit(self):
        results = verify_instance(gen_random(24, 48, 3, seed=1))
        assert [r.name for r in results if r.passed is None] == ["necessity-vs-oracle"]
        passed = {r.name for r in results if r.passed}
        assert {"balanced-flow-invariants", "necessity-monotone", "necessity-locality",
                "expansion-tails"} <= passed

    def test_flow_checks_reject_capacities(self):
        inst = ArrivalInstance.build(2, [[0], [0, 1]], capacities=[2, 1])
        with pytest.raises(ValueError):
            verify_instance(inst)


# The battery's checks, in the order ``sapmatch verify`` prints them.
CHECKS = (
    "matching-maximality",
    "replacement-accounting",
    "long-path-counts",
    "total-path-length",
    "engine-outcome-parity",
    "fast-oracle-parity",
    "necessity-vs-oracle",
    "necessity-monotone",
    "necessity-locality",
    "balanced-flow-invariants",
    "expansion-tails",
)

# Four clients, so the enumeration oracle runs.  Arrival 1 takes a 3-edge
# path, arrival 3 finds none, and no client neighbours server 3.
SMALL = "servers 4\nclient 0 0 1\nclient 1 0\nclient 2 1 2\nclient 3 1\n"


def _server_3_necessity(monkeypatch, necessity: Fraction, prefixes: range) -> None:
    """Make ``balanced_flow`` give server 3 a made-up necessity on prefixes of these sizes.

    Server 3 carries no flow and neighbours no client, so ``BalancedFlow.check``
    still passes the doctored answer.
    """
    real = sapmatch.verify.balanced_flow

    def doctored(adjacency, server_count=None):
        flow = real(adjacency, server_count=server_count)
        if len(adjacency) in prefixes:
            flow = dataclasses.replace(flow, necessity={**flow.necessity, 3: necessity})
        return flow

    monkeypatch.setattr(sapmatch.verify, "balanced_flow", doctored)


class _MiscountingEngine(SapEngine):
    """Counts one replacement too many in the run total at arrival 1."""

    def step(self, client):
        rec = super().step(client)
        if client == 1:
            self.log.total_replacements += 1
        return rec


class _MislabellingEngine(SapEngine):
    """Logs arrival 0 as unmatched, while reporting it matched to the caller."""

    def step(self, client):
        rec = super().step(client)
        if client == 0:
            self.log.records[-1] = rec._replace(matched=False)
        return rec


def _off_by_one(name):
    """Make ``sapmatch.verify.<name>`` answer one more than it should, where it answers."""
    def patch(monkeypatch):
        real = getattr(sapmatch.verify, name)

        def wrong(*args):
            want = real(*args)
            return None if want is None else want + 1

        monkeypatch.setattr(sapmatch.verify, name, wrong)
    return patch


def _raise_in_check(monkeypatch):
    def check(flow, adjacency):
        raise InvariantViolation("doctored")
    monkeypatch.setattr(BalancedFlow, "check", check)


class TestVerifyFailures:
    """Every check of the battery fails when one name it uses is broken.

    Each case asserts the check's first failure, with its detail, and that
    every other check still prints and passes.
    """

    @pytest.mark.parametrize(
        "breakage, failing",
        [
            (_off_by_one("hopcroft_karp_size"),
             {"matching-maximality": "after arrival 0: naive 1, fast 1, maximum 2"}),
            (lambda mp: mp.setattr(sapmatch.verify, "SapEngine", _MiscountingEngine),
             {"replacement-accounting": ""}),
            (lambda mp: mp.setattr(sapmatch.verify, "LONG_PATH_FACTOR", 0),
             {"long-path-counts": "1 paths longer than 1, bound 0.00"}),
            (lambda mp: mp.setattr(sapmatch.verify, "TOTAL_LENGTH_FACTOR", 0),
             {"total-path-length": "5 edges, bound 0.0"}),
            (lambda mp: mp.setattr(sapmatch.verify, "SapEngine", _MislabellingEngine),
             {"engine-outcome-parity": ""}),
            (_off_by_one("oracle_shortest_aug_path"),
             {"fast-oracle-parity": "arrival 0: engine 1, oracle 2"}),
            (lambda mp: mp.setattr(sapmatch.verify, "oracle_balanced_flow", lambda *a, **k: {}),
             {"necessity-vs-oracle": "arrival 0: maps differ"}),
            (lambda mp: _server_3_necessity(mp, Fraction(1), range(1, 2)),
             {"necessity-vs-oracle": "arrival 0: maps differ",
              "necessity-monotone": "arrival 1: server 3 decreased"}),
            (lambda mp: _server_3_necessity(mp, Fraction(1), range(2, 5)),
             {"necessity-vs-oracle": "arrival 1: maps differ",
              "necessity-locality": "arrival 1: server 3 below the gate changed"}),
            (_raise_in_check, {"balanced-flow-invariants": "arrival 0: doctored"}),
            (lambda mp: mp.setattr(sapmatch.verify, "expansion_tail_bound", lambda *a: -1),
             {"expansion-tails": "arrival 0: server 0 tail 2, bound -1"}),
        ],
        ids=["maximality", "replacement-accounting", "long-path-counts", "total-path-length",
             "outcome-parity", "oracle-parity", "necessity-oracle", "necessity-monotone",
             "necessity-locality", "flow-invariants", "expansion-tails"],
    )
    def test_first_failure_is_reported(self, breakage, failing, tmp_path, monkeypatch):
        path = tmp_path / "small.txt"
        path.write_text(SMALL)
        breakage(monkeypatch)
        code, out, err = run_cli("verify", str(path))
        lines = out.splitlines()
        assert len(lines) == len(CHECKS) + 1
        for name, line in zip(CHECKS, lines):
            if name in failing:
                detail = f" ({failing[name]})" if failing[name] else ""
                assert line == f"FAIL {path}: {name}{detail}"
            else:
                assert line.startswith(f"PASS {path}: {name}")
        assert lines[-1] == f"FAIL overall: {len(failing)} failing checks"
        assert (code, err) == (1, "")

    def test_effective_necessity_above_one_is_an_invariant_violation(self, tmp_path,
                                                                     monkeypatch):
        path = tmp_path / "small.txt"
        path.write_text(SMALL)
        _server_3_necessity(monkeypatch, Fraction(2), range(5))
        assert run_cli("verify", str(path)) == (
            1, "", "invariant violated: effective necessities can never exceed 1\n")


class TestClosedStdout:
    def test_reader_closing_the_pipe_exits_1_quietly(self):
        src = str(Path(sapmatch.__file__).resolve().parents[1])
        # Block-buffered, as stdout into a pipe is by default; 1.7 MB is far
        # more than a pipe holds, so the writer is still writing when the
        # reader closes its end.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        argv = [sys.executable, "-m", "sapmatch.cli", "gen", "random", "--servers", "4",
                "--clients", "100000", "--degree", "2"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline() == b"servers 4\n"
            proc.stdout.close()
            assert proc.wait(timeout=120) == 1
            assert proc.stderr.read() == b""


class TestBench:
    def test_row_counts_and_columns(self, tmp_path):
        csv_file = tmp_path / "bench.csv"
        code, _, _ = run_cli("bench", "--sizes", "8,16,32", "--seeds", "2",
                             "--csv", str(csv_file))
        assert code == 0
        rows = list(csv.DictReader(csv_file.open()))
        assert len(rows) == 6
        for row in rows:
            n = int(row["n"])
            assert float(row["n_ln2_n"]) > 0
            assert int(row["total_path_edges"]) >= int(row["total_replacements"])

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("bench", "--sizes", "16", "--seeds", "2", "--csv", str(a))
        run_cli("bench", "--sizes", "16", "--seeds", "2", "--csv", str(b))
        assert a.read_text() == b.read_text()
