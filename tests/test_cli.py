import gc
import importlib.util
import itertools
import json
import os
import random
import re
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest

import owpdb
from owpdb import dataio, engine
from owpdb.cli import RunConfig, _result_payload, main, run
from owpdb.database import Database, Schema
from owpdb.errors import NotInversionFree, SchemaError
from owpdb.exactdp import mtp_upper_exact
from owpdb.greedy import greedy_upper
from owpdb.openworld import MTPConstraint, OpenPDB
from owpdb.query import Constant, parse_ucq

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def db_dir(tmp_path, coauthor_db):
    dataio.save_database(coauthor_db, tmp_path)
    (tmp_path / "constraints.txt").write_text("lambda=0.3\nmtp CoA 0.4\n")
    return str(tmp_path)


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "matching.txt"
    path.write_text(
        "X X1 X2\nY Y1 Y2\nZ Z1 Z2\nE X1,Y1,Z1\nE X2,Y2,Z2\nk 2\n"
    )
    return str(path)


class TestRoundTrip:
    def test_save_load_database(self, tmp_path, coauthor_db):
        dataio.save_database(coauthor_db, tmp_path)
        loaded = dataio.load_database(tmp_path)
        assert loaded.schema.predicates == coauthor_db.schema.predicates
        assert [c.name for c in loaded.schema.domain] == [
            c.name for c in coauthor_db.schema.domain
        ]
        assert dict(loaded.entries("CoA")) == dict(coauthor_db.entries("CoA"))

    def test_load_constraints(self, db_dir):
        lam, constraints = dataio.load_constraints(db_dir)
        assert lam == 0.3
        assert len(constraints) == 1 and constraints[0].relation == "CoA"

    def test_load_3dm(self, instance_file):
        inst = dataio.load_3dm(instance_file)
        assert len(inst.hyperedges) == 2 and inst.k == 2


class TestModes:
    def test_eval(self, db_dir):
        status, out = run(RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="eval", output="json"))
        assert status == 0
        payload = json.loads(out)
        assert payload["result"]["value"] == pytest.approx(0.94456, abs=1e-9)

    def test_query_file(self, db_dir, tmp_path):
        qfile = tmp_path / "query.txt"
        qfile.write_text("S(x), CoA(x,y)\n")
        status, out = run(RunConfig(db_dir=db_dir, query_file=str(qfile), mode="eval", output="json"))
        assert status == 0
        assert json.loads(out)["result"]["value"] == pytest.approx(0.94456, abs=1e-9)

    def test_query_and_query_file_conflict(self, db_dir, tmp_path):
        qfile = tmp_path / "query.txt"
        qfile.write_text("S(x)\n")
        status, out = run(
            RunConfig(db_dir=db_dir, query="S(x)", query_file=str(qfile), mode="eval")
        )
        assert status == 1 and "not both" in out

    def test_exact_with_zero_budget_matches_eval(self, db_dir):
        _, out_eval = run(RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="eval", output="json"))
        _, out_exact = run(
            RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="exact", budget_override=0, output="json")
        )
        eval_value = json.loads(out_eval)["result"]["value"]
        exact = json.loads(out_exact)["result"]
        assert exact["value"] == pytest.approx(eval_value, abs=1e-12)
        assert exact["witness"] == []

    def test_exact_agrees_with_oracle(self, db_dir):
        _, out_e = run(
            RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="exact", budget_override=3, output="json")
        )
        _, out_o = run(
            RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="oracle", budget_override=3, output="json")
        )
        exact = json.loads(out_e)["result"]
        oracle = json.loads(out_o)["result"]
        assert exact["kind"] == "mtp_exact"
        assert exact["value"] == pytest.approx(oracle["value"], abs=1e-9)

    def test_oracle_inside_greedy_interval(self, db_dir):
        _, out_g = run(
            RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="greedy", budget_override=2, output="json")
        )
        _, out_o = run(
            RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="oracle", budget_override=2, output="json")
        )
        g = json.loads(out_g)["result"]
        o = json.loads(out_o)["result"]
        assert g["lower"] - 1e-9 <= o["value"] <= g["upper"] + 1e-9

    def test_analyze(self, db_dir):
        status, out = run(RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="analyze", output="json"))
        assert status == 0
        profile = json.loads(out)["profile"]
        assert profile == {
            "hierarchical_per_cq": [True],
            "inversion_free": True,
            "self_join_free": True,
            "safe": True,
        }

    def test_interval(self, db_dir):
        status, out = run(RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="interval", output="json"))
        payload = json.loads(out)
        assert status == 0
        assert payload["result"]["lower"] == pytest.approx(0.94456, abs=1e-9)
        assert payload["result"]["upper"] > payload["result"]["lower"]

    def test_demo3dm(self, instance_file):
        status, out = run(RunConfig(mode="demo3dm", instance=instance_file, output="json"))
        assert status == 0
        report = json.loads(out)["report"]
        assert any("ok=True" in line for line in report)

    def test_verify(self):
        status, out = run(RunConfig(mode="verify", seed=9, trials=2, output="json"))
        assert status == 0
        report = json.loads(out)["report"]
        assert all("failures=0" in line for line in report if line.startswith("suite="))


class TestDeterminism:
    def test_same_config_same_bytes(self, db_dir):
        config = dict(db_dir=db_dir, query="S(x), CoA(x,y)", mode="greedy", output="json", seed=4)
        out1 = run(RunConfig(**config))
        out2 = run(RunConfig(**config))
        assert out1 == out2

    def test_verify_mode_deterministic(self):
        out1 = run(RunConfig(mode="verify", seed=13, trials=2, output="json"))
        out2 = run(RunConfig(mode="verify", seed=13, trials=2, output="json"))
        assert out1 == out2

    def test_json_schema_stable_across_modes(self, db_dir):
        keys = None
        for mode in ("analyze", "eval", "interval", "exact", "greedy", "oracle"):
            _, out = run(RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode=mode, output="json"))
            payload = json.loads(out)
            if keys is None:
                keys = set(payload)
            assert set(payload) == keys
            if payload["result"] is not None:
                assert set(payload["result"]) == {
                    "kind",
                    "value",
                    "lower",
                    "upper",
                    "witness",
                    "complement_log10",
                    "warnings",
                }


class TestHashSeed:
    def test_ground_fallback_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # 12 uncertain tuples in the lineage of an unsafe chain; numbering
        # them in set order gave ...7756 under one hash seed, ...7755 under
        # the other
        schema = Schema({"R": 1, "S": 2, "T": 1}, tuple(Constant(n) for n in "ABC"))
        db = Database(schema, {
            "R": {("A",): 0.207, ("B",): 0.778, ("C",): 0.711},
            "S": {("A", "A"): 0.731, ("A", "B"): 0.123, ("B", "A"): 0.71, ("B", "B"): 0.456, ("B", "C"): 0.283,
                  ("C", "C"): 0.12},
            "T": {("A",): 0.304, ("B",): 0.496, ("C",): 0.46},
        })
        dataio.save_database(db, tmp_path)
        src = str(Path(owpdb.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "owpdb.cli", "--db", str(tmp_path), "--query", "R(x), S(x,y), T(y)",
                "--mode", "eval", "--output", "json"]
        outs = [
            subprocess.run(argv, env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                           capture_output=True, check=True).stdout
            for seed in ("0", "1")
        ]
        assert b"unsafe-query-ground-evaluation" in outs[0]
        assert outs[0] == outs[1]


def scan_dir(tmp_path, coa_rows):
    """S, T and CoA over three constants, CoA.csv written as given, and a
    lambda but no mtp line (which would read CoA)."""
    schema = Schema({"S": 1, "T": 1, "CoA": 2}, tuple(map(Constant, "ABC")))
    db = Database(schema, {"S": {("A",): 0.5, ("B",): 0.25}, "T": {("C",): 0.5}})
    dataio.save_database(db, tmp_path)
    (tmp_path / "CoA.csv").write_text(coa_rows, errors="surrogateescape")  # "\udcff" writes the byte 0xff
    (tmp_path / "constraints.txt").write_text("lambda=0.3\n")
    return tmp_path


class TestLoaderContract:
    """A relation file is parsed when a request first reads its relation:
    a bad row fails that request with the file and row, and a request that
    never reads the relation does not see it."""

    @pytest.mark.parametrize("row, message", [
        ("A,0.5", "expected 2 constants and a probability"),
        ("A,B,high", "bad probability 'high'"),
        ("A,C,0.5", "duplicate tuple ('A', 'C')"),
        ("A,Z,0.5", "constant 'Z' is not in the domain"),
        ("A,B,1.5", "probability 1.5 outside [0, 1]"),
        ("A,B,-0.5", "probability -0.5 outside [0, 1]"),
        ("A,B,nan", "probability nan outside [0, 1]"),
        ("\udcff,B,0.5", "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
        (f"A,{'B' * 131073},0.5", "field larger than field limit (131072)"),
    ], ids=["width", "probability", "duplicate", "domain", "above-one", "below-zero", "nan", "undecodable", "oversized"])
    def test_bad_row_names_its_file_and_row(self, tmp_path, row, message):
        directory = scan_dir(tmp_path, f"A,C,0.5\n\n{row}\n")
        for mode in ("eval", "interval"):
            status, out = run(RunConfig(db_dir=str(directory), query="S(x), CoA(x,y)", mode=mode))
            assert status == 1, (mode, out)
            assert out == f"error: {directory / 'CoA.csv'}:3: {message}", mode

    @pytest.mark.parametrize("rows, message", [
        ("A,B,1.5\nA,Z,0.5", "probability 1.5 outside [0, 1]"),
        ("A,C,0.5\nA,B,high", "duplicate tuple ('A', 'C')"),
    ], ids=["range-before-domain", "duplicate-before-probability"])
    def test_the_first_bad_row_wins(self, tmp_path, rows, message):
        # row 4's kind of fault is the one the whole-relation checks find first
        directory = scan_dir(tmp_path, f"A,C,0.5\n\n{rows}\n")
        status, out = run(RunConfig(db_dir=str(directory), query="S(x), CoA(x,y)", mode="eval"))
        assert status == 1
        assert out == f"error: {directory / 'CoA.csv'}:3: {message}"

    @pytest.mark.parametrize("lines, message", [
        ("lambda=abc", "1: could not convert string to float: 'abc'"),
        ("lambda=2", "1: completion probability 2.0 outside [0, 1]"),
        ("lambda=0.3\nmtp CoA abc", "2: could not convert string to float: 'abc'"),
        ("lambda=0.3\nmtp CoA 2", "2: mean bound 2.0 outside (0, 1]"),
        ("lambda=0.3\nlambda=0.5", "2: lambda given twice"),
        ("lambda=0.3\nmtp CoA", "2: expected 'mtp PRED mean'"),
        ("lambda=0.3\nbudget 3", "2: unrecognized line 'budget 3'"),
        ("# no lambda", " missing lambda=<float> line"),
        ("lambda=0.3\n\udcff", "2: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
    ], ids=["lambda", "lambda-range", "mean", "mean-range", "lambda-twice", "mtp-width", "unrecognized", "no-lambda", "undecodable"])
    def test_bad_constraints_name_their_file_and_line(self, tmp_path, lines, message):
        path = scan_dir(tmp_path, "A,C,0.5\n") / "constraints.txt"
        path.write_text(f"{lines}\n", errors="surrogateescape")
        status, out = run(RunConfig(db_dir=str(tmp_path), query="S(x)", mode="analyze"))
        assert (status, out) == (1, f"error: {path}:{message}")

    @pytest.mark.parametrize("lines, message", [
        ("k abc", "6: invalid literal for int() with base 10: 'abc'"),
        ("E X1,Y1", "6: expected 'E x,y,z'"),
        ("W X1", "6: unrecognized line 'W X1'"),
        ("", " missing 'k <int>' line"),
        ("Y X1\nk 1", " node sets must be disjoint"),
        ("E X1,Y1,Z9\nk 1", " hyperedge (X1, Y1, Z9) leaves the node sets"),
    ], ids=["k", "edge-width", "unrecognized", "no-k", "disjoint", "hyperedge"])
    def test_bad_instance_names_its_file_and_line(self, tmp_path, lines, message):
        path = tmp_path / "matching.txt"
        path.write_text(f"X X1 X2\nY Y1 Y2\nZ Z1 Z2\nE X1,Y1,Z1\nE X2,Y2,Z2\n{lines}\n")
        status, out = run(RunConfig(mode="demo3dm", instance=str(path)))
        assert (status, out) == (1, f"error: {path}:{message}")

    def test_demo3dm_refuses_k_above_the_smallest_node_set(self, tmp_path, capsys):
        # three edges, but two Y nodes: no 3-matching can exist
        path = tmp_path / "matching.txt"
        path.write_text("X X1 X2 X3\nY Y1 Y2\nZ Z1 Z2 Z3\nE X1,Y1,Z1\nE X2,Y2,Z2\nE X3,Y1,Z3\nk 3\n")
        status, out = run(RunConfig(mode="demo3dm", instance=str(path)))
        assert (status, out) == (1, f"error: {path}: k must be at most the size of the smallest node set")
        with pytest.raises(SystemExit) as exc:
            main(["--mode", "demo3dm", "--instance", str(path)])
        assert exc.value.code == 1 and capsys.readouterr().out == f"{out}\n"

    @pytest.mark.parametrize("schema_text, message", [
        (None, "missing {path}"),
        ("S/1\nCoA 2\n", "{path}:2: expected PRED/arity, got 'CoA 2'"),
        ("S/1\n# note\nT/one\n", "{path}:3: bad arity 'one'"),
        ("S/1\nT/1\nS/2\n", "{path}:3: duplicate predicate 'S'"),
    ], ids=["missing", "no-slash", "arity", "duplicate"])
    def test_bad_schema_names_its_file_and_line(self, tmp_path, schema_text, message):
        path = scan_dir(tmp_path, "A,C,0.5\n") / "schema.txt"
        if schema_text is None:
            path.unlink()
        else:
            path.write_text(schema_text)
        with pytest.raises(SchemaError) as err:
            dataio.load_database(tmp_path)
        assert str(err.value) == message.format(path=path)

    def test_the_parse_contract(self, tmp_path):
        # quoted constants as save_database writes them, CRLF line ends,
        # padding, a blank and a whitespace-only line, no final newline
        schema = Schema({"R": 2}, tuple(map(Constant, ["A", "B", "Smith, J.", 'the "Don"'])))
        rows = {("Smith, J.", "A"): 0.5, ("A", "B"): 0.25, ("B", 'the "Don"'): 1.0, ("A", "Smith, J."): 0.0}
        memory = Database(schema, {"R": rows})
        dataio.save_database(memory, tmp_path)
        (tmp_path / "R.csv").write_bytes(
            b'"Smith, J.",A,0.5\r\n\r\n \t \r\n A ,B , 0.25\r\nB,"the ""Don""",1\r\nA,"Smith, J.",0')
        loaded = dataio.load_database(tmp_path)
        assert list(loaded.entries("R")) == list(memory.entries("R"))
        assert loaded.explicit_constants(["R"]) == memory.explicit_constants(["R"])
        directory = scan_dir(tmp_path / "padded", "A,C,0.5\nA, C,0.25\n")
        status, out = run(RunConfig(db_dir=str(directory), query="S(x), CoA(x,y)", mode="eval"))
        assert (status, out) == (1, f"error: {directory / 'CoA.csv'}:2: duplicate tuple ('A', 'C')")

    def test_the_first_bad_row_wins_in_memory(self):
        # a dict holds no duplicate
        schema = Schema({"R": 2}, tuple(map(Constant, "AB")))
        for rows, message in (
            ({("A", "A"): 0.5, ("A", "B"): 1.5, ("A", "Z"): 0.5}, "R('A', 'B'): probability 1.5 outside [0, 1]"),
            ({("A", "A"): 0.5, ("B",): 0.5, ("A", "B"): "high"}, "R('B',): expected 2 constants and a probability"),
        ):
            with pytest.raises(SchemaError) as info:
                Database(schema, {"R": rows})
            assert str(info.value) == message

    def test_a_relation_no_request_reads_is_not_parsed(self, tmp_path):
        directory = str(scan_dir(tmp_path, "A,B,C,D\n"))
        for mode, query in (("analyze", "S(x), T(y)"), ("eval", "S(x), T(y)"), ("analyze", "S(x), CoA(x,y)")):
            status, out = run(RunConfig(db_dir=directory, query=query, mode=mode, output="json"))
            assert status == 0, (mode, query, out)
        status, out = run(RunConfig(db_dir=directory, query="S(x), CoA(x,y)", mode="eval"))
        assert status == 1 and "CoA.csv:1:" in out

    def test_in_memory_database_validates_at_construction(self):
        schema = Schema({"R": 2}, tuple(map(Constant, "AB")))
        for rows, message in (
            ({("A",): 0.5}, "expected 2 constants"),
            ({("A", "B"): "high"}, "bad probability"),
            ({("A", "Z"): 0.5}, "constant 'Z' is not in the domain"),
            ({("A", "B"): float("nan")}, "outside [0, 1]"),
        ):
            with pytest.raises(SchemaError, match=re.escape(message)):
                Database(schema, {"R": rows})


class TestExitCodes:
    def test_validation_error(self, db_dir):
        status, out = run(RunConfig(db_dir=db_dir, query="S(x, y)", mode="eval"))
        assert status == 1 and "error" in out

    def test_constant_outside_the_domain(self, db_dir):
        for mode in ("analyze", "eval", "interval", "exact", "greedy", "oracle"):
            status, out = run(RunConfig(db_dir=db_dir, query="S(x), CoA(x, Z)", mode=mode))
            assert (status, out) == (1, "error: constant 'Z' is not in the domain (at position 13)"), mode

    def test_unsafe_without_fallback(self, tmp_path):
        schema = Schema({"R": 1, "S": 2, "T": 1}, (Constant("A"), Constant("B")))
        db = Database(schema, {"R": {("A",): 0.5}, "S": {("A", "B"): 0.5}, "T": {("B",): 0.5}})
        dataio.save_database(db, tmp_path)
        (tmp_path / "constraints.txt").write_text("lambda=0.5\n")
        status, _ = run(
            RunConfig(db_dir=str(tmp_path), query="R(x), S(x,y), T(y)", mode="interval")
        )
        assert status == 2

    def test_unsafe_eval_falls_back_to_ground(self, tmp_path):
        schema = Schema({"R": 1, "S": 2, "T": 1}, (Constant("A"), Constant("B")))
        db = Database(schema, {"R": {("A",): 0.5}, "S": {("A", "B"): 0.5}, "T": {("B",): 0.5}})
        dataio.save_database(db, tmp_path)
        status, out = run(
            RunConfig(db_dir=str(tmp_path), query="R(x), S(x,y), T(y)", mode="eval", output="json")
        )
        assert status == 0
        payload = json.loads(out)
        assert "unsafe-query-ground-evaluation" in payload["result"]["warnings"]

    def test_cap_exceeded(self, tmp_path):
        n = 10
        schema = Schema({"R": 1}, tuple(Constant(f"C{i}") for i in range(n)))
        db = Database(schema, {"R": {("C0",): 0.5}})
        dataio.save_database(db, tmp_path)
        status, _ = run(
            RunConfig(db_dir=str(tmp_path), query="R(x)", mode="eval", cap_worlds=4)
        )
        assert status == 0  # safe query: lifted path, no worlds needed
        status, _ = run(
            RunConfig(
                db_dir=str(tmp_path),
                lam=0.5,
                mtp=("R", 0.9),
                query="R(x)",
                mode="oracle",
                budget_override=5,
                cap_subsets=3,
            )
        )
        assert status == 3

    TOO_WIDE = [
        # (arities, domain, rows, constrained relation, query, message)
        ({f"{r}{i}": 1 for i in range(10) for r in "PQ"}, ["A", "B"], {"P0": {("A",): 0.5}}, "P0",
         " | ".join(f"P{i}(x), Q{i}(y)" for i in range(10)), "cap 512"),
        # an unsafe chain whose group sorts first, then 13 mutually dependent
        # parts: refused when the conjunction is expanded, before the chain
        # is evaluated, so eval never tries ground evaluation
        ({"A0": 1, "B0": 2, "C0": 1, "R": 2, "S": 1}, [f"A{i}" for i in range(1, 14)] + ["E"],
         {"A0": {("E",): 0.5}, "B0": {("E", "A1"): 0.4}, "C0": {("A1",): 0.3}, "R": {("E", "A1"): 0.6},
          "S": {("E",): 0.7}}, "S",
         "A0(y), B0(y, z), C0(z), " + ", ".join(f"R(x{i}, A{i + 1}), S(x{i})" for i in range(13)), "cap 12"),
    ]

    def test_too_wide_is_cap_exceeded(self, tmp_path):
        for i, (arities, names, rows, constrained, query, message) in enumerate(self.TOO_WIDE):
            case = tmp_path / str(i)
            dataio.save_database(Database(Schema(arities, tuple(map(Constant, names))), rows), case)
            (case / "constraints.txt").write_text(f"lambda=0.5\nmtp {constrained} 0.9\n")
            for mode in ("analyze", "eval", "interval", "exact", "greedy"):
                status, out = run(RunConfig(db_dir=str(case), query=query, mode=mode, force=True))
                assert status == 3 and message in out, (query, mode, out)

    def test_greedy_self_join_needs_force(self, tmp_path):
        schema = Schema({"R": 2}, (Constant("A"), Constant("B")))
        db = Database(schema, {"R": {("A", "B"): 0.5}})
        dataio.save_database(db, tmp_path)
        (tmp_path / "constraints.txt").write_text("lambda=0.5\nmtp R 0.9\n")
        base = dict(db_dir=str(tmp_path), query="R(x, y) | R(u, v)", mode="greedy")
        status, out = run(RunConfig(**base))
        assert status == 1 and "force" in out
        status, out = run(RunConfig(**base, force=True, output="json"))
        assert status == 0
        assert "self-join-no-guarantee" in json.loads(out)["result"]["warnings"]


class TestColdEqualsWarm:
    """Plans live in one process-wide table: a warm table answers every mode
    byte for byte as a cold one does, and refuses where and as it refuses."""

    SCAN_QUERIES = ("S(x), CoA(x,y)", "CoA(x,y), T(y)", "S(x), CoA(x,y) | T(u)", "S(x), CoA(x,y), T(x)", "S(x), T(y)")
    # two of tools/same_answers.py's gap templates, the inclusion-exclusion ones
    GAP_QUERIES = ("R(x), S(x, y) | T(x, y), S(x, K1)", "R(x), S(x, K1) | U(y), S(y, K2) | S(z, K1), S(z, K2)")
    MODES = ("analyze", "eval", "interval", "exact")

    @staticmethod
    def save(directory, arities, names, constraints, seed, dense=0.5):
        rng = random.Random(seed)
        rels = {pred: {args: rng.choice([0.2, 0.5, 0.9]) for args in itertools.product(names, repeat=arity)
                       if rng.random() < (dense if arity == 1 else dense / 3)}
                for pred, arity in arities.items()}
        dataio.save_database(Database(Schema(arities, tuple(map(Constant, names))), rels), directory)
        (directory / "constraints.txt").write_text(constraints)
        return str(directory)

    def configs(self, tmp_path):
        scan = self.save(tmp_path / "scan", {"S": 1, "T": 1, "CoA": 2}, [f"c{i}" for i in range(12)],
                         "lambda=0.3\nmtp CoA 0.4\n", seed=1)
        gap = self.save(tmp_path / "gap", {"R": 1, "U": 1, "S": 2, "T": 2}, [f"K{i}" for i in range(6)],
                        "lambda=0.5\nmtp S 1.0\n", seed=3)
        chain = self.save(tmp_path / "chain", {"R": 1, "S": 2, "T": 1}, ["A", "B", "C"], "lambda=0.5\nmtp S 0.9\n",
                          seed=4, dense=0.7)
        wide_arities, wide_names, wide_rows, _, wide_query, _ = TestExitCodes.TOO_WIDE[0]
        wide = tmp_path / "wide"
        dataio.save_database(Database(Schema(wide_arities, tuple(map(Constant, wide_names))), wide_rows), wide)
        (wide / "constraints.txt").write_text("lambda=0.5\nmtp P0 0.9\n")
        cases = [(d, q) for d, qs in ((scan, self.SCAN_QUERIES), (gap, self.GAP_QUERIES)) for q in qs]
        cases += [(chain, "R(x), S(x, y), T(y)"), (str(wide), wide_query)]
        return [RunConfig(db_dir=d, query=q, mode=mode, budget_override=2, output="json")
                for d, q in cases for mode in self.MODES]

    def test_same_bytes_cold_and_warm(self, tmp_path, cold_plans):
        configs = self.configs(tmp_path)
        cold = []
        for config in configs:
            cold_plans()
            cold.append(run(config))
        for _ in range(2):  # warming, then warm
            assert [run(config) for config in configs] == cold
        safe = len(self.MODES) * (len(self.SCAN_QUERIES) + len(self.GAP_QUERIES))
        assert [status for status, _ in cold[:safe]] == [0] * safe
        chain, wide = dict(zip(self.MODES, cold[safe:safe + len(self.MODES)])), cold[safe + len(self.MODES):]
        assert json.loads(chain["analyze"][1])["profile"]["safe"] is False
        assert "unsafe-query-ground-evaluation" in json.loads(chain["eval"][1])["result"]["warnings"]
        assert chain["interval"] == (2, "error: no decomposition applies to R(x), S(x, y), T(y)")
        assert chain["exact"][0] == 2
        assert len(wide) == len(self.MODES) and all(status == 3 and "cap 512" in out for status, out in wide)


class TestTextOutput:
    """The default text report, line by line, on the coauthor database."""

    HEADER = ["query: CoA(x, y), S(x)", "lambda: 0.3", "mtp: CoA <= 0.4 (derived budget 13)"]

    def lines(self, db_dir, **config):
        status, out = run(RunConfig(db_dir=db_dir, **config))
        assert status == 0, out
        return out.splitlines()

    def test_analyze(self, db_dir):
        assert self.lines(db_dir, query="S(x), CoA(x,y)", mode="analyze") == ["mode: analyze", *self.HEADER, "budget: 13",
            "profile: hierarchical_per_cq=True inversion_free=True self_join_free=True safe=True"]

    def test_interval(self, db_dir):
        assert self.lines(db_dir, query="S(x), CoA(x,y)", mode="interval") == ["mode: interval", *self.HEADER, "budget: 13",
            "kind: open_upper",
            "value: 0.9874962453870028",
            "interval: [0.9445600000000001, 0.9874962453870028]",
            "complement_log10: -1.9029595579628718"]

    def test_exact(self, db_dir):
        assert self.lines(db_dir, query="S(x), CoA(x,y)", mode="exact", budget_override=2) == ["mode: exact", *self.HEADER,
            "budget: 2",
            "kind: mtp_exact",
            "value: 0.9676936",
            "witness: CoA(VonNeumann, Erdos), CoA(VonNeumann, VonNeumann)"]

    def test_unsafe_eval(self, db_dir):
        assert self.lines(db_dir, query="S(x), CoA(x,y), S(y)", mode="eval") == ["mode: eval",
            "query: CoA(x, y), S(x), S(y)", *self.HEADER[1:], "budget: 13",
            "notice: query is unsafe; evaluated by compiling its ground lineage",
            "kind: closed",
            "value: 0.8230400000000001",
            "warning: unsafe-query-ground-evaluation"]

    def test_report(self, instance_file):
        _, out = run(RunConfig(mode="demo3dm", instance=instance_file, output="json"))
        lines = self.lines(None, mode="demo3dm", instance=instance_file)
        assert lines == ["mode: demo3dm", "lambda: 0.8", *json.loads(out)["report"]]

    def test_timings_add_only_their_field(self, db_dir):
        config = dict(db_dir=db_dir, query="S(x), CoA(x,y)", mode="interval")
        plain = json.loads(run(RunConfig(**config, output="json"))[1])
        timed = json.loads(run(RunConfig(**config, output="json", timings=True))[1])
        assert plain["timings_ms"] is None and timed.pop("timings_ms")["total"] >= 0.0
        assert timed == {k: v for k, v in plain.items() if k != "timings_ms"}
        lines = self.lines(**config, timings=True)
        assert lines[:-1] == self.lines(**config) and re.fullmatch(r"timings_ms: [0-9.]+", lines[-1])


class TestUsageErrors:
    def test_db_is_required(self):
        status, out = run(RunConfig(query="S(x)", mode="eval"))
        assert (status, out) == (1, "error: --db is required for this mode")

    def test_one_constrained_relation_per_run(self, db_dir):
        (Path(db_dir) / "constraints.txt").write_text("lambda=0.3\nmtp S 0.5\nmtp CoA 0.4\n")
        status, out = run(RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="exact"))
        assert (status, out) == (1, "error: one constrained relation per run; constraints.txt names CoA, S")

    @pytest.mark.parametrize("mtp, message", [("CoA", "expected REL=MEAN"), ("CoA=high", "bad mean bound 'high'")])
    def test_mtp_parse_errors(self, db_dir, capsys, mtp, message):
        with pytest.raises(SystemExit) as exc:
            main(["--db", db_dir, "--query", "S(x), CoA(x,y)", "--mode", "exact", "--mtp", mtp])
        assert exc.value.code == 2 and message in capsys.readouterr().err

    @pytest.mark.parametrize("fields, message", [
        ({"mode": "explain"}, "unknown mode 'explain'"),
        ({"budget_override": -1}, "budget override must be non-negative"),
        ({"mode": "verify", "trials": 0}, "trials must be at least 1"),
    ], ids=["mode", "negative-budget", "no-trials"])
    def test_bad_run_config_is_refused(self, fields, message):
        with pytest.raises(ValueError) as err:
            RunConfig(**fields)
        assert str(err.value) == message

    @pytest.mark.parametrize("flags, message", [
        (["--mode", "exact", "--budget", "-1"], "budget override must be non-negative"),
        (["--mode", "verify", "--trials", "0"], "trials must be at least 1"),
        (["--mode", "verify", "--trials", "-1"], "trials must be at least 1"),
    ], ids=["negative-budget", "no-trials", "negative-trials"])
    def test_bad_flags_print_one_error_line(self, db_dir, capsys, flags, message):
        # an empty verify report would read as a pass
        with pytest.raises(SystemExit) as exc:
            main(["--db", db_dir, "--query", "S(x)", *flags])
        assert exc.value.code == 1 and capsys.readouterr().out == f"error: {message}\n"

    def test_mtp_flag(self, db_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--db", db_dir, "--query", "S(x), CoA(x,y)", "--mode", "analyze", "--mtp", " CoA =0.25"])
        assert exc.value.code == 0
        assert "mtp: CoA <= 0.25 (derived budget 6)" in capsys.readouterr().out.splitlines()


def gap_instance(i):
    """``tools/same_answers.py``'s gap instance ``i``."""
    spec = importlib.util.spec_from_file_location("same_answers", ROOT / "tools" / "same_answers.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rng = random.Random(13)
    for _ in range(i + 1):
        g, c, q = tool.gap_instance(rng)
    return g, c, q


class TestExactReroutesToGreedy:
    """Exact mode answers a query the DP refuses with the greedy bound."""

    def check(self, tmp_path, g, c, q, refusal):
        with pytest.raises(NotInversionFree, match=refusal):
            mtp_upper_exact(g, c, q)
        dataio.save_database(g.pdb, tmp_path)
        (tmp_path / "constraints.txt").write_text(f"lambda={g.lam!r}\nmtp {c.relation} {c.mean_bound!r}\n")
        config = dict(db_dir=str(tmp_path), query=str(q), mode="exact")
        status, out = run(RunConfig(**config))
        assert status == 0 and "notice: query has an inversion; routed to the greedy bound" in out.splitlines()
        status, out = run(RunConfig(**config, output="json"))
        result = json.loads(out)["result"]
        assert status == 0 and result["kind"] == "mtp_greedy"
        assert result == json.loads(json.dumps(_result_payload(g.pdb, greedy_upper(g, c, q))))

    def test_static_gate(self, tmp_path):
        schema = Schema({"S": 2}, tuple(map(Constant, "ABC")))
        db = Database(schema, {"S": {("A", "B"): 0.5, ("B", "C"): 0.7, ("C", "A"): 0.2, ("A", "A"): 0.9}})
        q = parse_ucq("S(x, y), S(y, z) | S(z, x), S(z, y)", schema)
        self.check(tmp_path, OpenPDB(db, 0.4), MTPConstraint("S", 0.5), q, "has an inversion")
        _, out = run(RunConfig(db_dir=str(tmp_path), query=str(q), mode="analyze", output="json"))
        profile = json.loads(out)["profile"]
        assert (profile["inversion_free"], profile["safe"]) == (False, True)

    def test_dp_refusal(self, tmp_path):
        # inversion-free, but the DP finds no shared separator and its open
        # slice is too large to enumerate
        g, c, q = gap_instance(7)
        self.check(tmp_path, g, c, q, "no shared separator and the open slice has 13 tuples")


_OPENED: list | None = None  # the paths opened while a test collects them


def _audit(event, args):
    if event == "open" and _OPENED is not None:
        _OPENED.append(args[0])


sys.addaudithook(_audit)  # once: an audit hook stays for the process


@pytest.fixture
def opened():
    """Collects the path of every file opened, by any means, during the test."""
    global _OPENED
    _OPENED = []
    yield _OPENED
    _OPENED = None


class TestWarmRequests:
    """A repeated request reads each input file once, with no stat probe,
    and parses no constraints file or query text it parsed before; other
    bytes, another schema or a text that fails to parse are parsed again."""

    def test_a_repeated_request_makes_no_stat_call_and_opens_each_file_once(self, db_dir, opened, monkeypatch):
        config = RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="interval", output="json")
        first = run(config)
        stats, real = [], os.stat
        monkeypatch.setattr(os, "stat", lambda *args, **kwargs: stats.append(args[0]) or real(*args, **kwargs))
        opened.clear()
        assert run(config) == first
        assert stats == []
        assert sorted(map(os.path.basename, opened)) == ["CoA.csv", "S.csv", "constraints.txt", "domain.txt",
                                                         "schema.txt"]
        assert all(os.path.dirname(path) == db_dir for path in opened)

    def test_a_fifo_or_a_directory_in_place_of_a_file_reads_as_missing(self, db_dir):
        constraints, s = Path(db_dir, "constraints.txt"), Path(db_dir, "S.csv")
        constraints.unlink()
        os.mkfifo(constraints)  # with no writer, an open that waits for one never returns
        s.unlink()
        s.mkdir()
        got = []
        reader = threading.Thread(target=lambda: got.append(
            (dataio.load_constraints(db_dir), dataio.load_database(db_dir).relation_size("S"))), daemon=True)
        reader.start()
        reader.join(timeout=60)
        assert got == [((None, ()), 0)]

    def test_a_schema_no_longer_kept_takes_its_parsed_texts_with_it(self, db_dir, monkeypatch, cold_plans):
        # a schema too heavy to keep is built anew by every load; its parsed
        # texts must neither pile up in the plan table nor keep it alive
        monkeypatch.setattr(dataio, "_SHARED", dataio._Shared(1))
        schemas, load = [], dataio.load_database
        monkeypatch.setattr(dataio, "load_database", lambda d: schemas.append(weakref.ref((db := load(d)).schema)) or db)
        config = RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="eval", output="json")
        first, sizes = run(config), []
        for _ in range(3):
            assert run(config) == first
            sizes.append(tuple(map(len, engine._TABLES[False])))
        gc.collect()
        assert sizes == [sizes[0]] * 3 and sizes[0][2] == 0
        assert len(schemas) == 4 and all(ref() is None for ref in schemas)

    def test_a_same_size_constraints_rewrite_with_its_mtime_kept_is_read_again(self, db_dir):
        path = Path(db_dir) / "constraints.txt"
        path.write_text("lambda=0.3\n")
        config = RunConfig(db_dir=db_dir, query="S(x)", mode="analyze", output="json")
        assert json.loads(run(config)[1])["lambda"] == 0.3
        kept = dataio.load_constraints(db_dir)
        assert kept == (0.3, ()) and dataio.load_constraints(db_dir) is kept
        before = path.stat()
        path.write_text("lambda=0.5\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert json.loads(run(config)[1])["lambda"] == 0.5

    def test_a_bad_constraints_file_is_never_kept(self, db_dir):
        path = Path(db_dir) / "constraints.txt"
        path.write_text("lambda=0.3\nmtp CoA\n")
        for _ in range(2):
            with pytest.raises(SchemaError, match="^" + re.escape(f"{path}:2: expected 'mtp PRED mean'") + "$"):
                dataio.load_constraints(db_dir)

    def test_a_query_that_fails_to_parse_fails_the_same_way_twice(self, db_dir, monkeypatch):
        parsed, real = [], engine.parse_ucq
        monkeypatch.setattr(engine, "parse_ucq", lambda text, schema: parsed.append(text) or real(text, schema))
        outs = [run(RunConfig(db_dir=db_dir, query="S(x), CoA(x,", mode="eval")) for _ in range(2)]
        assert outs[0] == outs[1] and outs[0][0] == 1 and outs[0][1].startswith("error: ")
        assert parsed == ["S(x), CoA(x,"] * 2

    def test_a_text_is_parsed_again_under_another_schema(self, tmp_path, monkeypatch):
        parsed, real = [], engine.parse_ucq
        monkeypatch.setattr(engine, "parse_ucq", lambda text, schema: parsed.append(text) or real(text, schema))
        for name, domain in (("with", "ABC"), ("without", "AB")):
            schema = Schema({"S": 1, "CoA": 2}, tuple(map(Constant, domain)))
            dataio.save_database(Database(schema, {"S": {("A",): 0.5}}), tmp_path / name)
        config = dict(query="S(x), CoA(x, C)", mode="eval", output="json")
        with_c = [run(RunConfig(db_dir=str(tmp_path / "with"), **config)) for _ in range(2)]
        assert with_c[0] == with_c[1] and with_c[0][0] == 0 and len(parsed) == 1
        status, out = run(RunConfig(db_dir=str(tmp_path / "without"), **config))
        assert (status, out) == (1, "error: constant 'C' is not in the domain (at position 13)") and len(parsed) == 2
        assert run(RunConfig(db_dir=str(tmp_path / "with"), **config)) == with_c[0] and len(parsed) == 2

    def test_two_exact_requests_decide_inversion_freeness_once(self, db_dir, monkeypatch):
        flags, real = [], engine.is_inversion_free
        monkeypatch.setattr(engine, "is_inversion_free", lambda q: flags.append(q) or real(q))
        engine._inversion_free.cache_clear()
        config = RunConfig(db_dir=db_dir, query="S(x), CoA(x,y)", mode="exact", budget_override=2, output="json")
        assert run(config) == run(config)
        assert len(flags) == 1
        schema = Schema({"S": 2}, tuple(map(Constant, "ABC")))
        db = Database(schema, {"S": {("A", "B"): 0.5, ("B", "C"): 0.7}})
        q = parse_ucq("S(x, y), S(y, z) | S(z, x), S(z, y)", schema)
        for _ in range(2):
            with pytest.raises(NotInversionFree, match="^" + re.escape(f"{q} has an inversion") + "$"):
                mtp_upper_exact(OpenPDB(db, 0.4), MTPConstraint("S", 0.5), q)
        assert len(flags) == 2
