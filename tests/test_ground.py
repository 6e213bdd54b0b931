"""Ground evaluation compiles the lineage; world enumeration is its oracle."""
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import owpdb
from owpdb import dataio, engine
from owpdb.cli import RunConfig, run
from owpdb.database import Database, LambdaCompletionView, Schema
from owpdb.engine import prob_ground, prob_ground_detail
from owpdb.errors import CapExceeded
from owpdb.probability import CERTAIN, IMPOSSIBLE, Prob
from owpdb.query import UCQ, Atom, Constant, parse_ucq
from owpdb.randgen import rand_cq, rand_database, rand_safe_instance, rand_schema

from helpers import enumerate_worlds

CHAIN = "R(x), S(x, y), T(y)"
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(owpdb.__file__).resolve().parents[1])}


def assert_matches_enumeration(q, db):
    got, want = prob_ground_detail(q, db), enumerate_worlds(q, db)
    assert abs(got.value - want.value) <= 1e-12, (str(q), got, want)
    assert abs(got.complement - want.complement) <= 1e-12, (str(q), got, want)
    return got


def chain_db(rng, n, n_s):
    """R and T on every one of ``n`` constants, S on ``n_s`` pairs, a cycle
    through the constants among them, so every stored tuple is in the
    lineage of the chain query."""
    names = [f"C{i:02d}" for i in range(n)]
    cycle = [(a, names[i - 1]) for i, a in enumerate(names)]
    pairs = cycle + rng.sample(sorted({(a, b) for a in names for b in names} - set(cycle)), n_s - n)
    return Database(Schema({"R": 1, "S": 2, "T": 1}, tuple(map(Constant, names))), {
        "R": {(a,): rng.uniform(0.1, 0.9) for a in names},
        "S": {pair: rng.uniform(0.1, 0.9) for pair in pairs},
        "T": {(b,): rng.uniform(0.1, 0.9) for b in names},
    })


def chain_by_t_assignments(db):
    """P(R(x), S(x, y), T(y)) as a sum over the truth assignments of the T
    tuples; given them, the query is a product over x."""
    t_rows = sorted(db.entries("T"))
    total = 0.0
    for bits in itertools.product((False, True), repeat=len(t_rows)):
        weight = math.prod(p if b else 1.0 - p for (_, p), b in zip(t_rows, bits))
        true_ys = {args[0] for (args, _), b in zip(t_rows, bits) if b}
        none = 1.0
        for (x,), r in db.entries("R"):
            no_s = math.prod(1.0 - p for (a, b), p in db.entries("S") if a == x and b in true_ys)
            none *= 1.0 - r * (1.0 - no_s)
        total += weight * (1.0 - none)
    return total


class TestCompiledEqualsEnumeration:
    def test_criterion_1_instances(self):
        rng = random.Random(100_001)
        for _ in range(500):
            _, db, q = rand_safe_instance(rng)
            assert_matches_enumeration(q, db)

    def test_unsafe_unions(self):
        rng = random.Random(41)
        unsafe = 0
        for _ in range(300):
            schema = rand_schema(rng)
            db = rand_database(rng, schema)
            q = UCQ([rand_cq(rng, schema) for _ in range(rng.randint(1, 3))])
            unsafe += not engine.is_safe(q)
            assert_matches_enumeration(q, db)
        assert unsafe > 30

    @pytest.mark.parametrize("seed", range(6))
    def test_chains(self, seed):
        rng = random.Random(seed)
        db = chain_db(rng, 5, 10)
        q = parse_ucq(CHAIN, db.schema)
        assert not engine.is_safe(q)
        assert_matches_enumeration(q, db)
        assert_matches_enumeration(parse_ucq(f"{CHAIN} | S(x, x)", db.schema), db)

    def test_lambda_completion_view(self, coauthor_db, scientist_coauthor_query):
        view = LambdaCompletionView(coauthor_db, 0.3)
        assert_matches_enumeration(scientist_coauthor_query, view)
        # completed S, closed-world CoA: S ranges over the domain
        assert_matches_enumeration(scientist_coauthor_query, LambdaCompletionView(coauthor_db, 0.3, ["S"]))
        schema = Schema({"R": 1, "S": 2, "T": 1}, tuple(map(Constant, "ABC")))
        db = Database(schema, {"R": {("A",): 0.5}, "S": {("A", "B"): 0.4, ("C", "C"): 1.0}, "T": {("B",): 0.0}})
        assert_matches_enumeration(parse_ucq(CHAIN, schema), LambdaCompletionView(db, 0.2, ["R", "T"]))

    def test_pinned_views(self):
        rng = random.Random(5)
        for _ in range(40):
            db = chain_db(rng, 4, 6)
            atoms = [Atom(p, tuple(map(Constant, args))) for p in "RST" for args, _ in db.entries(p)]
            fixed = {a: rng.choice([True, False, 0.5]) for a in rng.sample(atoms, 4)}
            q = parse_ucq(f"{CHAIN} | R(x), T(x)", db.schema)
            assert_matches_enumeration(q, db.with_overrides(fixed))

    def test_empty_certain_and_impossible_lineages(self):
        schema = Schema({"R": 1, "S": 2, "T": 1}, tuple(map(Constant, "AB")))
        empty = Database(schema)
        assert assert_matches_enumeration(parse_ucq(CHAIN, schema), empty) == IMPOSSIBLE
        pinned = Database(schema, {"R": {("A",): 0.0}, "S": {("A", "B"): 0.5}, "T": {("B",): 0.5}})
        assert assert_matches_enumeration(parse_ucq(CHAIN, schema), pinned) == IMPOSSIBLE
        certain = Database(schema, {"R": {("A",): 1.0}, "S": {("A", "B"): 1.0}, "T": {("B",): 1.0, ("A",): 0.3}})
        assert assert_matches_enumeration(parse_ucq(f"{CHAIN} | T(A)", schema), certain) == CERTAIN
        # certain tuples fold in and leave one uncertain tuple
        assert assert_matches_enumeration(parse_ucq("R(x), T(x)", schema), certain).value == 0.3


class TestBoundedMemory:
    def test_forty_tuple_chain(self):
        db = chain_db(random.Random(3), 10, 20)
        q = parse_ucq(CHAIN, db.schema)
        with pytest.raises(CapExceeded, match="40 uncertain tuples"):
            prob_ground(q, db)
        assert prob_ground(q, db, cap_worlds=40) == pytest.approx(chain_by_t_assignments(db), abs=1e-12)

    def test_node_cap_refuses_in_bounded_memory(self):
        # a complete chain over 15 constants: 2^255 worlds, and exponentially
        # many compiled nodes
        code = textwrap.dedent("""
            import random, resource
            from owpdb.database import Database, Schema
            from owpdb.engine import prob_ground
            from owpdb.errors import CapExceeded
            from owpdb.query import Constant, parse_ucq
            rng = random.Random(4)
            names = [f"C{i:02d}" for i in range(15)]
            db = Database(Schema({"R": 1, "S": 2, "T": 1}, tuple(map(Constant, names))), {
                "R": {(a,): rng.uniform(0.1, 0.9) for a in names},
                "S": {(a, b): rng.uniform(0.1, 0.9) for a in names for b in names},
                "T": {(b,): rng.uniform(0.1, 0.9) for b in names},
            })
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            try:
                prob_ground(parse_ucq("R(x), S(x, y), T(y)", db.schema), db, cap_worlds=1000)
            except CapExceeded as exc:
                print(exc)
                print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) // 1024)
        """)
        out = subprocess.run([sys.executable, "-c", code], env=SUBPROCESS_ENV, capture_output=True, text=True,
                             check=True).stdout.splitlines()
        assert out[0] == f"compiling the lineage needs more than {engine.LINEAGE_CAP} clauses in its nodes"
        assert int(out[1]) < 128  # MB of peak RSS growth

    def test_compiling_does_not_recurse(self):
        # one clause of 800 tuples: 800 Shannon steps deep, each of which took
        # two frames when the compiler recursed: past the recursion limit
        got = engine._compile((2**800 - 1,), [Prob.from_value(0.999)] * 800)
        assert got.value == pytest.approx(0.999**800, rel=1e-12)

    def test_node_cap_exits_3(self, tmp_path, monkeypatch):
        db = chain_db(random.Random(4), 8, 40)
        dataio.save_database(db, tmp_path)
        monkeypatch.setattr(engine, "LINEAGE_CAP", 500)
        status, report = run(RunConfig(db_dir=str(tmp_path), query=CHAIN, mode="eval", cap_worlds=100))
        assert (status, report) == (3, "error: compiling the lineage needs more than 500 clauses in its nodes")

    def test_clause_cap(self, monkeypatch):
        db = chain_db(random.Random(4), 8, 40)
        monkeypatch.setattr(engine, "LINEAGE_CAP", 30)
        with pytest.raises(CapExceeded, match="the lineage has more than 30 clauses"):
            prob_ground(parse_ucq(CHAIN, db.schema), db, cap_worlds=100)


def test_import_leaves_numpy_out():
    code = "import sys, owpdb.cli; assert 'numpy' not in sys.modules, 'numpy imported'"
    subprocess.run([sys.executable, "-c", code], env=SUBPROCESS_ENV, check=True)


def test_vertex_check_runs_where_numpy_cannot_be_imported():
    code = textwrap.dedent("""
        import random, sys
        sys.modules["numpy"] = None  # makes `import numpy` raise ImportError
        from owpdb.oracle import _draws, rand_vertex_instance, vertex_attainment_check
        for _, inst in _draws(random.Random(914), 3, rand_vertex_instance):
            assert vertex_attainment_check(*inst)[0]
    """)
    subprocess.run([sys.executable, "-c", code], env=SUBPROCESS_ENV, check=True)
