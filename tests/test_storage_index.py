"""Indexed storage lookups: the same rows as a scan, and work bounded by
the rows that match."""
import random
import sys
import threading

import pytest

from owpdb import database, dataio, exactdp, openworld
from owpdb.database import Database, LambdaCompletionView, ProbView, Schema
from owpdb.errors import SchemaError, UnknownPredicate
from owpdb.openworld import MTPConstraint, OpenPDB, interval_unconstrained
from owpdb.engine import prob_lifted
from owpdb.oracle import mtp_upper_bruteforce
from owpdb.query import Atom, Constant, Variable, parse_ucq
from owpdb.randgen import rand_database, rand_schema

NOWHERE = Constant("Nowhere")  # a constant in no row (and in no domain)


def scan(view, pred, pattern):
    """The matching rows, found by testing every stored row."""
    out = []
    for args, p in view.entries(pred):
        seen = {}
        if all(
            seen.setdefault(t.name, a) == a if isinstance(t, Variable) else t.name == a
            for t, a in zip(pattern, args)
        ):
            out.append((args, p))
    return out


def patterns(rng, schema, pred, view):
    arity = schema.predicates[pred]
    rows = [args for args, _ in view.entries(pred)]
    x, y = Variable("x"), Variable("y")
    out = [
        tuple(Variable(f"v{i}") for i in range(arity)),  # all variables
        tuple(rng.choice(schema.domain) for _ in range(arity)),  # constants only
        (x,) * arity,  # one repeated variable
        (NOWHERE,) + (x,) * (arity - 1),  # a constant in no row
    ]
    if rows:
        out.append(tuple(Constant(a) for a in rng.choice(rows)))  # a stored row
    if arity >= 3:
        out.append((rng.choice(schema.domain), x, x))  # a constant and a repeated variable
    terms = list(schema.domain) + [x, y]
    out += [tuple(rng.choice(terms) for _ in range(arity)) for _ in range(12)]
    return out


def views(rng, db):
    schema = db.schema
    stored = [
        Atom(pred, tuple(Constant(a) for a in args))
        for pred in sorted(schema.predicates)
        for args, _ in db.entries(pred)
    ]
    absent = [
        Atom(pred, tuple(Constant(a) for a in args))
        for pred in sorted(schema.predicates)
        for args in _all_args(schema, pred)
        if not db.is_explicit(pred, args)
    ]
    shadowed = {a: rng.choice([True, False, 0.35]) for a in rng.sample(stored, min(3, len(stored)))}
    added = rng.sample(absent, min(3, len(absent)))
    completion = LambdaCompletionView(db, 0.5)
    out = [("database", db), ("completion", completion)]
    if added:
        out.append(("with_added", db.with_added(added, 0.3)))
    if shadowed:
        out.append(("with_overrides", db.with_overrides(shadowed)))
        out.append(("overlay on completion", completion.with_overrides({**shadowed, **dict.fromkeys(added, 0.6)})))
    return out


def _all_args(schema, pred):
    args = [()]
    for _ in range(schema.predicates[pred]):
        args = [a + (c.name,) for a in args for c in schema.domain]
    return args


class TestIndexEqualsScan:
    @pytest.mark.parametrize("seed", range(40))
    def test_pattern_entries_equal_a_scan_in_order(self, seed):
        rng = random.Random(seed)
        schema = rand_schema(rng)
        db = rand_database(rng, schema, density=rng.choice([0.2, 0.5, 0.9]))
        for name, view in views(rng, db):
            for pred in sorted(schema.predicates):
                for pattern in patterns(rng, schema, pred, view):
                    expected = scan(view, pred, pattern)
                    # twice: once building the index, once reading it
                    for _ in range(2):
                        assert list(view.pattern_entries(pred, pattern)) == expected, (name, pred, pattern)

    def test_overlay_rows_follow_the_scan_order(self, coauthor_schema, coauthor_db):
        erdos = Atom("CoA", (Constant("Einstein"), Constant("Erdos")))
        shakespeare = Atom("CoA", (Constant("Einstein"), Constant("Shakespeare")))
        view = coauthor_db.with_overrides({erdos: 0.1, shakespeare: 0.2})
        pattern = (Constant("Einstein"), Variable("y"))
        assert list(view.pattern_entries("CoA", pattern)) == [
            (("Einstein", "Erdos"), 0.1),
            (("Einstein", "Shakespeare"), 0.2),
        ]
        assert list(view.entries("CoA")) == [
            (("Erdos", "VonNeumann"), 0.9),
            (("VonNeumann", "Einstein"), 0.5),
            (("Einstein", "Erdos"), 0.1),
            (("Einstein", "Shakespeare"), 0.2),
        ]


class TestUndeclaredPredicates:
    def test_parse_rejects(self, coauthor_schema):
        with pytest.raises(UnknownPredicate):
            parse_ucq("Nope(x)", coauthor_schema)

    def test_overlay_rejects(self, coauthor_db):
        with pytest.raises(SchemaError):
            coauthor_db.with_overrides({Atom("Nope", (Constant("Erdos"),)): True})


def scientist_db(n, seed=1):
    rng = random.Random(seed)
    domain = tuple(Constant(f"c{i}") for i in range(n))
    coa = {}
    while len(coa) < 5 * n // 2:
        coa[(rng.choice(domain).name, rng.choice(domain).name)] = rng.choice([0.1, 0.3, 0.7])
    s = {(c.name,): rng.choice([0.2, 0.5, 0.9]) for c in domain}
    return Database(Schema({"S": 1, "CoA": 2}, domain), {"S": s, "CoA": coa})


class CountingTable(database._Table):
    """A stored relation that counts the rows read out of it."""

    reads = 0

    def __init__(self, table):
        super().__init__(table)
        self.constants = table.constants

    def items(self):
        for row in super().items():
            self.reads += 1
            yield row

    def __iter__(self):
        for args in super().__iter__():
            self.reads += 1
            yield args


def count_reads(db):
    """Swap the database's stored tables, each read through its table
    accessor (which parses a relation on first read), for counting ones."""
    tables = {pred: CountingTable(db._rels[pred]) for pred in db.schema.predicates}
    db._rels.update(tables)
    return lambda: sum(t.reads for t in tables.values())


class TestWorkIsLinearInRows:
    """Counters, not a clock: a scan of CoA per separator constant reads
    about n * |CoA| rows on this query."""

    N = 200

    def test_lifted_reads_each_row_a_bounded_number_of_times(self, monkeypatch):
        db = scientist_db(self.N)
        rows = db.relation_size("S") + db.relation_size("CoA")
        reads = count_reads(db)
        yielded = returned = 0
        entries, database_rows = ProbView.pattern_entries, Database._rows

        def counted_entries(self, pred, pattern, bound=None):
            nonlocal yielded
            for row in entries(self, pred, pattern, bound):
                yielded += 1
                yield row

        def counted_rows(self, pred, bound):
            # the lookup under pattern_entries, and the one lifted leaves use
            nonlocal returned
            out = list(database_rows(self, pred, bound))
            returned += len(out)
            return out

        monkeypatch.setattr(ProbView, "pattern_entries", counted_entries)
        monkeypatch.setattr(Database, "_rows", counted_rows)
        q = parse_ucq("S(x), CoA(x,y)", db.schema)
        prob_lifted(q, db)
        assert yielded <= rows
        assert 0 < returned <= rows
        assert reads() <= rows
        yielded = returned = 0
        interval_unconstrained(OpenPDB(db, 0.5), q)
        assert yielded <= 2 * rows
        assert 0 < returned <= 2 * rows
        assert reads() <= 2 * rows

    def test_row_lookups_are_flat_in_domain_size(self, monkeypatch):
        # a lookup per separator constant would make about n of them
        calls = []
        database_rows = Database._rows
        monkeypatch.setattr(Database, "_rows", lambda self, pred, bound: calls.append(pred) or database_rows(self, pred, bound))
        counts = []
        for n in (50, 200):
            db = scientist_db(n)
            q = parse_ucq("S(x), CoA(x,y)", db.schema)
            calls.clear()
            prob_lifted(q, db)
            lifted = len(calls)
            calls.clear()
            interval_unconstrained(OpenPDB(db, 0.5), q)
            counts.append((lifted, len(calls)))
        assert counts[0][0] == counts[1][0]
        assert all(0 < interval <= lifted for lifted, interval in counts)

    @pytest.mark.parametrize("budget", [2, 8])
    def test_exact_dp_probes_a_bounded_number_of_tuples(self, monkeypatch, budget):
        # listing every absent CoA atom would probe n^2 = 40,000 of them
        db = scientist_db(self.N)
        rows = db.relation_size("CoA")
        probes = 0
        is_explicit = Database.is_explicit

        def counted(self, pred, args):
            nonlocal probes
            probes += pred == "CoA"
            return is_explicit(self, pred, args)

        monkeypatch.setattr(Database, "is_explicit", counted)
        q = parse_ucq("S(x), CoA(x,y)", db.schema)
        exactdp.mtp_upper_exact(OpenPDB(db, 0.5), MTPConstraint("CoA", 0.5), q, budget=budget)
        assert 0 < probes <= rows + 2 * self.N * (budget + 1)

    def test_exact_dp_never_lists_the_open_tuples(self, monkeypatch, coauthor_db, scientist_coauthor_query):
        g, c = OpenPDB(coauthor_db, 0.5), MTPConstraint("CoA", 0.5)
        expected = [mtp_upper_bruteforce(g, c, scientist_coauthor_query, budget=b).value for b in range(4)]

        def refuse(*_):
            raise AssertionError("open_tuples called")

        monkeypatch.setattr(openworld, "open_tuples", refuse)
        monkeypatch.setattr(exactdp, "open_tuples", refuse, raising=False)  # an imported name
        got = [exactdp.mtp_upper_exact(g, c, scientist_coauthor_query, budget=b).value for b in range(4)]
        assert got == pytest.approx(expected, abs=1e-12)


class TestConcurrentFirstReads:
    """Threads sharing a freshly loaded database race to parse its relations
    and build their per-positions indexes; each table and index is
    published whole, so every thread gets the single-threaded answers."""

    QUERIES = ("S(x), CoA(x,y)", "CoA(x,y), T(y)", "S(x), CoA(x,y) | T(u)", "S(x), CoA(x,y), T(x)", "S(x), T(y)")
    THREADS = 8

    def answers(self, db, order):
        g = OpenPDB(db, 0.3)
        return {i: repr(interval_unconstrained(g, parse_ucq(self.QUERIES[i], db.schema))) for i in order}

    def test_threads_agree_with_one_thread(self, tmp_path):
        base = scientist_db(120, seed=4)
        rng = random.Random(4)
        rels = {pred: dict(base.entries(pred)) for pred in ("S", "CoA")}
        rels["T"] = {(c.name,): rng.choice([0.2, 0.5]) for c in base.schema.domain if rng.random() < 0.5}
        dataio.save_database(Database(Schema({"S": 1, "T": 1, "CoA": 2}, base.schema.domain), rels), tmp_path)
        expected = self.answers(dataio.load_database(tmp_path), range(len(self.QUERIES)))
        shared = dataio.load_database(tmp_path)
        assert not shared._rels  # nothing read yet
        start = threading.Barrier(self.THREADS)
        got, errors = [None] * self.THREADS, []

        def work(k):
            try:
                start.wait(timeout=60)
                # each thread starts at a different query, so first reads collide
                got[k] = self.answers(shared, [(k + i) % len(self.QUERIES) for i in range(len(self.QUERIES))])
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(self.THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert got == [expected] * self.THREADS


class TestOneCsvPass:
    """A clean relation file is read in one pass, as columns; the reader of
    numbered rows runs only when a whole-column check fails."""

    @pytest.fixture
    def row_reads(self, monkeypatch):
        calls = []
        real = dataio._csv_rows
        monkeypatch.setattr(dataio, "_csv_rows", lambda path: calls.append(path.name) or real(path))
        return calls

    def test_a_clean_file_makes_no_row_read(self, tmp_path, row_reads):
        db = scientist_db(250)  # the scan workload's shape: 250 constants, 625 CoA rows
        dataio.save_database(db, tmp_path)
        loaded = dataio.load_database(tmp_path)
        for pred in ("S", "CoA"):
            assert list(loaded.entries(pred)) == sorted(db.entries(pred))
        assert row_reads == []

    def test_padding_alone_makes_one_row_read_and_loads(self, tmp_path, row_reads):
        db = scientist_db(250)
        dataio.save_database(db, tmp_path)
        path = tmp_path / "CoA.csv"
        path.write_text(path.read_text().replace(",", " , ", 1))
        loaded = dataio.load_database(tmp_path)
        assert list(loaded.entries("CoA")) == sorted(db.entries("CoA"))
        assert loaded.explicit_constants(["CoA"]) == db.explicit_constants(["CoA"])
        assert row_reads == ["CoA.csv"]
