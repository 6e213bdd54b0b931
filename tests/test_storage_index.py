"""Indexed storage lookups: the same rows as a scan, and work bounded by
the rows that match."""
import os
import random
from collections import Counter

import pytest

from owpdb import database, dataio, engine, exactdp, openworld, oracle
from owpdb.cli import RunConfig, run
from owpdb.database import Database, LambdaCompletionView, OverlayView, ProbView, Schema
from owpdb.errors import SchemaError, UnknownPredicate
from owpdb.openworld import MTPConstraint, OpenPDB, apply_completion, interval_unconstrained
from owpdb.engine import Evaluator, prob_lifted, prob_lifted_detail
from owpdb.oracle import ThreeDMInstance, mtp_upper_bruteforce
from owpdb.query import Atom, Constant, Variable, parse_ucq
from owpdb.randgen import rand_database, rand_safe_instance, rand_safe_ucq, rand_schema

from helpers import assert_whole_plan_table, race

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


class TestFoldsKeepTheirBits:
    """A relation's fold is cached once and every overlay continues a copy
    of it; the answers keep the bits of folding each view's rows afresh."""

    def views(self, rng, db):
        """Added rows, overrides of pinned zeros and of rows with p > 0, an
        overlay of an overlay and completions of overlays, then the same in
        reverse: overlays of one base read in turn, so that one which
        extended the cached fold in place would show in the others."""
        preds = sorted(db.schema.predicates)
        absent = [Atom(p, tuple(map(Constant, a))) for p in preds for a in _all_args(db.schema, p)
                  if not db.is_explicit(p, a)]
        stored = [(Atom(p, tuple(map(Constant, a))), v) for p in preds for a, v in db.entries(p)]
        pinned = [a for a, v in stored if v == 0.0]
        positive = [a for a, v in stored if v > 0.0]
        pick = lambda pool: {a: rng.choice([True, False, 0.35]) for a in rng.sample(pool, min(3, len(pool)))}
        added = apply_completion(OpenPDB(db, 0.4), rng.sample(absent, min(4, len(absent))))
        shadow_zeros = db.with_overrides(pick(pinned))
        out = [db, added, shadow_zeros, db.with_overrides(pick(positive)),
               added.with_overrides({**pick(pinned), **pick(absent)}), added.with_overrides(pick(positive)),
               LambdaCompletionView(added, 0.5), LambdaCompletionView(shadow_zeros, 0.2)]
        return out + out[::-1]

    @pytest.mark.parametrize("seed", range(30))
    def test_answers_equal_a_fold_of_each_views_rows(self, seed, monkeypatch):
        rng = random.Random(seed)
        schema = rand_schema(rng)
        db = rand_database(rng, schema, density=rng.choice([0.3, 0.6, 0.9]), max_uncertain=rng.choice([2, 12]))
        queries = [rand_safe_ucq(rng, schema) for _ in range(4)]
        views = self.views(rng, db)

        def answers():
            return [repr(Evaluator(view).probability(q)) for view in views for q in queries]

        cached = answers()
        for cls in (Database, OverlayView):
            monkeypatch.setattr(cls, "folds", ProbView.folds)
        assert cached == answers()


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
        assert returned == 0  # S's ground leaf reads the map the lifted call kept on its table
        assert reads() <= 2 * rows
        yielded = returned = 0
        cold = scientist_db(self.N)  # no map kept yet
        cold_reads = count_reads(cold)
        interval_unconstrained(OpenPDB(cold, 0.5), q)
        assert yielded <= 2 * rows
        assert 0 < returned <= 2 * rows
        assert cold_reads() <= 2 * rows

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
            warm = len(calls)
            calls.clear()
            interval_unconstrained(OpenPDB(scientist_db(n), 0.5), q)  # on a database with no map kept
            counts.append((lifted, warm, len(calls)))
        assert counts[0][0] == counts[1][0]
        assert all(warm == 0 < cold <= lifted for lifted, warm, cold in counts)  # the warm interval reads the kept maps

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


class TestFoldsAreReadOnce:
    """Overlays continue a stored relation's cached fold instead of
    re-reading its rows for each candidate completion."""

    def test_matching_demo_reads_each_stored_row_a_bounded_number_of_times(self, monkeypatch):
        # a fold per candidate read the 750 stored rows 55,575 times
        rng = random.Random(3)
        xs, ys, zs = ([Constant(f"{side}{i + 1}") for i in range(3)] for side in "XYZ")
        edges = frozenset(rng.sample([(x, y, z) for x in xs for y in ys for z in zs], 6))
        counters, build = [], oracle._reduction_database

        def counted(inst, weight):
            db = build(inst, weight)
            counters.append((count_reads(db), sum(map(db.relation_size, db.schema.predicates))))
            return db

        monkeypatch.setattr(oracle, "_reduction_database", counted)
        assert oracle.verify_maxmatch(ThreeDMInstance(tuple(xs), tuple(ys), tuple(zs), edges, 2)).ok
        (reads, rows), = counters
        assert rows == 750 and 0 < reads() <= 4 * rows

    def test_brute_force_reads_of_the_constrained_relation_are_flat_in_the_subsets(self):
        # a fold per subset read the 15 CoA rows 330 and 3480 times, and a
        # ground leaf's map per subset the 6 S rows 132 and 1392 times
        reads = []
        for budget in (1, 2):  # 22 and 232 subsets of the 21 open CoA tuples
            db = scientist_db(6, seed=2)
            count_reads(db)
            q = parse_ucq("S(x), CoA(x,y)", db.schema)
            mtp_upper_bruteforce(OpenPDB(db, 0.5), MTPConstraint("CoA", 0.9), q, budget=budget)
            reads.append((db._rels["CoA"].reads, db._rels["S"].reads))
        assert all(0 < b1 == b2 <= db.relation_size(pred) for pred, b1, b2 in zip(("CoA", "S"), *reads))


def save_scan_db(directory):
    """``scientist_db(120)`` with a unary ``T`` on about half the constants, saved."""
    base = scientist_db(120, seed=4)
    rng = random.Random(4)
    rels = {pred: dict(base.entries(pred)) for pred in ("S", "CoA")}
    rels["T"] = {(c.name,): rng.choice([0.2, 0.5]) for c in base.schema.domain if rng.random() < 0.5}
    dataio.save_database(Database(Schema({"S": 1, "T": 1, "CoA": 2}, base.schema.domain), rels), directory)


class TestConcurrentFirstReads:
    """Threads sharing a freshly loaded database race to parse its relations
    and build their per-positions indexes and folds, and to expand the same
    nodes of a cold plan table, and brute force reads overlays of it; each
    table, index, fold, plan node and expansion is published whole, so
    every thread gets the single-threaded answers."""

    QUERIES = ("S(x), CoA(x,y)", "CoA(x,y), T(y)", "S(x), CoA(x,y) | T(u)", "S(x), CoA(x,y), T(x)", "S(x), T(y)")
    THREADS = 8

    def answers(self, db, order):
        g, out = OpenPDB(db, 0.3), {}
        for i in order:
            q = parse_ucq(self.QUERIES[i % len(self.QUERIES)], db.schema)
            if i < len(self.QUERIES):
                out[i] = repr(interval_unconstrained(g, q))
            else:  # every open T tuple added in turn, on the shared database
                best = mtp_upper_bruteforce(g, MTPConstraint("T", 0.5), q, budget=1)
                out[i] = repr(best.value), best.witness.sorted_atoms(db.schema)
        return out

    def test_threads_agree_with_one_thread(self, tmp_path, monkeypatch):
        save_scan_db(tmp_path)
        n = 2 * len(self.QUERIES)
        expected = self.answers(dataio.load_database(tmp_path), range(n))
        # empty caches of shared tables and plans, so the threads race to build them
        monkeypatch.setattr(dataio, "_SHARED", dataio._Shared(dataio.TABLE_CACHE_ROWS))
        monkeypatch.setattr(engine, "_TABLES", {})
        shared = dataio.load_database(tmp_path)
        assert not shared._rels  # nothing read yet

        def work(k):
            # each thread starts at a different query, so first reads collide
            return self.answers(shared, [(k + i) % n for i in range(n)])

        assert race(work, self.THREADS) == [expected] * self.THREADS
        assert_whole_plan_table()

    def test_threads_loading_one_cold_directory_agree_with_one_thread(self, tmp_path, monkeypatch):
        save_scan_db(tmp_path)
        n = 2 * len(self.QUERIES)
        monkeypatch.setattr(dataio, "_SHARED", dataio._Shared(dataio.TABLE_CACHE_ROWS))
        expected = self.answers(dataio.load_database(tmp_path), range(n))
        monkeypatch.setattr(dataio, "_SHARED", dataio._Shared(dataio.TABLE_CACHE_ROWS))
        monkeypatch.setattr(engine, "_TABLES", {})
        loaded = [None] * self.THREADS

        def work(k):
            loaded[k] = dataio.load_database(tmp_path)
            return self.answers(loaded[k], [(k + i) % n for i in range(n)])

        assert race(work, self.THREADS) == [expected] * self.THREADS
        for pred in ("S", "T", "CoA"):  # the first table kept is the one every load reads
            assert len({id(db._rels[pred]) for db in loaded}) == 1
        assert len({id(db.schema) for db in loaded}) == 1
        assert_whole_plan_table()

    def test_threads_keep_the_weight_held_exact(self):
        # more keys than fit: entries come and go while threads get them
        cache = dataio._Shared(60)

        def work(k):
            rng = random.Random(k)
            for _ in range(2000):
                key = rng.randrange(40)
                assert cache.get(key, lambda: [key] * (1 + key % 7), len) == [key] * (1 + key % 7)

        race(work, self.THREADS)
        assert cache.held == sum(1 + len(value) for value, _ in cache._entries.values()) <= cache.cap


class TestOneCsvPass:
    """A clean relation file is read in one pass, as columns; the reader of
    numbered rows runs only when a whole-column check fails."""

    @pytest.fixture
    def row_reads(self, monkeypatch):
        calls = []
        real = dataio._csv_rows
        monkeypatch.setattr(dataio, "_csv_rows", lambda path, text: calls.append(path.name) or real(path, text))
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


@pytest.fixture
def shared(monkeypatch):
    """Installs an empty cache of shared tables, of ``cap`` weight, for the test."""
    def install(cap=dataio.TABLE_CACHE_ROWS):
        cache = dataio._Shared(cap)
        monkeypatch.setattr(dataio, "_SHARED", cache)
        return cache
    return install


def coa_db(n, seed, values=(0.125, 0.25, 0.5)):
    """S and CoA over n constants, probabilities drawn from ``values``, the
    rows in the order ``save_database`` writes them."""
    rng = random.Random(seed)
    domain = tuple(Constant(f"c{i}") for i in range(n))
    coa = {(rng.choice(domain).name, rng.choice(domain).name): rng.choice(values) for _ in range(2 * n)}
    s = {(c.name,): rng.choice(values) for c in domain if rng.random() < 0.7}
    return Database(Schema({"S": 1, "CoA": 2}, domain), {"S": dict(sorted(s.items())), "CoA": dict(sorted(coa.items()))})


SHARED_QUERIES = ("S(x), CoA(x,y)", "S(x), CoA(x,y) | S(u)", "CoA(x,y)")


def answers(db):
    """Every stored row, and the closed value and open interval of each query, as text."""
    g = OpenPDB(db, 0.3)
    rows = [sorted(db.entries(pred)) for pred in sorted(db.schema.predicates)]
    queries = [parse_ucq(text, db.schema) for text in SHARED_QUERIES]
    return repr(rows), [(repr(Evaluator(db).probability(q)), repr(interval_unconstrained(g, q))) for q in queries]


class TestSharedTables:
    """Loads of byte-identical files share one checked table; any other bytes
    are parsed and checked afresh, whatever the path, size or mtime, and a
    load answers as the database built in memory from the same rows."""

    def test_a_same_size_rewrite_with_its_mtime_kept_is_read_again(self, tmp_path, shared):
        shared()
        old = coa_db(30, seed=1)
        dataio.save_database(old, tmp_path)
        assert answers(dataio.load_database(tmp_path)) == answers(old)
        path = tmp_path / "CoA.csv"
        before = path.stat()
        swap = {0.125: 0.375, 0.25: 0.75, 0.5: 0.0}  # each repr as long as the one it replaces
        new = Database(old.schema, {"S": dict(old.entries("S")),
                                    "CoA": {args: swap[p] for args, p in old.entries("CoA")}})
        dataio.save_database(new, tmp_path)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert answers(dataio.load_database(tmp_path)) == answers(new) != answers(old)

    def test_a_rewrite_before_the_row_loop_is_not_kept_under_the_old_digest(self, tmp_path, shared, monkeypatch):
        shared()
        db = coa_db(30, seed=6)
        dataio.save_database(db, tmp_path)
        path = tmp_path / "CoA.csv"
        path.write_bytes(path.read_bytes().replace(b",", b" , ", 1))  # padding: the column check fails
        new = Database(db.schema, {"S": dict(db.entries("S")), "CoA": dict.fromkeys(dict(db.entries("CoA")), 0.75)})
        rows = dataio._csv_rows

        def rewritten_first(*args):
            dataio.save_database(new, tmp_path)  # a writer replaces the file between the two reads
            return rows(*args)

        monkeypatch.setattr(dataio, "_csv_rows", rewritten_first)
        assert answers(dataio.load_database(tmp_path)) == answers(db)
        monkeypatch.setattr(dataio, "_csv_rows", rows)
        assert answers(dataio.load_database(tmp_path)) == answers(new)

    def test_identical_bytes_in_two_directories_share_one_table(self, tmp_path, shared):
        cache = shared()
        db = coa_db(30, seed=2)
        for name in ("a", "b"):
            dataio.save_database(db, tmp_path / name)
        a, b = (dataio.load_database(tmp_path / name) for name in ("a", "b"))
        assert answers(a) == answers(b) == answers(db)
        assert a.schema is b.schema
        assert all(a._rels[pred] is b._rels[pred] for pred in ("S", "CoA"))
        assert len(cache._entries) == 3  # the schema and two tables

    def test_a_bad_row_fails_every_load_and_is_never_kept(self, tmp_path, shared):
        cache = shared()
        db = coa_db(30, seed=3)
        dataio.save_database(db, tmp_path)
        good = dataio.load_database(tmp_path)
        assert answers(good) == answers(db)
        path = tmp_path / "CoA.csv"
        clean = path.read_bytes()
        path.write_bytes(clean + b"c1,Nowhere,0.5\n")
        kept, row = dict(cache._entries), clean.count(b"\n") + 1
        q = parse_ucq("S(x), CoA(x,y)", db.schema)
        for _ in range(3):
            with pytest.raises(SchemaError) as err:
                prob_lifted(q, dataio.load_database(tmp_path))
            assert str(err.value) == f"{path}:{row}: constant 'Nowhere' is not in the domain"
            assert cache._entries == kept
        path.write_bytes(clean)
        again = dataio.load_database(tmp_path)
        assert again._rels["CoA"] is good._rels["CoA"]

    def test_undecodable_bytes_and_a_missing_file_keep_their_behaviour(self, tmp_path, shared):
        cache = shared()
        db = coa_db(30, seed=4)
        dataio.save_database(db, tmp_path)
        path = tmp_path / "CoA.csv"
        path.write_bytes(b"c1,c2,0.5\n\xff,c2,0.5\n")
        q = parse_ucq("S(x), CoA(x,y)", db.schema)
        for _ in range(2):
            with pytest.raises(SchemaError) as err:
                prob_lifted(q, dataio.load_database(tmp_path))
            assert str(err.value) == f"{path}:2: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
        path.unlink()
        without = Database(db.schema, {"S": dict(db.entries("S"))})
        for _ in range(2):
            assert answers(dataio.load_database(tmp_path)) == answers(without)
        assert sorted(weight for _, weight in cache._entries.values()) == sorted([1 + 30, 1 + without.relation_size("S")])

    def test_rows_kept_stay_within_the_bound(self, tmp_path, shared):
        cache = shared(cap=200)
        for seed in range(12):  # each weighs about 50: 12 constants and about 32 rows
            db = coa_db(12, seed=seed)
            dataio.save_database(db, tmp_path / str(seed))
            assert answers(dataio.load_database(tmp_path / str(seed))) == answers(db)
            weights = [1 + len(value.domain if isinstance(value, Schema) else value) for value, _ in cache._entries.values()]
            assert [w for _, w in cache._entries.values()] == weights
            assert sum(weights) == cache.held <= cache.cap
        assert len(cache._entries) < 3 * 12  # some were let go
        # the most recent load is kept whole
        db = dataio.load_database(tmp_path / "11")
        assert db.relation_size("CoA") and any(value is db._rels["CoA"] for value, _ in cache._entries.values())

    def test_a_relation_over_the_bound_is_not_kept(self, tmp_path, shared):
        db = coa_db(30, seed=5)
        cache = shared(cap=db.relation_size("CoA"))  # a table weighs one more than its rows
        dataio.save_database(db, tmp_path)
        first, second = dataio.load_database(tmp_path), dataio.load_database(tmp_path)
        assert answers(first) == answers(second) == answers(db)
        assert first._rels["CoA"] is not second._rels["CoA"]
        assert first._rels["S"] is second._rels["S"] and first.schema is second.schema
        assert cache.held <= cache.cap

    def test_fifteen_requests_parse_each_relation_file_once(self, tmp_path, shared, monkeypatch):
        # the open-world-scan round: analyze, eval and interval of five queries
        save_scan_db(tmp_path)
        (tmp_path / "constraints.txt").write_text("lambda=0.3\n")
        configs = [RunConfig(db_dir=str(tmp_path), query=text, mode=mode, output="json")
                   for mode in ("analyze", "eval", "interval") for text in TestConcurrentFirstReads.QUERIES]
        cold = []
        for config in configs:
            shared()
            cold.append(run(config))
        shared()
        parsed = []
        records = dataio._csv_records
        monkeypatch.setattr(dataio, "_csv_records", lambda path, text: parsed.append(path.name) or records(path, text))
        assert [run(config) for config in configs[:5]] == cold[:5]
        assert parsed == []  # analyze reads no relation file
        for _ in range(2):
            assert [run(config) for config in configs] == cold
        assert sorted(parsed) == ["CoA.csv", "S.csv", "T.csv"]


class TestFinishedTables:
    """An atom leaf reads its values from its finished table
    (``ProbView.finished``): a database keeps a whole relation's, for the
    closed default and the latest other one, built where a call first needs
    it; any other view builds its own each time, in the same bits."""

    def test_kept_warm_and_unkept_tables_give_the_same_bits(self):
        rng, kept = random.Random(32), 0
        for _ in range(150):
            _, db, q = rand_safe_instance(rng)

            def answers(view):
                lifted = [repr(prob_lifted_detail(q, view, force_inclusion_exclusion=f)) for f in (False, True)]
                return lifted + [repr(interval_unconstrained(OpenPDB(view, 0.3), q))]

            cold = answers(db)  # a new database: it keeps each table as it first builds it
            kept += any(db._rels[pred]._finished for pred in db.schema.predicates)
            assert answers(db) == cold == answers(OverlayView(db, {})), str(q)
        assert kept > 100

    def test_forty_lambdas_keep_two_tables_per_leaf_shape(self, tmp_path, shared):
        shared()
        save_scan_db(tmp_path)
        configs = [RunConfig(db_dir=str(tmp_path), query=text, mode="interval", output="json", lam=0.01 + 0.02 * i)
                   for i, text in enumerate(TestConcurrentFirstReads.QUERIES * 8)]
        got = [run(config) for config in configs]
        db = dataio.load_database(tmp_path)  # the tables those requests kept
        for pred in ("S", "T", "CoA"):
            shapes = Counter((holes, n_vars) for holes, n_vars, _ in db._rels[pred]._finished)
            assert shapes and max(shapes.values()) <= 2
        for config, answer in zip(configs, got):
            shared()  # no table kept: each answer is a fresh load's
            assert run(config) == answer

    def test_a_repeated_interval_builds_no_table(self, tmp_path, shared, monkeypatch):
        shared()
        save_scan_db(tmp_path)
        (tmp_path / "constraints.txt").write_text("lambda=0.3\n")
        builds, finished = [], ProbView.finished
        monkeypatch.setattr(ProbView, "finished", lambda self, *args: builds.append(args) or finished(self, *args))
        configs = [RunConfig(db_dir=str(tmp_path), query=text, mode="interval", output="json")
                   for text in TestConcurrentFirstReads.QUERIES]
        first = [run(config) for config in configs]
        assert builds
        builds.clear()
        assert [run(config) for config in configs] == first
        assert builds == []
