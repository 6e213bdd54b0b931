"""Indexed storage lookups: the same rows as a scan, and work bounded by
the rows that match."""
import random
import sys
import threading

import pytest

from owpdb import database, dataio, exactdp, openworld, oracle
from owpdb.database import Database, LambdaCompletionView, OverlayView, ProbView, Schema
from owpdb.errors import SchemaError, UnknownPredicate
from owpdb.openworld import MTPConstraint, OpenPDB, apply_completion, interval_unconstrained
from owpdb.engine import Evaluator, prob_lifted
from owpdb.oracle import ThreeDMInstance, mtp_upper_bruteforce
from owpdb.query import Atom, Constant, Variable, parse_ucq
from owpdb.randgen import rand_database, rand_safe_ucq, rand_schema

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
        # a fold per subset read the 15 CoA rows 330 and 3480 times
        reads = []
        for budget in (1, 2):  # 22 and 232 subsets of the 21 open CoA tuples
            db = scientist_db(6, seed=2)
            count_reads(db)
            q = parse_ucq("S(x), CoA(x,y)", db.schema)
            mtp_upper_bruteforce(OpenPDB(db, 0.5), MTPConstraint("CoA", 0.9), q, budget=budget)
            reads.append(db._rels["CoA"].reads)
        assert 0 < reads[0] == reads[1] <= db.relation_size("CoA")


class TestConcurrentFirstReads:
    """Threads sharing a freshly loaded database race to parse its relations
    and build their per-positions indexes and folds, and brute force reads
    overlays of it; each table, index and fold is published whole, so every
    thread gets the single-threaded answers."""

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

    def test_threads_agree_with_one_thread(self, tmp_path):
        base = scientist_db(120, seed=4)
        rng = random.Random(4)
        rels = {pred: dict(base.entries(pred)) for pred in ("S", "CoA")}
        rels["T"] = {(c.name,): rng.choice([0.2, 0.5]) for c in base.schema.domain if rng.random() < 0.5}
        dataio.save_database(Database(Schema({"S": 1, "T": 1, "CoA": 2}, base.schema.domain), rels), tmp_path)
        n = 2 * len(self.QUERIES)
        expected = self.answers(dataio.load_database(tmp_path), range(n))
        shared = dataio.load_database(tmp_path)
        assert not shared._rels  # nothing read yet
        start = threading.Barrier(self.THREADS)
        got, errors = [None] * self.THREADS, []

        def work(k):
            try:
                start.wait(timeout=60)
                # each thread starts at a different query, so first reads collide
                got[k] = self.answers(shared, [(k + i) % n for i in range(n)])
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
