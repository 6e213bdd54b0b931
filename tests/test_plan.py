"""The lifted plan: each rule derived once per process, safe exactly when
the plan builds, and independent of the domain's size."""
import itertools
import random
import sys

import pytest

from owpdb import dataio, engine, exactdp, probability, query
from owpdb.cli import RunConfig, run
from owpdb.database import Database, LambdaCompletionView, Schema
from owpdb.engine import Evaluator, is_safe, prob_ground, prob_lifted, prob_lifted_detail
from owpdb.errors import CapExceeded, UnsafeQuery
from owpdb.exactdp import mtp_upper_exact
from owpdb.greedy import GreedyTrace, greedy_trace, greedy_upper
from owpdb.openworld import MTPConstraint, OpenPDB, interval_unconstrained
from owpdb.probability import Prob
from owpdb.query import UCQ, Atom, Constant, parse_ucq
from owpdb.randgen import rand_cq, rand_database, rand_schema

from helpers import (NodeByNode, assert_same_screens_as_reference, assert_whole_plan_table, family_db, race,
                     separator_children, stored_scientist_db)


def reachable(plan, q):
    """The nodes of ``q``'s built plan: its root and every node a rule reads."""
    todo, seen = [plan.node(q)], set()
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo += node.children
    return seen


def probe_is_safe(q):
    """Safety decided the earlier way: evaluate ``q`` on an empty database
    over its own constants plus two fresh ones."""
    arities = {a.predicate: len(a.args) for a in q.all_atoms()}
    consts = sorted({c.name for c in q.constants()})
    domain = tuple(Constant(n) for n in consts) + (Constant("§a"), Constant("§b"))
    try:
        Evaluator(Database(Schema(arities, domain))).probability(q)
        return True
    except (UnsafeQuery, CapExceeded):
        return False


def scientist_db(n, seed=1):
    rng = random.Random(seed)
    domain = tuple(Constant(f"c{i}") for i in range(n))
    coa = {}
    while len(coa) < 5 * n // 2:
        coa[(rng.choice(domain).name, rng.choice(domain).name)] = rng.choice([0.1, 0.3, 0.7])
    s = {(c.name,): rng.choice([0.2, 0.5, 0.9]) for c in domain}
    return Database(Schema({"S": 1, "CoA": 2}, domain), {"S": s, "CoA": coa})


@pytest.fixture
def decompose_calls(monkeypatch):
    """Rule derivations: :meth:`Plan.expand` calls on a node not yet expanded."""
    calls = [0]
    real = engine.Plan.expand

    def counted(self, node):
        calls[0] += node.rule is None
        return real(self, node)

    monkeypatch.setattr(engine.Plan, "expand", counted)
    return calls


class TestPlanWork:
    """Counters, not a clock: rules derived per domain constant would grow
    with the domain; a cold table's rules are derived once, and a warm
    table derives none."""

    def test_lifted_plan_is_flat_in_domain_size(self, decompose_calls, cold_plans):
        counts = []
        for n in (100, 400):
            db = scientist_db(n)
            cold_plans()
            decompose_calls[0] = 0
            prob_lifted(parse_ucq("S(x), CoA(x,y)", db.schema), db)
            counts.append(decompose_calls[0])
        assert counts[0] == counts[1]

    def test_exact_dp_reads_its_conjunction_split_from_the_plan(self, monkeypatch, cold_plans):
        # the inclusion-exclusion templates of tools/same_answers.py's GAP_QUERIES
        templates = ("R(x), S(x, y) | T(x, y), S(x, K1)", "R(x), S(x, K1) | U(y), S(y, K2) | S(z, K1), S(z, K2)")
        callers, folds = [], []
        for home, name in ((engine, "conjunction_parts"), (query, "minimize")):
            real = getattr(home, name)

            def traced(*args, real=real, **kwargs):
                callers.append(sys._getframe(1).f_globals["__name__"])
                return real(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "owpdb" and getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, traced)
        fold = exactdp._BudgetSolver._fold_term
        monkeypatch.setattr(exactdp._BudgetSolver, "_fold_term", lambda self, t: folds.append(t) or fold(self, t))
        rng = random.Random(3)
        names = [f"K{i}" for i in range(6)]
        rels = {pred: {args: rng.choice([0.2, 0.5, 0.9]) for args in itertools.product(names, repeat=arity)
                       if rng.random() < (0.5 if arity == 1 else 0.15)}
                for pred, arity in {"R": 1, "U": 1, "S": 2, "T": 2}.items()}
        db = Database(Schema({"R": 1, "U": 1, "S": 2, "T": 2}, tuple(map(Constant, names))), rels)
        for text in templates:
            mtp_upper_exact(OpenPDB(db, 0.5), MTPConstraint("S", 1.0), parse_ucq(text, db.schema), budget=2)
        assert folds, "the templates reach the inclusion-exclusion families"
        assert callers and "owpdb.exactdp" not in callers

    def test_greedy_shares_one_plan(self, decompose_calls, cold_plans):
        db = scientist_db(16)
        q = parse_ucq("S(x), CoA(x,y)", db.schema)
        prob_lifted(q, db)
        lifted = decompose_calls[0]
        cold_plans()
        decompose_calls[0] = 0
        greedy_upper(OpenPDB(db, 0.5), MTPConstraint("CoA", 0.5), q, budget=3)
        assert 0 < decompose_calls[0] <= lifted
        decompose_calls[0] = 0
        greedy_upper(OpenPDB(db, 0.5), MTPConstraint("CoA", 0.5), q, budget=3)
        assert decompose_calls[0] == 0  # a warm repeat derives no rule

    def test_interval_shares_one_plan(self, decompose_calls, cold_plans):
        db = scientist_db(100)
        q = parse_ucq("S(x), CoA(x,y)", db.schema)
        prob_lifted(q, db)
        lifted = decompose_calls[0]
        cold_plans()
        decompose_calls[0] = 0
        interval_unconstrained(OpenPDB(db, 0.5), q)
        assert 0 < decompose_calls[0] <= lifted

    def test_exact_dp_walks_the_plan(self, decompose_calls, cold_plans, monkeypatch):
        # the solver is an Evaluator: every memo entry comes from one
        # _lift that Evaluator.evaluate dispatched, none from a walk of its own
        solvers, lifts = [], []
        real_init, real_lift = exactdp._BudgetSolver.__init__, exactdp._BudgetSolver._lift

        def init(self, *args):
            solvers.append(self)
            real_init(self, *args)

        def lift(self, node, env):
            lifts.append(self)
            return real_lift(self, node, env)

        monkeypatch.setattr(exactdp._BudgetSolver, "__init__", init)
        monkeypatch.setattr(exactdp._BudgetSolver, "_lift", lift)
        counts = []
        for n in (25, 100):
            db = scientist_db(n)
            cold_plans()
            decompose_calls[0] = 0
            q = parse_ucq("S(x), CoA(x,y)", db.schema)
            mtp_upper_exact(OpenPDB(db, 0.5), MTPConstraint("CoA", 0.5), q, budget=2)
            counts.append(decompose_calls[0])
            assert len(solvers) == 1 and 0 < lifts.count(solvers[0]) == len(solvers[0]._memo)
            solvers.clear()
        assert counts == [4, 4]

    def test_exact_dp_reads_fresh_constants_as_one_column(self, monkeypatch):
        # the separator's fresh constants are one column: no closed walk per
        # constant, and a budget-independent value is a float, so only the
        # constants whose S row makes their value budget-dependent
        # convolve a vector with a vector
        closed_lifts, vector_pairs = [0], [0]
        real_lift, real_combine = Evaluator._lift, exactdp._BudgetSolver._combine

        def lift(self, node, env):
            closed_lifts[0] += type(self) is Evaluator
            return real_lift(self, node, env)

        def combine(self, v1, v2, mode):
            vector_pairs[0] += type(v1) is tuple and type(v2) is tuple
            return real_combine(self, v1, v2, mode)

        monkeypatch.setattr(Evaluator, "_lift", lift)
        monkeypatch.setattr(exactdp._BudgetSolver, "_combine", combine)
        lifts = []
        for n in (25, 100):
            db = stored_scientist_db(n)
            closed_lifts[0] = vector_pairs[0] = 0
            q = parse_ucq("S(x), CoA(x,y)", db.schema)
            mtp_upper_exact(OpenPDB(db, 0.5), MTPConstraint("CoA", 0.5), q, budget=2)
            lifts.append(closed_lifts[0])
            assert vector_pairs[0] <= len(db.explicit_constants(["S"])), (n, vector_pairs[0])
        assert lifts[0] == lifts[1], lifts

    def test_exact_dp_reads_the_cores_a_family_binds_as_columns(self, monkeypatch):
        # each separator constant c's union is an inclusion-exclusion family
        # whose core S(z, c), U(z, c) is planned and expanded only there; its
        # fresh child is still one column, so the closed evaluator's
        # node-by-node lifts grow with n, not with n * n (three times the
        # constants: 107 -> 328 lifts, 348 -> 2913 node by node)
        lifts, real_lift = [0], Evaluator._lift

        def lift(self, node, env):
            lifts[0] += type(self) is Evaluator
            return real_lift(self, node, env)

        monkeypatch.setattr(Evaluator, "_lift", lift)
        counts = []
        for n in (12, 36):
            db = family_db(n)
            lifts[0] = 0
            q = parse_ucq("R(x), U(y, x) | S(z, y), U(z, y)", db.schema)
            mtp_upper_exact(OpenPDB(db, 0.5), MTPConstraint("U", 0.5), q, budget=2)
            counts.append(lifts[0])
        assert counts[1] <= 4 * counts[0], counts


@pytest.fixture
def greedy_work(monkeypatch):
    """What greedy builds: per ``Evaluator``, its database and the plan
    nodes it lifts; and a count of screening rounds (gradient passes)."""
    evaluators, rounds = [], [0]
    real_init, real_lift, real_gradient = Evaluator.__init__, Evaluator._lift, Evaluator.gradient

    def init(self, db, **kwargs):
        evaluators.append((db, []))
        self._lifts = evaluators[-1][1]
        real_init(self, db, **kwargs)

    def lift(self, node, env):
        self._lifts.append(node)
        return real_lift(self, node, env)

    def gradient(self, *args):
        rounds[0] += 1
        return real_gradient(self, *args)

    monkeypatch.setattr(Evaluator, "__init__", init)
    monkeypatch.setattr(Evaluator, "_lift", lift)
    monkeypatch.setattr(Evaluator, "gradient", gradient)
    return evaluators, rounds


def greedy_on(db, budget):
    q = parse_ucq("S(x), CoA(x,y)", db.schema)
    return greedy_trace(OpenPDB(db, 0.5), MTPConstraint("CoA", 0.5), q, budget=budget)


class TestGreedyWork:
    """A round screens every candidate with one gradient pass and evaluates
    only its pick, so a run builds two evaluators per round besides the
    first, each lifting as many plan nodes whatever the domain size."""

    def test_recomputed_nodes_per_candidate_are_flat(self, greedy_work):
        evaluators, _ = greedy_work
        per_evaluator = []
        for n in (16, 40):
            evaluators.clear()
            greedy_on(stored_scientist_db(n), 2)
            assert len(evaluators) == 5
            per_evaluator.append([len(nodes) for _, nodes in evaluators])
        assert per_evaluator[0] == per_evaluator[1]

    @pytest.mark.parametrize("n, s_scale", [pytest.param(16, 1.0, id="16"), pytest.param(48, 0.1, id="48")])
    def test_greedy_conditions_at_most_n_candidates_per_round(self, greedy_work, n, s_scale):
        # a candidate CoA(a, b) screens the same for every b, so scoring
        # every candidate in the window of the best would score a row of
        # the domain per round; one evaluator scores the pick (at n = 48
        # S is scaled so that the closed value, 0.907, stays below 1.0)
        evaluators, rounds = greedy_work
        trace = greedy_on(stored_scientist_db(n, s_scale=s_scale), 3)
        assert 1 <= rounds[0] == len(trace.picks) <= 3
        assert len(evaluators) <= 1 + 2 * rounds[0]

    def test_near_saturated_value_builds_two_evaluators_per_round(self, greedy_work):
        # every gain is below 7e-12, so an absolute window of 2e-12 about
        # the best held 104 of the 1414 candidates in round 0 and scoring
        # them all took over a second; the witness is the one that gave
        evaluators, rounds = greedy_work
        trace = greedy_on(stored_scientist_db(40), 8)
        assert sorted(str(a) for a, _ in trace.picks) == [
            f'CoA("{a}", "{b}")' for a, b in [("c03", "c00"), ("c04", "c00"), ("c04", "c02"), ("c04", "c04"),
                                               ("c15", "c00"), ("c24", "c00"), ("c32", "c00"), ("c32", "c01")]]
        assert rounds[0] == 8
        assert len(evaluators) <= 1 + 2 * rounds[0]

    def test_saturated_value_conditions_nothing(self, greedy_work):
        # the closed value rounds to 1.0, so no gain can be positive: the
        # trace is the one scoring all 5685 candidates gives, at no cost
        evaluators, rounds = greedy_work
        db = stored_scientist_db(80)
        trace = greedy_on(db, 2)
        assert trace == GreedyTrace((), 1.0, 1.0, 1.0, 1.0, 1.0, 2, True)
        assert [view for view, _ in evaluators] == [db] and rounds[0] == 0


def random_queries(seed, count):
    """``count`` distinct random unions over one schema, with a database."""
    rng = random.Random(seed)
    schema = rand_schema(rng, domain_sizes=(3, 4))
    queries = {}
    while len(queries) < count:
        q = UCQ([rand_cq(rng, schema, constant_rate=0.25) for _ in range(rng.randint(1, 3))])
        queries.setdefault(q, None)
    return rand_database(rng, schema, density=0.5), list(queries)


def outcome(q, db):
    try:
        return repr(prob_lifted_detail(q, db))
    except (UnsafeQuery, CapExceeded) as exc:
        return type(exc).__name__, str(exc)


class TestSharedPlans:
    """Every call reads one process-wide table of plan nodes: rules derived
    once, published whole, bounded, and the answers of a cold table."""

    def test_threads_expanding_one_cold_table_agree_with_one_thread(self, cold_plans):
        db, queries = random_queries(5, 60)
        expected = [outcome(q, db) for q in queries]
        cold_plans()

        def work(k):
            # each thread starts at a different query, so first expansions collide
            order = [(k * 7 + i) % len(queries) for i in range(len(queries))]
            got = {i: outcome(queries[i], db) for i in order}
            return [got[i] for i in range(len(queries))]

        assert race(work, 8) == [expected] * 8
        assert_whole_plan_table()
        (nodes, _, _), = engine._TABLES.values()
        assert len(set(nodes.values())) == len({n.query for n in nodes.values()})

    def test_threads_running_requests_on_one_cold_table_agree_with_one_thread(self, cold_plans, tmp_path):
        # requests also keep their parsed texts in the table
        db, queries = random_queries(7, 24)
        dataio.save_database(db, tmp_path)
        configs = [RunConfig(db_dir=str(tmp_path), query=str(q), mode=mode, output="json")
                   for q in queries for mode in ("analyze", "eval")]
        expected = [run(config) for config in configs]
        cold_plans()

        def work(k):
            order = [(k * 5 + i) % len(configs) for i in range(len(configs))]
            got = {i: run(configs[i]) for i in order}
            return [got[i] for i in range(len(configs))]

        assert race(work, 6) == [expected] * 6
        assert_whole_plan_table()
        (_, _, texts), = engine._TABLES.values()
        assert {text for text, _ in texts} == set(map(str, queries))

    def test_an_expansion_is_published_whole_under_the_lock(self, cold_plans, monkeypatch):
        # a reader that sees a node's rule sees the rest of its expansion
        ruled = []

        class Watched(engine._Node):
            __slots__ = ()

            def __setattr__(self, name, value):
                if name == "rule" and value is not None:
                    assert engine._PUBLISH.locked()
                    assert self.arg is not None and self.children is not None
                    assert (self.leaf is not None, self.fresh is not None) == (value == "atom", value == "sep")
                    ruled.append(value)
                super().__setattr__(name, value)

        monkeypatch.setattr(engine, "_Node", Watched)
        db, queries = random_queries(5, 60)
        for q in queries:
            outcome(q, db)
        assert {"atom", "and", "or", "sep"} <= set(ruled)

    def test_a_small_cap_replaces_the_table_and_moves_no_answer(self, cold_plans, monkeypatch):
        db, queries = random_queries(6, 80)
        expected = [outcome(q, db) for q in queries]
        cap, tables = 40, []
        monkeypatch.setattr(engine, "PLAN_TABLE_NODES", cap)
        cold_plans()
        for q, want in zip(queries, expected):
            before = engine._TABLES.get(False, ({}, {}))[0]
            held = len(before)
            assert outcome(q, db) == want
            nodes = engine._TABLES[False][0]
            added = len(nodes) - held if nodes is before else len(nodes)
            assert len(nodes) - added <= cap  # the call started on a table within the cap
            if nodes is not before:
                tables.append(nodes)
        assert len(tables) > 3  # the table was replaced, not grown

    def test_a_refusal_derives_again_in_every_call(self, decompose_calls, cold_plans):
        # an unsafe node stays unexpanded: a warm table refuses at the same
        # node with the same message, deriving only the refused node again
        db = Database(Schema({"R": 1, "S": 2, "T": 1, "U": 1}, tuple(map(Constant, "AB"))), {})
        q = parse_ucq("U(z) | R(x), S(x, y), T(y)", db.schema)
        refusals, counts = [], []
        for _ in range(3):
            decompose_calls[0] = 0
            with pytest.raises(UnsafeQuery) as err:
                prob_lifted(q, db)
            refusals.append(str(err.value))
            counts.append(decompose_calls[0])
        assert refusals == [refusals[0]] * 3
        assert counts[0] > counts[1] == counts[2] == 1


def test_plan_build_agrees_with_probe_evaluation():
    rng = random.Random(11)
    verdicts = []
    for _ in range(2000):
        schema = rand_schema(rng)
        q = UCQ([rand_cq(rng, schema, allow_repeat_pred=True) for _ in range(rng.randint(1, 3))])
        safe = is_safe(q)
        assert safe == probe_is_safe(q), str(q)
        verdicts.append(safe)
    assert 100 < sum(verdicts) < len(verdicts) - 100


class TestPlaceholder:
    """A placeholder never equals a user constant, whatever its name, and
    one fresh child over one placeholder stands for every constant a
    separator's union does not mention."""

    ARITIES = {"S": 1, "CoA": 2}
    QUERY = 'S(x), CoA(x, "§a") | CoA(x, "§b")'

    def db(self):
        domain = tuple(Constant(n) for n in ("A", "B", "§a", "§b", "C"))
        return Database(
            Schema(self.ARITIES, domain),
            {
                "S": {("A",): 0.6, ("§a",): 0.7, ("§b",): 0.4, ("C",): 0.5},
                "CoA": {
                    ("A", "§a"): 0.3,
                    ("§a", "§a"): 0.8,
                    ("§b", "§a"): 0.5,
                    ("B", "§b"): 0.6,
                    ("§a", "§b"): 0.2,
                    ("C", "A"): 0.9,
                },
            },
        )

    def test_lifted_equals_ground(self):
        db = self.db()
        q = parse_ucq(self.QUERY, db.schema)
        assert prob_lifted(q, db) == pytest.approx(prob_ground(q, db), abs=1e-12)

    def test_one_fresh_child_bits(self):
        # The fresh child's placeholder sorts after every constant, so it
        # sums the same factors in another order than substituting each
        # constant does (that gives 0.3906640000000001); both agree with the
        # ground value.
        schema = Schema({"R": 1, "S": 3, "T": 3, "U": 3}, tuple(Constant(n) for n in "ABC"))
        db = Database(schema, {
            "R": {("A",): 0.9, ("C",): 0.9},
            "S": {("A", "A", "B"): 0.4, ("A", "B", "B"): 0.1, ("A", "C", "B"): 0.2, ("B", "A", "B"): 0.3,
                  ("B", "A", "C"): 0.5, ("B", "B", "C"): 0.1, ("C", "A", "C"): 0.5, ("C", "C", "A"): 0.7},
            "T": {("A", "A", "A"): 0.7, ("A", "A", "B"): 0.7},
        })
        q = parse_ucq(
            "R(y), S(y, B, z) | S(x, x, y), S(x, z, y), U(C, x, x) | S(x, x, y), T(z, z, x)", schema
        )
        assert prob_lifted_detail(q, db) == Prob(0.390664, -0.49538543927811285)
        assert prob_lifted(q, db) == pytest.approx(prob_ground(q, db), abs=1e-12)

    def test_one_fresh_child_whatever_the_gaps(self, cold_plans):
        # stored rows on both sides of C put the unmentioned constants in
        # two gaps between the mentioned ones; one fresh child serves both
        schema = Schema(self.ARITIES, tuple(Constant(n) for n in "ABCDE"))
        db = Database(schema, {"S": {("A",): 0.6, ("E",): 0.5}, "CoA": {("A", "C"): 0.3, ("E", "C"): 0.7}})
        q = parse_ucq("S(x), CoA(x, C)", schema)
        ev = Evaluator(db)
        assert ev.probability(q).value == pytest.approx(prob_ground(q, db), abs=1e-12)
        # the root, the children of C and of the fresh placeholder, and
        # their four atoms
        assert len(set(ev.plan._nodes.values())) == 7

    def test_safety_does_not_depend_on_the_name(self):
        q = parse_ucq(self.QUERY, self.ARITIES)
        renamed = parse_ucq(self.QUERY.replace('"§a"', "A"), self.ARITIES)
        assert is_safe(q) == is_safe(renamed)


def flat_memo(ev):
    """The memo as a node-by-node walk writes it: each batch flattened into
    per-constant (node, bound names) keys, each mapped to its (value,
    logc) and to the position of the first entry that holds it."""
    flat = {}
    for at, (key, value) in enumerate(ev._memo.items()):
        if type(key) is tuple and len(key) == 3:
            node, names, consts = key
            (values, logcs), = value
            for c, v, lc in zip(consts, values, logcs):
                flat.setdefault((node, tuple(c if n is None else n for n in names)), ((v, lc), at))
        else:
            flat.setdefault(key, ((value[0].value, value[0].logc), at))
    return flat


def child_keys(ev, key):
    """The per-constant memo keys of the children a memo entry was computed from."""
    node, names = key if type(key) is tuple else (key, ())
    env = dict(zip(node.placeholders, map(Constant, names)))
    if node.rule == "sep":
        child_of = separator_children(ev.plan, node, env)
        children = [child_of(c) for c, _ in ev._partition(node, env)[0]]
    else:
        children = [(n, env) for n in node.children]
    return [n.key(e) for n, e in children]


def pinned_db(seed=4):
    """Rows among six of nine constants, C among them; every relation has a
    row pinned at 0 and, but for S, a row at 1."""
    rng = random.Random(seed)
    names = [f"c{i}" for i in range(8)] + ["C"]
    arities = {"S": 1, "T": 1, "CoA": 2, "U": 2, "R": 3}
    rels = {pred: {args: rng.choice([0.1, 0.3, 0.6, 0.9])
                   for args in itertools.product(names[:5] + ["C"], repeat=arity) if rng.random() < 0.6 / arity}
            for pred, arity in arities.items()}
    for pred, rows in rels.items():
        first, second = list(rows)[:2]
        rows[first], rows[second] = 0.0, 0.5 if pred == "S" else 1.0
    return Database(Schema(arities, tuple(map(Constant, names))), rels)


def scan_shapes_db(n, seed=1):
    """The scan shapes' relations on n constants: 2.5n ``CoA`` rows, ``S``
    and ``T`` each on about half the constants."""
    rng = random.Random(seed)
    names = [f"c{i}" for i in range(n)]
    coa = {(rng.choice(names), rng.choice(names)): rng.choice([0.1, 0.3, 0.7]) for _ in range(5 * n // 2)}
    s, t = ({(c,): rng.choice([0.2, 0.5, 0.9]) for c in names if rng.random() < 0.5} for _ in "ST")
    return Database(Schema({"S": 1, "T": 1, "CoA": 2}, tuple(map(Constant, names))), {"S": s, "T": t, "CoA": coa})


def views():
    """``pinned_db``, an overlay that shadows a stored row and adds three, and
    its completions."""
    db = pinned_db()
    stored, c = next(iter(db.entries("CoA")))[0], Constant
    overlay = db.with_overrides({Atom("CoA", tuple(map(c, stored))): 0.4, Atom("CoA", (c("c6"), c("c7"))): 0.7,
                                 Atom("S", (c("c7"),)): True, Atom("T", (c("c6"),)): 0.0})
    return [("db", db), ("overlay", overlay)] + [(f"lambda={lam}", LambdaCompletionView(db, lam)) for lam in (0, 0.3, 1)]


class TestSetAtATime:
    """Evaluating a separator's fresh child set at a time gives the bits, the
    memo and the gradient screens of evaluating it node by node."""

    QUERIES = (
        "S(x), CoA(x,y)",  # the five scan shapes
        "CoA(x,y), T(y)",
        "S(x), CoA(x,y) | T(u)",
        "S(x), CoA(x,y), T(x)",
        "S(x), T(y)",
        "CoA(x, C), S(x)",  # a constant beside the placeholder
        "CoA(x, x), S(x)",  # the placeholder at two positions
        "S(x), R(x, y, y)",  # a repeated variable: node by node
        "CoA(x, C), S(x) | CoA(x, c1), T(x)",  # an inclusion-exclusion group: node by node
        "CoA(x,y), U(x,y)",  # a nested separator: node by node, then two placeholders
    )

    @pytest.mark.parametrize("text", QUERIES)
    @pytest.mark.parametrize("name, view", views(), ids=[name for name, _ in views()])
    def test_same_bits_memo_and_screens(self, text, name, view):
        q = parse_ucq(text, view.schema)
        plan = engine.Plan().build(q)
        batched, reference = Evaluator(view, plan=plan), NodeByNode(view, plan=plan)
        assert repr(batched.probability(q)) == repr(reference.probability(q))
        flat = flat_memo(batched)
        assert flat.keys() == reference._memo.keys()
        assert all(repr(pair) == repr((p.value, p.logc)) for key, (p,) in reference._memo.items()
                   for pair in [flat[key][0]])
        # post-order over entries and batches: every child's first entry
        # comes before its parent's
        at = {key: i for key, (_, i) in flat.items()}
        assert all(at[child] < at[key] for key in at for child in child_keys(batched, key))
        domain = [c.name for c in view.schema.domain]
        for pred in view.schema.predicates:
            screens = batched.gradient(q, pred), reference.gradient(q, pred)
            for args in itertools.product(domain, repeat=view.schema.predicates[pred]):
                assert screens[0](args) == screens[1](args), (pred, args)
            assert_same_screens_as_reference(view, q, pred, plan)

    def test_random_queries_same_bits_and_screens(self):
        # inclusion-exclusion terms batch a shared node under different
        # partitions: the screens must still sum each (node, constant) once,
        # in the order of the walk node by node
        rng = random.Random(1)
        for _ in range(40):
            schema = rand_schema(rng, domain_sizes=(2, 3, 4))
            db = rand_database(rng, schema, density=rng.choice([0.2, 0.5, 0.9]))
            for _ in range(10):
                q = UCQ([rand_cq(rng, schema, constant_rate=0.25) for _ in range(rng.randint(1, 3))])
                try:
                    plan = engine.Plan().build(q)
                except (UnsafeQuery, CapExceeded):
                    continue
                for view in (db, LambdaCompletionView(db, 0.3)):
                    batched, reference = Evaluator(view, plan=plan), NodeByNode(view, plan=plan)
                    assert repr(batched.probability(q)) == repr(reference.probability(q)), str(q)
                    for pred, arity in schema.predicates.items():
                        screens = batched.gradient(q, pred), reference.gradient(q, pred)
                        for args in itertools.product([c.name for c in schema.domain], repeat=arity):
                            assert screens[0](args) == screens[1](args), (str(q), pred, args)
                        assert_same_screens_as_reference(view, q, pred, plan)

    def test_only_the_fallback_shapes_go_node_by_node(self, monkeypatch):
        db, each = pinned_db(), []
        real = Evaluator._each
        monkeypatch.setattr(Evaluator, "_each", lambda self, node, *args: each.append(node.rule) or real(self, node, *args))
        rules = []
        for text in self.QUERIES:
            each.clear()
            Evaluator(db).probability(parse_ucq(text, db.schema))
            rules.append(each[:])
        assert rules == [[]] * 7 + [["atom"], ["and"], ["sep"]]

    def test_gradient_keys_per_query_are_flat_in_domain_size(self, monkeypatch):
        # constant by constant, a reverse pass makes about 7 keys per constant
        keys = []
        real = engine._Node.key
        monkeypatch.setattr(engine._Node, "key", lambda self, env: keys.append(self) or real(self, env))
        counts = []
        for n in (16, 128):
            db = scan_shapes_db(n)
            per_query = []
            for text in self.QUERIES[:5]:
                q = parse_ucq(text, db.schema)
                ev = Evaluator(db)
                ev.probability(q)
                keys.clear()
                ev.gradient(q, "CoA" if "CoA" in text else "T")
                per_query.append(len(keys))
            counts.append(per_query)
        assert counts[0] == counts[1]

    def test_lifts_per_query_are_flat_in_domain_size(self, monkeypatch):
        # node by node, a lift per separator child and per leaf: about 3 per constant
        lifts = []
        real = Evaluator._lift
        monkeypatch.setattr(Evaluator, "_lift", lambda self, node, env: lifts.append(node) or real(self, node, env))
        counts = []
        for n in (50, 200):
            db = stored_scientist_db(n)
            lifts.clear()
            prob_lifted(parse_ucq("S(x), CoA(x,y)", db.schema), db)
            counts.append(len(lifts))
        assert counts[0] == counts[1]

    def test_probs_per_query_are_flat_in_domain_size(self, monkeypatch):
        # a batch is columns of floats: the Prob objects come from the plan
        # nodes above it, not from the constants in it
        built = []
        real = Prob.__init__
        monkeypatch.setattr(Prob, "__init__", lambda self, *args: built.append(self) or real(self, *args))
        counts = []
        for n in (50, 200):
            db = stored_scientist_db(n)
            q = parse_ucq("S(x), CoA(x,y)", db.schema)
            built.clear()
            prob_lifted(q, db)
            lifted = len(built)
            built.clear()
            interval_unconstrained(OpenPDB(db, 0.5), q)
            counts.append((lifted, len(built)))
        assert counts[0] == counts[1]


class TestOneWalkInterval:
    """Both interval ends from one walk have the bits of a closed walk and a
    completion walk, and where a walk refuses it raises what they raise."""

    @staticmethod
    def outcome(walk):
        try:
            return [(p.value, p.logc) for p in walk()]
        except (UnsafeQuery, CapExceeded) as exc:
            return type(exc), str(exc)

    def check(self, q, db, lam):
        one = self.outcome(lambda: Evaluator(db, LambdaCompletionView(db, lam)).probability(q))
        two = self.outcome(lambda: (prob_lifted_detail(q, db), prob_lifted_detail(q, LambdaCompletionView(db, lam))))
        assert one == two, (str(q), lam)
        return one

    def test_one_walk_equals_two_walks(self):
        rng, shapes, refusals = random.Random(8), set(), set()
        for _ in range(40):
            schema = rand_schema(rng, domain_sizes=(2, 3, 5))
            db = rand_database(rng, schema, density=rng.choice([0.2, 0.5, 0.9]))
            stored = [Atom(pred, tuple(map(Constant, args))) for pred in schema.predicates for args, _ in db.entries(pred)]
            views = [db] + ([db.with_overrides({stored[0]: 0.4})] if stored else [])
            for _ in range(25):
                q = UCQ([rand_cq(rng, schema, constant_rate=0.25) for _ in range(rng.randint(1, 3))])
                plan = engine.Plan()
                for view in views:
                    got = self.check(q, view, rng.choice([0.0, 0.3, 1.0]))
                    if type(got) is tuple:
                        refusals.add(got[0])
                try:
                    plan.build(q)
                except (UnsafeQuery, CapExceeded):
                    continue
                for node in reachable(plan, q):
                    shapes |= {
                        "repeated variable": node.rule == "atom" and bool(node.leaf[2]),
                        "inclusion-exclusion": node.rule == "and" and any(len(g) > 1 for g in node.arg),
                        "or": node.rule == "or",
                        "nested separator": node.rule == "sep" and bool(node.placeholders),
                        "mentioned constant": node.rule == "sep" and bool(node.arg[1]),
                    }.items()
        assert {name for name, hit in shapes if hit} == {
            "repeated variable", "inclusion-exclusion", "or", "nested separator", "mentioned constant"}
        assert UnsafeQuery in refusals

    def test_a_too_wide_plan_is_refused_alike(self):
        preds = {f"{r}{i}": 1 for i in range(10) for r in "PQ"}
        db = Database(Schema(preds, (Constant("A"), Constant("B"))), {"P0": {("A",): 0.5}})
        q = parse_ucq(" | ".join(f"P{i}(x), Q{i}(y)" for i in range(10)), db.schema)
        assert self.check(q, db, 0.5)[0] is CapExceeded


def test_the_hooks_look_up_the_arithmetic_when_called(monkeypatch):
    # a traced run wraps owpdb.probability's functions in place; the
    # node-by-node hooks must reach the wrapper, not a copy taken at import
    calls = []
    real = probability.conj
    monkeypatch.setattr(probability, "conj", lambda items: calls.append(1) or real(items))
    db = Database(Schema({"S": 1, "T": 1}, (Constant("A"), Constant("B"))), {"S": {("A",): 0.5}, "T": {("B",): 0.4}})
    assert prob_lifted(parse_ucq("S(x), T(y)", db.schema), db) == pytest.approx(0.2)
    assert len(calls) == 1
