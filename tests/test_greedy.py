import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from owpdb.database import Database, LambdaCompletionView, Schema
from owpdb.engine import Evaluator, Plan, prob_ground
from owpdb.greedy import WINDOW, greedy_trace, greedy_upper, set_query_prob
from owpdb.openworld import MTPConstraint, OpenPDB, apply_completion, interval_unconstrained, open_args, open_tuples
from owpdb.oracle import mtp_upper_bruteforce
from owpdb.query import Atom, Constant, Variable, parse_ucq
from owpdb.randgen import rand_mtp_instance

from helpers import assert_same_screens_as_reference, rational_greedy


def empty_unary(n=2, lam=0.5):
    schema = Schema({"R": 1}, tuple(Constant(c) for c in "ABCDEF"[:n]))
    return OpenPDB(Database(schema), lam)


def self_join_instance():
    schema = Schema({"R": 2, "S": 2}, tuple(Constant(n) for n in "ABC"))
    db = Database(schema, {
        "R": {("A", "A"): 0.3, ("B", "C"): 0.1, ("C", "A"): 0.4, ("C", "B"): 0.8, ("C", "C"): 0.2},
        "S": {("A", "B"): 0.6, ("B", "A"): 0.0, ("B", "C"): 0.0},
    })
    return OpenPDB(db, 0.8), parse_ucq("R(z, z), S(C, z), S(y, y)", schema)


class TestSetFunction:
    def test_empty_set_is_closed_world(self, coauthor_db, scientist_coauthor_query):
        from owpdb.engine import prob_lifted

        g = OpenPDB(coauthor_db, 0.3)
        assert set_query_prob(g, scientist_coauthor_query, set()) == prob_lifted(
            scientist_coauthor_query, coauthor_db
        )

    def test_all_open_tuples_is_relation_completion(
        self, coauthor_db, scientist_coauthor_query
    ):
        g = OpenPDB(coauthor_db, 0.3)
        full = set_query_prob(g, scientist_coauthor_query, open_tuples(g, "CoA"))
        # S is fully stored, so this is the open-world upper bound
        assert full == pytest.approx(
            interval_unconstrained(g, scientist_coauthor_query).interval[1], abs=1e-12
        )

    def test_zero_lambda_makes_it_constant(self, coauthor_db, scientist_coauthor_query):
        g = OpenPDB(coauthor_db, 0.0)
        opens = open_tuples(g, "CoA")
        values = {set_query_prob(g, scientist_coauthor_query, opens[:k]) for k in range(4)}
        assert len(values) == 1

    def test_normalized_zero_at_empty(self, coauthor_db, scientist_coauthor_query):
        g = OpenPDB(coauthor_db, 0.3)
        q = scientist_coauthor_query
        assert set_query_prob(g, q, set()) - set_query_prob(g, q, ()) == 0.0

    def test_normalized_nonnegative(self):
        rng = random.Random(55)
        for _ in range(40):
            g, c, q, _ = rand_mtp_instance(rng, self_join_free=True)
            opens = open_tuples(g, c.relation)
            picked = rng.sample(opens, rng.randint(0, len(opens)))
            assert set_query_prob(g, q, picked) - set_query_prob(g, q, ()) >= -1e-12

    def test_singleton_gain_matches_ground_difference(self, coauthor_db, scientist_coauthor_query):
        g = OpenPDB(coauthor_db, 0.3)
        t = open_tuples(g, "CoA")[0]
        q = scientist_coauthor_query
        gain = set_query_prob(g, q, {t}) - set_query_prob(g, q, ())
        oracle = prob_ground(q, coauthor_db.with_added([t], 0.3)) - prob_ground(q, coauthor_db)
        assert gain == pytest.approx(oracle, abs=1e-9)


class TestGreedy:
    def test_zero_budget_collapses_interval(self, coauthor_db, scientist_coauthor_query):
        g = OpenPDB(coauthor_db, 0.3)
        res = greedy_upper(g, MTPConstraint("CoA", 0.4), scientist_coauthor_query, budget=0)
        lo, hi = res.interval
        assert res.value == lo
        assert hi == pytest.approx(lo, abs=1e-12)

    def test_bracket_is_not_inverted_when_no_pick_is_made(self):
        # (e * p - p) / (e - 1) rounds to 0.9799999999999999 at p = 0.98
        schema = Schema({"R": 1}, (Constant("A"), Constant("B")))
        g = OpenPDB(Database(schema, {"R": {("A",): 0.98}}), 0.5)
        trace = greedy_trace(g, MTPConstraint("R", 0.5), parse_ucq("R(x)", schema), budget=0)
        assert trace.lower == 0.98 and trace.lower <= trace.upper

    def test_single_pick_bound_arithmetic(self):
        g = empty_unary(2, lam=0.5)
        q = parse_ucq("R(x)", g.schema)
        res = greedy_upper(g, MTPConstraint("R", 0.4), q, budget=1)
        assert res.value == pytest.approx(0.5)
        e = math.e
        assert res.interval[1] == pytest.approx((e * 0.5 - 0.0) / (e - 1), abs=1e-12)
        # the true optimum (0.5) lies inside the reported interval
        assert res.interval[0] <= 0.5 <= res.interval[1]

    def test_budget_above_the_open_tuples_stops_when_none_is_left(self):
        g = empty_unary(2, lam=0.5)
        q = parse_ucq("R(x)", g.schema)
        trace = greedy_trace(g, MTPConstraint("R", 0.4), q, budget=3)
        assert [str(a) for a, _ in trace.picks] == ["R(A)", "R(B)"]
        assert trace.p_greedy == 0.75

    def test_trace_gains_match_full_reevaluation(self):
        rng = random.Random(60)
        checked = 0
        while checked < 25:
            g, c, q, _ = rand_mtp_instance(rng, self_join_free=True)
            trace = greedy_trace(g, c, q)
            if not trace.picks:
                continue
            prefix = []
            for atom, gain in trace.picks:
                before = set_query_prob(g, q, prefix)
                prefix.append(atom)
                after = set_query_prob(g, q, prefix)
                assert gain == pytest.approx(after - before, abs=1e-9)
            checked += 1

    def test_gains_non_increasing(self):
        rng = random.Random(61)
        for _ in range(40):
            g, c, q, _ = rand_mtp_instance(rng, self_join_free=True)
            gains = [gain for _, gain in greedy_trace(g, c, q).picks]
            assert all(gains[i] >= gains[i + 1] - 1e-12 for i in range(len(gains) - 1))

    def test_oracle_inside_interval_and_guarantee(self):
        rng = random.Random(62)
        for _ in range(60):
            g, c, q, _ = rand_mtp_instance(rng, self_join_free=True)
            trace = greedy_trace(g, c, q)
            opt = mtp_upper_bruteforce(g, c, q).value
            assert trace.lower - 1e-9 <= opt <= trace.upper + 1e-9
            assert (trace.p_greedy - trace.p_closed) >= (1 - 1 / math.e) * (
                opt - trace.p_closed
            ) - 1e-9

    def test_self_join_runs_with_warning_and_no_interval(self):
        schema = Schema({"R": 2}, (Constant("A"), Constant("B")))
        db = Database(schema, {"R": {("A", "B"): 0.5}})
        g = OpenPDB(db, 0.5)
        q = parse_ucq("R(x, y) | R(u, v)", schema)  # repeated predicate, still safe
        res = greedy_upper(g, MTPConstraint("R", 0.9), q)
        assert "self-join-no-guarantee" in res.warnings
        assert res.interval is None
        assert 0.0 <= res.value <= 1.0

    def test_self_join_gain_that_grows_is_picked(self):
        # not submodular: S(C, A) gains nothing in round 0 and 0.1536 once
        # S(C, C) is in, so a round must score it again, not trust round 0
        g, q = self_join_instance()
        trace = greedy_trace(g, MTPConstraint("S", 1.0), q, budget=3)
        picked = []
        for atom, gain in trace.picks:
            before = set_query_prob(g, q, picked)
            gains = [set_query_prob(g, q, picked + [t]) - before for t in open_tuples(g, "S") if t not in picked]
            assert gain == pytest.approx(max(gains), abs=1e-12)
            picked.append(atom)
        assert [str(a) for a in picked] == ["S(C, C)", "S(C, A)", "S(A, A)"]

    def test_upper_can_exceed_one_and_is_reported_clamped(self):
        g = empty_unary(4, lam=0.9)
        q = parse_ucq("R(x)", g.schema)
        trace = greedy_trace(g, MTPConstraint("R", 0.9), q)
        assert trace.upper > 1.0
        assert trace.upper_clamped == 1.0
        # the result (and so the JSON upper endpoint) carries the clamped value
        res = greedy_upper(g, MTPConstraint("R", 0.9), q)
        assert res.interval[1] == 1.0


class TestSubmodularity:
    def test_diminishing_gains(self):
        rng = random.Random(63)
        checked = 0
        while checked < 150:
            g, c, q, _ = rand_mtp_instance(rng, self_join_free=True)
            opens = open_tuples(g, c.relation)
            if len(opens) < 2:
                continue
            free = rng.choice(opens)
            rest = [a for a in opens if a != free]
            y = rng.sample(rest, rng.randint(0, len(rest)))
            x = [a for a in y if rng.random() < 0.5]
            gain_small = set_query_prob(g, q, x + [free]) - set_query_prob(g, q, x)
            gain_large = set_query_prob(g, q, y + [free]) - set_query_prob(g, q, y)
            assert gain_small >= gain_large - 1e-12
            checked += 1

    def test_monotone_in_the_choice_set(self):
        rng = random.Random(64)
        checked = 0
        while checked < 60:
            g, c, q, _ = rand_mtp_instance(rng, self_join_free=True)
            opens = open_tuples(g, c.relation)
            if not opens:
                continue
            y = rng.sample(opens, rng.randint(1, len(opens)))
            x = [a for a in y if rng.random() < 0.5]
            assert set_query_prob(g, q, x) <= set_query_prob(g, q, y) + 1e-12
            checked += 1


def assert_conditioning_gains(g, q, trace):
    """Every gain ``trace`` reports is ``lam * (P(q | t true) - P(q))`` on
    its round's database, each P from a fresh evaluator, bit for bit;
    returns those databases."""
    plan = Plan().build(q)
    picks = [a for a, _ in trace.picks]
    views = [g.pdb] + [g.pdb.with_added(picks[:k], g.lam) for k in range(1, len(picks))]
    for view, (atom, gain) in zip(views, trace.picks):
        p = Evaluator(view, plan=plan).probability(q).value
        assert gain == g.lam * (Evaluator(view.with_overrides({atom: True}), plan=plan).probability(q).value - p), atom
    return views


def brings_new_constant(db, atom):
    return not {t.name for t in atom.args} <= db.explicit_constants([atom.predicate])


def sparse_db():
    # CoA and T store rows on A-C only, so most candidates bring a new
    # constant to CoA's stored rows
    names = "ABCDEF"
    schema = Schema({"R": 1, "S": 1, "T": 2, "CoA": 2}, tuple(Constant(n) for n in names))
    return Database(schema, {
        "R": {("A",): 0.4, ("C",): 0.7, ("E",): 0.5},
        "S": {(n,): p for n, p in zip(names, (0.3, 0.9, 0.5, 0.2, 0.6, 0.8))},
        "T": {("A", "B"): 0.6, ("B", "B"): 0.3, ("C", "A"): 0.8},
        "CoA": {("A", "A"): 0.5, ("A", "B"): 0.2, ("B", "C"): 0.7, ("C", "A"): 0.4},
    })


class TestIncrementalGains:
    """A round scores only its pick, and the gain it reports is that of
    conditioning on the pick, bit for bit."""

    def run(self, text):
        db = sparse_db()
        g, q = OpenPDB(db, 0.6), parse_ucq(text, db.schema)
        trace = greedy_trace(g, MTPConstraint("CoA", 0.9), q, budget=3)
        return trace, assert_conditioning_gains(g, q, trace)

    @pytest.mark.parametrize("self_join_free", [True, False])
    def test_random_instances(self, self_join_free):
        rng = random.Random(70)
        views = []
        for _ in range(60):
            g, c, q, _ = rand_mtp_instance(rng, self_join_free=self_join_free)
            views += assert_conditioning_gains(g, q, greedy_trace(g, c, q))
        first = sum(1 for db in views if isinstance(db, Database))
        assert 0 < first < len(views)  # round 0 reads the database, later rounds an overlay

    def test_candidate_with_new_constant(self):
        trace, views = self.run("S(x), CoA(x, y)")
        assert len(trace.picks) == 3
        assert any(brings_new_constant(db, atom) for db, (atom, _) in zip(views, trace.picks))

    def test_new_constant_rebatches_a_completed_separator(self):
        # With completed relations the constants of no stored row carry
        # probability, and a candidate that makes one explicit moves it out
        # of the batched rest: an evaluator on the plan greedy shares across
        # its rounds gives the bits of one on a plan of its own.
        schema = Schema({"S": 1, "CoA": 2}, tuple(Constant(n) for n in "ABCDEFG"))
        db = Database(schema, {
            "S": {("A",): 0.3, ("B",): 0.1, ("C",): 0.9},
            "CoA": {("A", "A"): 0.5, ("A", "B"): 0.1, ("B", "A"): 0.3},
        })
        q = parse_ucq("S(x), CoA(x, x)", schema)
        view = LambdaCompletionView(db, 0.3)
        plan = Plan().build(q)
        Evaluator(view, plan=plan).probability(q)
        candidates = open_tuples(OpenPDB(db, 0.3), "CoA")
        assert any(brings_new_constant(db, t) for t in candidates)
        for t in candidates:
            conditioned = view.with_overrides({t: True})
            assert Evaluator(conditioned, plan=plan).probability(q) == Evaluator(conditioned).probability(q), t

    @pytest.mark.parametrize("text", [
        "S(x), CoA(x, C)",
        "CoA(x, B) | CoA(x, D)",
        "R(x), CoA(x, B) | S(z), CoA(z, D)",
    ])
    def test_query_with_constants(self, text):
        trace, _ = self.run(text)
        assert trace.picks

    def test_repeated_variable(self):
        trace, views = self.run("S(x), CoA(x, x)")
        assert all(a.args[0] == a.args[1] for a, _ in trace.picks)
        # off the diagonal a candidate screens 0 and conditioning on it
        # leaves P unchanged, in every round
        db = sparse_db()
        q = parse_ucq("S(x), CoA(x, x)", db.schema)
        plan = Plan().build(q)
        for view in views:
            base = Evaluator(view, plan=plan)
            p = base.probability(q)
            screen = base.gradient(q, "CoA")
            for atom in open_tuples(OpenPDB(db, 0.6), "CoA"):
                if atom.args[0] != atom.args[1] and not view.is_explicit("CoA", tuple(t.name for t in atom.args)):
                    assert screen(tuple(t.name for t in atom.args)) == 0.0, atom
                    assert Evaluator(view.with_overrides({atom: True}), plan=plan).probability(q) == p, atom

    @pytest.mark.parametrize("text", [
        "R(x), CoA(x, y) | T(x, y), CoA(x, B)",
        "CoA(x, y), CoA(A, y)",
    ])
    def test_self_join(self, text):
        trace, views = self.run(text)
        assert not trace.guarantee and trace.picks
        assert any(not isinstance(db, Database) for db in views)


class TestRationalReference:
    """Greedy picks what greedy over exact rational gains picks, wherever
    no other gain lies strictly between the best and twice the window
    below it, and reports each gain to within rounding."""

    def assert_matches(self, g, c, q, budget):
        trace = greedy_trace(g, c, q, budget=budget)
        rounds = rational_greedy(g, c, q, budget)
        for k, (pick, gains) in enumerate(rounds):
            best = gains[pick]
            if any(best * (1 - 2 * Fraction(WINDOW)) < gain < best for gain in gains.values()):
                return k  # a near tie: the two rules may part here
            assert k < len(trace.picks), (k, pick)
            assert trace.picks[k][0] == pick, k
            assert trace.picks[k][1] == pytest.approx(float(best), rel=1e-12, abs=1e-15)
        assert len(trace.picks) == len(rounds)
        return len(rounds)

    @pytest.mark.parametrize("self_join_free", [True, False])
    def test_random_instances(self, self_join_free):
        rng = random.Random(72)
        compared = 0
        for _ in range(200):
            g, c, q, budget = rand_mtp_instance(rng, self_join_free=self_join_free)
            compared += self.assert_matches(g, c, q, budget)
        assert compared > 140  # rounds

    def test_exact_tie_goes_to_canonical_order(self):
        # test_self_join_gain_that_grows_is_picked's instance: in round 2
        # S(A, A) and S(B, B) tie exactly
        g, q = self_join_instance()
        rounds = rational_greedy(g, MTPConstraint("S", 1.0), q, 3)
        last_pick, last_gains = rounds[2]
        assert str(last_pick) == "S(A, A)"
        assert last_gains[last_pick] == last_gains[Atom("S", (Constant("B"), Constant("B")))]
        assert self.assert_matches(g, MTPConstraint("S", 1.0), q, 3) == 3

    def test_gains_apart_by_more_than_the_window(self):
        # R(B)'s gain beats R(A)'s by a relative 2e-7: the later tuple wins
        schema = Schema({"R": 1, "S": 1}, (Constant("A"), Constant("B")))
        g = OpenPDB(Database(schema, {"S": {("A",): 0.5, ("B",): 0.5000001}}), 0.5)
        q = parse_ucq("S(x), R(x)", schema)
        assert self.assert_matches(g, MTPConstraint("R", 0.9), q, 1) == 1
        assert str(greedy_trace(g, MTPConstraint("R", 0.9), q, budget=1).picks[0][0]) == "R(B)"

    def test_symmetric_unary(self):
        g = empty_unary(4, lam=0.5)
        q = parse_ucq("R(x)", g.schema)
        assert self.assert_matches(g, MTPConstraint("R", 0.9), q, 3) == 3


def full_scan_picks(g, c, q, budget):
    """Greedy's picks with every open tuple screened: per round, the same
    gradient over every absent atom in canonical order, the first whose
    screen is at least ``best - WINDOW * |best|``, kept while conditioning
    on it raises P(q)."""
    plan = Plan().build(q)
    free = [Variable(f"x{i}") for i in range(g.schema.arity(c.relation))]
    picks = []
    while g.lam > 0.0 and len(picks) < budget:
        base = Evaluator(apply_completion(g, picks), plan=plan)
        p = base.probability(q).value
        if p >= 1.0:
            break
        screen = base.gradient(q, c.relation)
        scored = [(screen(args), args) for args in open_args(base.db, c.relation, free)]
        if not scored:
            break
        best = max(s for s, _ in scored)
        atom = Atom(c.relation, tuple(map(Constant, next(a for s, a in scored if s >= best - WINDOW * abs(best)))))
        if Evaluator(base.db.with_overrides({atom: True}), plan=plan).probability(q).value <= p:
            break
        picks.append(atom)
    return picks


def shapes_db():
    """Rows on few of eight constants, in shuffled domain order, so that a
    group of open tuples holds several.  T(F) and T(G) tie, and a stored
    row at 0 makes F's first open tuple come after G's in canonical order
    though F's projection comes first: the exact tie goes to G's."""
    schema = Schema({"S": 1, "T": 1, "CoA": 2, "M": 3}, tuple(Constant(n) for n in "DBHAFCGE"))
    return Database(schema, {
        "S": {("A",): 0.3, ("B",): 0.9, ("C",): 0.5, ("D",): 0.6},
        "T": {("A",): 0.4, ("C",): 0.7, ("D",): 0.2, ("F",): 0.5, ("G",): 0.5},
        "CoA": {("A", "A"): 0.5, ("A", "B"): 0.2, ("B", "C"): 0.7, ("C", "A"): 0.4, ("D", "D"): 0.1, ("D", "B"): 0.3,
                ("D", "F"): 0.0},
        "M": {("A", "B", "C"): 0.5, ("A", "A", "A"): 0.3, ("B", "C", "C"): 0.6, ("D", "B", "B"): 0.2,
              ("D", "D", "F"): 0.0},
    })


class TestSamePicksAsFullScan:
    """Screening one representative per group of open tuples that read the
    same screen keys picks what screening every open tuple picks."""

    @pytest.mark.parametrize("self_join_free", [True, False])
    def test_random_instances(self, self_join_free):
        rng = random.Random(73)
        picked = 0
        for _ in range(120):
            g, c, q, budget = rand_mtp_instance(rng, self_join_free=self_join_free)
            picks = [a for a, _ in greedy_trace(g, c, q, budget=budget).picks]
            assert picks == full_scan_picks(g, c, q, budget), str(q)
            picked += len(picks)
        assert picked > 60

    @pytest.mark.parametrize("text, rel, reads", [
        ("S(x), CoA(x, y)", "CoA", (0,)),
        ("S(x), CoA(x, C)", "CoA", (0, 1)),  # a query constant
        ("S(x), CoA(x, x)", "CoA", (0, 1)),  # a tie
        ("S(x), T(y), CoA(B, H)", "CoA", (0, 1)),  # a ground constrained atom
        ("CoA(x, y), T(y)", "CoA", (1,)),
        ("S(x), M(x, y, z)", "M", (0,)),
        ("M(x, y, z), T(z)", "M", (2,)),
        ("S(x), M(x, y, y)", "M", (0, 1, 2)),
    ])
    def test_pinned_shapes(self, text, rel, reads):
        db = shapes_db()
        g, c, q = OpenPDB(db, 0.6), MTPConstraint(rel, 1.0), parse_ucq(text, db.schema)
        base = Evaluator(db)
        base.probability(q)
        assert base.gradient(q, rel).reads == reads
        picks = [a for a, _ in greedy_trace(g, c, q, budget=4).picks]
        assert picks and picks == full_scan_picks(g, c, q, 4)


def gain_errors(view, q, rel, lam, plan):
    """|screened - exact gain| of every absent ``rel`` atom of ``view``: the
    gradient of an evaluator of ``view``, times ``lam``, against
    conditioning on the atom."""
    base = Evaluator(view, plan=plan)
    p = base.probability(q).value
    screen = base.gradient(q, rel)
    errors = []
    for combo in itertools.product(view.schema.domain, repeat=view.schema.arity(rel)):
        args = tuple(t.name for t in combo)
        if not view.is_explicit(rel, args):
            conditioned = Evaluator(view.with_overrides({Atom(rel, combo): True}), plan=plan)
            exact = lam * (conditioned.probability(q).value - p)
            errors.append(abs(lam * screen(args) - exact))
    return errors


def screening_errors(g, c, q, *, plan=None):
    """:func:`gain_errors` of every round of greedy on ``(g, c, q)``."""
    plan = plan or Plan().build(q)
    picks = [a for a, _ in greedy_trace(g, c, q).picks]
    views = [g.pdb] + [g.pdb.with_added(picks[:k], g.lam) for k in range(1, len(picks) + 1)]
    return [e for view in views for e in gain_errors(view, q, c.relation, g.lam, plan)]


def assert_screened(errors):
    assert errors and all(e <= 1e-14 for e in errors)  # a NaN fails too


class TestGradientOracle:
    """One reverse pass screens every candidate within 1e-14 of its exact
    gain, well inside the pick window on these gains."""

    @pytest.mark.parametrize("self_join_free", [True, False])
    def test_random_instances(self, self_join_free):
        rng = random.Random(71)
        errors = []
        for _ in range(60):
            g, c, q, _ = rand_mtp_instance(rng, self_join_free=self_join_free)
            errors += screening_errors(g, c, q)
        assert_screened(errors)

    @pytest.mark.parametrize("text", [
        "R(x), CoA(x, y)",  # a batched rest: D and F have no R or CoA row
        "CoA(x, y), CoA(x, B)",  # the rest's members are ground leaves
        "S(z) | R(x), CoA(x, y)",  # an independent union
        "S(x), CoA(x, C)",  # a constant, other constants in gaps around it
        "R(x), CoA(x, B) | S(z), CoA(z, D)",
        "S(x), CoA(x, x)",
        "R(x), CoA(x, y) | T(x, y), CoA(x, B)",
    ])
    def test_pinned_shapes(self, text):
        db = sparse_db()
        q = parse_ucq(text, db.schema)
        errors = screening_errors(OpenPDB(db, 0.6), MTPConstraint("CoA", 0.9), q)
        assert_screened(errors)
        # each round's screens are those of the reverse pass constant by constant
        g, plan = OpenPDB(db, 0.6), Plan().build(q)
        picks = [a for a, _ in greedy_trace(g, MTPConstraint("CoA", 0.9), q).picks]
        for k in range(len(picks) + 1):
            view = g.pdb.with_added(picks[:k], g.lam) if k else g.pdb
            assert_same_screens_as_reference(view, q, "CoA", plan)

    def test_certain_separator(self):
        # S(A) and CoA(A, A) are certain, so is the separator's A child and
        # the separator: no tuple moves it, and its children take no adjoint
        db = sparse_db()
        rels = {pred: dict(db.entries(pred)) for pred in db.schema.predicates}
        rels["S"][("A",)] = rels["CoA"][("A", "A")] = 1.0
        db = Database(db.schema, rels)
        q = parse_ucq("R(z), S(x), CoA(x, y)", db.schema)
        errors = screening_errors(OpenPDB(db, 0.6), MTPConstraint("CoA", 0.9), q)
        assert_screened(errors)

    def test_batched_rest_with_probability(self):
        # R and T complete at 0.3, so each of the rest's members D and F
        # holds with probability 0.09 and both weigh on each other's gains
        db = sparse_db()
        q = parse_ucq("R(x), CoA(x, y) | R(x), T(x, x)", db.schema)
        view = LambdaCompletionView(db, 0.3, relations=("R", "T"))
        errors = gain_errors(view, q, "CoA", 0.6, Plan().build(q))
        assert_screened(errors)

    def test_nested_batched_rests(self):
        # rows on A-C only and R, T complete at 0.3: x's rest is D-H and,
        # under D, y's rest is E-H, so a pattern CoA(D, E) expands by the
        # swaps of both rests (CoA(E, D) yes, CoA(E, E) no)
        schema = Schema({"R": 1, "T": 2, "CoA": 2}, tuple(Constant(n) for n in "ABCDEFGH"))
        db = Database(schema, {
            "R": {("A",): 0.4},
            "T": {("A", "B"): 0.6, ("B", "A"): 0.3},
            "CoA": {("A", "B"): 0.2, ("C", "A"): 0.4},
        })
        q = parse_ucq("R(x), T(x, y), CoA(x, y)", schema)
        view = LambdaCompletionView(db, 0.3, relations=("R", "T"))
        errors = gain_errors(view, q, "CoA", 0.6, Plan().build(q))
        assert_screened(errors)

    @pytest.mark.parametrize("text", ["S(x), CoA(y, z)", "R(x), CoA(x, y), T(x, y)"])
    def test_forced_inclusion_exclusion(self, text):
        db = sparse_db()
        q = parse_ucq(text, db.schema)
        plan = Plan(force_inclusion_exclusion=True).build(q)
        errors = screening_errors(OpenPDB(db, 0.6), MTPConstraint("CoA", 0.9), q, plan=plan)
        assert_screened(errors)


def fixed_rows_db(n, seed=1):
    """150 ``CoA`` rows and an ``S`` row per constant on the first 60 of
    ``n`` constants, so that only the domain grows with ``n``."""
    rng = random.Random(seed)
    domain = tuple(Constant(f"c{i}") for i in range(n))
    first = [c.name for c in domain[:60]]
    coa = {}
    while len(coa) < 150:
        coa[(rng.choice(first), rng.choice(first))] = rng.choice([0.001, 0.005, 0.009])
    s = {(a,): rng.choice([0.001, 0.005, 0.009]) for a in first}
    return Database(Schema({"S": 1, "CoA": 2}, domain), {"S": s, "CoA": coa})


class TestGreedyMemory:
    def test_peak_memory_does_not_grow_with_the_open_tuples(self):
        # a list of the n^2 open CoA atoms would grow 4x from n=100 to n=200
        def run(n):
            db = fixed_rows_db(n)
            q = parse_ucq("S(x), CoA(x,y)", db.schema)
            tracemalloc.start()
            try:
                trace = greedy_trace(OpenPDB(db, 0.3), MTPConstraint("CoA", 0.9), q, budget=1)
                return tracemalloc.get_traced_memory()[1], [str(a) for a, _ in trace.picks]
            finally:
                tracemalloc.stop()

        run(100)  # allocations made once per process are not the run's
        (small, picks), (large, large_picks) = run(100), run(200)
        assert picks == large_picks and len(picks) == 1
        assert large < 2 * small, (small, large)


class TestScreeningWork:
    def test_screened_candidates_grow_linearly(self, monkeypatch):
        # the screen reads CoA's first position only: a round screens one
        # tuple per constant, not one per open tuple (4x from n=100 to 200)
        real, counts = Evaluator.gradient, []

        def gradient(self, *args):
            screen = real(self, *args)
            counts.append(0)

            @functools.wraps(screen)
            def counted(args):
                counts[-1] += 1
                return screen(args)
            return counted

        monkeypatch.setattr(Evaluator, "gradient", gradient)
        per_n = []
        for n in (100, 200):
            counts.clear()
            db = fixed_rows_db(n)
            q = parse_ucq("S(x), CoA(x,y)", db.schema)
            trace = greedy_trace(OpenPDB(db, 0.3), MTPConstraint("CoA", 0.9), q, budget=2)
            assert len(trace.picks) == 2 and len(counts) == 2
            per_n.append(counts[:])
        small, large = per_n
        assert all(b < 2 * a + 10 for a, b in zip(small, large)), per_n
