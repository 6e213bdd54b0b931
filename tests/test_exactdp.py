import random
import re

import pytest

from owpdb import exactdp
from owpdb.database import Database, Schema
from owpdb.engine import Plan, prob_lifted
from owpdb.errors import NotInversionFree, OwpdbError
from owpdb.exactdp import _BudgetSolver, _merge, _prune, mtp_upper_exact
from owpdb.greedy import set_query_prob
from owpdb.openworld import MTPConstraint, OpenPDB, budget_from_mtp, interval_unconstrained, open_tuples
from owpdb.oracle import mtp_upper_bruteforce
from owpdb.query import Constant, find_separator, minimize, parse_ucq, substitute_separator
from owpdb.randgen import rand_mtp_instance

from helpers import family_db, load_tool, separator_children, stored_scientist_db

same_answers = load_tool("same_answers")


def simple_instance(n=2, lam=0.5, target_b=1, existing=None):
    schema = Schema({"R": 1}, tuple(Constant(c) for c in "ABCD"[:n]))
    db = Database(schema, {"R": existing or {}})
    g = OpenPDB(db, lam)
    mean = (db.relation_mass("R") + (target_b + 0.5) * lam) / n
    return g, MTPConstraint("R", mean), parse_ucq("R(x)", schema)


def separator_instance(n=2, lam=0.5):
    """``R(x), S(x)`` with every S tuple certain: the R(x) instance, but the
    budget optimizer reaches it through its separator rule.  Callers pass
    the budget explicitly."""
    schema = Schema({"R": 1, "S": 1}, tuple(Constant(c) for c in "ABCD"[:n]))
    db = Database(schema, {"S": {(c.name,): 1.0 for c in schema.domain}})
    return OpenPDB(db, lam), MTPConstraint("R", 0.5), parse_ucq("R(x), S(x)", schema)


def column(g, c, q, const, budget):
    """Entry (const, budget) of the separator's per-constant table: the
    exact bound of ``q`` with its separator variable bound to ``const``."""
    q = minimize(q)
    sep = find_separator([d.atoms for d in q.disjuncts])
    if sep is None:
        raise NotInversionFree(f"no separator variable for {q}")
    return mtp_upper_exact(g, c, substitute_separator(q, sep, Constant(const)), budget=budget).value


class TestEntryPoint:
    def test_zero_budget_is_closed_world(self, coauthor_db, scientist_coauthor_query):
        g = OpenPDB(coauthor_db, 0.3)
        res = mtp_upper_exact(g, MTPConstraint("CoA", 0.4), scientist_coauthor_query, budget=0)
        assert res.value == pytest.approx(prob_lifted(scientist_coauthor_query, coauthor_db))
        assert res.witness.added == frozenset()

    def test_budget_slack_reaches_relation_completion(
        self, coauthor_db, scientist_coauthor_query
    ):
        g = OpenPDB(coauthor_db, 0.3)
        res = mtp_upper_exact(g, MTPConstraint("CoA", 0.4), scientist_coauthor_query, budget=13)
        # S is fully stored: completing CoA alone is the unconstrained upper bound
        upper = interval_unconstrained(g, scientist_coauthor_query).interval[1]
        assert res.value == pytest.approx(upper, abs=1e-12)

    def test_symmetric_single_pick_canonical_witness(self):
        g, c, q = simple_instance(n=2, lam=0.5, target_b=1)
        res = mtp_upper_exact(g, c, q)
        assert res.value == pytest.approx(0.5)
        assert [str(a) for a in res.witness.sorted_atoms(g.schema)] == ["R(A)"]

    def test_one_tuple_can_serve_both_conjuncts(self):
        # Diagonal self-join with a constant: R(B, B) alone satisfies both
        # atoms, which the joint optimization must see through the shared,
        # sign-conflicting inclusion-exclusion terms.
        schema = Schema({"R": 2}, (Constant("A"), Constant("B")))
        g = OpenPDB(Database(schema), 0.8)
        q = parse_ucq("R(x, x), R(y, B)", schema)
        c = MTPConstraint("R", 1.5 * 0.8 / 4)  # budget 1
        res = mtp_upper_exact(g, c, q)
        assert res.value == pytest.approx(0.8)
        assert [str(a) for a in res.witness.sorted_atoms(schema)] == ["R(B, B)"]
        brute = mtp_upper_bruteforce(g, c, q)
        assert brute.value == pytest.approx(res.value, abs=1e-12)

    def test_inversion_raises(self):
        from owpdb.oracle import ThreeDMInstance, build_matching_reduction

        inst = ThreeDMInstance(
            (Constant("X1"),),
            (Constant("Y1"),),
            (Constant("Z1"),),
            frozenset({(Constant("X1"), Constant("Y1"), Constant("Z1"))}),
            1,
        )
        g, c, q = build_matching_reduction(inst)
        with pytest.raises(NotInversionFree):
            mtp_upper_exact(g, c, q)


class TestAssignmentTable:
    """Per-constant columns of the separator step, each solved by
    ``mtp_upper_exact`` on the query with the separator substituted."""

    def test_budget_useless_without_open_atoms(self, coauthor_db, scientist_coauthor_query):
        # constrain S, which has no open tuples: every budget column is equal
        g = OpenPDB(coauthor_db, 0.3)
        c = MTPConstraint("S", 0.99)
        for const in g.schema.domain:
            v0 = column(g, c, scientist_coauthor_query, const.name, 0)
            assert column(g, c, scientist_coauthor_query, const.name, 1) == v0
            assert column(g, c, scientist_coauthor_query, const.name, 2) == v0

    def test_single_open_atom_column(self):
        g, c, q = simple_instance(n=2, lam=0.5, target_b=1, existing={("B",): 0.2})
        assert column(g, c, q, "A", 0) == 0.0
        assert column(g, c, q, "A", 1) == pytest.approx(0.5)  # the open tuple at lambda
        assert column(g, c, q, "B", 0) == pytest.approx(0.2)
        assert column(g, c, q, "B", 1) == pytest.approx(0.2)  # stored row: budget useless

    def test_nondecreasing_in_budget_randomized(self):
        rng = random.Random(31)
        for _ in range(40):
            g, c, q, _ = rand_mtp_instance(rng, inversion_free=True)
            b = budget_from_mtp(g, c).max_added
            if b == 0:
                continue
            try:
                for const in g.schema.domain:
                    values = [column(g, c, q, const.name, k) for k in range(b + 1)]
                    for k in range(b):
                        assert values[k] <= values[k + 1] + 1e-12
            except NotInversionFree:
                continue

    def test_entries_match_ground_maximization(self):
        # oracle: exhaustively maximize the substituted query over the open
        # tuples with world enumeration (tuples outside the slice cannot
        # change the value, so enumerating all of them is sound)
        import itertools

        from owpdb.engine import prob_ground

        rng = random.Random(32)
        checked = 0
        while checked < 15:
            g, c, q, _ = rand_mtp_instance(rng, inversion_free=True)
            b = min(budget_from_mtp(g, c).max_added, 2)
            if b == 0:
                continue
            sep = find_separator([d.atoms for d in q.disjuncts])
            if sep is None:
                continue
            opens = open_tuples(g, c.relation)
            if not 1 <= len(opens) <= 6:
                continue
            try:
                got = {
                    (const, k): column(g, c, q, const.name, k)
                    for const in g.schema.domain
                    for k in range(b + 1)
                }
            except NotInversionFree:
                continue
            for const in g.schema.domain:
                sub = substitute_separator(q, sep, const)
                for k in range(b + 1):
                    best = 0.0
                    for size in range(0, k + 1):
                        for chosen in itertools.combinations(opens, size):
                            db = g.pdb.with_added(chosen, g.lam) if chosen else g.pdb
                            best = max(best, prob_ground(sub, db))
                    assert got[(const, k)] == pytest.approx(best, abs=1e-9)
            checked += 1


class TestElimination:
    """The separator step folds the per-constant columns over the domain
    from the zero vector; checked on the full query against its columns."""

    def test_base_case_maxes_first_column(self):
        g, c, q = separator_instance(n=1, lam=0.5)
        for b in (0, 1):
            assert mtp_upper_exact(g, c, q, budget=b).value == column(g, c, q, "A", b)

    def test_vacuous_constant_leaves_table_unchanged(self):
        g, c, q = separator_instance(n=2, lam=0.0)  # completions add nothing at zero
        res = mtp_upper_exact(g, c, q, budget=1)
        assert res.value == column(g, c, q, "A", 1) == column(g, c, q, "B", 1) == 0.0
        assert res.witness.added == frozenset()

    def test_symmetric_constants_tie(self):
        g, c, q = separator_instance(n=2, lam=0.5)
        res = mtp_upper_exact(g, c, q, budget=1)
        # one budget unit through either constant gives the same value; the
        # first constant in domain order wins the tie
        assert res.value == pytest.approx(column(g, c, q, "A", 1))
        assert column(g, c, q, "A", 1) == column(g, c, q, "B", 1)
        assert [str(a) for a in res.witness.sorted_atoms(g.schema)] == ["R(A)"]


class TestOracleEquivalence:
    def test_matches_bruteforce_on_seeded_corpus(self):
        rng = random.Random(777)
        for _ in range(120):
            g, c, q, _ = rand_mtp_instance(rng, inversion_free=True)
            exact = mtp_upper_exact(g, c, q)
            brute = mtp_upper_bruteforce(g, c, q)
            assert exact.value == pytest.approx(brute.value, abs=1e-9), str(q)
            replay = set_query_prob(g, q, exact.witness.added)
            assert replay == pytest.approx(exact.value, abs=1e-12)

    def test_value_nondecreasing_in_budget(self):
        rng = random.Random(778)
        for _ in range(30):
            g, c, q, _ = rand_mtp_instance(rng, inversion_free=True)
            n_open = len(open_tuples(g, c.relation))
            values = [
                mtp_upper_exact(g, c, q, budget=b).value for b in range(min(n_open, 3) + 1)
            ]
            assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))

    def test_gap_witnesses_replay_to_their_values(self, monkeypatch):
        # tools/same_answers.py's mid-size gap instances, some of which reach
        # the inclusion-exclusion families and their Pareto fronts
        fronts, pareto = [0], _BudgetSolver._pareto

        def counted(self, *args):
            fronts[0] += 1
            return pareto(self, *args)

        monkeypatch.setattr(_BudgetSolver, "_pareto", counted)
        rng, answered = random.Random(13), 0
        for i in range(same_answers.GAP_INSTANCES):
            g, c, q = same_answers.gap_instance(rng)
            try:
                exact = mtp_upper_exact(g, c, q)
            except OwpdbError:
                continue
            answered += 1
            assert set_query_prob(g, q, exact.witness.added) == pytest.approx(exact.value, abs=1e-12), (i, str(q))
        assert answered > same_answers.GAP_INSTANCES // 2 and fronts[0] > 0, (answered, fronts[0])

    def test_full_budget_equals_relation_completion(self):
        rng = random.Random(779)
        for _ in range(25):
            g, c, q, _ = rand_mtp_instance(rng, inversion_free=True)
            opens = open_tuples(g, c.relation)
            if not opens:
                continue
            res = mtp_upper_exact(g, c, q, budget=len(opens))
            completed = g.pdb.with_added(opens, g.lam)
            assert res.value == pytest.approx(prob_lifted(q, completed), abs=1e-9)


def saturated_db(n=70, n_s=59, seed=1):
    """S(x), CoA(x,y) with 2.5n CoA rows and S on n_s of the n constants:
    the closed value is 1 - 1.1e-16, and one added tuple rounds it to 1.0."""
    rng = random.Random(seed)
    domain = tuple(Constant(f"c{i}") for i in range(n))
    coa = {}
    while len(coa) < 5 * n // 2:
        coa[(rng.choice(domain).name, rng.choice(domain).name)] = rng.choice([0.1, 0.3, 0.7])
    s = {(c.name,): rng.choice([0.2, 0.5, 0.9]) for c in rng.sample(domain, n_s)}
    return Database(Schema({"S": 1, "CoA": 2}, domain), {"S": s, "CoA": coa})


class TestSaturatedTieBreak:
    """Once the value rounds to 1.0 every budget split ties, and constants
    with no S row contribute all-zero vectors; the witness is decided by
    the tie rule alone (smallest merged witness at each split), pinned here
    as computed before budget vectors carried index tuples."""

    WITNESSES = {
        1: ["c7 c0"],
        2: ["c7 c0", "c19 c0"],
        3: ["c7 c0", "c19 c0", "c59 c0"],
        4: ["c7 c0", "c19 c0", "c30 c0", "c45 c0"],
        5: ["c7 c0", "c19 c0", "c30 c0", "c45 c0", "c59 c0"],
        6: ["c7 c0", "c19 c0", "c30 c0", "c45 c0", "c59 c0", "c68 c0"],
        7: ["c7 c0", "c19 c0", "c30 c0", "c45 c0", "c59 c0", "c66 c0", "c66 c1"],
        8: ["c0 c0", "c7 c0", "c17 c0", "c19 c0", "c30 c0", "c45 c0", "c66 c0", "c66 c1"],
    }

    @pytest.mark.parametrize("budget", range(1, 9))
    def test_witness_under_saturation(self, budget):
        db = saturated_db()
        q = parse_ucq("S(x), CoA(x,y)", db.schema)
        assert prob_lifted(q, db) < 1.0
        res = mtp_upper_exact(OpenPDB(db, 0.5), MTPConstraint("CoA", 0.5), q, budget=budget)
        assert res.value == 1.0
        witness = [" ".join(t.name for t in a.args) for a in res.witness.sorted_atoms(db.schema)]
        assert witness == self.WITNESSES[budget]


class OneConstantAtATime(_BudgetSolver):
    """The reference solver: each fresh constant's child evaluated on its
    own, node by node, and every value expanded to a budget vector before
    it is combined, by the max-convolution over all splits."""

    def _separator_product(self, node, env):
        child_of = separator_children(self.plan, node, env)
        acc = 0.0
        for const in self.schema.domain:
            acc = self._combine(acc, self.evaluate(*child_of(const)), "disj")
        return acc

    def _combine(self, v1, v2, mode):
        v1, v2 = (v if type(v) is tuple else ((v, ()),) * (self.b_max + 1) for v in (v1, v2))
        if mode == "conj":
            p1, p2 = [p for p, _ in v1], [p for p, _ in v2]
        else:
            p1, p2 = [1.0 - p for p, _ in v1], [1.0 - p for p, _ in v2]
        out = []
        for b in range(self.b_max + 1):
            if mode == "conj":
                vals = [p1[k] * p2[b - k] for k in range(b + 1)]
            else:
                vals = [1.0 - p1[k] * p2[b - k] for k in range(b + 1)]
            best = max(vals)
            out.append((best, min(_merge(v1[k][1], v2[b - k][1]) for k in range(b + 1) if vals[k] == best)))
        return tuple(out)


def budget_table(solver_class, g, rel, q, b_max):
    """(value, witness) at every budget up to ``b_max``, floats as repr so
    that equal means equal bits."""
    plan = Plan().build(q)
    best = solver_class(g, rel, b_max, plan).evaluate(plan.node(q), {})
    table = best if type(best) is tuple else ((best, ()),) * (b_max + 1)
    return [(repr(v), w) for v, w in table]


class TestFreshColumn:
    """A separator's fresh constants read as one column, with floats for
    values no budget moves, keep every value, witness and refusal of the
    solver that evaluates each constant on its own."""

    def test_same_bits_on_random_instances(self):
        rng = random.Random(4)
        seen = {True: 0, False: 0}  # instances with and without query constants
        while min(seen.values()) < 12:
            g, c, q, _ = rand_mtp_instance(rng, inversion_free=True)
            seen[bool(q.constants())] += 1
            for lam in (0.0, 0.3, 1.0):
                for b_max in range(5):
                    args = (OpenPDB(g.pdb, lam), c.relation, q, b_max)
                    try:
                        want = budget_table(OneConstantAtATime, *args)
                    except NotInversionFree as refused:
                        with pytest.raises(NotInversionFree, match=f"^{re.escape(str(refused))}$"):
                            budget_table(_BudgetSolver, *args)
                        continue
                    assert budget_table(_BudgetSolver, *args) == want, (str(q), lam, b_max)

    @pytest.mark.parametrize("rel", ["CoA", "S"])
    def test_same_bits_under_saturation(self, rel):
        db = stored_scientist_db(80)
        q = parse_ucq("S(x), CoA(x,y)", db.schema)
        for b_max in (0, 1, 4, 8):
            args = (OpenPDB(db, 0.5), rel, q, b_max)
            assert budget_table(_BudgetSolver, *args) == budget_table(OneConstantAtATime, *args)

    def test_an_and_with_an_empty_slice_keeps_its_closed_bits(self):
        # every T(x, A) is stored, so A's fresh child R(A, A), T(x, A) has an
        # empty slice: its value is the closed conjunction, 0.3800000000000001,
        # not the product of its factors, 0.4 * 0.95 = 0.38
        db = Database(Schema({"R": 2, "T": 2}, (Constant("A"), Constant("B"))),
                      {"R": {("A", "A"): 0.4}, "T": {("A", "A"): 0.75, ("B", "A"): 0.8}})
        q = parse_ucq("R(z, z), T(x, z)", db.schema)
        for b_max in range(3):
            args = (OpenPDB(db, 0.5), "T", q, b_max)
            assert budget_table(_BudgetSolver, *args) == budget_table(OneConstantAtATime, *args)

    def test_same_bits_in_the_cores_a_family_binds(self):
        # each separator constant's union is an inclusion-exclusion family
        # whose core S(z, c), U(z, c) is bound and planned only there
        db = family_db(8)
        q = parse_ucq("R(x), U(y, x) | S(z, y), U(z, y)", db.schema)
        for b_max in range(4):
            args = (OpenPDB(db, 0.5), "U", q, b_max)
            assert budget_table(_BudgetSolver, *args) == budget_table(OneConstantAtATime, *args)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_an_and_of_leaves_reads_each_fresh_constants_slice_once(self, lam, monkeypatch):
        # perfbench budget-opt's shape: each fresh constant's child S(c), CoA(c, y)
        # takes its emptiness test from CoA's prefix, read once (at lam = 0 the
        # prefix reads as a float value yet still decides the slice)
        db = stored_scientist_db(16)
        q = parse_ucq("S(x), CoA(x,y)", db.schema)
        args = (OpenPDB(db, lam), "CoA", q, 2)
        want = budget_table(OneConstantAtATime, *args)
        calls, open_args = [], exactdp.open_args
        monkeypatch.setattr(exactdp, "open_args", lambda *a: calls.append(a) or open_args(*a))
        assert budget_table(_BudgetSolver, *args) == want
        assert len(calls) == 1 + 16  # the root's emptiness test, then one per constant, all of them fresh
        want = budget_table(OneConstantAtATime, *args[:3], 0)
        calls.clear()
        assert budget_table(_BudgetSolver, *args[:3], 0) == want
        assert len(calls) == 1 + 16  # at B = 0 the slice itself is tested, and no prefix is read

    def test_refusal_comes_from_the_first_refusing_constant(self):
        # a tools/same_answers.py GAP_QUERIES template with its constant
        # K07 mid-domain: the fresh constants before it have every S row
        # stored, K07's slice has 12 open tuples and each later constant's
        # 14, so the mentioned child refuses first
        names = [f"K{i:02d}" for i in range(14)]
        s = {(a, b): 0.5 for i, a in enumerate(names) for b in (names if i < 7 else names[:2] if i == 7 else ())}
        db = Database(Schema({"R": 1, "S": 2, "T": 2}, tuple(map(Constant, names))),
                      {"R": {(a,): 0.5 for a in names}, "S": s, "T": {(a, b): 0.5 for a in names for b in names[:3]}})
        g, c = OpenPDB(db, 0.5), MTPConstraint("S", 1.0)
        q = parse_ucq("R(x), S(x, y) | T(x, y), S(x, K07)", db.schema)
        with pytest.raises(NotInversionFree, match="^no shared separator and the open slice has 14 tuples$"):
            column(g, c, q, "K08", 2)
        with pytest.raises(NotInversionFree, match="^no shared separator and the open slice has 12 tuples$"):
            mtp_upper_exact(g, c, q, budget=2)


class TestPrune:
    """``_prune`` is the one rule that chooses among family states: per
    vector the smallest witness, then the vectors no other one matches or
    beats in every component, in the direction of its sign."""

    def test_equal_vectors_keep_the_smallest_witness(self):
        states = [((0.5, 0.25), ((3,),)), ((0.5, 0.25), ((1,), (2,))), ((0.5, 0.25), ((1,), (4,)))]
        assert _prune(states, (1, -1)) == [((0.5, 0.25), ((1,), (2,)))]

    @pytest.mark.parametrize("sign, better, worse", [(1, 0.75, 0.5), (-1, 0.5, 0.75)])
    def test_a_signed_component_prefers_its_direction(self, sign, better, worse):
        # equal first components: the second decides, whatever the witnesses
        states = [((0.5, worse), ()), ((0.5, better), ((7,),))]
        assert _prune(states, (1, sign)) == [((0.5, better), ((7,),))]

    def test_a_sign_zero_component_is_matched_only_by_an_equal_value(self):
        apart = [((0.5, 0.25), ()), ((0.5, 0.75), ((7,),))]
        assert _prune(apart, (1, 0)) == apart
        # equal there, so the +1 component decides
        assert _prune([((0.25, 0.5), ()), ((0.75, 0.5), ((7,),))], (1, 0)) == [((0.75, 0.5), ((7,),))]

    def test_incomparable_vectors_are_all_kept(self):
        states = [((0.75, 0.25), ((1,),)), ((0.25, 0.75), ((2,),)), ((0.25, 0.25), ())]
        assert _prune(states, (1, 1)) == [((0.25, 0.75), ((2,),)), ((0.75, 0.25), ((1,),))]

    def test_one_core_of_sign_plus_keeps_one_state_per_budget(self):
        rng = random.Random(3)
        for _ in range(50):
            states = [((rng.choice([0.125, 0.25, 0.5]),), tuple(sorted(rng.sample([(0,), (1,), (2,)], 2))))
                      for _ in range(rng.randint(1, 6))]
            best = max(v for (v,), _ in states)
            assert _prune(states, (1,)) == [((best,), min(w for (v,), w in states if v == best))]
        # and through the DP's own enumeration of a slice
        g, c, q = simple_instance(n=3, lam=0.5, existing={("B",): 0.2})
        plan = Plan().build(q)
        front = _BudgetSolver(g, "R", 2, plan)._pareto_enumerate((plan.node(q),), (1,))
        assert [len(states) for states in front] == [1, 1, 1]
        assert [s[0][1] for s in front] == [(), ((0,),), ((0,), (2,))]

    def test_family_takes_the_largest_total_and_its_smallest_witness(self):
        # terms R(x) - P(R(x), S(x)) fold onto two cores of weights +1 and -1;
        # at budget 1, two vectors total exactly 0.25 and a third
        # 0.7 - 0.45 = 0.24999999999999994, whose empty witness must not win
        db = Database(Schema({"R": 1, "S": 1}, (Constant("A"), Constant("B"))), {"S": {("A",): 0.5, ("B",): 0.5}})
        solver = _BudgetSolver(OpenPDB(db, 0.5), "R", 1, Plan())
        front = [[((0.0, 0.0), ())], [((0.5, 0.25), ((1,),)), ((0.7, 0.45), ()), ((0.75, 0.5), ((0,),))]]
        signs = []
        solver._pareto = lambda cores, s: signs.append(s) or front
        terms = [(1.0, parse_ucq("R(x)", db.schema)), (-1.0, parse_ucq("R(x), S(x)", db.schema))]
        assert solver._family(terms) == ((0.0, ()), (0.25, ((0,),)))
        assert signs == [(1, -1)]

    @pytest.mark.parametrize("cores, signs", [(("R(x), S(x, y)",), (0,)), (("R(x), S(x, y)", "T(x), S(x, y)"), (1, -1))])
    def test_a_separator_front_matches_enumeration_under_sign_0(self, cores, signs):
        # each constant c reduces the cores to S(c, y), under a sign-0 parent
        # or under parents of both signs: S(c, y) takes sign 0, and so does
        # S(c, d) below it, else a front keeps only its smallest values
        db = Database(Schema({"R": 1, "T": 1, "S": 2}, tuple(map(Constant, "ABC"))),
                      {"R": {("A",): 0.5, ("B",): 0.8}, "T": {("A",): 0.6, ("C",): 0.3},
                       "S": {("A", "A"): 0.25, ("B", "C"): 0.5}})
        plan = Plan()
        solver = _BudgetSolver(OpenPDB(db, 0.5), "S", 2, plan)
        nodes = tuple(plan.node(parse_ucq(c, db.schema)) for c in cores)

        def values(front):
            return [sorted(tuple(round(v, 12) for v in vals) for vals, _ in states) for states in front]

        assert values(solver._pareto(nodes, signs)) == values(solver._pareto_enumerate(nodes, signs))
        assert len(solver._pareto(nodes, signs)[2]) == (6 if signs == (0,) else 1)
