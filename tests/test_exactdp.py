import random

import pytest

from owpdb.database import Database, Schema
from owpdb.engine import prob_lifted
from owpdb.errors import NotInversionFree
from owpdb.exactdp import mtp_upper_exact
from owpdb.greedy import set_query_prob
from owpdb.openworld import MTPConstraint, OpenPDB, budget_from_mtp, interval_unconstrained, open_tuples
from owpdb.oracle import mtp_upper_bruteforce
from owpdb.query import Constant, find_separator, minimize, parse_ucq, substitute_separator
from owpdb.randgen import rand_mtp_instance


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
