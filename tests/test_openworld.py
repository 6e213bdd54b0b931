import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from owpdb.database import Database, LambdaCompletionView, Schema
from owpdb.engine import prob_ground
from owpdb.errors import CompletionOverlap, SchemaError
from owpdb.openworld import (
    BUDGET_EPSILON,
    BoundResult,
    MTPConstraint,
    OpenPDB,
    apply_completion,
    budget_from_mtp,
    interval_unconstrained,
    open_args,
    open_tuples,
)
from owpdb.exactdp import mtp_upper_exact
from owpdb.greedy import greedy_trace, greedy_upper
from owpdb.oracle import _draws, mtp_upper_bruteforce, rand_vertex_instance, vertex_attainment_check
from owpdb.query import Atom, Constant, Variable, parse_ucq

# Frozen with the 2^20-world ground oracle on the fully completed database.
COAUTHOR_UPPER_LAM_03 = 0.9874962453870028


def unary_pdb(n=2, existing=None, lam=0.5):
    schema = Schema({"R": 1}, tuple(Constant(c) for c in "ABCDEFGHIJ"[:n]))
    db = Database(schema, {"R": existing or {}})
    return OpenPDB(db, lam)


class TestOpenTuples:
    def test_complement_of_existing(self):
        g = unary_pdb(2, {("A",): 0.7})
        assert open_tuples(g, "R") == [Atom("R", (Constant("B"),))]

    def test_binary_count(self, coauthor_db):
        g = OpenPDB(coauthor_db, 0.3)
        assert len(open_tuples(g, "CoA")) == 13  # 4*4 minus 3 stored rows

    def test_full_relation_has_no_open_tuples(self):
        g = unary_pdb(2, {("A",): 0.7, ("B",): 0.0})
        assert open_tuples(g, "R") == []

    def test_pinned_zero_is_not_open(self):
        g = unary_pdb(2, {("A",): 0.0})
        assert open_tuples(g, "R") == [Atom("R", (Constant("B"),))]

    def test_domain_order(self):
        g = unary_pdb(3)
        assert [a.args[0].name for a in open_tuples(g, "R")] == ["A", "B", "C"]


class TestOpenArgs:
    X, Y = Variable("x"), Variable("y")

    def test_constant_outside_the_domain_yields_nothing(self, coauthor_db):
        assert list(open_args(coauthor_db, "CoA", [Constant("Nowhere"), self.X])) == []
        assert list(open_args(coauthor_db, "CoA", [self.X, Constant("Nowhere")])) == []

    def test_constant_fixes_its_position(self, coauthor_db):
        got = list(open_args(coauthor_db, "CoA", [Constant("Erdos"), self.X]))
        assert got == [("Erdos", "Einstein"), ("Erdos", "Erdos"), ("Erdos", "Shakespeare")]

    def test_repeated_variable_yields_the_diagonal(self):
        schema = Schema({"E": 2}, tuple(Constant(c) for c in "ABC"))
        db = Database(schema, {"E": {("B", "B"): 0.5, ("A", "C"): 0.5}})
        assert list(open_args(db, "E", [self.X, self.X])) == [("A", "A"), ("C", "C")]

    def test_an_overlays_added_rows_are_skipped(self, coauthor_db):
        g = OpenPDB(coauthor_db, 0.3)
        added = [Atom("CoA", (Constant("Erdos"), Constant("Einstein"))), Atom("CoA", (Constant("Einstein"),) * 2)]
        view = apply_completion(g, added)
        before = list(open_args(coauthor_db, "CoA", [self.X, self.Y]))
        after = list(open_args(view, "CoA", [self.X, self.Y]))
        assert after == [args for args in before if args not in {("Erdos", "Einstein"), ("Einstein", "Einstein")}]
        assert len(after) == 11

    def test_distinct_variables_give_open_tuples_in_atom_key_order(self, coauthor_db):
        g = OpenPDB(coauthor_db, 0.3)
        schema = coauthor_db.schema
        want = sorted(
            (Atom("CoA", combo) for combo in product(schema.domain, repeat=2)
             if not coauthor_db.is_explicit("CoA", tuple(c.name for c in combo))),
            key=schema.atom_key,
        )
        got = list(open_args(coauthor_db, "CoA", [self.X, self.Y]))
        assert got == [tuple(c.name for c in a.args) for a in want]
        assert open_tuples(g, "CoA") == want


class TestInterval:
    def test_zero_lambda_collapses(self, coauthor_db, scientist_coauthor_query):
        res = interval_unconstrained(OpenPDB(coauthor_db, 0.0), scientist_coauthor_query)
        lo, hi = res.interval
        assert lo == hi

    def test_empty_relation_upper_closed_form(self):
        g = unary_pdb(3, lam=0.4)
        res = interval_unconstrained(g, parse_ucq("R(x)", g.schema))
        assert res.interval[0] == 0.0
        assert res.interval[1] == pytest.approx(1 - (1 - 0.4) ** 3, abs=1e-12)

    def test_coauthor_interval(self, coauthor_db, scientist_coauthor_query):
        g = OpenPDB(coauthor_db, 0.3)
        res = interval_unconstrained(g, scientist_coauthor_query)
        assert res.kind == "open_upper"
        assert res.interval[0] == pytest.approx(0.94456, abs=1e-9)
        assert res.interval[1] == pytest.approx(COAUTHOR_UPPER_LAM_03, abs=1e-9)

    def test_upper_matches_ground_on_completion_view(
        self, coauthor_db, scientist_coauthor_query
    ):
        g = OpenPDB(coauthor_db, 0.3)
        res = interval_unconstrained(g, scientist_coauthor_query)
        oracle = prob_ground(scientist_coauthor_query, LambdaCompletionView(coauthor_db, 0.3))
        assert res.interval[1] == pytest.approx(oracle, abs=1e-9)


class TestBudget:
    def test_two_lambda_steps(self):
        g = unary_pdb(10, {("A",): 0.9, ("B",): 0.7}, lam=0.5)
        b = budget_from_mtp(g, MTPConstraint("R", 0.3))
        assert b.max_added == 2 and not b.infeasible

    def test_mean_one_caps_at_open_count(self):
        g = unary_pdb(10, lam=0.5)
        b = budget_from_mtp(g, MTPConstraint("R", 1.0))
        assert b.max_added == 10

    def test_infeasible_existing_mass(self):
        g = unary_pdb(10, {(c,): 0.9 for c in "ABCDE"}, lam=0.5)
        b = budget_from_mtp(g, MTPConstraint("R", 0.3))
        assert b.max_added == 0 and b.infeasible

    def test_exact_multiple_resolves_up(self):
        # room is exactly 2 lambda steps
        g = unary_pdb(10, {("A",): 1.0, ("B",): 1.0}, lam=0.5)
        b = budget_from_mtp(g, MTPConstraint("R", 0.3))
        assert b.max_added == 2

    def test_zero_lambda_zero_budget(self):
        g = unary_pdb(10, lam=0.0)
        assert budget_from_mtp(g, MTPConstraint("R", 0.5)).max_added == 0

    def test_support_denominator(self):
        # each budget is the largest count b whose mean over nonzero rows,
        # (mass + lam b) / (n0 + b), is at most the bound; the last row's
        # budget lands exactly on it (dyadic values, so no rounding), which a
        # strict reading would refuse
        for n, existing, lam, mean, want in [
            (10, {("A",): 0.9, ("B",): 0.7}, 0.5, 0.9, 8),  # lam below the mean bound
            (10, {("A",): 0.9, ("B",): 0.7}, 0.5, 0.5, 0),  # infeasible
            (10, {("A",): 0.2}, 0.0, 0.5, 0),  # a tuple added at 0 stays outside the support
            (10, {("A",): 0.1, ("B",): 0.2}, 0.9, 0.5, 1),  # lam above the mean bound
            (3, {("A",): 0.1}, 0.7, 0.6, 2),  # lam above it, every open tuple fits
            (10, {("A",): 0.25, ("B",): 0.25}, 0.75, 0.5, 2),  # (0.5 + 2 * 0.75) / 4 == 0.5
        ]:
            g = unary_pdb(n, existing, lam=lam)
            b = budget_from_mtp(g, MTPConstraint("R", mean), denominator="support")
            mass, n0 = sum(existing.values()), len(existing)
            fits = [k for k in range(n - n0 + 1) if mass + k * lam <= mean * (n0 + k) + BUDGET_EPSILON]
            assert (b.max_added, b.infeasible) == (want, not fits), (existing, lam, mean)
            assert want == (max(fits, default=0) if lam > 0.0 else 0)

    @pytest.mark.parametrize("lam", [-0.1, 1.5])
    def test_completion_probability_outside_the_unit_interval_is_refused(self, lam):
        with pytest.raises(SchemaError) as err:
            unary_pdb(2, lam=lam)
        assert str(err.value) == f"completion probability {lam} outside [0, 1]"

    @pytest.mark.parametrize("optimizer", [mtp_upper_bruteforce, mtp_upper_exact, greedy_upper, greedy_trace])
    def test_negative_budget_is_refused_by_every_optimizer(self, optimizer):
        g = unary_pdb(3, {("A",): 0.4})
        with pytest.raises(SchemaError, match="budget must be non-negative"):
            optimizer(g, MTPConstraint("R", 0.5), parse_ucq("R(x)", g.schema), budget=-1)

    @given(
        st.integers(min_value=1, max_value=9).map(lambda i: i / 10),
        st.integers(min_value=1, max_value=9).map(lambda i: i / 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_budget_monotone_in_mean_bound(self, mean_lo, mean_hi):
        g = unary_pdb(8, {("A",): 0.4}, lam=0.3)
        lo, hi = sorted((mean_lo, mean_hi))
        b_lo = budget_from_mtp(g, MTPConstraint("R", lo)).max_added
        b_hi = budget_from_mtp(g, MTPConstraint("R", hi)).max_added
        assert b_lo <= b_hi

    @given(
        st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5]),
        st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_budget_antitone_in_lambda(self, lam_a, lam_b):
        lam_lo, lam_hi = sorted((lam_a, lam_b))
        mean = 0.6
        b_lo = budget_from_mtp(unary_pdb(8, lam=lam_lo), MTPConstraint("R", mean)).max_added
        b_hi = budget_from_mtp(unary_pdb(8, lam=lam_hi), MTPConstraint("R", mean)).max_added
        assert b_hi <= b_lo


class TestApplyCompletion:
    def test_empty_choice_is_noop(self, coauthor_db, scientist_coauthor_query):
        g = OpenPDB(coauthor_db, 0.3)
        db = apply_completion(g, [])
        assert db is coauthor_db
        from owpdb.engine import prob_lifted

        assert prob_lifted(scientist_coauthor_query, db) == prob_lifted(
            scientist_coauthor_query, coauthor_db
        )

    def test_single_addition(self):
        g = unary_pdb(2, {("A",): 0.7}, lam=0.4)
        db = apply_completion(g, [Atom("R", (Constant("B"),))])
        assert db.prob("R", ("B",)) == 0.4

    def test_all_open_tuples_match_full_completion(self, coauthor_db, scientist_coauthor_query):
        g = OpenPDB(coauthor_db, 0.3)
        db = apply_completion(g, open_tuples(g, "CoA"))
        from owpdb.engine import prob_lifted

        # S is fully stored, so completing CoA alone reaches the interval upper
        res = interval_unconstrained(g, scientist_coauthor_query)
        assert prob_lifted(scientist_coauthor_query, db) == pytest.approx(
            res.interval[1], abs=1e-12
        )

    def test_overlap_rejected(self):
        g = unary_pdb(2, {("A",): 0.7})
        with pytest.raises(CompletionOverlap):
            apply_completion(g, [Atom("R", (Constant("A"),))])
        with pytest.raises(CompletionOverlap):
            apply_completion(g, [Atom("R", (Constant("B"),))] * 2)


class TestBoundResult:
    def test_interval_must_bracket_value(self):
        with pytest.raises(ValueError):
            BoundResult(kind="mtp_greedy", value=0.9, interval=(0.1, 0.5))

    def test_mean_bound_validation(self):
        with pytest.raises(SchemaError):
            MTPConstraint("R", 0.0)


class TestVertexAttainment:
    def test_fractional_grid_never_beats_budgeted_vertices(self):
        for _, (g, c, q) in _draws(random.Random(914), 12, rand_vertex_instance):
            ok, detail = vertex_attainment_check(g, c, q)
            assert ok, detail

    def test_no_grid_point_fits_when_the_stored_mass_breaks_the_bound(self):
        g = unary_pdb(2, {("A",): 0.9})  # mass 0.9 against room for 0.1 * 2
        q = parse_ucq("R(x)", g.schema)
        assert vertex_attainment_check(g, MTPConstraint("R", 0.1), q) == (True, "no feasible grid point")


class TestIntervalOrdering:
    def test_budgeted_bound_sits_inside_unconstrained_interval(self):
        from owpdb.oracle import mtp_upper_bruteforce
        from owpdb.randgen import rand_mtp_instance

        rng = random.Random(915)
        for _ in range(40):
            g, c, q, _ = rand_mtp_instance(rng)
            lo, hi = interval_unconstrained(g, q).interval
            budgeted = mtp_upper_bruteforce(g, c, q).value
            assert lo - 1e-9 <= budgeted <= hi + 1e-9
