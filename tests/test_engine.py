import math
import random

import pytest

from owpdb.database import Database, LambdaCompletionView, Schema
from owpdb.engine import (
    Evaluator,
    Plan,
    analyze_query,
    is_safe,
    prob_ground,
    prob_ground_detail,
    prob_lifted,
    prob_lifted_detail,
)
from owpdb.errors import CapExceeded, SchemaError, UnsafeQuery
from owpdb.query import Atom, Constant, Variable, minimize, parse_ucq
from owpdb.randgen import rand_safe_instance

# Frozen with the world-enumeration oracle over the seven stored tuples.
COAUTHOR_CLOSED = 0.94456
COAUTHOR_WITH_EINSTEIN_CERTAIN = 0.9692


class TestGoldenValues:
    def test_ground_atom_lookup(self, coauthor_schema, coauthor_db):
        q = parse_ucq("S(Einstein)", coauthor_schema)
        assert prob_lifted(q, coauthor_db) == 0.8

    def test_absent_ground_atom(self, coauthor_schema, coauthor_db):
        q = parse_ucq("CoA(Einstein, Shakespeare)", coauthor_schema)
        assert prob_lifted(q, coauthor_db) == 0.0

    def test_coauthor_closed_world(self, coauthor_db, scientist_coauthor_query):
        assert prob_lifted(scientist_coauthor_query, coauthor_db) == pytest.approx(
            COAUTHOR_CLOSED, abs=1e-9
        )

    def test_lifted_matches_ground_oracle(self, coauthor_db, scientist_coauthor_query):
        pl = prob_lifted(scientist_coauthor_query, coauthor_db)
        pg = prob_ground(scientist_coauthor_query, coauthor_db)
        assert pl == pytest.approx(pg, abs=1e-12)

    def test_empty_database(self, coauthor_schema, scientist_coauthor_query):
        empty = Database(coauthor_schema)
        assert prob_lifted(scientist_coauthor_query, empty) == 0.0


class TestWithAdded:
    def _rows(self, view, schema):
        return {p: sorted(view.entries(p)) for p in schema.predicates}

    def test_overlap_with_stored_row_raises(self, coauthor_db):
        from owpdb.errors import CompletionOverlap

        with pytest.raises(CompletionOverlap):
            coauthor_db.with_added([Atom("S", (Constant("Erdos"),))], 0.3)

    def test_repeated_atom_raises(self, coauthor_db):
        from owpdb.errors import CompletionOverlap

        t = Atom("CoA", (Constant("Erdos"), Constant("Einstein")))
        with pytest.raises(CompletionOverlap):
            coauthor_db.with_added([t, t], 0.3)

    def test_base_unchanged(self, coauthor_schema, coauthor_db, scientist_coauthor_query):
        before = self._rows(coauthor_db, coauthor_schema)
        t = Atom("CoA", (Constant("Erdos"), Constant("Einstein")))
        view = coauthor_db.with_added([t], 0.3)
        assert view.prob("CoA", ("Erdos", "Einstein")) == 0.3
        assert coauthor_db.prob("CoA", ("Erdos", "Einstein")) == 0.0
        assert not coauthor_db.is_explicit("CoA", ("Erdos", "Einstein"))
        assert self._rows(coauthor_db, coauthor_schema) == before
        assert prob_lifted(scientist_coauthor_query, coauthor_db) == pytest.approx(
            COAUTHOR_CLOSED, abs=1e-9
        )

    def test_added_then_overrides_equals_rebuilt(
        self, coauthor_schema, coauthor_db, scientist_coauthor_query
    ):
        added = [
            Atom("CoA", (Constant("Erdos"), Constant("Einstein"))),
            Atom("CoA", (Constant("Shakespeare"), Constant("Erdos"))),
        ]
        pinned = {
            Atom("S", (Constant("Erdos"),)): False,
            Atom("CoA", (Constant("Shakespeare"), Constant("Erdos"))): True,
        }
        view = coauthor_db.with_added(added, 0.3).with_overrides(pinned)
        rels = {p: dict(coauthor_db.entries(p)) for p in coauthor_schema.predicates}
        rels["CoA"][("Erdos", "Einstein")] = 0.3
        rels["S"][("Erdos",)] = 0.0
        rels["CoA"][("Shakespeare", "Erdos")] = 1.0
        rebuilt = Database(coauthor_schema, rels)
        assert self._rows(view, coauthor_schema) == self._rows(rebuilt, coauthor_schema)
        for pred in coauthor_schema.predicates:
            assert view.explicit_constants([pred]) == rebuilt.explicit_constants([pred])
        assert prob_lifted(scientist_coauthor_query, view) == pytest.approx(
            prob_lifted(scientist_coauthor_query, rebuilt), abs=1e-15
        )
        assert prob_lifted(scientist_coauthor_query, view) == pytest.approx(
            prob_ground(scientist_coauthor_query, rebuilt), abs=1e-12
        )


class TestDatabaseConstruction:
    def test_in_memory_reads(self):
        schema = Schema({"R": 1}, (Constant("A"), Constant("B")))
        db = Database(schema, {"R": {("A",): 0.25}})
        assert db.prob("R", ("A",)) == 0.25
        assert db.prob("R", ("B",)) == 0.0

    @pytest.mark.parametrize("build, message", [
        (lambda db: Schema({"R": 1}, ()), "domain must be non-empty"),
        (lambda db: Schema({"R": 1}, (Constant("A"), Constant("A"))), "domain contains duplicate constants"),
        (lambda db: Schema({"R": 0}, (Constant("A"),)), "predicate 'R' must have arity >= 1"),
        (lambda db: db.with_overrides({Atom("R", (Variable("x"),)): 0.5}), "override atom must be ground: R(x)"),
        (lambda db: db.with_overrides({Atom("R", (Constant("B"),)): 1.5}), "override probability 1.5 outside [0, 1]"),
        (lambda db: LambdaCompletionView(db, 1.5), "completion probability 1.5 outside [0, 1]"),
        (lambda db: LambdaCompletionView(db, -0.5), "completion probability -0.5 outside [0, 1]"),
    ], ids=["empty-domain", "duplicate-constant", "arity-zero", "non-ground-override", "override-range",
            "lambda-above-one", "lambda-below-zero"])
    def test_bad_schemas_and_views_are_refused(self, build, message):
        db = Database(Schema({"R": 1}, (Constant("A"), Constant("B"))), {"R": {("A",): 0.25}})
        with pytest.raises(SchemaError) as err:
            build(db)
        assert str(err.value) == message


class TestGroundEvaluator:
    def test_single_tuple(self):
        schema = Schema({"R": 1}, (Constant("A"),))
        db = Database(schema, {"R": {("A",): 0.5}})
        assert prob_ground(parse_ucq("R(A)", schema), db) == pytest.approx(0.5)

    def test_independent_disjunction(self):
        schema = Schema({"R": 1, "S": 1}, (Constant("A"),))
        db = Database(schema, {"R": {("A",): 0.5}, "S": {("A",): 0.5}})
        q = parse_ucq("R(A) | S(A)", schema)
        assert prob_ground(q, db) == pytest.approx(0.75)

    def test_deterministic_tuples_fold_in(self):
        schema = Schema({"R": 1}, tuple(Constant(f"C{i}") for i in range(30)))
        # 30 tuples but only one uncertain: world cap not hit
        table = {(f"C{i}",): 1.0 for i in range(29)}
        table[("C29",)] = 0.25
        db = Database(schema, {"R": table})
        q = parse_ucq("R(C29)", schema)
        assert prob_ground(q, db, cap_worlds=4) == pytest.approx(0.25)

    def test_world_cap_guard(self):
        n = 8
        schema = Schema({"R": 1}, tuple(Constant(f"C{i}") for i in range(n)))
        db = Database(schema, {"R": {(f"C{i}",): 0.5 for i in range(n)}})
        with pytest.raises(CapExceeded):
            prob_ground(parse_ucq("R(x)", schema), db, cap_worlds=4)


class TestConditioning:
    def test_scientist_pinned_true(self, coauthor_schema, coauthor_db, scientist_coauthor_query):
        fixed = {Atom("S", (Constant("Einstein"),)): True}
        value = prob_lifted(scientist_coauthor_query, coauthor_db.with_overrides(fixed))
        assert value == pytest.approx(COAUTHOR_WITH_EINSTEIN_CERTAIN, abs=1e-9)
        # oracle: world enumeration over the overridden database
        assert value == pytest.approx(
            prob_ground(scientist_coauthor_query, coauthor_db.with_overrides(fixed)),
            abs=1e-12,
        )

    def test_pinned_false_kills_atom_query(self, coauthor_schema, coauthor_db):
        q = parse_ucq("S(Einstein)", coauthor_schema)
        fixed = {Atom("S", (Constant("Einstein"),)): False}
        assert prob_lifted(q, coauthor_db.with_overrides(fixed)) == 0.0

    def test_empty_override_is_noop(self, coauthor_db, scientist_coauthor_query):
        assert prob_lifted(scientist_coauthor_query, coauthor_db.with_overrides({})) == prob_lifted(
            scientist_coauthor_query, coauthor_db
        )


class TestSafety:
    def test_classic_unsafe_pattern(self):
        arities = {"R": 1, "S": 2, "T": 1}
        q = parse_ucq("R(x), S(x, y), T(y)", arities)
        assert not is_safe(q)
        schema = Schema(arities, (Constant("A"), Constant("B")))
        db = Database(schema, {"R": {("A",): 0.5}, "S": {("A", "B"): 0.5}, "T": {("B",): 0.5}})
        with pytest.raises(UnsafeQuery):
            prob_lifted(q, db)
        # the ground fallback still answers
        assert 0.0 <= prob_ground(q, db) <= 1.0

    def test_diagonal_self_join_unsafe(self):
        q = parse_ucq("S(y, z, z), S(z, y, z)", {"S": 3})
        assert not is_safe(q)

    @pytest.mark.parametrize(
        "text, arities, rule",
        [
            ("R(x), S(x, y), T(y)", {"R": 1, "S": 2, "T": 1}, None),
            # S(y, z, z), S(z, y, z) separates on z; this is what remains
            ("S(y, A, A), S(A, y, A)", {"S": 3}, None),
            ("S(y, z, z), S(z, y, z)", {"S": 3}, "sep"),
            ("R(x)", {"R": 1}, "atom"),
            ("R(x), T(y)", {"R": 1, "T": 1}, "and"),
            ("R(x) | T(y)", {"R": 1, "T": 1}, "or"),
            ("R(x), S(x, y)", {"R": 1, "S": 2}, "sep"),
        ],
    )
    def test_decompose_rule(self, text, arities, rule):
        plan = Plan()
        got = plan.expand(plan.node(minimize(parse_ucq(text, arities))))
        assert got[0] == rule
        if rule is None:
            assert got == (None, None)

    def test_profile(self, scientist_coauthor_query):
        profile = analyze_query(scientist_coauthor_query)
        assert profile.hierarchical_per_cq == (True,)
        assert profile.inversion_free
        assert profile.self_join_free
        assert profile.safe


class TestRandomizedEquivalence:
    def test_lifted_equals_ground(self):
        rng = random.Random(2024)
        for _ in range(120):
            _, db, q = rand_safe_instance(rng)
            assert prob_lifted(q, db) == pytest.approx(prob_ground(q, db), abs=1e-9)

    def test_forced_inclusion_exclusion_agrees(self):
        rng = random.Random(2025)
        for _ in range(120):
            _, db, q = rand_safe_instance(rng)
            normal = prob_lifted(q, db)
            forced = prob_lifted(q, db, force_inclusion_exclusion=True)
            assert normal == pytest.approx(forced, abs=1e-9)

    def test_monotone_in_tuple_probabilities(self):
        rng = random.Random(2026)
        for _ in range(120):
            schema, db, q = rand_safe_instance(rng)
            before = prob_lifted(q, db)
            pred = rng.choice(sorted(q.predicates()))
            args = tuple(rng.choice(schema.domain).name for _ in range(schema.predicates[pred]))
            bumped = min(1.0, db.prob(pred, args) + 0.3)
            atom = Atom(pred, tuple(Constant(a) for a in args))
            after = prob_lifted(q, db.with_overrides({atom: bumped}))
            assert after >= before - 1e-12

    def test_results_in_range_with_tiny_clamps(self):
        rng = random.Random(2027)
        worst_clamp = 0.0
        for _ in range(120):
            _, db, q = rand_safe_instance(rng)
            ev = Evaluator(db)
            p = ev.probability(q)
            assert 0.0 <= p.value <= 1.0
            worst_clamp = max(worst_clamp, ev.max_clamp)
        assert worst_clamp <= 1e-12


class TestComplementTracking:
    def test_log_complement_survives_extreme_products(self):
        n = 400
        schema = Schema({"R": 1}, tuple(Constant(f"C{i}") for i in range(n)))
        db = Database(schema, {"R": {(f"C{i}",): 0.9 for i in range(n)}})
        q = parse_ucq("R(x)", schema)
        detail = prob_lifted_detail(q, db)
        assert detail.value == 1.0  # saturated in double precision
        assert detail.complement_log10 == pytest.approx(n * math.log10(0.1), rel=1e-12)

    def test_ground_detail_complement(self, coauthor_db, scientist_coauthor_query):
        lifted = prob_lifted_detail(scientist_coauthor_query, coauthor_db)
        grounded = prob_ground_detail(scientist_coauthor_query, coauthor_db)
        assert lifted.complement_log10 == pytest.approx(grounded.complement_log10, abs=1e-9)
