import dataclasses
import random

import pytest

from owpdb import oracle
from owpdb.database import Database, Schema
from owpdb.engine import prob_ground
from owpdb.errors import CapExceeded, SchemaError
from owpdb.openworld import Budget, MTPConstraint, OpenPDB, apply_completion, budget_from_mtp
from owpdb.oracle import (
    ThreeDMInstance,
    build_matching_reduction,
    matching_reduction_query,
    max_matching_size,
    mtp_upper_bruteforce,
    property_suites,
    verify_maxmatch,
)
from owpdb.query import Atom, Constant, parse_ucq

from helpers import rand_3dm

# Frozen by hand: with one edge and weight 0.8 the query is "at least two of
# four independent 0.8 events": 1 - 0.2**4 - 4 * 0.8 * 0.2**3.
SINGLE_EDGE_VALUE = 0.9728


def single_edge_instance():
    return ThreeDMInstance(
        (Constant("X1"),),
        (Constant("Y1"),),
        (Constant("Z1"),),
        frozenset({(Constant("X1"), Constant("Y1"), Constant("Z1"))}),
        1,
    )


class TestBruteforce:
    def test_zero_budget_closed_world(self, coauthor_db, scientist_coauthor_query):
        g = OpenPDB(coauthor_db, 0.3)
        res = mtp_upper_bruteforce(g, MTPConstraint("CoA", 0.4), scientist_coauthor_query, budget=0)
        assert res.value == pytest.approx(0.94456, abs=1e-9)
        assert res.witness.added == frozenset()

    def test_two_tuples_symmetric(self):
        schema = Schema({"R": 1}, (Constant("A"), Constant("B")))
        g = OpenPDB(Database(schema), 0.5)
        res = mtp_upper_bruteforce(g, MTPConstraint("R", 0.9), parse_ucq("R(x)", schema), budget=2)
        assert res.value == pytest.approx(0.75)
        assert sorted(str(a) for a in res.witness.added) == ["R(A)", "R(B)"]

    def test_subset_cap_guard(self):
        schema = Schema({"R": 1}, tuple(Constant(f"C{i}") for i in range(20)))
        g = OpenPDB(Database(schema), 0.5)
        with pytest.raises(CapExceeded):
            mtp_upper_bruteforce(
                g, MTPConstraint("R", 0.9), parse_ucq("R(x)", schema), budget=10, cap_subsets=100
            )

    def test_refusal_builds_no_candidate(self, monkeypatch):
        # the subsets are counted from the open tuples, never listed first
        names = [f"C{i}" for i in range(30)]
        schema = Schema({"S": 1, "CoA": 2}, tuple(map(Constant, names)))
        db = Database(schema, {"S": {("C0",): 0.5}, "CoA": {(a, b): 0.3 for a, b in zip(names, names[1:])}})
        q = parse_ucq("S(x), CoA(x, y)", schema)
        built = []
        real = Atom.__init__
        monkeypatch.setattr(Atom, "__init__", lambda self, pred, args: built.append(pred) or real(self, pred, args))
        with pytest.raises(CapExceeded, match="completion subsets exceed the cap 1000"):
            mtp_upper_bruteforce(OpenPDB(db, 0.5), MTPConstraint("CoA", 0.9), q, budget=2, cap_subsets=1000)
        assert "CoA" not in built

    def test_witness_replay_reproduces_value(self):
        rng = random.Random(906)
        for _ in range(30):
            from owpdb.randgen import rand_mtp_instance
            from owpdb.greedy import set_query_prob

            g, c, q, _ = rand_mtp_instance(rng)
            res = mtp_upper_bruteforce(g, c, q)
            replay = set_query_prob(g, q, res.witness.added)
            assert replay == pytest.approx(res.value, abs=1e-12)

    def test_unsafe_query_falls_back_to_ground(self):
        arities = {"R": 1, "S": 2, "T": 1}
        schema = Schema(arities, (Constant("A"), Constant("B")))
        db = Database(schema, {"R": {("A",): 0.5}, "T": {("B",): 0.5}})
        g = OpenPDB(db, 0.5)
        q = parse_ucq("R(x), S(x, y), T(y)", arities)
        res = mtp_upper_bruteforce(g, MTPConstraint("S", 0.4), q)
        assert "unsafe-query-ground-evaluation" in res.warnings
        # replaying the witness against the ground oracle reproduces the value
        replay = prob_ground(q, apply_completion(g, res.witness.added))
        assert replay == pytest.approx(res.value, abs=1e-12)


def nodes(side, n):
    return tuple(Constant(f"{side}{i + 1}") for i in range(n))


class TestThreeDMInstance:
    XS, YS, ZS = nodes("X", 3), nodes("Y", 2), nodes("Z", 3)
    EDGES = frozenset({(XS[0], YS[0], ZS[0]), (XS[1], YS[1], ZS[1]), (XS[2], YS[0], ZS[2])})

    @pytest.mark.parametrize("xs, ys, edges, k, message", [
        (XS, XS[:2], EDGES, 1, "node sets must be disjoint"),
        (XS[:2], YS, EDGES, 1, "hyperedge (X3, Y1, Z3) leaves the node sets"),
        (XS, YS, EDGES, 4, "k must be between 0 and the number of hyperedges"),
        (XS, YS, EDGES, -1, "k must be between 0 and the number of hyperedges"),
        # three edges, but no 3-matching can exist with two Y nodes
        (XS, YS, EDGES, 3, "k must be at most the size of the smallest node set"),
    ], ids=["overlap", "edge-outside", "k-above-edges", "negative-k", "k-above-a-side"])
    def test_refuses(self, xs, ys, edges, k, message):
        with pytest.raises(SchemaError) as err:
            ThreeDMInstance(xs, ys, self.ZS, edges, k)
        assert str(err.value) == message

    def test_k_up_to_the_smallest_side_is_accepted(self):
        assert ThreeDMInstance(self.XS, self.YS, self.ZS, self.EDGES, 2).k == 2


class TestMatchingReduction:
    def test_gadget_query_is_safe_but_inverted(self):
        from owpdb.engine import is_safe
        from owpdb.query import is_inversion_free

        q = matching_reduction_query()
        assert is_safe(q)
        assert not is_inversion_free(q)

    def test_single_edge_value(self):
        g, c, q = build_matching_reduction(single_edge_instance(), 0.8)
        assert budget_from_mtp(g, c).max_added == 1
        res = mtp_upper_bruteforce(g, c, q)
        assert res.value == pytest.approx(SINGLE_EDGE_VALUE, abs=1e-9)
        assert [str(a) for a in res.witness.sorted_atoms(g.schema)] == ["R(X1, Y1, Z1)"]

    def test_zero_budget_has_no_edge_contribution(self):
        inst = ThreeDMInstance(
            single_edge_instance().x_nodes,
            single_edge_instance().y_nodes,
            single_edge_instance().z_nodes,
            single_edge_instance().hyperedges,
            0,
        )
        g, c, q = build_matching_reduction(inst, 0.8)
        res = mtp_upper_bruteforce(g, c, q)
        # only the pairwise marked-node disjuncts can fire: at least 2 of 3
        p = 0.8
        expected = 3 * p * p * (1 - p) + p**3
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_two_disjoint_edges_both_picked(self):
        xs = (Constant("X1"), Constant("X2"))
        ys = (Constant("Y1"), Constant("Y2"))
        zs = (Constant("Z1"), Constant("Z2"))
        edges = frozenset(
            {(xs[0], ys[0], zs[0]), (xs[1], ys[1], zs[1])}
        )
        inst = ThreeDMInstance(xs, ys, zs, edges, 2)
        g, c, q = build_matching_reduction(inst, 0.8)
        res = mtp_upper_bruteforce(g, c, q)
        assert len(res.witness.added) == 2
        single = mtp_upper_bruteforce(g, c, q, budget=1).value
        assert res.value > single + 1e-9

    def test_max_matching_size(self):
        xs = (Constant("X1"), Constant("X2"))
        ys = (Constant("Y1"), Constant("Y2"))
        zs = (Constant("Z1"), Constant("Z2"))
        edges = frozenset(
            {
                (xs[0], ys[0], zs[0]),
                (xs[0], ys[1], zs[1]),
                (xs[1], ys[1], zs[1]),
            }
        )
        assert max_matching_size(ThreeDMInstance(xs, ys, zs, edges, 1)) == 2


class TestVerifyMaxmatch:
    def test_perfect_matching_instance(self):
        xs = tuple(Constant(f"X{i}") for i in "123")
        ys = tuple(Constant(f"Y{i}") for i in "123")
        zs = tuple(Constant(f"Z{i}") for i in "123")
        edges = frozenset({(xs[i], ys[i], zs[i]) for i in range(3)})
        report = verify_maxmatch(ThreeDMInstance(xs, ys, zs, edges, 3))
        assert report.has_matching
        assert report.optimal_choices_are_matchings
        assert report.swap_comparison_ok
        assert report.ok

    def test_no_matching_of_requested_size(self):
        xs = tuple(Constant(f"X{i}") for i in "12")
        ys = tuple(Constant(f"Y{i}") for i in "12")
        zs = tuple(Constant(f"Z{i}") for i in "12")
        # both edges share the same x node: max matching is 1, ask for 2
        edges = frozenset({(xs[0], ys[0], zs[0]), (xs[0], ys[1], zs[1])})
        report = verify_maxmatch(ThreeDMInstance(xs, ys, zs, edges, 2))
        assert not report.has_matching
        assert report.optimum_drops_without_matching
        assert report.ok

    def test_random_instances(self):
        rng = random.Random(404)
        for _ in range(6):
            report = verify_maxmatch(rand_3dm(rng))
            assert report.ok, report.render()


class TestPropertySuites:
    def test_fixed_seed_reproduces_report(self):
        a = property_suites(17, 4)
        b = property_suites(17, 4)
        assert a.render() == b.render()

    def test_zero_trials_empty_report(self):
        report = property_suites(17, 0)
        assert report.suites == ()
        assert report.render() == ""

    def test_default_run_passes(self):
        report = property_suites(5, 6)
        assert report.passed, report.render()


def _shifted(real, delta, when=lambda *args, **kwargs: True):
    return lambda *args, **kwargs: real(*args, **kwargs) + delta * when(*args, **kwargs)


def _valued(real, value):
    return lambda *args, **kwargs: dataclasses.replace(real(*args, **kwargs), value=value)


# (suite, name it calls in owpdb.oracle, planted fault of the real function, text of its failure line)
PLANTS = [
    ("lifted_ground_equivalence", "prob_ground", lambda real: _shifted(real, 0.5), "ground="),
    ("monotonicity", "prob_lifted",
     lambda real: _shifted(real, -1.0, lambda q, db, **kw: type(db) is not Database), "after="),
    ("inclusion_exclusion_consistency", "prob_lifted",
     lambda real: _shifted(real, 0.5, lambda q, db, force_inclusion_exclusion=False: force_inclusion_exclusion),
     "forced="),
    ("submodularity", "set_query_prob", lambda real: lambda g, q, added: len(added) ** 3, "gainY="),
    ("vertex_attainment", "vertex_attainment_check", lambda real: lambda *args, **kw: (False, "planted"), "planted"),
    ("dp_vs_bruteforce", "mtp_upper_exact", lambda real: _valued(real, -1.0), "dp=-1.0"),
    ("dp_vs_bruteforce", "set_query_prob", lambda real: _shifted(real, 1.0), "witness-replay="),
    ("greedy_bounds", "greedy_trace",
     lambda real: lambda *args: dataclasses.replace(real(*args), picks=((None, 0.1), (None, 0.2))),
     "gains not non-increasing"),
    ("greedy_bounds", "mtp_upper_bruteforce", lambda real: _valued(real, 2.0), "opt=2.0 outside"),
    ("interval_ordering", "mtp_upper_bruteforce", lambda real: _valued(real, 2.0), "budgeted=2.0 outside"),
    ("budget_monotonicity", "budget_from_mtp",
     lambda real: lambda g, c, **kw: Budget(c.relation, round(100 * (1.0 - c.mean_bound))), "budget drops"),
]


@pytest.mark.parametrize("suite, name, plant, text", PLANTS, ids=[f"{s}-{n}" for s, n, _, _ in PLANTS])
def test_every_suite_reports_a_planted_fault(monkeypatch, suite, name, plant, text):
    monkeypatch.setattr(oracle, name, plant(getattr(oracle, name)))
    report = property_suites(7, 4)
    (failures,) = [s.failures for s in report.suites if s.name == suite]
    assert 0 < len(failures) <= 3
    assert failures[0].startswith("trial=0 ") and text in failures[0], failures
    lines = report.render().splitlines()
    at = lines.index(f"suite={suite} trials=4 failures={len(failures)}")
    assert lines[at + 1:at + 1 + len(failures)] == [f"  {f}" for f in failures]


def test_every_suite_has_a_planted_fault():
    assert sorted(row[0] for row in oracle._SUITES) == sorted({suite for suite, _, _, _ in PLANTS})


def test_a_draw_that_raises_draws_again(monkeypatch):
    # rand_safe_ucq raises RuntimeError when it cannot generate a safe query
    (name, draw, check), *rest = oracle._SUITES
    calls = []

    def flaky(rng):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("could not generate a safe query")
        return draw(rng)

    monkeypatch.setattr(oracle, "_SUITES", ((name, flaky, check), *rest))
    report = property_suites(7, 4)
    assert report.suites[0] == oracle.SuiteResult(name=name, trials=4, failures=())
    assert len(calls) == 5
