"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its stated tolerance baked in."""
import contextlib
import math
import random
import time

from owpdb.database import Database, Schema
from owpdb.engine import prob_ground, prob_lifted
from owpdb.exactdp import mtp_upper_exact
from owpdb.greedy import greedy_trace, greedy_upper, set_query_prob
from owpdb.openworld import (
    MTPConstraint,
    OpenPDB,
    interval_unconstrained,
    open_tuples,
)
from owpdb.oracle import (
    mtp_upper_bruteforce,
    rand_vertex_instance,
    vertex_attainment_check,
    verify_maxmatch,
)
from owpdb.query import Constant, parse_ucq
from owpdb.randgen import rand_mtp_instance, rand_safe_instance

from helpers import rand_3dm


@contextlib.contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def test_criterion_1_lifted_ground_equivalence():
    with criterion(1, "lifted vs ground on 500 seeded safe queries, <= 1e-9, under 60 s"):
        rng = random.Random(100_001)
        started = time.monotonic()
        for i in range(500):
            _, db, q = rand_safe_instance(rng)
            pl = prob_lifted(q, db)
            pg = prob_ground(q, db)
            assert abs(pl - pg) <= 1e-9, f"instance {i}: {q} lifted={pl!r} ground={pg!r}"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_2_golden_values(coauthor_schema, coauthor_db, scientist_coauthor_query):
    with criterion(2, "worked-example goldens: lookup 0.8 exact, closed world 0.94456 +- 1e-9"):
        lookup = prob_lifted(parse_ucq("S(Einstein)", coauthor_schema), coauthor_db)
        assert lookup == 0.8
        closed = prob_lifted(scientist_coauthor_query, coauthor_db)
        assert abs(closed - 0.94456) <= 1e-9


def test_criterion_3_exact_dp_optimality():
    with criterion(3, "exact DP equals brute force on 500 inversion-free instances, <= 1e-9"):
        rng = random.Random(100_003)
        for i in range(500):
            g, c, q, _ = rand_mtp_instance(rng, inversion_free=True)
            exact = mtp_upper_exact(g, c, q)
            brute = mtp_upper_bruteforce(g, c, q)
            assert abs(exact.value - brute.value) <= 1e-9, (
                f"instance {i}: {q} rel={c.relation} dp={exact.value!r} brute={brute.value!r}"
            )
            replay = set_query_prob(g, q, exact.witness.added)
            assert abs(replay - exact.value) <= 1e-12, f"instance {i}: witness replay drifts"


def test_criterion_4_submodularity():
    with criterion(4, "set-function submodularity on 1000 quadruples, slack 1e-12"):
        rng = random.Random(100_004)
        done = 0
        while done < 1000:
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
            assert gain_small >= gain_large - 1e-12, (
                f"quadruple {done}: {q} rel={c.relation} "
                f"gain_small={gain_small!r} gain_large={gain_large!r}"
            )
            done += 1


def test_criterion_5_greedy_guarantee():
    with criterion(5, "greedy brackets the optimum on 300 instances, guarantee slack 1e-9"):
        rng = random.Random(100_005)
        for i in range(300):
            g, c, q, _ = rand_mtp_instance(rng, self_join_free=True)
            trace = greedy_trace(g, c, q)
            opt = mtp_upper_bruteforce(g, c, q).value
            assert trace.lower - 1e-9 <= opt <= trace.upper + 1e-9, (
                f"instance {i}: opt {opt!r} outside [{trace.lower!r}, {trace.upper!r}]"
            )
            floor = (1 - 1 / math.e) * (opt - trace.p_closed) - 1e-9
            assert trace.p_greedy - trace.p_closed >= floor, (
                f"instance {i}: greedy gain below the guarantee"
            )


def test_criterion_6_matching_demonstration():
    with criterion(6, "matching reduction on 50 3x3x3 instances; single-edge value 0.9728 +- 1e-9"):
        from owpdb.oracle import ThreeDMInstance, build_matching_reduction

        single = ThreeDMInstance(
            (Constant("X1"),),
            (Constant("Y1"),),
            (Constant("Z1"),),
            frozenset({(Constant("X1"), Constant("Y1"), Constant("Z1"))}),
            1,
        )
        g, c, q = build_matching_reduction(single, 0.8)
        value = mtp_upper_bruteforce(g, c, q).value
        assert abs(value - 0.9728) <= 1e-9

        rng = random.Random(100_006)
        for i in range(50):
            report = verify_maxmatch(rand_3dm(rng, side=3))
            assert report.ok, f"instance {i}:\n{report.render()}"


def test_criterion_7_qualitative_bound_separation():
    """Synthetic configuration: 500 constants; unary relations LiLA, S, LiSpr
    with disjoint supports (50, 20, and 1 rows at probability 0.9); completion
    probability 0.8; mean bounds 50%, 5%, 0.5%."""
    with criterion(
        7, "closed 0 < constrained < open; open complement < 1e-100; gap >= 10 orders"
    ):
        n = 500
        domain = tuple(Constant(f"P{i:03d}") for i in range(n))
        schema = Schema({"LiLA": 1, "S": 1, "LiSpr": 1}, domain)
        db = Database(
            schema,
            {
                "LiLA": {(f"P{i:03d}",): 0.9 for i in range(50)},
                "S": {(f"P{i:03d}",): 0.9 for i in range(50, 70)},
                "LiSpr": {(f"P{i:03d}",): 0.9 for i in range(70, 71)},
            },
        )
        g = OpenPDB(db, 0.8)
        cases = [
            ("LiLA(x), S(x)", MTPConstraint("LiLA", 0.5)),
            ("LiLA(x), S(x)", MTPConstraint("S", 0.05)),
            ("LiSpr(x), S(x)", MTPConstraint("LiSpr", 0.005)),
        ]
        for text, constraint in cases:
            q = parse_ucq(text, schema)
            closed = prob_lifted(q, db)
            assert closed == 0.0, text
            open_bound = interval_unconstrained(g, q)
            assert open_bound.complement_log10 < -100.0, (
                f"{text}: open-world complement 1e{open_bound.complement_log10:.1f}"
            )
            constrained = greedy_upper(g, constraint, q)
            assert constrained.value > 0.0, text
            cow_log10 = constrained.complement_log10
            assert cow_log10 is not None
            # constrained < open in complement space, at least 10 orders apart
            assert cow_log10 - open_bound.complement_log10 >= 10.0, (
                f"{text}: complements 1e{cow_log10:.1f} vs 1e{open_bound.complement_log10:.1f}"
            )


def test_criterion_8_vertex_attainment():
    with criterion(8, "fractional grid never beats on-off completions on 100 instances"):
        rng = random.Random(100_008)
        done = 0
        while done < 100:
            inst = rand_vertex_instance(rng)
            if inst is None:
                continue
            g, c, q = inst
            ok, detail = vertex_attainment_check(g, c, q)
            assert ok, f"instance {done}: {q} rel={c.relation} {detail}"
            done += 1
