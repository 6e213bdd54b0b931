"""Print owpdb's answers on a fixed set of seeded random instances.

Run it on two versions of the package and compare the outputs byte for
byte; a change that keeps every answer prints the same text::

    PYTHONPATH=src python3 tools/same_answers.py > answers.txt

Instances: 300 ``rand_safe_instance`` and 150 ``rand_mtp_instance``, all
drawn from ``random.Random(5)``.  Per instance it prints the ``repr`` of
``prob_lifted_detail`` (with and without forced inclusion-exclusion),
``interval_unconstrained``, ``analyze_query`` and, for the budgeted
instances, ``mtp_upper_exact``, ``greedy_upper`` and
``mtp_upper_bruteforce``.  Then ``analyze_query`` (which carries the safety
verdict) for 2000 unions of 1-3 ``rand_cq`` conjuncts over ``rand_schema``
schemas drawn from ``random.Random(7)``: self-joins and constants allowed,
safe and unsafe alike.  Last, 80 mid-size budgeted instances drawn from
``random.Random(13)``: 12-16 constants in shuffled domain order, a query
from ``GAP_QUERIES`` mentioning one or two of them (so a separator's other
constants fall into several gaps, and some queries reach the exact DP's
inclusion-exclusion families), budgets 1-4; each prints the closed answers
and ``mtp_upper_exact``.  Then 60 greedy runs drawn from
``random.Random(17)``: 6-10 constants, the constrained relation ``S``
stored only among three to five of them (so most candidates bring a
constant no stored ``S`` row has), a query from ``GREEDY_QUERIES`` (with
constants, a repeated variable, self-joins), budgets 1-3; each prints the
closed answer and ``greedy_trace``'s picks, gains and bounds.  Witnesses are
printed in the schema's canonical atom order, so the text does not depend
on ``PYTHONHASHSEED``.  An error is printed as its class name and message.
"""
from __future__ import annotations

import random

from owpdb import (
    Database,
    MTPConstraint,
    OpenPDB,
    Schema,
    OwpdbError,
    analyze_query,
    greedy_trace,
    greedy_upper,
    interval_unconstrained,
    mtp_upper_bruteforce,
    mtp_upper_exact,
)
from owpdb.engine import prob_lifted_detail
from owpdb.query import UCQ, Constant, parse_ucq
from owpdb.randgen import LAMBDA_GRID, PROB_GRID, rand_cq, rand_mtp_instance, rand_safe_instance, rand_schema

SAFE_INSTANCES = 300
MTP_INSTANCES = 150
SAFETY_QUERIES = 2000
GAP_INSTANCES = 80
GAP_ARITIES = {"R": 1, "U": 1, "S": 2, "T": 2}
# Safe, inversion-free queries over GAP_ARITIES; {a} and {b} are domain
# constants.  The self-join ones marked IE reach the DP's
# inclusion-exclusion families.
GAP_QUERIES = (
    "R(x), S(x, {a})",
    "R(x), S(x, y), T(x, {a})",
    "S(x, y), S({a}, y)",
    "S(x, {a}) | S(x, {b})",
    "R(x), U(y) | S({a}, z)",
    "R(x), U(y) | S(z, {a})",
    "R(x), T(y, {a}) | S(z, z)",
    "R(x), S(y, {a}) | R(z), S(z, {b})",
    "S(x, {a}), R(y) | S(z, {a}), T(z, {b})",
    "R(x), S(x, y) | T(x, y), S(x, {a})",  # IE
    "R(x), S(x, {a}) | U(y), S(y, {b}) | S(z, {a}), S(z, {b})",  # IE
)

GREEDY_INSTANCES = 60
GREEDY_QUERIES = GAP_QUERIES + (
    "R(x), S(x, y)",
    "R(x), S(x, x)",
    "S(x, y), S(x, {a}), R(x)",
    "S(x, y) | S({a}, z), R(z)",
)


def show_bound(result, schema) -> str:
    witness = None
    if result.witness is not None:
        witness = [str(a) for a in result.witness.sorted_atoms(schema)]
    return repr((
        result.kind,
        result.value,
        result.interval,
        result.complement_log10,
        result.warnings,
        witness,
    ))


def answer(fn, show=repr) -> str:
    try:
        return show(fn())
    except OwpdbError as err:
        return f"{type(err).__name__}: {err}"


def closed_answers(g: OpenPDB, q) -> list[str]:
    schema = g.schema
    return [
        answer(lambda: prob_lifted_detail(q, g.pdb)),
        answer(lambda: prob_lifted_detail(q, g.pdb, force_inclusion_exclusion=True)),
        answer(lambda: interval_unconstrained(g, q), lambda r: show_bound(r, schema)),
        answer(lambda: analyze_query(q, schema)),
    ]


def gap_instance(rng: random.Random):
    """A 12-16 constant open database, a query mentioning one or two of
    its constants, and a mean constraint on one of the query's relations."""
    names = [f"K{i:02d}" for i in range(rng.randint(12, 16))]
    rng.shuffle(names)
    schema = Schema(GAP_ARITIES, tuple(Constant(n) for n in names))
    rels = {"R": {}, "U": {}, "S": {}, "T": {}}
    for pred, arity in GAP_ARITIES.items():
        density = 0.5 if arity == 1 else 0.12
        for args in ((a,) for a in names) if arity == 1 else ((a, b) for a in names for b in names):
            if rng.random() < density:
                rels[pred][args] = rng.choice(PROB_GRID)
    db = Database(schema, rels)
    a, b = rng.sample(names, 2)
    q = parse_ucq(rng.choice(GAP_QUERIES).format(a=a, b=b), schema)
    g = OpenPDB(db, rng.choice(LAMBDA_GRID))
    rel = rng.choice(sorted(q.predicates()))
    n_total = len(names) ** GAP_ARITIES[rel]
    mean = min(1.0, (db.relation_mass(rel) + (rng.randint(1, 4) + 0.5) * g.lam) / n_total)
    return g, MTPConstraint(rel, mean), q


def greedy_instance(rng: random.Random):
    """6-10 constants with ``S`` stored among only a few of them, a query
    from ``GREEDY_QUERIES``, and a budget of 1-3."""
    names = [f"K{i:02d}" for i in range(rng.randint(6, 10))]
    rng.shuffle(names)
    schema = Schema(GAP_ARITIES, tuple(Constant(n) for n in names))
    stored = names[: rng.randint(3, 5)]
    rels = {
        "R": {(a,): rng.choice(PROB_GRID) for a in names if rng.random() < 0.6},
        "U": {(a,): rng.choice(PROB_GRID) for a in names if rng.random() < 0.6},
        "S": {(a, b): rng.choice(PROB_GRID) for a in stored for b in stored if rng.random() < 0.4},
        "T": {(a, b): rng.choice(PROB_GRID) for a in names for b in names if rng.random() < 0.2},
    }
    a, b = rng.sample(names, 2)
    q = parse_ucq(rng.choice(GREEDY_QUERIES).format(a=a, b=b), schema)
    return OpenPDB(Database(schema, rels), rng.choice(LAMBDA_GRID)), q, rng.randint(1, 3)


def show_trace(trace) -> str:
    return repr((
        [(str(atom), gain) for atom, gain in trace.picks],
        trace.p_closed,
        trace.p_greedy,
        trace.lower,
        trace.upper,
        trace.upper_clamped,
        trace.guarantee,
    ))


def main() -> None:
    rng = random.Random(5)
    for i in range(SAFE_INSTANCES):
        schema, db, q = rand_safe_instance(rng)
        print(f"safe {i} {q}")
        for line in closed_answers(OpenPDB(db, 0.5), q):
            print("  " + line)
    for i in range(MTP_INSTANCES):
        g, c, q, budget = rand_mtp_instance(rng)
        print(f"mtp {i} {q} {c} lam={g.lam} budget={budget}")
        lines = closed_answers(g, q)
        for bound in (mtp_upper_exact, greedy_upper, mtp_upper_bruteforce):
            lines.append(answer(lambda: bound(g, c, q), lambda r: show_bound(r, g.schema)))
        for line in lines:
            print("  " + line)
    rng = random.Random(7)
    for i in range(SAFETY_QUERIES):
        schema = rand_schema(rng)
        q = UCQ([rand_cq(rng, schema) for _ in range(rng.randint(1, 3))])
        print(f"safety {i} {q}")
        print("  " + answer(lambda: analyze_query(q, schema)))
    rng = random.Random(13)
    for i in range(GAP_INSTANCES):
        g, c, q = gap_instance(rng)
        print(f"gap {i} {q} {c} lam={g.lam} domain={' '.join(str(k) for k in g.schema.domain)}")
        lines = closed_answers(g, q)
        lines.append(answer(lambda: mtp_upper_exact(g, c, q), lambda r: show_bound(r, g.schema)))
        for line in lines:
            print("  " + line)
    rng = random.Random(17)
    for i in range(GREEDY_INSTANCES):
        g, q, budget = greedy_instance(rng)
        c = MTPConstraint("S", 1.0)
        print(f"greedy {i} {q} lam={g.lam} budget={budget} domain={' '.join(str(k) for k in g.schema.domain)}")
        print("  " + answer(lambda: prob_lifted_detail(q, g.pdb)))
        print("  " + answer(lambda: greedy_trace(g, c, q, budget=budget), show_trace))


if __name__ == "__main__":
    main()
