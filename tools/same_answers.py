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
closed answer and ``greedy_trace``'s picks, gains and bounds.  Then 10
large exact runs drawn from ``random.Random(19)``: ``LARGE_QUERIES`` over
60-120 constants with ``CoA`` at density 0.1, and ``S(x), CoA(x,y)`` over
250 constants with 2.5n ``CoA`` rows, whose value saturates to 1.0, each
printing ``mtp_upper_exact`` at budget 8.  Last, ``prob_ground_detail`` for 40 chains ``R(x), S(x, y),
T(y)`` drawn from ``random.Random(23)`` and for the unsafe ones of 400
unions of 1-3 ``rand_cq`` conjuncts from ``random.Random(29)``.  Witnesses
are printed in the schema's canonical atom order, so the text does not
depend on ``PYTHONHASHSEED``.  An error is printed as its class name and
message.  Appended last, greedy at size: ``LARGE_QUERIES`` over 24-48
constants drawn from ``random.Random(31)`` as for the large exact runs,
budgets 2-4, then ``S(x), CoA(x,y)`` on a scientist instance from
``random.Random(37)`` at 40 constants, whose value is about 1 - 1e-10, and
at 80, whose value rounds to 1.0, both at budget 3; each prints the closed
answer and ``greedy_trace``.  Appended after that, from disk: 40
``rand_safe_instance`` databases drawn from ``random.Random(41)``, each
written by ``save_database`` with a ``constraints.txt`` (a lambda and a mean
bound on one of the query's relations) into a temporary directory, and the
``cli.run`` JSON of ``analyze``, ``eval`` and ``interval`` on each, so the
loader and its row checks are pinned along with the answers (the directory
prints as ``<dir>``).  Appended after that, the report of
``property_suites(7, 10)``, the ``--mode verify`` suites.  Then the
``--mode demo3dm`` reports: ``verify_maxmatch`` on 40 matching instances
drawn from ``random.Random(43)``, with 2-3 nodes per side, 3-8 hyperedges
and a target size of 1-3, or the refusal of a size above a side.  Last,
greedy on the screen's shapes (``GREEDY_SHAPES``): two instances per query
drawn from ``random.Random(47)``, 30-40 constants for ``CoA`` and 12-16 for
the ternary ``M``, in shuffled domain order with rows on a third of them,
budgets 2-4, where a round's groups of open tuples that read the same
screen keys are far fewer than its open tuples; each prints the closed
answer and ``greedy_trace``.

Each unindented line opens a block named by its first word (``safe``,
``mtp``, ``safety``, ``gap``, ``greedy``, ``large``, ``chain``,
``ground``, ``sized``, ``disk``, ``verify``, ``matching``,
``greedy-shapes``) and the indented lines under
it belong to it.  ``tools/same_answers.sha256`` holds one SHA-256 per
block of the output under ``PYTHONHASHSEED=0``, and
``tests/test_answers.py`` checks them.
"""
from __future__ import annotations

import random
import tempfile
from pathlib import Path

from owpdb import (
    Database,
    MTPConstraint,
    OpenPDB,
    Schema,
    OwpdbError,
    ThreeDMInstance,
    analyze_query,
    greedy_trace,
    greedy_upper,
    interval_unconstrained,
    mtp_upper_bruteforce,
    mtp_upper_exact,
    property_suites,
    verify_maxmatch,
)
from owpdb.cli import RunConfig, run
from owpdb.dataio import save_database
from owpdb.engine import is_safe, prob_ground_detail, prob_lifted_detail
from owpdb.query import UCQ, Constant, parse_ucq
from owpdb.randgen import (
    LAMBDA_GRID,
    PROB_GRID,
    rand_cq,
    rand_database,
    rand_mtp_instance,
    rand_safe_instance,
    rand_schema,
)

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

LARGE_ARITIES = {"S": 1, "CoA": 2, "T": 1}
LARGE_QUERIES = ("S(x), CoA(x,y)", "CoA(x,y), T(y)", "S(x), CoA(x,y), T(x)")
LARGE_SIZES = (60, 90, 120)
LARGE_BUDGET = 8
SIZED_SIZES = (24, 36, 48)
CHAINS = 40
GROUND_UNIONS = 400
DISK_INSTANCES = 40
VERIFY_SEED = 7
VERIFY_TRIALS = 10
MATCHING_INSTANCES = 40
SHAPES_ARITIES = {"S": 1, "T": 1, "CoA": 2, "M": 3}
# Greedy shapes and the constrained relation: the screen of each reads one
# position ({a} and {b} are domain constants), two or all of them.
GREEDY_SHAPES = (
    ("S(x), CoA(x, y)", "CoA"),
    ("S(x), CoA(x, {a})", "CoA"),
    ("S(x), CoA(x, x)", "CoA"),
    ("S(x), T(y), CoA({a}, {b})", "CoA"),
    ("CoA(x, y), T(y)", "CoA"),
    ("S(x), M(x, y, z)", "M"),
    ("M(x, y, z), T(z)", "M"),
    ("S(x), M(x, y, y)", "M"),
    ("M(x, {a}, z), T(z)", "M"),
)
SHAPES_PER_QUERY = 2


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
        answer(lambda: analyze_query(q)),
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


def large_instance(rng: random.Random, n: int) -> OpenPDB:
    """``n`` constants, ``CoA`` at density 0.1 and ``S`` and ``T`` on a fifth
    of them, with probabilities small enough that the values stay below 1."""
    names = [f"c{i}" for i in range(n)]
    small = (0.01, 0.02, 0.05, 0.1)
    rels = {
        "S": {(a,): rng.choice(small) for a in names if rng.random() < 0.2},
        "CoA": {(a, b): rng.choice(small) for a in names for b in names if rng.random() < 0.1},
        "T": {(a,): rng.choice(small) for a in names if rng.random() < 0.2},
    }
    return OpenPDB(Database(Schema(LARGE_ARITIES, tuple(map(Constant, names))), rels), rng.choice(LAMBDA_GRID))


def scientist_instance(rng: random.Random, n: int) -> OpenPDB:
    """``S`` on all ``n`` constants and ``CoA`` on 2.5n random pairs: the
    value rounds to 1.0 within a few added tuples."""
    names = [f"c{i}" for i in range(n)]
    coa: dict[tuple[str, str], float] = {}
    while len(coa) < 5 * n // 2:
        coa[(rng.choice(names), rng.choice(names))] = rng.choice([0.1, 0.3, 0.7])
    rels = {"S": {(a,): rng.choice([0.2, 0.5, 0.9]) for a in names}, "CoA": coa, "T": {}}
    return OpenPDB(Database(Schema(LARGE_ARITIES, tuple(map(Constant, names))), rels), 0.5)


def chain_instance(rng: random.Random) -> Database:
    """``R`` and ``T`` on 3-6 constants, ``S`` on n-2n of their pairs."""
    names = [f"C{i}" for i in range(rng.randint(3, 6))]
    pairs = rng.sample([(a, b) for a in names for b in names], rng.randint(len(names), 2 * len(names)))
    return Database(Schema({"R": 1, "S": 2, "T": 1}, tuple(map(Constant, names))), {
        "R": {(a,): rng.choice(PROB_GRID[1:]) for a in names},
        "S": {pair: rng.choice(PROB_GRID[1:]) for pair in pairs},
        "T": {(a,): rng.choice(PROB_GRID[1:]) for a in names},
    })


def matching_fields(rng: random.Random) -> tuple:
    """The fields of a ``ThreeDMInstance``: 2-3 nodes on each side, 3-8 of
    their triples as hyperedges and a target matching size of 1-3, which
    the instance refuses when it exceeds a side."""
    xs, ys, zs = (tuple(Constant(f"{side}{i + 1}") for i in range(rng.randint(2, 3))) for side in "XYZ")
    triples = [(x, y, z) for x in xs for y in ys for z in zs]
    edges = rng.sample(triples, rng.randint(3, 8))
    return xs, ys, zs, frozenset(edges), rng.randint(1, 3)


def shapes_instance(rng: random.Random, arity: int):
    """Constants in shuffled domain order, 30-40 for a binary constrained
    relation and 12-16 for a ternary one, with ``S``, ``T``, ``CoA`` and
    ``M`` stored on about a third of them (some rows at 0), so that most
    groups of open tuples hold many; a lambda and a budget of 2-4."""
    names = [f"K{i:02d}" for i in range(rng.randint(30, 40) if arity == 2 else rng.randint(12, 16))]
    rng.shuffle(names)
    stored = names[: len(names) // 3]
    grid = (0.0,) + PROB_GRID[1:]
    rels = {
        "S": {(a,): rng.choice(grid) for a in names if rng.random() < 0.5},
        "T": {(a,): rng.choice(grid) for a in names if rng.random() < 0.5},
        "CoA": {(a, b): rng.choice(grid) for a in stored for b in names if rng.random() < 0.2},
        "M": {(a, b, c): rng.choice(grid) for a in stored for b in stored for c in names if rng.random() < 0.1},
    }
    g = OpenPDB(Database(Schema(SHAPES_ARITIES, tuple(map(Constant, names))), rels), rng.choice(LAMBDA_GRID))
    return g, rng.sample(names, 2), rng.randint(2, 4)


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
        print("  " + answer(lambda: analyze_query(q)))
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
    rng = random.Random(19)
    large = [(text, large_instance, n) for text in LARGE_QUERIES for n in LARGE_SIZES]
    for i, (text, make, n) in enumerate(large + [(LARGE_QUERIES[0], scientist_instance, 250)]):
        g = make(rng, n)
        q = parse_ucq(text, g.schema)
        c = MTPConstraint("CoA", 1.0)
        print(f"large {i} {q} n={n} rows={g.pdb.relation_size('CoA')} lam={g.lam} budget={LARGE_BUDGET}")
        print("  " + answer(lambda: mtp_upper_exact(g, c, q, budget=LARGE_BUDGET), lambda r: show_bound(r, g.schema)))
    rng = random.Random(23)
    for i in range(CHAINS):
        db = chain_instance(rng)
        q = parse_ucq("R(x), S(x, y), T(y)" if i % 2 == 0 else "R(x), S(x, y), T(y) | S(x, x)", db.schema)
        print(f"chain {i} {q} domain={' '.join(str(k) for k in db.schema.domain)} S={sorted(db.entries('S'))}")
        print("  " + answer(lambda: prob_ground_detail(q, db)))
    rng = random.Random(29)
    for i in range(GROUND_UNIONS):
        schema = rand_schema(rng)
        db = rand_database(rng, schema)
        q = UCQ([rand_cq(rng, schema) for _ in range(rng.randint(1, 3))])
        if answer(lambda: is_safe(q)) != "True":
            print(f"ground {i} {q}")
            print("  " + answer(lambda: prob_ground_detail(q, db)))
    rng = random.Random(31)
    sized = [(text, large_instance(rng, n), rng.randint(2, 4)) for text in LARGE_QUERIES for n in SIZED_SIZES]
    sized += [(LARGE_QUERIES[0], scientist_instance(random.Random(37), n), 3) for n in (40, 80)]
    for i, (text, g, budget) in enumerate(sized):
        q = parse_ucq(text, g.schema)
        c = MTPConstraint("CoA", 1.0)
        print(f"sized {i} {q} n={len(g.schema.domain)} rows={g.pdb.relation_size('CoA')} lam={g.lam} budget={budget}")
        print("  " + answer(lambda: prob_lifted_detail(q, g.pdb)))
        print("  " + answer(lambda: greedy_trace(g, c, q, budget=budget), show_trace))

    rng = random.Random(41)
    for i in range(DISK_INSTANCES):
        schema, db, q = rand_safe_instance(rng)
        rel = rng.choice(sorted(q.predicates()))
        lam, mean = rng.choice(LAMBDA_GRID), rng.choice((0.1, 0.3, 0.6))
        with tempfile.TemporaryDirectory() as directory:
            save_database(db, directory)
            Path(directory, "constraints.txt").write_text(f"lambda={lam!r}\nmtp {rel} {mean!r}\n")
            print(f"disk {i} {q} lambda={lam} mtp {rel} {mean}")
            for mode in ("analyze", "eval", "interval"):
                status, out = run(RunConfig(db_dir=directory, query=str(q), mode=mode, output="json"))
                print(f"  {mode} {status} {out.replace(directory, '<dir>')}")

    print(f"verify seed={VERIFY_SEED} trials={VERIFY_TRIALS}")
    for line in property_suites(VERIFY_SEED, VERIFY_TRIALS).render().splitlines():
        print("  " + line)

    rng = random.Random(43)
    for i in range(MATCHING_INSTANCES):
        fields = matching_fields(rng)
        edges = sorted(" ".join(c.name for c in e) for e in fields[3])
        print(f"matching {i} k={fields[4]} edges={edges}")
        report = answer(lambda: verify_maxmatch(ThreeDMInstance(*fields)), lambda r: r.render())
        for line in report.splitlines():
            print("  " + line)

    rng = random.Random(47)
    for i, (text, rel) in enumerate(shape for shape in GREEDY_SHAPES for _ in range(SHAPES_PER_QUERY)):
        g, (a, b), budget = shapes_instance(rng, SHAPES_ARITIES[rel])
        q = parse_ucq(text.format(a=a, b=b), g.schema)
        c = MTPConstraint(rel, 1.0)
        print(f"greedy-shapes {i} {q} lam={g.lam} budget={budget} domain={' '.join(str(k) for k in g.schema.domain)}")
        print("  " + answer(lambda: prob_lifted_detail(q, g.pdb)))
        print("  " + answer(lambda: greedy_trace(g, c, q, budget=budget), show_trace))


if __name__ == "__main__":
    main()
