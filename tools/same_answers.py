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
safe and unsafe alike.  Witnesses are printed in the schema's canonical
atom order, so the text does not depend on ``PYTHONHASHSEED``.  An error is
printed as its class name and message.
"""
from __future__ import annotations

import random

from owpdb import (
    OpenPDB,
    OwpdbError,
    analyze_query,
    greedy_upper,
    interval_unconstrained,
    mtp_upper_bruteforce,
    mtp_upper_exact,
)
from owpdb.engine import prob_lifted_detail
from owpdb.query import UCQ
from owpdb.randgen import rand_cq, rand_mtp_instance, rand_safe_instance, rand_schema

SAFE_INSTANCES = 300
MTP_INSTANCES = 150
SAFETY_QUERIES = 2000


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


if __name__ == "__main__":
    main()
