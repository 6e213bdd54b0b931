"""Seeded random instances for property suites and oracle-backed tests.

Generators draw from small grids (domain sizes 2-4, arities up to 3, tuple
probabilities in {0, 0.1, ..., 0.9}, completion probabilities in
{0.2, 0.5, 0.8}) so the ground oracle stays in reach while the
boundary probabilities are still exercised.  Everything is driven by a
caller-supplied ``random.Random``, so a fixed seed reproduces instances
byte for byte.
"""
from __future__ import annotations

import random
from itertools import product

from .database import Database, Schema
from .engine import is_safe
from .openworld import MTPConstraint, OpenPDB, open_tuples
from .query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    UCQ,
    Variable,
    has_self_join,
    is_inversion_free,
)

PROB_GRID = tuple(round(0.1 * i, 1) for i in range(10))
LAMBDA_GRID = (0.2, 0.5, 0.8)
_PRED_NAMES = ("R", "S", "T", "U", "V")
_VAR_NAMES = ("x", "y", "z")
_CONST_NAMES = ("A", "B", "C", "D")


def rand_schema(rng: random.Random, *, max_arity: int = 3, domain_sizes=(2, 3, 4)) -> Schema:
    n_preds = rng.randint(2, 4)
    preds = {name: rng.randint(1, max_arity) for name in _PRED_NAMES[:n_preds]}
    size = rng.choice(domain_sizes)
    return Schema(preds, tuple(Constant(n) for n in _CONST_NAMES[:size]))


def rand_database(
    rng: random.Random,
    schema: Schema,
    *,
    density: float = 0.5,
    max_uncertain: int = 12,
) -> Database:
    """A database over the schema with grid probabilities; at most
    ``max_uncertain`` tuples keep probabilities strictly inside (0, 1)."""
    rels: dict[str, dict[tuple[str, ...], float]] = {}
    uncertain = 0
    for pred in sorted(schema.predicates):
        arity = schema.predicates[pred]
        table: dict[tuple[str, ...], float] = {}
        for combo in product(schema.domain, repeat=arity):
            if rng.random() >= density:
                continue
            p = rng.choice(PROB_GRID)
            if 0.0 < p < 1.0:
                if uncertain >= max_uncertain:
                    p = 0.0
                else:
                    uncertain += 1
            table[tuple(c.name for c in combo)] = p
        rels[pred] = table
    return Database(schema, rels)


def rand_cq(
    rng: random.Random,
    schema: Schema,
    *,
    allow_repeat_pred: bool = True,
    constant_rate: float = 0.1,
) -> ConjunctiveQuery:
    preds = sorted(schema.predicates)
    atoms = []
    used: list[str] = []
    for _ in range(rng.randint(1, 3)):
        pool = preds if allow_repeat_pred else [p for p in preds if p not in used]
        if not pool:
            break
        pred = rng.choice(pool)
        used.append(pred)
        args = []
        for _ in range(schema.predicates[pred]):
            if rng.random() < constant_rate:
                args.append(rng.choice(schema.domain))
            else:
                args.append(Variable(rng.choice(_VAR_NAMES)))
        atoms.append(Atom(pred, tuple(args)))
    return ConjunctiveQuery(atoms)


def rand_safe_ucq(
    rng: random.Random,
    schema: Schema,
    *,
    self_join_free: bool = False,
    require_pred: str | None = None,
    tries: int = 200,
) -> UCQ:
    """Rejection-sample a query that the lifted evaluator accepts."""
    for _ in range(tries):
        try:
            q = UCQ([
                rand_cq(rng, schema, allow_repeat_pred=not self_join_free)
                for _ in range(rng.randint(1, 2))
            ])
        except ValueError:
            continue
        if self_join_free and has_self_join(q):
            continue
        if require_pred is not None and require_pred not in q.predicates():
            continue
        if is_safe(q):
            return q
    raise RuntimeError("could not generate a safe query; widen the limits")


def rand_safe_instance(rng: random.Random) -> tuple[Schema, Database, UCQ]:
    schema = rand_schema(rng)
    db = rand_database(rng, schema)
    q = rand_safe_ucq(rng, schema)
    return schema, db, q


def rand_mtp_instance(
    rng: random.Random,
    *,
    max_open: int = 12,
    max_budget: int = 4,
    inversion_free: bool = False,
    self_join_free: bool = False,
) -> tuple[OpenPDB, MTPConstraint, UCQ, int]:
    """An open database, a mean constraint whose derived budget is a chosen
    target, and a safe query mentioning the constrained relation."""
    for _ in range(400):
        schema = rand_schema(rng, max_arity=2)
        db = rand_database(rng, schema, max_uncertain=6)
        lam = rng.choice(LAMBDA_GRID)
        g = OpenPDB(db, lam)
        rel = rng.choice(sorted(schema.predicates))
        n_open = len(open_tuples(g, rel))
        if not 1 <= n_open <= max_open:
            continue
        try:
            q = rand_safe_ucq(
                rng,
                schema,
                self_join_free=self_join_free,
                require_pred=rel,
                tries=40,
            )
        except RuntimeError:
            continue
        if inversion_free and not is_inversion_free(q):
            continue
        target_b = rng.randint(0, min(max_budget, n_open))
        n_total = len(schema.domain) ** schema.predicates[rel]
        mass = db.relation_mass(rel)
        mean = (mass + (target_b + 0.5) * lam) / n_total
        if not 0.0 < mean <= 1.0:
            continue
        return g, MTPConstraint(rel, mean), q, target_b
    raise RuntimeError("could not generate a budgeted instance; widen the limits")

