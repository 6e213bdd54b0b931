"""Test-only helpers: the world-enumeration oracle with the Herbrand
grounding it enumerates, its exact rational form with greedy over exact
gains, a scientist database with every constant stored, a database whose
separator constants each need inclusion-exclusion, and random
3-dimensional matching instances."""
import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

import numpy as np

from owpdb.database import Database, Schema
from owpdb.errors import CapExceeded
from owpdb.openworld import open_tuples
from owpdb.oracle import ThreeDMInstance
from owpdb.probability import CERTAIN, IMPOSSIBLE, Prob
from owpdb.query import UCQ, Atom, Constant


def ground(q: UCQ, domain: Sequence[Constant], cap: int = 10**6) -> list[frozenset[Atom]]:
    """Expand a query into its ground disjunctive normal form over ``domain``.

    Returns one conjunct (a set of ground atoms) per disjunct and per
    substitution of that disjunct's variables by domain constants, in
    deterministic order.  The list length is exactly the sum over disjuncts
    of ``len(domain) ** #variables``.
    """
    if not domain:
        raise ValueError("domain must be non-empty")
    total = sum(len(domain) ** len(d.variables()) for d in q.disjuncts)
    if total > cap:
        raise CapExceeded(f"grounding would produce {total} conjuncts (cap {cap})")
    out: list[frozenset[Atom]] = []
    for d in q.disjuncts:
        variables = sorted(d.variables(), key=lambda v: v.name)
        for combo in itertools.product(domain, repeat=len(variables)):
            mapping = dict(zip(variables, combo))
            out.append(frozenset(a.substitute(mapping) for a in d.atoms))
    return out


def enumerate_worlds(q, db, cap_worlds=24):
    """P(``q``) by summing numpy arrays over every world of the uncertain
    tuples of its Herbrand grounding: the value over the worlds where a
    conjunct holds, the complement over the rest."""
    live = []
    for conj in ground(q, db.schema.domain):
        probs = [db.atom_prob(atom) for atom in conj]
        if min(probs) <= 0.0:
            continue
        uncertain = [atom for atom, p in zip(conj, probs) if p < 1.0]
        if not uncertain:
            return CERTAIN
        live.append(uncertain)
    if not live:
        return IMPOSSIBLE
    atoms = sorted({atom for conj in live for atom in conj}, key=db.schema.atom_key)
    bit_of = {atom: bit for bit, atom in enumerate(atoms)}
    masks = {sum(1 << bit_of[atom] for atom in conj) for conj in live}
    minimal = []
    for m in sorted(masks, key=lambda m: (bin(m).count("1"), m)):
        if not any(m & keep == keep for keep in minimal):
            minimal.append(m)
    used = [bit for bit in range(len(atoms)) if any(m >> bit & 1 for m in minimal)]
    k = len(used)
    assert k <= cap_worlds, f"{k} uncertain tuples"
    worlds = np.arange(1 << k, dtype=np.uint64)
    sat = np.zeros(1 << k, dtype=bool)
    for m in minimal:
        mu = np.uint64(sum(1 << new for new, old in enumerate(used) if m >> old & 1))
        sat |= (worlds & mu) == mu
    weights = np.ones(1 << k, dtype=np.float64)
    for new, old in enumerate(used):
        p = db.atom_prob(atoms[old])
        weights *= np.where((worlds >> np.uint64(new)) & np.uint64(1) == np.uint64(1), p, 1.0 - p)
    value = min(max(float(weights[sat].sum()), 0.0), 1.0)
    comp = float(weights[~sat].sum())
    if comp <= 0.0:
        return CERTAIN if value >= 1.0 else Prob.from_value(value)
    return Prob(value, math.log(min(comp, 1.0)))


def exact_prob(q, db) -> Fraction:
    """P(``q``) as the exact fraction of ``db``'s float probabilities: the
    worlds of the uncertain tuples of its Herbrand grounding, enumerated in
    canonical atom order, a branch cut off once its partial world decides
    ``q``.  Stdlib only: no rounding anywhere."""
    clauses = set()
    for conj in ground(q, db.schema.domain):
        probs = {atom: db.atom_prob(atom) for atom in conj}
        if min(probs.values()) > 0.0:
            clauses.add(frozenset(atom for atom, p in probs.items() if p < 1.0))
    atoms = sorted(set().union(*clauses), key=db.schema.atom_key)
    probs = [Fraction(db.atom_prob(atom)) for atom in atoms]
    bit = {atom: 1 << i for i, atom in enumerate(atoms)}

    def worlds(i, masks):
        # masks: the clauses no earlier tuple falsified, less the true ones
        if 0 in masks:
            return Fraction(1)
        if not masks:
            return Fraction(0)
        b = 1 << i
        if not any(m & b for m in masks):
            return worlds(i + 1, masks)
        true, false = frozenset(m & ~b for m in masks), frozenset(m for m in masks if not m & b)
        return probs[i] * worlds(i + 1, true) + (1 - probs[i]) * worlds(i + 1, false)

    return worlds(0, frozenset(sum(map(bit.get, c)) for c in clauses))


def rational_greedy(g, c, q, budget):
    """Greedy over exact rational gains, the reference for ``greedy_trace``:
    per round, the pick (the first open tuple in canonical order with the
    best gain) and every remaining open tuple's gain ``lam * (P(q | t
    true) - P(q))`` by :func:`exact_prob`.  Stops at the budget or when no
    gain is positive."""
    lam, opens, picked, rounds = Fraction(g.lam), open_tuples(g, c.relation), [], []
    while len(picked) < budget:
        view = g.pdb.with_added(picked, g.lam) if picked else g.pdb
        p = exact_prob(q, view)
        gains = {t: lam * (exact_prob(q, view.with_overrides({t: True})) - p) for t in opens if t not in picked}
        best = max(gains.values(), default=0)
        if best <= 0:
            break
        picked.append(next(t for t, gain in gains.items() if gain == best))
        rounds.append((picked[-1], gains))
    return rounds


def stored_scientist_db(n, seed=1, s_scale=1.0):
    """``S(x), CoA(x,y)``'s scientist shape at CoA density 0.1, with a CoA
    row on a cycle through the domain, so that every constant is stored in
    CoA, and every S probability multiplied by ``s_scale``."""
    rng = random.Random(seed)
    names = [f"c{i:02d}" for i in range(n)]
    coa = {(a, b): rng.choice([0.1, 0.3, 0.7]) for a in names for b in names if rng.random() < 0.1}
    coa.update({(a, names[i - 1]): 0.5 for i, a in enumerate(names) if (a, names[i - 1]) not in coa})
    s = {(c,): s_scale * rng.choice([0.2, 0.5, 0.9]) for c in names}
    return Database(Schema({"S": 1, "CoA": 2}, tuple(Constant(c) for c in names)), {"S": s, "CoA": coa})


def family_db(n, seed=2):
    """For ``R(x), U(y, x) | S(z, y), U(z, y)``: ``R`` on two of the n
    constants, ``S`` at density 0.3 and ``U`` at 0.2.  Each separator
    constant c leaves a union that needs inclusion-exclusion, whose term
    ``S(z, c), U(z, c)`` has a separator of its own."""
    rng = random.Random(seed)
    names = [f"K{i:02d}" for i in range(n)]
    return Database(Schema({"R": 1, "S": 2, "U": 2}, tuple(map(Constant, names))),
                    {"R": {(a,): 0.5 for a in names[:2]},
                     "S": {(a, b): 0.5 for a in names for b in names if rng.random() < 0.3},
                     "U": {(a, b): 0.25 for a in names for b in names if rng.random() < 0.2}})


def rand_3dm(rng: random.Random, *, side: int = 3, max_edges: int = 9) -> ThreeDMInstance:
    """Node sets X/Y/Z of equal size, a random hyperedge set, and a target
    matching size."""
    xs = tuple(Constant(f"X{i+1}") for i in range(side))
    ys = tuple(Constant(f"Y{i+1}") for i in range(side))
    zs = tuple(Constant(f"Z{i+1}") for i in range(side))
    all_edges = [(x, y, z) for x in xs for y in ys for z in zs]
    n_edges = rng.randint(2, min(max_edges, len(all_edges)))
    edges = frozenset(rng.sample(all_edges, n_edges))
    k = rng.randint(1, min(3, n_edges))
    return ThreeDMInstance(xs, ys, zs, edges, k)
