"""Closed-world query probability: lifted evaluation and a ground oracle.

The lifted evaluator decomposes a union of conjunctive queries recursively:

* a single ground atom is a table lookup;
* a conjunct splits into a conjunction of sub-unions (its variable-connected
  components, distributed across disjuncts where a disjunct is disconnected);
* independent conjunctions multiply, dependent ones go through
  inclusion-exclusion over sub-unions;
* independent disjunctions combine through complement products;
* a separator variable turns the query into a complement product over the
  domain, with interchangeable constants batched symbolically.

:func:`decompose` picks the first of these rules that applies; the budget
optimizer in :mod:`owpdb.exactdp` dispatches on the same choice.  If no rule
applies the query is refused with :class:`UnsafeQuery`; the
ground evaluator (world enumeration over the uncertain tuples) is the
fallback and the correctness oracle.

Databases are never mutated; each evaluation keeps its own memo table, so
concurrent queries against one database are safe.
"""
from __future__ import annotations

import itertools
import math
from typing import Mapping

import numpy as np

from . import probability
from .database import Database, ProbView, Schema
from .errors import CapExceeded, UnsafeQuery
from .probability import CERTAIN, IMPOSSIBLE, Prob
from .query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    QueryProfile,
    UCQ,
    find_separator,
    ground,
    independence_groups,
    is_hierarchical,
    is_inversion_free,
    has_self_join,
    minimize,
    substitute_separator,
    ucq_implies,
    variable_components,
)

# Width guards for the syntactic decompositions.
CNF_COMBINATION_CAP = 512
INCLUSION_EXCLUSION_CAP = 12

DEFAULT_WORLD_CAP = 24
DEFAULT_GROUND_CAP = 10**6


def conjunction_parts(q: UCQ, cap: int = CNF_COMBINATION_CAP) -> list[UCQ] | None:
    """Rewrite ``q`` as a conjunction of sub-unions, or return ``None`` when
    every disjunct is a single variable-connected component.

    Each disjunct splits into its components; distributing the union over
    those conjunctions yields one sub-union per choice of component per
    disjunct.  Sub-unions are minimized, de-duplicated, and absorbed (a
    conjunct entailed by another conjunct is dropped).
    """
    per_disjunct = [variable_components(d) for d in q.disjuncts]
    if all(len(c) == 1 for c in per_disjunct):
        return None
    n_combos = 1
    for comps in per_disjunct:
        n_combos *= len(comps)
        if n_combos > cap:
            raise CapExceeded(
                f"conjunction rewriting needs {n_combos}+ combinations (cap {cap})"
            )
    seen: set[UCQ] = set()
    parts: list[UCQ] = []
    for combo in itertools.product(*per_disjunct):
        u = minimize(UCQ([ConjunctiveQuery(atoms) for atoms in combo]))
        if u not in seen:
            seen.add(u)
            parts.append(u)
    parts.sort(key=_part_key)
    kept: list[UCQ] = []
    for j, u in enumerate(parts):
        absorbed = False
        for i, v in enumerate(parts):
            if i == j:
                continue
            # v entails u: u is the weaker conjunct and contributes nothing
            if ucq_implies(v, u) and (i < j or not ucq_implies(u, v)):
                absorbed = True
                break
        if not absorbed:
            kept.append(u)
    return kept


def _part_key(u: UCQ) -> tuple:
    return tuple(d.key() for d in u.disjuncts)


def decompose(q: UCQ) -> tuple[str | None, object]:
    """The first lifted rule that applies to the minimized union ``q``:

    * ``("atom", atom)`` for a single one-atom disjunct;
    * ``("and", groups)`` for a conjunction of sub-unions, split into
      mutually independent groups (each a list of sub-unions in
      :func:`conjunction_parts` order);
    * ``("or", unions)`` for a union of mutually independent sub-unions;
    * ``("sep", separator)`` for a separator variable (one per disjunct);
    * ``(None, None)`` when no rule applies.
    """
    ds = q.disjuncts
    if len(ds) == 1 and len(ds[0].atoms) == 1:
        return "atom", ds[0].atoms[0]
    parts = conjunction_parts(q)
    if parts is not None:
        return "and", independence_groups(parts)
    if len(ds) > 1:
        groups = independence_groups([UCQ([d]) for d in ds])
        if len(groups) > 1:
            return "or", [UCQ([d for u in g for d in u.disjuncts]) for g in groups]
    sep = find_separator([d.atoms for d in ds])
    if sep is not None:
        return "sep", sep
    return None, None


class Evaluator:
    """One lifted evaluation context: a database plus a memo table.

    ``force_inclusion_exclusion`` disables the independent-product shortcut
    for conjunctions, forcing the full inclusion-exclusion sum; results must
    agree either way.
    """

    def __init__(self, db: ProbView, *, force_inclusion_exclusion: bool = False):
        self.db = db
        self.force_ie = force_inclusion_exclusion
        self._memo: dict[UCQ, Prob] = {}
        self._canon: dict[UCQ, UCQ] = {}
        self.max_clamp = 0.0

    # -- public entry ------------------------------------------------------

    def probability(self, q: UCQ) -> Prob:
        return self._eval(q)

    # -- recursion ---------------------------------------------------------

    def _eval(self, q: UCQ) -> Prob:
        canon = self._canon.get(q)
        if canon is None:
            canon = minimize(q)
            self._canon[q] = canon
        cached = self._memo.get(canon)
        if cached is None:
            cached = self._lift(canon)
            self._memo[canon] = cached
        return cached

    def _lift(self, q: UCQ) -> Prob:
        rule, arg = decompose(q)
        if rule == "atom":
            if arg.is_ground():
                return Prob.from_value(self.db.atom_prob(arg))
            return self._atom_block(arg)
        if rule == "and":
            if self.force_ie:
                arg = [sorted((u for g in arg for u in g), key=_part_key)]
            if len(arg) == 1:
                return self.conjunction(arg[0])
            return probability.conj(self.conjunction(g) for g in arg)
        if rule == "or":
            return probability.disj(self._eval(u) for u in arg)
        if rule == "sep":
            return self._separator_product(q, arg)
        raise UnsafeQuery(f"no decomposition applies to {q}")

    def conjunction(self, group: list[UCQ]) -> Prob:
        """P(all sub-unions of ``group`` hold): one sub-union directly, more
        by inclusion-exclusion."""
        if len(group) == 1:
            return self._eval(group[0])
        return self._inclusion_exclusion(group)

    def _inclusion_exclusion(self, parts: list[UCQ]) -> Prob:
        m = len(parts)
        if m > INCLUSION_EXCLUSION_CAP:
            raise CapExceeded(f"inclusion-exclusion over {m} conjuncts (cap {INCLUSION_EXCLUSION_CAP})")
        terms: list[tuple[int, Prob]] = []
        for size in range(1, m + 1):
            sign = 1 if size % 2 == 1 else -1
            for subset in itertools.combinations(parts, size):
                union = UCQ([d for u in subset for d in u.disjuncts])
                terms.append((sign, self._eval(union)))
        result, clamp = probability.signed_sum(terms)
        if clamp > self.max_clamp:
            self.max_clamp = clamp
        return result

    def _separator_product(self, q: UCQ, sep) -> Prob:
        """Complement product over the domain; constants that appear neither
        in the query nor in any stored row of its predicates are
        interchangeable and evaluated once."""
        mentioned = set(self.db.explicit_constants(q.predicates()))
        mentioned.update(c.name for c in q.constants())
        parts: list[Prob] = []
        n_rest = 0
        rest_prob: Prob | None = None
        for const in self.db.schema.domain:
            if const.name in mentioned:
                parts.append(self._eval(substitute_separator(q, sep, const)))
            elif rest_prob is None:
                rest_prob = self._eval(substitute_separator(q, sep, const))
                n_rest = 1
            else:
                n_rest += 1
        if rest_prob is not None:
            parts.append(probability.power_disj(rest_prob, n_rest))
        return probability.disj(parts)

    def _atom_block(self, atom: Atom) -> Prob:
        """P(exists bindings making one atom true): complement product over
        all ground instances of the pattern."""
        db = self.db
        parts: list[Prob] = []
        n_explicit = 0
        for _, p in db.pattern_entries(atom.predicate, atom.args):
            n_explicit += 1
            if p > 0.0:
                parts.append(Prob.from_value(p))
        n_absent = db.pattern_size(atom.predicate, atom.args) - n_explicit
        default = db.default_prob(atom.predicate)
        if n_absent > 0 and default > 0.0:
            parts.append(probability.power_disj(Prob.from_value(default), n_absent))
        if not parts:
            return IMPOSSIBLE
        return probability.disj(parts)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def prob_lifted(q: UCQ, db: ProbView, *, force_inclusion_exclusion: bool = False) -> float:
    """Exact query probability by lifted decomposition.

    Raises :class:`UnsafeQuery` when no decomposition rule applies; the
    caller should fall back to :func:`prob_ground` or an approximate bound.
    """
    return Evaluator(db, force_inclusion_exclusion=force_inclusion_exclusion).probability(q).value


def prob_lifted_detail(q: UCQ, db: ProbView, **kwargs) -> Prob:
    """Like :func:`prob_lifted` but returns the value together with the log
    of its complement."""
    return Evaluator(db, **kwargs).probability(q)


def prob_ground(
    q: UCQ,
    db: ProbView,
    *,
    cap_worlds: int = DEFAULT_WORLD_CAP,
    cap_ground: int = DEFAULT_GROUND_CAP,
) -> float:
    """Query probability by enumerating worlds over the uncertain tuples.

    Deterministic tuples are folded in directly; only ground atoms with
    probability strictly between 0 and 1 consume world bits.  Refuses with
    :class:`CapExceeded` when more than ``cap_worlds`` uncertain tuples are
    involved.
    """
    return prob_ground_detail(q, db, cap_worlds=cap_worlds, cap_ground=cap_ground).value


def prob_ground_detail(
    q: UCQ,
    db: ProbView,
    *,
    cap_worlds: int = DEFAULT_WORLD_CAP,
    cap_ground: int = DEFAULT_GROUND_CAP,
) -> Prob:
    conjuncts = ground(q, db.schema.domain, cap=cap_ground)
    bit_of: dict[Atom, int] = {}
    probs: list[float] = []
    masks: set[int] = set()
    for conj in conjuncts:
        mask = 0
        dead = False
        for atom in conj:
            p = db.atom_prob(atom)
            if p <= 0.0:
                dead = True
                break
            if p >= 1.0:
                continue
            bit = bit_of.get(atom)
            if bit is None:
                bit = len(bit_of)
                bit_of[atom] = bit
                probs.append(p)
            mask |= 1 << bit
        if dead:
            continue
        if mask == 0:
            return CERTAIN  # a conjunct holds in every world
        masks.add(mask)
    if not masks:
        return IMPOSSIBLE
    # drop conjuncts subsumed by a smaller one
    ordered = sorted(masks, key=lambda m: (bin(m).count("1"), m))
    minimal: list[int] = []
    for m in ordered:
        if not any(m & keep == keep for keep in minimal):
            minimal.append(m)
    used_bits = 0
    for m in minimal:
        used_bits |= m
    remap: dict[int, int] = {}
    kept_probs: list[float] = []
    for old_bit in range(len(probs)):
        if used_bits >> old_bit & 1:
            remap[old_bit] = len(kept_probs)
            kept_probs.append(probs[old_bit])
    k = len(kept_probs)
    if k > cap_worlds:
        raise CapExceeded(f"{k} uncertain tuples exceed the world cap {cap_worlds}")
    new_masks = []
    for m in minimal:
        nm = 0
        for old_bit, new_bit in remap.items():
            if m >> old_bit & 1:
                nm |= 1 << new_bit
        new_masks.append(nm)

    worlds = np.arange(1 << k, dtype=np.uint64)
    sat = np.zeros(1 << k, dtype=bool)
    for m in new_masks:
        mu = np.uint64(m)
        sat |= (worlds & mu) == mu
    weights = np.ones(1 << k, dtype=np.float64)
    one = np.uint64(1)
    for bit, p in enumerate(kept_probs):
        chosen = (worlds >> np.uint64(bit)) & one
        weights *= np.where(chosen == one, p, 1.0 - p)
    value = float(weights[sat].sum())
    comp = float(weights[~sat].sum())
    value = min(max(value, 0.0), 1.0)
    if comp <= 0.0:
        return CERTAIN if value >= 1.0 else Prob.from_value(value)
    return Prob(value, math.log(min(comp, 1.0)))


def prob_conditioned(q: UCQ, db: ProbView, fixed: Mapping[Atom, bool]) -> float:
    """Query probability with the listed ground atoms pinned true or false."""
    if not fixed:
        return prob_lifted(q, db)
    return prob_lifted(q, db.with_overrides(fixed))


def is_safe(q: UCQ, schema: Schema | None = None) -> bool:
    """Whether lifted evaluation decomposes ``q`` fully.

    Safety is a property of the query syntax, so it is decided on a probe
    database over the query's own constants plus fresh representatives.
    """
    arities: dict[str, int] = {}
    for a in q.all_atoms():
        arities[a.predicate] = len(a.args)
    consts = sorted({c.name for c in q.constants()})
    domain = tuple(Constant(n) for n in consts) + (Constant("§a"), Constant("§b"))
    probe = Database(Schema(arities, domain))
    try:
        Evaluator(probe).probability(q)
        return True
    except (UnsafeQuery, CapExceeded):
        return False


def analyze_query(q: UCQ, schema: Schema | None = None) -> QueryProfile:
    """Syntactic profile used to route evaluation."""
    return QueryProfile(
        hierarchical_per_cq=tuple(is_hierarchical(d) for d in q.disjuncts),
        inversion_free=is_inversion_free(q),
        self_join_free=not has_self_join(q),
        safe=is_safe(q, schema),
    )
