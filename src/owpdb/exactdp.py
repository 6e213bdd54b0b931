"""Exact budgeted upper bounds for inversion-free queries.

The optimizer is a second interpreter of the lifted evaluator's plan
(:class:`owpdb.engine.Plan`): it walks the same nodes with the same
placeholder bindings, but every node returns an array over residual budgets
0..B of the best reachable probability together with a witness completion:

* decompositions into independent factors split the budget by max-convolution
  (their open-tuple slices are disjoint, so allocations are independent);
* a separator variable turns the union into a constant-elimination dynamic
  program: the budget is divided among the domain constants, whose slices
  are again disjoint;
* inclusion-exclusion terms share one slice, so they are optimized jointly:
  the state carries the vector of per-term values and keeps every
  non-dominated vector (a Pareto front ordered by each term's sign), which
  preserves exact optimality even when budget allocations that look worse
  for the running prefix win later.

Queries whose structure defeats all three rules fall back to exhaustive
enumeration of the remaining slice when it is small, and are otherwise
refused with :class:`NotInversionFree` so callers can route to the greedy
bound or the brute-force oracle.

The solver keeps no shared mutable state beyond per-run memo tables.
"""
from __future__ import annotations

import itertools
from typing import Mapping

from .database import _bound_of, _match_args, _Table
from .engine import Evaluator, Plan, _Node, conjunction_parts
from .errors import NotInversionFree
from .openworld import (
    BoundResult,
    CompletionChoice,
    MTPConstraint,
    OpenPDB,
    budget_from_mtp,
    open_tuples,
)
from .query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    UCQ,
    find_separator,
    independence_groups,
    is_inversion_free,
    minimize,
    substitute_separator,
)

ENUMERATION_FALLBACK_CAP = 10  # max open tuples enumerated when no rule applies

# A budget vector: entry b holds (best probability, witness) using at most b added tuples.
_BVec = tuple[tuple[float, tuple[Atom, ...]], ...]


class _BudgetSolver:
    """Budgeted optimization context for one run: base database, constrained
    relation, completion probability, maximum budget, and the query's plan."""

    def __init__(self, g: OpenPDB, relation: str, b_max: int, plan: Plan):
        self.g = g
        self.schema = g.schema
        self.rel = relation
        self.lam = g.lam
        self.b_max = b_max
        self.plan = plan
        self._open = _Table.fromkeys(tuple(t.name for t in a.args) for a in open_tuples(g, relation))
        self._eval = Evaluator(g.pdb, plan=plan)
        self._memo: dict[object, _BVec] = {}
        self._slice_memo: dict[UCQ, frozenset[tuple[str, ...]]] = {}

    # -- helpers -----------------------------------------------------------

    def _atom(self, args: tuple[str, ...]) -> Atom:
        return Atom(self.rel, tuple(Constant(a) for a in args))

    def _wkey(self, witness: tuple[Atom, ...]):
        return tuple(self.schema.atom_key(a) for a in witness)

    def _merge_witness(self, w1: tuple[Atom, ...], w2: tuple[Atom, ...]) -> tuple[Atom, ...]:
        return tuple(sorted(set(w1) | set(w2), key=self.schema.atom_key))

    def slice_of(self, q: UCQ) -> frozenset[tuple[str, ...]]:
        """Open tuples of the constrained relation that can affect ``q``.

        Each atom of the relation looks up the open tuples holding its
        constants in a lazy per-positions index over the open set, so only
        those are tested against its pattern."""
        cached = self._slice_memo.get(q)
        if cached is not None:
            return cached
        atoms = [a for d in q.disjuncts for a in d.atoms if a.predicate == self.rel]
        result = frozenset(
            args for a in atoms for args, _ in self._open.rows(_bound_of(a.args)) if _match_args(a.args, args)
        )
        self._slice_memo[q] = result
        return result

    def _closed(self, node: _Node, env: Mapping[str, Constant]) -> float:
        """Closed-world probability of ``node`` under ``env``."""
        return self._eval.evaluate(node, env).value

    # -- budget vector combiners --------------------------------------------

    def _combine(self, v1: _BVec, v2: _BVec, mode: str) -> _BVec:
        """Max-convolution of two independent-slice budget vectors."""
        out = []
        for b in range(self.b_max + 1):
            best_v, best_w = -1.0, ()
            best_key = None
            for k in range(b + 1):
                p1, w1 = v1[k]
                p2, w2 = v2[b - k]
                val = p1 * p2 if mode == "conj" else 1.0 - (1.0 - p1) * (1.0 - p2)
                if val > best_v:
                    best_v, best_w = val, self._merge_witness(w1, w2)
                    best_key = self._wkey(best_w)
                elif val == best_v:
                    w = self._merge_witness(w1, w2)
                    key = self._wkey(w)
                    if key < best_key:
                        best_w, best_key = w, key
            out.append((best_v, best_w))
        return tuple(out)

    def _fold_vecs(self, vecs: list[_BVec], mode: str) -> _BVec:
        acc = vecs[0]
        for v in vecs[1:]:
            acc = self._combine(acc, v, mode)
        return acc

    # -- main recursion ------------------------------------------------------

    def bopt(self, node: _Node, env: Mapping[str, Constant]) -> _BVec:
        key = node.key(env)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._bopt(node, env)
            self._memo[key] = cached
        return cached

    def _bopt(self, node: _Node, env: Mapping[str, Constant]) -> _BVec:
        q = node.bound(env)
        sl = self.slice_of(q)
        if not sl:
            v = self._closed(node, env)
            return tuple((v, ()) for _ in range(self.b_max + 1))
        rule, arg = self.plan.expand(node)

        # single atom of the constrained relation
        if rule == "atom":
            base = self._closed(node, env)
            slice_sorted = sorted(sl, key=lambda a: self.schema.atom_key(self._atom(a)))
            out = [(base, ())]
            comp = 1.0 - base
            witness: tuple[Atom, ...] = ()
            for b in range(1, self.b_max + 1):
                if b <= len(slice_sorted) and self.lam > 0.0 and comp > 0.0:
                    comp *= 1.0 - self.lam
                    witness = witness + (self._atom(slice_sorted[b - 1]),)
                    out.append((1.0 - comp, witness))
                else:
                    out.append(out[-1])
            return tuple(out)

        if rule == "and":
            vecs = [self.bopt(grp[0], env) if len(grp) == 1 else self._ie_family(grp, env) for grp in arg]
            return vecs[0] if len(vecs) == 1 else self._fold_vecs(vecs, "conj")

        if rule == "or":
            return self._fold_vecs([self.bopt(u, env) for u in arg], "disj")

        if rule == "sep":
            _, child_of = self.plan.separator(node, env)
            acc = tuple((0.0, ()) for _ in range(self.b_max + 1))
            for const in self.schema.domain:
                acc = self._combine(acc, self.bopt(*child_of(const)), "disj")
            return acc

    # -- inclusion-exclusion families ---------------------------------------

    def _ie_family(self, group: tuple[_Node, ...], env: Mapping[str, Constant]) -> _BVec:
        """Optimize sum over nonempty subsets s of (-1)^{|s|+1} P(union of s)
        under one shared budget: the plan's signed terms, summed per term and
        bound to concrete unions."""
        weighted: dict[_Node, float] = {}
        for sign, term in self.plan.terms(group):
            weighted[term] = weighted.get(term, 0.0) + sign
        return self._family([(w, t.bound(env)) for t, w in weighted.items() if w != 0.0])

    def _fold_term(self, t: UCQ) -> tuple[float, float, UCQ | None]:
        """Express P(t) as alpha + beta * P(core) with beta >= 0 by peeling
        off budget-independent independent factors; core None when constant."""
        alpha, beta = 0.0, 1.0
        q = minimize(t)
        while True:
            if not self.slice_of(q):
                return alpha + beta * self._closed(self.plan.node(q), {}), 0.0, None
            ds = q.disjuncts
            if len(ds) > 1:
                groups = independence_groups([UCQ([d]) for d in ds])
                if len(groups) > 1:
                    sliced = [g for g in groups if any(self.slice_of(u) for u in g)]
                    if len(sliced) == 1:
                        free = [g for g in groups if g is not sliced[0]]
                        comp_free = 1.0
                        for g in free:
                            fv = self._closed(self.plan.node(UCQ([d for u in g for d in u.disjuncts])), {})
                            comp_free *= 1.0 - fv
                        # P = 1 - comp_free * (1 - P(core))
                        alpha += beta * (1.0 - comp_free)
                        beta *= comp_free
                        q = minimize(UCQ([d for u in sliced[0] for d in u.disjuncts]))
                        continue
                return alpha, beta, q
            parts = conjunction_parts(q)
            if parts is not None and len(parts) > 1:
                groups = independence_groups(parts)
                if len(groups) > 1:
                    sliced = [g for g in groups if any(self.slice_of(u) for u in g)]
                    if len(sliced) == 1 and all(len(u.disjuncts) == 1 for u in sliced[0]):
                        for g in groups:
                            if g is sliced[0]:
                                continue
                            beta *= self._eval.conjunction(g).value
                        merged = [a for u in sliced[0] for a in u.disjuncts[0].atoms]
                        q = minimize(UCQ([ConjunctiveQuery(merged)]))
                        continue
            return alpha, beta, q

    def _family(self, terms: list[tuple[float, UCQ]]) -> _BVec:
        """Per budget, the maximum of const + sum(weight * P(term)) over one
        shared completion choice."""
        const = 0.0
        weights: dict[UCQ, float] = {}
        order: list[UCQ] = []
        for w, t in terms:
            a, b, core = self._fold_term(t)
            const += w * a
            if core is not None and w * b != 0.0:
                if core not in weights:
                    weights[core] = 0.0
                    order.append(core)
                weights[core] += w * b
        cores = [c for c in order if weights[c] != 0.0]

        if not cores:
            return tuple((const, ()) for _ in range(self.b_max + 1))

        if len(cores) == 1:
            core, w = cores[0], weights[cores[0]]
            if w > 0.0:
                vec = self.bopt(self.plan.node(core), {})
                return tuple((const + w * v, wit) for v, wit in vec)
            low = self._closed(self.plan.node(core), {})
            return tuple((const + w * low, ()) for _ in range(self.b_max + 1))

        signs = [1 if weights[c] > 0.0 else -1 for c in cores]
        frontier = self._pareto(tuple(cores), tuple(signs))
        out = []
        for b in range(self.b_max + 1):
            best_v, best_w, best_key = None, (), None
            for values, wit in frontier[b]:
                total = const + sum(weights[c] * v for c, v in zip(cores, values))
                key = self._wkey(wit)
                if best_v is None or total > best_v or (total == best_v and key < best_key):
                    best_v, best_w, best_key = total, wit, key
            out.append((best_v, best_w))
        return tuple(out)

    def _prune(
        self,
        states: list[tuple[tuple[float, ...], tuple[Atom, ...]]],
        signs: tuple[int, ...],
    ) -> list[tuple[tuple[float, ...], tuple[Atom, ...]]]:
        """Keep states not dominated componentwise in each sign's preferred
        direction; equal vectors keep the lexicographically smallest witness."""
        best_by_vec: dict[tuple[float, ...], tuple[Atom, ...]] = {}
        for values, wit in states:
            old = best_by_vec.get(values)
            if old is None or self._wkey(wit) < self._wkey(old):
                best_by_vec[values] = wit
        unique = sorted(best_by_vec.items())

        def dominates(u: tuple[float, ...], v: tuple[float, ...]) -> bool:
            for s, a, b in zip(signs, u, v):
                if s > 0 and a < b:
                    return False
                if s < 0 and a > b:
                    return False
                if s == 0 and a != b:
                    # conflicting directions: only an equal value dominates
                    return False
            return True

        kept: list[tuple[tuple[float, ...], tuple[Atom, ...]]] = []
        for values, wit in unique:
            if any(dominates(kv, values) for kv, _ in kept if kv != values):
                continue
            kept = [(kv, kw) for kv, kw in kept if not dominates(values, kv) or kv == values]
            kept.append((values, wit))
        return kept

    def _pareto(
        self, cores: tuple[UCQ, ...], signs: tuple[int, ...]
    ) -> list[list[tuple[tuple[float, ...], tuple[Atom, ...]]]]:
        """Per budget: every non-dominated vector of per-core values reachable
        with one shared completion choice."""
        combined_slice: set[tuple[str, ...]] = set()
        for c in cores:
            combined_slice |= self.slice_of(c)

        if not combined_slice:
            vec = tuple(self._closed(self.plan.node(c), {}) for c in cores)
            return [[(vec, ())] for _ in range(self.b_max + 1)]

        all_disjuncts = [d.atoms for c in cores for d in c.disjuncts]
        sep = find_separator(all_disjuncts)
        if sep is not None:
            return self._pareto_separator(cores, signs, sep)
        return self._pareto_enumerate(cores, signs, combined_slice)

    def _pareto_separator(self, cores, signs, sep):
        offsets = []
        i = 0
        for c in cores:
            offsets.append(i)
            i += len(c.disjuncts)
        frontier = [[(tuple(0.0 for _ in cores), ())] for _ in range(self.b_max + 1)]
        for const in self.schema.domain:
            alphas, betas, reduced = [], [], []
            reduced_index: dict[UCQ, int] = {}
            core_map = []
            for ci, core in enumerate(cores):
                local_sep = tuple(sep[offsets[ci] + j] for j in range(len(core.disjuncts)))
                sub = substitute_separator(core, local_sep, const)
                a, b, red = self._fold_term(sub)
                alphas.append(a)
                betas.append(b)
                if red is None:
                    core_map.append(None)
                else:
                    if red not in reduced_index:
                        reduced_index[red] = len(reduced)
                        reduced.append(red)
                    core_map.append(reduced_index[red])
            if reduced:
                # beta is a product of probabilities, so a reduced core inherits
                # the signs of the cores that fold onto it; a clash disables
                # dominance pruning on that component
                red_signs = []
                for ri in range(len(reduced)):
                    parents = [signs[ci] for ci in range(len(cores)) if core_map[ci] == ri]
                    pos, neg = any(s > 0 for s in parents), any(s < 0 for s in parents)
                    red_signs.append(0 if (pos and neg) else (1 if pos else -1))
                sub_front = self._pareto(tuple(reduced), tuple(red_signs))
            else:
                sub_front = [[((), ())] for _ in range(self.b_max + 1)]

            new_frontier: list[list] = []
            for b in range(self.b_max + 1):
                cands: list[tuple[tuple[float, ...], tuple[Atom, ...]]] = []
                for k in range(b + 1):
                    for prev_vals, prev_wit in frontier[b - k]:
                        for red_vals, red_wit in sub_front[k]:
                            vals = []
                            for ci in range(len(cores)):
                                ri = core_map[ci]
                                a_val = alphas[ci] if ri is None else alphas[ci] + betas[ci] * red_vals[ri]
                                vals.append(
                                    1.0 - (1.0 - prev_vals[ci]) * (1.0 - a_val)
                                )
                            cands.append(
                                (tuple(vals), self._merge_witness(prev_wit, red_wit))
                            )
                new_frontier.append(self._prune(cands, signs))
            frontier = new_frontier
        return frontier

    def _pareto_enumerate(self, cores, signs, combined_slice):
        if len(combined_slice) > ENUMERATION_FALLBACK_CAP:
            raise NotInversionFree(
                f"no shared separator and the open slice has {len(combined_slice)} tuples"
            )
        atoms = sorted(
            (self._atom(a) for a in combined_slice), key=self.schema.atom_key
        )
        frontier: list[list] = [[] for _ in range(self.b_max + 1)]
        for size in range(0, min(self.b_max, len(atoms)) + 1):
            for chosen in itertools.combinations(atoms, size):
                view = self.g.pdb.with_added(chosen, self.lam) if chosen else self.g.pdb
                ev = Evaluator(view, plan=self.plan)
                vals = tuple(ev.probability(c).value for c in cores)
                for b in range(size, self.b_max + 1):
                    frontier[b].append((vals, tuple(chosen)))
        return [self._prune(states, signs) for states in frontier]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def mtp_upper_exact(
    g: OpenPDB,
    c: MTPConstraint,
    q: UCQ,
    *,
    budget: int | None = None,
    denominator: str = "herbrand",
) -> BoundResult:
    """Exact upper probability of ``q`` under the mean bound, by dynamic
    programming over the domain; polynomial in domain size and budget for
    inversion-free queries.

    Raises :class:`NotInversionFree` when the query has an inversion and
    :class:`UnsafeQuery` when it cannot be evaluated lifted at all, or
    :class:`CapExceeded` when its lifted plan would be too wide.
    """
    plan = Plan().build(q)
    if not is_inversion_free(q):
        raise NotInversionFree(f"{q} has an inversion")
    derived = budget_from_mtp(g, c, denominator=denominator)
    b_max = derived.max_added if budget is None else budget
    warnings = ("infeasible-constraint",) if derived.infeasible and budget is None else ()
    solver = _BudgetSolver(g, c.relation, b_max, plan)
    vec = solver.bopt(plan.node(q), {})
    value, witness = vec[b_max]
    return BoundResult(
        kind="mtp_exact",
        value=value,
        witness=CompletionChoice(frozenset(witness)),
        complement_log10=None,
        warnings=warnings,
    )
