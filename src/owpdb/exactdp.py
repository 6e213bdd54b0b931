"""Exact budgeted upper bounds for inversion-free queries.

The optimizer is an :class:`owpdb.engine.Evaluator` whose values are budget
vectors: it walks the lifted plan (:class:`owpdb.engine.Plan`) with the
evaluator's walk, memo and rule dispatch, but every node returns an array
over residual budgets 0..B of the best reachable probability together with
a witness completion.  It overrides only the hooks (``conj``, ``disj``,
``_lift``, ``_leaf_value``, ``_group``, ``_separator_product``):

* decompositions into independent factors split the budget by max-convolution
  (their open-tuple slices are disjoint, so allocations are independent);
* a separator variable turns the union into a constant-elimination dynamic
  program: the budget is divided among the domain constants, whose slices
  are again disjoint, folded one by one in domain order (not batched by
  ``power_disj``: in the union fold ``1 - (1 - x)`` need not be ``x``).
  The constants the union does not mention share its fresh child, read as
  one column (:meth:`_BudgetSolver._fresh_column`);
* inclusion-exclusion terms share one slice, so they are optimized jointly.
  A term peels off the factors its slice misses on plan nodes, a conjunct
  by the plan's ``and`` groups, down to a core (:meth:`_BudgetSolver._fold_term`).
  Per budget, a front keeps the vectors of per-core values that no other
  one matches or beats in every core, in its sign's direction, so an
  allocation that looks worse for the running prefix can still win later;
  a shared separator folds its constants into the front by max-convolution.

Queries whose structure defeats all three rules fall back to exhaustive
enumeration of the remaining slice when it is small, and are otherwise
refused with :class:`NotInversionFree` so callers can route to the greedy
bound or the brute-force oracle.

A value no budget moves is a plain float, not ``B + 1`` equal entries,
where it is made (an empty slice, a leaf no tuple helps) and where a float
combined with a vector gives one; that combination is one ``O(B)`` scan.
Open tuples are never listed: a slice is generated lazily in canonical
order (:func:`owpdb.openworld.open_args`); a leaf reads its first ``B``
tuples once per constant, and any other node one tuple to test emptiness.
Witnesses are sorted tuples of domain-index tuples until the result;
max-convolution merges them only for the best split and its exact ties.
Among float-equal values every choice keeps the lexicographically smallest
witness: ``_combine``'s among splits, :func:`_prune`'s among family states.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Iterable, Iterator, Mapping

from .engine import Evaluator, Plan, _Node, _inversion_free
from .errors import NotInversionFree
from .openworld import (
    BoundResult,
    CompletionChoice,
    MTPConstraint,
    OpenPDB,
    apply_completion,
    open_args,
    resolve_budget,
)
from .query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Placeholder,
    UCQ,
    find_separator,
    independence_groups,
    substitute_separator,
)

ENUMERATION_FALLBACK_CAP = 10  # max open tuples enumerated when no rule applies

# A witness: added tuples of the constrained relation as domain-index tuples,
# sorted, which is their canonical atom order.
_Witness = tuple[tuple[int, ...], ...]
# A budget vector: entry b holds (best probability, witness) using at most b
# added tuples; a value no budget moves may be a plain float (see the module doc).
_BVec = tuple[tuple[float, _Witness], ...] | float
# A family state: per-core values and the witness reaching them.
_State = tuple[tuple[float, ...], _Witness]


def _merge(w1: _Witness, w2: _Witness) -> _Witness:
    return tuple(sorted(set(w1).union(w2))) if w1 and w2 else w1 or w2


def _prune(states: Iterable[_State], signs: tuple[int, ...]) -> list[_State]:
    """The one rule that chooses among family states: per vector of values
    the smallest witness, then the vectors that no other vector matches or
    beats in every component, higher for a sign of +1, lower for -1, and
    only an equal value for 0."""
    smallest: dict[tuple[float, ...], _Witness] = {}
    for values, wit in states:
        if values not in smallest or wit < smallest[values]:
            smallest[values] = wit
    at_least = [operator.ge if s > 0 else operator.le if s < 0 else operator.eq for s in signs]

    def dominates(u: tuple[float, ...], v: tuple[float, ...]) -> bool:
        return all(f(a, b) for f, a, b in zip(at_least, u, v))

    kept: list[_State] = []
    for values, wit in sorted(smallest.items()):
        if not any(dominates(kv, values) for kv, _ in kept):
            kept = [(kv, kw) for kv, kw in kept if not dominates(values, kv)] + [(values, wit)]
    return kept


class _BudgetSolver(Evaluator):
    """Budgeted optimization context for one run: an :class:`Evaluator` of
    the base database on the query's plan whose values are budget vectors,
    with the constrained relation, completion probability and maximum budget."""

    def __init__(self, g: OpenPDB, relation: str, b_max: int, plan: Plan):
        super().__init__(g.pdb, plan=plan)
        self.g = g
        self.schema = g.schema
        self.rel = relation
        self.lam = g.lam
        self.b_max = b_max
        self._eval = Evaluator(g.pdb, plan=plan)
        self._open_memo: dict[UCQ, bool] = {}

    # -- helpers -----------------------------------------------------------

    def atom(self, idx: tuple[int, ...]) -> Atom:
        return Atom(self.rel, tuple(self.schema.domain[i] for i in idx))

    def slice_of(self, q: UCQ, env: Mapping[str, Constant]) -> Iterator[tuple[int, ...]]:
        """Open tuples of the constrained relation that can affect ``q``
        under ``env``, as domain-index tuples: each atom's :func:`open_args`
        in turn, lazily (a tuple two atoms share comes twice)."""
        index = self.schema._index.__getitem__
        atoms = (a for d in q.disjuncts for a in d.atoms if a.predicate == self.rel)
        bound = ([env[t.name] if type(t) is Placeholder else t for t in a.args] for a in atoms)
        return (tuple(map(index, args)) for terms in bound for args in open_args(self.db, self.rel, terms))

    def has_open(self, q: UCQ) -> bool:
        """Does ``q``'s slice hold a tuple?  Reads at most its first."""
        cached = self._open_memo.get(q)
        if cached is None:
            cached = self._open_memo[q] = next(self.slice_of(q, {}), None) is not None
        return cached

    def _closed(self, node: _Node, env: Mapping[str, Constant]) -> float:
        """Closed-world probability of ``node`` under ``env``."""
        return self._eval.evaluate(node, env)[0].value

    # -- budget vector combiners --------------------------------------------

    def _combine(self, v1: _BVec, v2: _BVec, mode: str) -> _BVec:
        """Max-convolution of two independent-slice budget vectors; exact
        ties in value go to the smallest merged witness.  A float takes the
        same value at every split, so against a vector it is one prefix scan
        of the vector's splits, whose result is a float again when it is
        equal at every budget with no witness."""
        if type(v1) is not tuple:
            v1, v2 = v2, v1
        if type(v2) is not tuple:
            if type(v1) is not tuple:
                return v1 * v2 if mode == "conj" else 1.0 - (1.0 - v1) * (1.0 - v2)
            f = v2 if mode == "conj" else 1.0 - v2
            splits = [(p * f if mode == "conj" else 1.0 - (1.0 - p) * f, w) for p, w in v1]
            # per budget, the first maximal value so far and the smallest witness of its ties
            out = list(itertools.accumulate(
                splits, lambda a, c: c if c[0] > a[0] else a if c[0] < a[0] else (a[0], min(a[1], c[1]))))
            # a running maximum whose ends are equal is equal throughout
            return out[0][0] if out[-1] == (out[0][0], ()) else tuple(out)
        if mode == "conj":
            p1, p2 = [p for p, _ in v1], [p for p, _ in v2]
        else:
            p1, p2 = [1.0 - p for p, _ in v1], [1.0 - p for p, _ in v2]
        out = []
        for b in range(self.b_max + 1):
            if mode == "conj":
                vals = [p1[k] * p2[b - k] for k in range(b + 1)]
            else:
                vals = [1.0 - p1[k] * p2[b - k] for k in range(b + 1)]
            best = max(vals)
            out.append((best, min(_merge(v1[k][1], v2[b - k][1]) for k in range(b + 1) if vals[k] == best)))
        return tuple(out)

    # -- the evaluator's hooks, over budget vectors ---------------------------

    def conj(self, vecs: Iterable[_BVec]) -> _BVec:
        return functools.reduce(lambda acc, v: self._combine(acc, v, "conj"), vecs)

    def disj(self, vecs: Iterable[_BVec]) -> _BVec:
        return functools.reduce(lambda acc, v: self._combine(acc, v, "disj"), vecs)

    def _lift(self, node: _Node, env: Mapping[str, Constant]) -> _BVec:
        """A leaf reads its slice once (:meth:`_leaf_value`); any other node
        with an empty slice is its closed value, else its plan rule's."""
        if self.plan.expand(node)[0] != "atom" and next(self.slice_of(node.query, env), None) is None:
            return self._closed(node, env)
        return super()._lift(node, env)

    def _leaf_value(self, node: _Node, env: Mapping[str, Constant], base: float | None = None) -> _BVec:
        """A single atom of the constrained relation, of closed value
        ``base`` when given: each added tuple is the next of the first ``B``
        of its slice in canonical order, until none helps; if none does,
        the value is the float ``base``."""
        base = self._closed(node, env) if base is None else base
        out: list[tuple[float, _Witness]] = [(base, ())]
        comp = 1.0 - base
        for t in itertools.islice(self.slice_of(node.query, env), self.b_max):
            if self.lam <= 0.0 or comp <= 0.0:
                break
            comp *= 1.0 - self.lam
            out.append((1.0 - comp, out[-1][1] + (t,)))
        return base if len(out) == 1 else tuple(out + out[-1:] * (self.b_max + 1 - len(out)))

    def _group(self, group: tuple[_Node, ...], env: Mapping[str, Constant]) -> _BVec:
        return self._ie_family(group, env) if len(group) > 1 else self.evaluate(group[0], env)

    def _separator_product(self, node: _Node, env: Mapping[str, Constant]) -> _BVec:
        """The budget divided among the domain constants, folded in domain
        order from zero; their slices are disjoint.  The fresh child's
        values are one column (:meth:`_fresh_column`), made where the first
        of its constants falls and read in domain order."""
        mentioned = self.plan.separator(node, env)
        fresh = [c for c in self.schema.domain if c.name not in mentioned]
        acc, column = 0.0, None
        for const in self.schema.domain:
            child = mentioned.get(const.name)
            if child is None and column is None:
                column = map(self._fresh_column(node.fresh, env, node.arg[4], fresh), range(len(fresh)))
            acc = self._combine(acc, next(column) if child is None else self.evaluate(child, env), "disj")
        return acc

    def _fresh_column(self, node: _Node, env: Mapping[str, Constant], name: str,
                      consts: list[Constant]) -> Callable[[int], _BVec]:
        """The value of ``node`` under ``env`` with placeholder ``name``
        bound to ``consts[i]``, as a map from ``i``.  A shape the evaluator
        batches (:meth:`_Node.batches`, tested after expanding ``node``: a
        core that a family binds is not expanded yet) takes its closed
        values from the closed evaluator's column, asked for only when a
        leaf or an empty slice first reads it, and an ``and`` with a
        nonempty slice conjoins its children's; any other shape goes node by
        node, when its constant is read, so refusals keep their domain
        order."""
        self.plan.expand(node)
        if not node.batches():
            return lambda i: self.evaluate(node, {**env, name: consts[i]})
        closed = functools.cache(lambda: self._eval._evaluate_many(node, env, name, consts)[0][0])
        if self.rel not in node.query.predicates():
            return closed().__getitem__
        if node.rule == "atom":
            return lambda i: self._leaf_value(node, {**env, name: consts[i]}, closed()[i])
        children = [self._fresh_column(child, env, name, consts) for child, in node.arg]

        def value(i: int) -> _BVec:
            if next(self.slice_of(node.query, {**env, name: consts[i]}), None) is None:
                return closed()[i]
            return self.conj(child(i) for child in children)

        return value

    # -- inclusion-exclusion families ---------------------------------------

    def _ie_family(self, group: tuple[_Node, ...], env: Mapping[str, Constant]) -> _BVec:
        """Optimize sum over nonempty subsets s of (-1)^{|s|+1} P(union of s)
        under one shared budget: the plan's signed terms, summed per term and
        bound to concrete unions."""
        weighted: dict[_Node, float] = {}
        for sign, term in self.plan.terms(group):
            weighted[term] = weighted.get(term, 0.0) + sign
        return self._family([(w, t.bound(env)) for t, w in weighted.items() if w != 0.0])

    def _fold_term(self, t: UCQ) -> tuple[float, float, _Node | None]:
        """Express P(t) as alpha + beta * P(core) with beta >= 0 by peeling
        off budget-independent independent factors; core None when constant.
        A union splits into independent groups of its disjuncts before any
        plan rule; a conjunct peels the independent groups of the plan's
        ``and`` rule."""
        alpha, beta = 0.0, 1.0
        node = self.plan.node(t)
        while True:
            if not self.has_open(node.query):
                return alpha + beta * self._closed(node, {}), 0.0, None
            ds = node.query.disjuncts
            if len(ds) > 1:
                groups = [UCQ([d for u in g for d in u.disjuncts]) for g in independence_groups([UCQ([d]) for d in ds])]
                sliced = [u for u in groups if self.has_open(u)] if len(groups) > 1 else []
                if len(sliced) != 1:
                    return alpha, beta, node
                # P = 1 - comp_free * (1 - P(core))
                comp_free = math.prod(1.0 - self._closed(self.plan.node(u), {}) for u in groups if u is not sliced[0])
                alpha += beta * (1.0 - comp_free)
                beta *= comp_free
                node = self.plan.node(sliced[0])
                continue
            rule, groups = self.plan.expand(node)
            sliced = []
            if rule == "and" and len(groups) > 1:
                sliced = [g for g in groups if any(self.has_open(n.query) for n in g)]
            if len(sliced) != 1:
                return alpha, beta, node
            for g in groups:
                if g is not sliced[0]:
                    beta *= self._eval._group(g, {})[0].value
            node = self.plan.node(UCQ([ConjunctiveQuery([a for n in sliced[0] for a in n.query.disjuncts[0].atoms])]))

    def _family(self, terms: list[tuple[float, UCQ]]) -> _BVec:
        """Per budget, the maximum of const + sum(weight * P(term)) over one
        shared completion choice, chosen by :func:`_prune` on the total."""
        const = 0.0
        weights: dict[_Node, float] = {}  # in order of first use
        for w, t in terms:
            a, b, core = self._fold_term(t)
            const += w * a
            if core is not None and w * b != 0.0:
                weights[core] = weights.get(core, 0.0) + w * b
        cores = [c for c, w in weights.items() if w != 0.0]

        if not cores:
            return const

        if len(cores) == 1:
            core, w = cores[0], weights[cores[0]]
            if w <= 0.0:
                return const + w * self._closed(core, {})
            vec = self.evaluate(core, {})
            if type(vec) is not tuple:
                return const + w * vec
            return tuple((const + w * v, wit) for v, wit in vec)

        front = self._pareto(tuple(cores), tuple(1 if weights[c] > 0.0 else -1 for c in cores))
        best = [_prune([((const + sum(weights[c] * v for c, v in zip(cores, values)),), wit) for values, wit in states],
                       (1,)) for states in front]
        return tuple((total, wit) for [((total,), wit)] in best)

    def _pareto(self, cores: tuple[_Node, ...], signs: tuple[int, ...]) -> list[list[_State]]:
        """Per budget: every non-dominated vector of per-core values reachable
        with one shared completion choice.  A shared separator's constants
        fold in domain order: each substituted core is ``alpha + beta *
        P(reduced core)`` (:meth:`_fold_term`), and the reduced cores' front,
        mapped onto the cores, is max-convolved with the running one."""
        sep = find_separator([d.atoms for c in cores for d in c.query.disjuncts])
        if sep is None:
            return self._pareto_enumerate(cores, signs)
        offsets = list(itertools.accumulate((len(c.query.disjuncts) for c in cores), initial=0))
        front = [[((0.0,) * len(cores), ())]] * (self.b_max + 1)
        for const in self.schema.domain:
            folds = [self._fold_term(substitute_separator(core.query, sep[offsets[i]:offsets[i + 1]], const))
                     for i, core in enumerate(cores)]
            reduced = list(dict.fromkeys(red for _, _, red in folds if red is not None))
            # beta >= 0: a reduced core takes the one sign its parents share, else 0
            parents = [{s for s, (_, _, red) in zip(signs, folds) if red is r} for r in reduced]
            sub = [[((), ())]] * (self.b_max + 1)
            if reduced:
                sub = self._pareto(tuple(reduced), tuple(p.pop() if len(p) == 1 else 0 for p in parents))
            mapped = [[(tuple(a if red is None else a + b * vals[reduced.index(red)] for a, b, red in folds), wit)
                       for vals, wit in states] for states in sub]
            front = [_prune([(tuple(1.0 - (1.0 - p) * (1.0 - m) for p, m in zip(pv, mv)), _merge(pw, mw))
                             for k in range(b + 1) for pv, pw in front[b - k] for mv, mw in mapped[k]], signs)
                     for b in range(self.b_max + 1)]
        return front

    def _pareto_enumerate(self, cores: tuple[_Node, ...], signs: tuple[int, ...]) -> list[list[_State]]:
        tuples = sorted({t for c in cores for t in self.slice_of(c.query, {})})
        if len(tuples) > ENUMERATION_FALLBACK_CAP:
            raise NotInversionFree(f"no shared separator and the open slice has {len(tuples)} tuples")
        frontier: list[list[_State]] = [[] for _ in range(self.b_max + 1)]
        for size in range(0, min(self.b_max, len(tuples)) + 1):
            for chosen in itertools.combinations(tuples, size):
                ev = Evaluator(apply_completion(self.g, map(self.atom, chosen)), plan=self.plan)
                vals = tuple(ev.evaluate(c, {})[0].value for c in cores)
                for b in range(size, self.b_max + 1):
                    frontier[b].append((vals, chosen))
        return [_prune(states, signs) for states in frontier]


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
    inversion-free queries.  Each choice among float-equal values keeps the
    lexicographically smallest sorted witness (see the module doc).

    Raises :class:`NotInversionFree` when the query has an inversion and
    :class:`UnsafeQuery` when it cannot be evaluated lifted at all, or
    :class:`CapExceeded` when its lifted plan would be too wide.
    """
    plan = Plan().build(q)
    if not _inversion_free(q):
        raise NotInversionFree(f"{q} has an inversion")
    b_max, warnings = resolve_budget(g, c, budget, denominator)
    solver = _BudgetSolver(g, c.relation, b_max, plan)
    best = solver.evaluate(plan.node(q), {})
    value, witness = (best, ()) if type(best) is not tuple else best[b_max]
    return BoundResult(
        kind="mtp_exact",
        value=value,
        witness=CompletionChoice(frozenset(map(solver.atom, witness))),
        complement_log10=None,
        warnings=warnings,
    )
